"""The observability hub — one installable object, three instruments.

The engine's hot loop must stay oblivious to *what* is being measured:
it checks a single ``context.observer`` attribute (the same discipline
as the tracer) and, when one is installed, reports raw events — round
boundaries, dispatch timings, queue depths, agenda traffic, violations.
The :class:`Observer` fans each event out to whichever instruments it
carries:

* a :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  fixed-bucket histograms),
* a :class:`~repro.obs.spans.SpanRecorder` (Chrome-trace timelines),
* a :class:`~repro.obs.profiler.HotConstraintProfiler` (top-N
  constraints by cumulative dispatch time).

Install/uninstall is exception-safe and nestable: installing saves the
previously installed observer and uninstalling restores it, even when a
propagation round raises inside a ``with`` block.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Iterator, Optional

from .metrics import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS_US,
    MetricsRegistry,
    QUEUE_BUCKETS,
)
from .profiler import HotConstraintProfiler, describe
from .spans import SpanRecorder

__all__ = ["Observer", "observe"]

_UNINSTALLED = object()  # sentinel: "no saved previous observer"


class Observer:
    """Event fan-out from one propagation context to its instruments.

    Parameters
    ----------
    context:
        The :class:`~repro.core.engine.PropagationContext` to observe.
    metrics, spans, profiler:
        The instruments to feed; each may be ``None`` to skip that kind
        of measurement (a metrics-only observer is the cheapest).
    """

    def __init__(self, context: Any, *,
                 metrics: Optional[MetricsRegistry] = None,
                 spans: Optional[SpanRecorder] = None,
                 profiler: Optional[HotConstraintProfiler] = None) -> None:
        self.context = context
        self.metrics = metrics
        self.spans = spans
        self.profiler = profiler
        self._previous: Any = _UNINSTALLED
        self._previous_scheduler: Any = _UNINSTALLED
        self._round_t0: Optional[float] = None
        self._round_kind = ""
        self._round_subject = ""
        self._round_max_depth = 0

    # -- convenience constructors ------------------------------------------

    @classmethod
    def full(cls, context: Any) -> "Observer":
        """An observer with all three instruments attached."""
        return cls(context, metrics=MetricsRegistry(), spans=SpanRecorder(),
                   profiler=HotConstraintProfiler())

    @classmethod
    def metrics_only(cls, context: Any) -> "Observer":
        return cls(context, metrics=MetricsRegistry())

    # -- lifecycle ----------------------------------------------------------

    @property
    def installed(self) -> bool:
        return self._previous is not _UNINSTALLED

    def install(self) -> "Observer":
        if not self.installed:
            self._previous = getattr(self.context, "observer", None)
            self.context.observer = self
            scheduler = getattr(self.context, "scheduler", None)
            if scheduler is not None:
                self._previous_scheduler = getattr(scheduler, "observer", None)
                scheduler.observer = self
        return self

    def uninstall(self) -> None:
        if not self.installed:
            return
        if getattr(self.context, "observer", None) is self:
            self.context.observer = self._previous
        scheduler = getattr(self.context, "scheduler", None)
        if (scheduler is not None
                and self._previous_scheduler is not _UNINSTALLED
                and getattr(scheduler, "observer", None) is self):
            scheduler.observer = self._previous_scheduler
        self._previous = _UNINSTALLED
        self._previous_scheduler = _UNINSTALLED

    def __enter__(self) -> "Observer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- round boundaries (engine entry points) -----------------------------

    def round_started(self, kind: str, subject: Any) -> None:
        self._round_t0 = perf_counter()
        self._round_kind = kind
        self._round_subject = describe(subject) if subject is not None else ""
        self._round_max_depth = 0
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(f"engine.rounds.{kind}").inc()

    def round_finished(self, outcome: str) -> None:
        t0 = self._round_t0
        if t0 is None:
            return  # observer installed mid-round: nothing to close
        t1 = perf_counter()
        self._round_t0 = None
        latency_us = (t1 - t0) * 1e6
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(f"engine.round_outcomes.{outcome}").inc()
            metrics.histogram("engine.round_latency_us",
                              LATENCY_BUCKETS_US).observe(latency_us)
            metrics.gauge("engine.last_round_latency_us").set(latency_us)
            if self._round_max_depth:
                metrics.histogram("engine.wavefront_depth",
                                  DEPTH_BUCKETS).observe(self._round_max_depth)
        spans = self.spans
        if spans is not None:
            spans.add_complete(f"round:{self._round_kind}", "round", t0, t1,
                               subject=self._round_subject, outcome=outcome,
                               max_queue_depth=self._round_max_depth)

    def batch_submitted(self, size: int, coalesced: int) -> None:
        """A batched round was submitted: ``size`` requested entries, of
        which ``coalesced`` were superseded by later same-variable
        writes before seeding."""
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("engine.batch.rounds").inc()
            metrics.counter("engine.batch.entries").inc(size)
            metrics.counter("engine.batch.coalesced").inc(coalesced)
            metrics.gauge("engine.batch.last_size").set(size)
        if self.spans is not None:
            self.spans.instant("batch", "round", entries=size,
                               coalesced=coalesced)

    # -- the dispatch site ---------------------------------------------------

    def activation(self, constraint: Any, variable: Any,
                   t0: float, t1: float, depth: int) -> None:
        """An eager ``propagate_variable`` dispatch took ``t1 - t0``."""
        if depth > self._round_max_depth:
            self._round_max_depth = depth
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("engine.activations.total").inc()
            metrics.counter(
                f"engine.activations.by_type.{type(constraint).__name__}"
            ).inc()
            metrics.histogram("engine.activation_latency_us",
                              LATENCY_BUCKETS_US).observe((t1 - t0) * 1e6)
        if self.profiler is not None:
            self.profiler.record_activation(constraint, t1 - t0)

    def inference(self, constraint: Any, variable: Any,
                  t0: float, t1: float) -> None:
        """A scheduled ``propagate_scheduled`` run took ``t1 - t0``."""
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("engine.inference_runs").inc()
            metrics.counter(
                f"engine.inferences.by_type.{type(constraint).__name__}"
            ).inc()
        if self.profiler is not None:
            self.profiler.record_inference(constraint, t1 - t0)
        if self.spans is not None:
            self.spans.add_complete("infer", "inference", t0, t1,
                                    constraint=describe(constraint))

    # -- agenda traffic -------------------------------------------------------

    def scheduled(self, constraint: Any, agenda: str) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(f"engine.scheduled.{agenda}").inc()

    def agenda_enqueued(self, agenda: str, depth: int) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(f"agenda.enqueued.{agenda}").inc()
            metrics.histogram(f"agenda.queue_length.{agenda}",
                              QUEUE_BUCKETS).observe(depth)

    def agenda_popped(self, agenda: str, depth: int) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(f"agenda.popped.{agenda}").inc()

    # -- failure paths --------------------------------------------------------

    def violation(self, signal: Any) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("engine.violations").inc()
        if self.spans is not None:
            self.spans.instant("violation", "round",
                               reason=getattr(signal, "reason", ""))

    def budget_exceeded(self, steps: int, elapsed: float) -> None:
        """The propagation watchdog aborted a runaway round."""
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("engine.budget.aborts").inc()
            metrics.gauge("engine.budget.last_steps").set(steps)
            metrics.gauge("engine.budget.last_elapsed_us").set(
                elapsed * 1e6)
        if self.spans is not None:
            self.spans.instant("budget-exceeded", "round", steps=steps,
                               elapsed_us=elapsed * 1e6)

    def restored(self, count: int, cause: str) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("engine.restores").inc()
            metrics.counter("engine.restored_variables").inc(count)
        if self.spans is not None:
            self.spans.instant("restore", "round", variables=count,
                               cause=cause)

    # -- hierarchy crossings (stem/implicit.py) -------------------------------

    def cross_level(self, kind: str) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(f"hierarchy.cross_level.{kind}").inc()

    def hierarchy_span(self, variable: Any, changed: Any):
        """Span context for one implicit-constraint inference."""
        self.cross_level("inferences")
        spans = self.spans
        if spans is None:
            return nullcontext()
        return spans.span("cross-level", "hierarchy",
                          variable=describe(variable),
                          changed=describe(changed))

    # -- plan cache (core/plancache.py) ---------------------------------------

    def plan_event(self, kind: str, count: int = 1) -> None:
        """One plan-cache event: ``hit`` / ``miss`` / ``deopt`` /
        ``promotion`` / ``invalidation`` / ``unplannable``."""
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(f"plan.{kind}").inc(count)

    def plan_span(self, kind: str, **args: Any):
        """Span context for a plan-cache replay or promotion."""
        self.plan_event(kind)
        spans = self.spans
        if spans is None:
            return nullcontext()
        return spans.span(kind, "plan", **args)

    # -- computation spaces (repro/spaces) -------------------------------------

    def space_event(self, kind: str, count: int = 1) -> None:
        """One computation-space lifecycle event: ``clone`` / ``fork`` /
        ``commit`` / ``discard`` / ``prune``."""
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(f"engine.space.{kind}").inc(count)

    def space_depth(self, kind: str, depth: int) -> None:
        """Current nesting (``nest``) or prune (``prune``) depth."""
        metrics = self.metrics
        if metrics is not None:
            metrics.gauge(f"engine.space.{kind}_depth").set(depth)

    # -- compiler passes (core/compile.py) ------------------------------------

    def compile_span(self, kind: str, **args: Any):
        """Span context for a compile pass or compiled write-back."""
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(f"compile.{kind}").inc()
        spans = self.spans
        if spans is None:
            return nullcontext()
        return spans.span(kind, "compile", **args)

    # -- durable sessions (repro/session) --------------------------------------

    def journal_appended(self, nbytes: int) -> None:
        """One write-ahead journal entry reached the journal."""
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("session.journal.appends").inc()
            metrics.counter("session.journal.bytes").inc(nbytes)

    def journal_rotated(self, segment: str) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("session.journal.rotations").inc()
        if self.spans is not None:
            self.spans.instant("journal-rotate", "session", segment=segment)

    def journal_degraded(self, message: str) -> None:
        """The journal hit a persistent disk error and froze read-only.

        Fleets alert on this counter: a degraded session keeps serving
        reads but refuses every mutation until it is evacuated.
        """
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("session.journal.degraded").inc()
        if self.spans is not None:
            self.spans.instant("journal-degraded", "session",
                               error=message)

    def session_op(self, kind: str) -> None:
        """One session operation was journaled (or counted, for
        ``unjournaled-assign``/``violation``/``rebuild`` events)."""
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(f"session.ops.{kind}").inc()

    def session_checkpoint(self, seconds: float) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("session.checkpoints").inc()
            metrics.histogram("session.checkpoint_ms").observe(
                seconds * 1000.0)
        if self.spans is not None:
            self.spans.instant("checkpoint", "session",
                               ms=round(seconds * 1000.0, 3))

    def session_replayed(self, entries: int, seconds: float) -> None:
        """Recovery replayed ``entries`` journal entries."""
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("session.replayed_entries").inc(entries)
            metrics.histogram("session.replay_ms").observe(seconds * 1000.0)

    def __repr__(self) -> str:
        parts = [name for name, inst in (("metrics", self.metrics),
                                         ("spans", self.spans),
                                         ("profiler", self.profiler))
                 if inst is not None]
        state = "installed" if self.installed else "detached"
        return f"Observer({'+'.join(parts) or 'empty'}, {state})"


@contextmanager
def observe(context: Any, *, metrics: bool = True, spans: bool = False,
            profiler: bool = False) -> Iterator[Observer]:
    """Context manager: observe ``context`` for the duration of the block.

    ::

        with observe(default_context(), spans=True) as obs:
            variable.set(9)
        print(obs.metrics.snapshot())
    """
    observer = Observer(
        context,
        metrics=MetricsRegistry() if metrics else None,
        spans=SpanRecorder() if spans else None,
        profiler=HotConstraintProfiler() if profiler else None)
    observer.install()
    try:
        yield observer
    finally:
        observer.uninstall()
