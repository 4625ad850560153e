"""The benchmark's correctness oracle: plain-Python expectations.

Nothing here imports ``repro``.  Each workload model (``workloads.py``)
computes the expected answer of every request it generates from its own
copy of the design state; the helpers below compare an answer with that
expectation and raise :class:`OracleMismatch` on any difference.  One
mismatch fails the run.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional


class OracleMismatch(AssertionError):
    """A server answer differs from what the oracle computed."""


class Tally:
    """How many comparisons the oracle made (the smoke test asserts >0)."""

    def __init__(self) -> None:
        self.checks = 0

    def equal(self, what: str, got: Any, want: Any) -> None:
        self.checks += 1
        if not same(got, want):
            raise OracleMismatch(f"{what}: server said {got!r}, "
                                 f"oracle expects {want!r}")

    def rejected(self, what: str, error_kind: Optional[str],
                 want_rejected: bool) -> None:
        """A write must be refused with ``violation`` exactly when the
        oracle predicts a constraint violation."""
        self.checks += 1
        if want_rejected and error_kind != "violation":
            raise OracleMismatch(f"{what}: expected a violation, server "
                                 f"answered {error_kind or 'ok'}")
        if not want_rejected and error_kind is not None:
            raise OracleMismatch(f"{what}: expected acceptance, server "
                                 f"answered {error_kind}")

    def entries(self, what: str, got: Iterable[Mapping[str, Any]],
                want: Iterable[Mapping[str, Any]]) -> None:
        """Per-entry echoes: every expected key must match."""
        got_list, want_list = list(got), list(want)
        self.equal(f"{what} entry count", len(got_list), len(want_list))
        for index, (entry, expected) in enumerate(zip(got_list, want_list)):
            for key, value in expected.items():
                self.equal(f"{what} entry {index} {key}", entry.get(key),
                           value)

    def identical(self, what: str, got: Mapping[str, Any],
                  want: Mapping[str, Any]) -> None:
        """Exact equality of two session fingerprints."""
        self.checks += 1
        if got != want:
            raise OracleMismatch(f"{what} differs from the acknowledged "
                                 f"one at {first_difference(got, want)}")

    def values(self, what: str, fingerprint_vars: Mapping[str, Any],
               want: Mapping[str, Any]) -> None:
        """Every oracle-tracked address in a fingerprint's variables."""
        for address, value in want.items():
            entry = fingerprint_vars.get(address)
            if entry is None:
                raise OracleMismatch(f"{what}: {address} missing from the "
                                     f"fingerprint")
            self.equal(f"{what} {address}", entry.get("value"), value)


def same(got: Any, want: Any) -> bool:
    """Value equality as the protocol carries it: ``3 == 3.0``, but a
    bool is never a number and containers compare element-wise."""
    if isinstance(want, bool) or isinstance(got, bool):
        return type(got) is type(want) and got == want
    if isinstance(want, (int, float)):
        return isinstance(got, (int, float)) and got == want
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            same(got[key], want[key]) for key in want)
    if isinstance(want, (list, tuple)):
        return isinstance(got, (list, tuple)) and len(got) == len(want) \
            and all(same(a, b) for a, b in zip(got, want))
    return got == want


def first_difference(got: Any, want: Any) -> str:
    """Path and values of the first difference between two JSON trees."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                inner = first_difference(got.get(key), want.get(key))
                return f"{key}.{inner}"
    return f"{got!r} != {want!r}"
