"""Vectorized sweeps: plan compilation, both backends, engine parity.

The sweep is a pure whole-network evaluator; its ground truth is the
propagation engine.  Every value column must match what real rounds
produce, the mask must match real accept/reject decisions, and the two
backends must agree to the bit.
"""

import struct

import pytest

from repro.core import (
    CompatibleConstraint,
    EqualityConstraint,
    FormulaConstraint,
    HAVE_NUMPY,
    PropagationContext,
    RangeConstraint,
    ScaleOffsetConstraint,
    SweepError,
    UniAdditionConstraint,
    UniMaximumConstraint,
    UpperBoundConstraint,
    Variable,
    bfs_partition,
    compile_island_sweeps,
    compile_sweep,
    sweep,
)
from repro.stem.implicit import ClassInstVar, InstanceInstVar


def build_fig4_5(context):
    v1 = Variable(7, name="V1", context=context)
    v2 = Variable(7, name="V2", context=context)
    v3 = Variable(5, name="V3", context=context)
    v4 = Variable(7, name="V4", context=context)
    EqualityConstraint(v1, v2)
    UniMaximumConstraint(v4, [v2, v3])
    return v1, v2, v3, v4


class TestEngineParity:
    def test_values_match_real_propagation(self):
        context = PropagationContext()
        v1, v2, v3, v4 = build_fig4_5(context)
        candidates = [0.0, 2.5, 5.0, 6.0, 11.0]
        result = sweep([v1], candidates)

        for index, value in enumerate(candidates):
            assert v1.set(value)
            assert result.values[v1][index] == float(v1.value)
            assert result.values[v2][index] == float(v2.value)
            assert result.values[v4][index] == float(v4.value)

    def test_mask_matches_real_accept_reject(self):
        context = PropagationContext()
        v1, v2, v3, v4 = build_fig4_5(context)
        UpperBoundConstraint(v4, 6)
        candidates = [0.0, 3.0, 6.0, 6.5, 9.0]
        result = sweep([v1], candidates)

        accepted = [bool(v1.set(value)) for value in candidates]
        assert result.mask == accepted
        assert result.satisfied_count == sum(accepted)

    def test_sweep_stores_nothing(self):
        context = PropagationContext()
        v1, v2, v3, v4 = build_fig4_5(context)
        rounds = context.stats.rounds
        sweep([v1], [1.0, 2.0, 3.0])
        assert v1.value == 7 and v4.value == 7
        assert context.stats.rounds == rounds

    def test_constants_are_read_per_run(self):
        context = PropagationContext()
        v1, v2, v3, v4 = build_fig4_5(context)
        plan = compile_sweep([v1])
        assert plan.run([1.0]).values[v4] == [5.0]  # max(1, v3=5)
        assert v3.set(20)
        assert plan.run([1.0]).values[v4] == [20.0]

    def test_multi_input_sweep(self):
        context = PropagationContext()
        a = Variable(1, name="a", context=context)
        b = Variable(2, name="b", context=context)
        total = Variable(3, name="total", context=context)
        UniAdditionConstraint(total, [a, b])
        result = sweep([a, b], [[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
        assert result.values[total] == [11.0, 22.0, 33.0]


class TestCompilation:
    def test_unsupported_constraint_raises(self):
        context = PropagationContext()
        a = Variable(1, name="a", context=context)
        b = Variable(1, name="b", context=context)
        CompatibleConstraint(a, b)
        with pytest.raises(SweepError, match="CompatibleConstraint"):
            compile_sweep([a])

    def test_duplicate_input_raises(self):
        context = PropagationContext()
        a = Variable(1, name="a", context=context)
        with pytest.raises(SweepError, match="duplicate"):
            compile_sweep([a, a])

    def test_empty_inputs_raises(self):
        with pytest.raises(SweepError, match="at least one"):
            compile_sweep([])

    def test_scale_offset_and_range(self):
        context = PropagationContext()
        raw = Variable(0, name="raw", context=context)
        scaled = Variable(0, name="scaled", context=context)
        ScaleOffsetConstraint(scaled, raw, scale=2.0, offset=1.0)
        RangeConstraint(scaled, 3.0, 7.0)
        result = sweep([raw], [0.0, 1.0, 2.0, 3.0, 4.0])
        assert result.values[scaled] == [1.0, 3.0, 5.0, 7.0, 9.0]
        assert result.mask == [False, True, True, True, False]

    def test_formula_constraint_goes_element_wise(self):
        context = PropagationContext()
        x = Variable(0, name="x", context=context)
        y = Variable(0, name="y", context=context)
        FormulaConstraint(y, [x], lambda value: value * value + 1)
        result = sweep([x], [0.0, 2.0, 3.0])
        assert result.values[y] == [1.0, 5.0, 10.0]

    def test_reconvergent_paths_become_a_check(self):
        """Two independent derivations of one variable: the sweep masks
        agreement, exactly as propagation would flag disagreement."""
        context = PropagationContext()
        x = Variable(0, name="x", context=context)
        doubled = Variable(0, name="doubled", context=context)
        ScaleOffsetConstraint(doubled, x, scale=2.0, offset=0.0)
        shifted = Variable(0, name="shifted", context=context)
        ScaleOffsetConstraint(shifted, x, scale=1.0, offset=3.0)
        EqualityConstraint(doubled, shifted)  # 2x == x + 3 only at x=3
        result = sweep([x], [0.0, 3.0, 6.0])
        assert result.mask == [False, True, False]


class TestRunValidation:
    def test_unset_constant_raises_at_run(self):
        context = PropagationContext()
        v1 = Variable(7, name="V1", context=context)
        v3 = Variable(name="V3", context=context)  # no value
        v4 = Variable(7, name="V4", context=context)
        UniMaximumConstraint(v4, [v1, v3])
        plan = compile_sweep([v1])
        with pytest.raises(SweepError, match="has no value"):
            plan.run([1.0])

    def test_non_numeric_candidate_raises(self):
        context = PropagationContext()
        v1, *_ = build_fig4_5(context)
        plan = compile_sweep([v1])
        with pytest.raises(SweepError, match="non-numeric"):
            plan.run(["not-a-number"])

    def test_column_length_mismatch_raises(self):
        context = PropagationContext()
        a = Variable(1, name="a", context=context)
        b = Variable(2, name="b", context=context)
        total = Variable(3, name="total", context=context)
        UniAdditionConstraint(total, [a, b])
        plan = compile_sweep([a, b])
        with pytest.raises(SweepError, match="differ in length"):
            plan.run([[1.0, 2.0], [1.0]])

    def test_unknown_backend_raises(self):
        context = PropagationContext()
        v1, *_ = build_fig4_5(context)
        plan = compile_sweep([v1])
        with pytest.raises(SweepError, match="unknown sweep backend"):
            plan.run([1.0], backend="fortran")

    @pytest.mark.skipif(HAVE_NUMPY, reason="numpy is importable here")
    def test_numpy_backend_without_numpy_raises(self):
        context = PropagationContext()
        v1, *_ = build_fig4_5(context)
        plan = compile_sweep([v1])
        with pytest.raises(SweepError, match="numpy"):
            plan.run([1.0], backend="numpy")

    def test_python_backend_always_works(self):
        context = PropagationContext()
        v1, v2, v3, v4 = build_fig4_5(context)
        result = sweep([v1], [1.0, 9.0], backend="python")
        assert result.backend == "python"
        assert result.values[v4] == [5.0, 9.0]


class TestHierarchyLinks:
    def test_instance_variable_sweeps_through_its_link(self):
        """The implicit link to the class characteristic is inert in its
        checking-only direction — sweeping the instance side works."""
        context = PropagationContext()
        class_var = ClassInstVar(3, name="classVar", context=context)
        instance_var = InstanceInstVar(3, name="instVar", context=context)
        class_var.register_instance_var(instance_var)
        derived = Variable(0, name="derived", context=context)
        ScaleOffsetConstraint(derived, instance_var, scale=2.0, offset=0.0)
        result = sweep([instance_var], [1.0, 2.0])
        assert result.values[derived] == [2.0, 4.0]

    def test_varying_class_characteristic_is_rejected(self):
        """Class-to-instance adoption is procedural; a sweep that would
        need it has no vector form."""
        context = PropagationContext()
        class_var = ClassInstVar(3, name="classVar", context=context)
        instance_var = InstanceInstVar(3, name="instVar", context=context)
        class_var.register_instance_var(instance_var)
        with pytest.raises(SweepError, match="hierarchy link"):
            compile_sweep([class_var])


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy backend not importable")
class TestBackendIdentity:
    def test_backends_bit_equal_on_awkward_floats(self):
        context = PropagationContext()
        v1, v2, v3, v4 = build_fig4_5(context)
        UpperBoundConstraint(v4, 61.875)
        plan = compile_sweep([v1])
        candidates = [value * 0.644 + 0.125 for value in range(101)]

        with_numpy = plan.run(candidates, backend="numpy")
        pure_python = plan.run(candidates, backend="python")
        assert with_numpy.backend == "numpy"
        assert with_numpy.mask == pure_python.mask
        for variable, column in with_numpy.values.items():
            assert struct.pack(f"<{len(column)}d", *column) == \
                   struct.pack(f"<{len(column)}d",
                               *pure_python.values[variable])

    def test_auto_backend_prefers_numpy(self):
        context = PropagationContext()
        v1, *_ = build_fig4_5(context)
        assert compile_sweep([v1]).run([1.0]).backend == "numpy"


class TestIslandSweeps:
    def test_compile_island_sweeps_splits_disjoint_closures(self):
        context = PropagationContext()
        plans_inputs = []
        for index in range(3):
            source = Variable(name=f"s{index}", context=context)
            result = Variable(name=f"r{index}", context=context)
            ScaleOffsetConstraint(result, source, scale=2, offset=index)
            plans_inputs.append((source, result))
        plans = compile_island_sweeps([pair[0] for pair in plans_inputs],
                                      context=context)
        assert len(plans) == 3
        for index, (plan, (source, result)) in enumerate(
                zip(plans, plans_inputs)):
            outcome = plan.run([1.0, 2.0], backend="python")
            assert outcome.values[result] == [2.0 + index, 4.0 + index]

    def test_same_island_inputs_share_one_plan(self):
        context = PropagationContext()
        a = Variable(name="a", context=context)
        b = Variable(name="b", context=context)
        total = Variable(name="total", context=context)
        UniAdditionConstraint(total, [a, b])
        plans = compile_island_sweeps([a, b], context=context)
        assert len(plans) == 1
        outcome = plans[0].run([[1.0, 2.0], [10.0, 20.0]],
                               backend="python")
        assert outcome.values[total] == [11.0, 22.0]

    def test_unlinked_input_compiles_alone(self):
        context = PropagationContext()
        x = Variable(name="x", context=context)
        y = Variable(name="y", context=context)
        rx = Variable(name="rx", context=context)
        ScaleOffsetConstraint(rx, x, scale=3)
        plans = compile_island_sweeps([x, y], context=context)
        assert len(plans) == 2



class TestBfsPartition:
    def test_components_follow_constraint_links(self):
        context = PropagationContext()
        v1, v2, v3, v4 = build_fig4_5(context)
        free = Variable(name="free", context=context)
        x = Variable(name="x", context=context)
        y = Variable(name="y", context=context)
        link = ScaleOffsetConstraint(y, x, scale=2)
        partition = bfs_partition([v1, free, x])
        assert [sorted(v.name for v in group) for group in partition] \
            == [["V1", "V2", "V3", "V4"], ["free"], ["x", "y"]]
        link.remove()
        assert [[v.name for v in group]
                for group in bfs_partition([x, y])] == [["x"], ["y"]]

    def test_each_variable_lands_in_exactly_one_component(self):
        context = PropagationContext()
        v1, v2, v3, v4 = build_fig4_5(context)
        partition = bfs_partition([v4, v3, v2, v1])
        assert len(partition) == 1
        assert partition[0][0] is v4
        assert sorted(id(v) for v in partition[0]) \
            == sorted(id(v) for v in (v1, v2, v3, v4))
