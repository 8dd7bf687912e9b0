"""Measure/partition/tree substrate tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drokit.spaces import (
    DiscreteMeasure,
    Filtration,
    Partition,
    RandomVariable,
    ScenarioTree,
    ValidationError,
    conditional_expectation,
    expectation,
    refines,
    tree_filtration,
)


def test_expectation_uniform_mean():
    Z = RandomVariable([1.0, 2.0, 3.0, 4.0])
    assert expectation(Z, DiscreteMeasure.uniform(4)) == pytest.approx(2.5)


def test_expectation_constant_is_translation_of_zero():
    Q = DiscreteMeasure([0.2, 0.5, 0.3])
    assert expectation(RandomVariable([7.0, 7.0, 7.0]), Q) == pytest.approx(7.0)


def test_expectation_indicator_mass():
    Q = DiscreteMeasure([0.2, 0.5, 0.3])
    assert expectation(RandomVariable([1.0, 0.0, 0.0]), Q) == pytest.approx(0.2)


def test_expectation_rejects_non_probability():
    with pytest.raises(ValidationError):
        expectation(RandomVariable([1.0, 2.0]), DiscreteMeasure([0.5, 0.7]))


def test_conditional_expectation_per_atom_means():
    Z = RandomVariable([1.0, 2.0, 3.0, 4.0])
    G = Partition(4, ((0, 1), (2, 3)))
    out = conditional_expectation(Z, DiscreteMeasure.uniform(4), G)
    assert out == pytest.approx([1.5, 1.5, 3.5, 3.5])


def test_conditional_expectation_trivial_partition():
    Z = RandomVariable([1.0, 2.0, 3.0, 4.0])
    out = conditional_expectation(Z, DiscreteMeasure.uniform(4), Partition.trivial(4))
    assert out == pytest.approx([2.5] * 4)


def test_conditional_expectation_null_atom_is_minus_inf():
    Z = RandomVariable([1.0, 2.0, 3.0, 4.0])
    Q = DiscreteMeasure([0.5, 0.5, 0.0, 0.0])
    out = conditional_expectation(Z, Q, Partition(4, ((0, 1), (2, 3))))
    assert out[0] == pytest.approx(1.5)
    assert out[1] == pytest.approx(1.5)
    assert out[2] == float("-inf") and out[3] == float("-inf")


def test_refines_basic_cases():
    assert refines(Partition.singletons(3), Partition.trivial(3))
    assert not refines(Partition.trivial(3), Partition.singletons(3))
    fine = Partition(3, ((0,), (1, 2)))
    coarse = Partition(3, ((0, 1), (2,)))
    assert not refines(fine, coarse)


def test_partition_validation():
    with pytest.raises(ValidationError):
        Partition(3, ((0, 1),))  # not a cover
    with pytest.raises(ValidationError):
        Partition(3, ((0, 1), (1, 2)))  # overlap


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_tower_property(n, seed):
    """E[ E[Z | fine] | coarse ] equals E[Z | coarse] for positive Q."""
    rnd = np.random.default_rng(seed)
    q = rnd.uniform(0.1, 1.0, size=n)
    Q = DiscreteMeasure(q / q.sum())
    Z = RandomVariable(rnd.uniform(-5, 5, size=n))
    cut = sorted(rnd.choice(range(1, n), size=min(2, n - 1), replace=False))
    bounds = [0] + list(cut) + [n]
    coarse = Partition(n, tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])))
    fine = Partition.singletons(n)
    inner = conditional_expectation(Z, Q, fine)
    outer = conditional_expectation(RandomVariable(inner), Q, coarse)
    direct = conditional_expectation(Z, Q, coarse)
    assert outer == pytest.approx(direct, abs=1e-9)


def test_conditional_translation_equivariance_on_positive_atoms():
    Q = DiscreteMeasure([0.1, 0.2, 0.3, 0.4])
    G = Partition(4, ((0, 1), (2, 3)))
    Z = RandomVariable([1.0, -2.0, 0.5, 3.0])
    Y = G.expand([2.0, -1.0])  # G-measurable shift
    lhs = conditional_expectation(RandomVariable(Z.values + Y), Q, G)
    rhs = conditional_expectation(Z, Q, G) + Y
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_tree_filtration_binary_depth_two():
    tree = ScenarioTree.from_branching([2, 2])
    # nodes are numbered in preorder, leaves listed depth-first
    assert [v.children for v in tree.nodes] == [(1, 4), (2, 3), (), (), (5, 6), (), ()]
    assert tree.leaves == (2, 3, 5, 6)
    filt = tree_filtration(tree)
    assert filt.horizon == 3
    assert filt.stages[0].atoms == ((0, 1, 2, 3),)
    assert filt.stages[1].atoms == ((0, 1), (2, 3))
    assert filt.stages[2].atoms == ((0,), (1,), (2,), (3,))
    assert filt.is_complete


def test_tree_filtration_chain():
    tree = ScenarioTree.from_branching([1, 1, 1])
    filt = tree_filtration(tree)
    assert all(p.atoms == ((0,),) for p in filt.stages)


def test_tree_filtration_ternary():
    tree = ScenarioTree.from_branching([3, 3])
    filt = tree_filtration(tree)
    assert len(tree.leaves) == 9
    assert filt.stages[1].n_atoms == 3
    assert all(len(a) == 3 for a in filt.stages[1].atoms)


def test_filtration_must_refine():
    bad = (Partition.trivial(4), Partition(4, ((0, 1), (2, 3))), Partition(4, ((0, 2), (1, 3))))
    with pytest.raises(ValidationError):
        Filtration(bad)


def test_measure_clips_solver_dust_but_rejects_negatives():
    m = DiscreteMeasure([1.0, -1e-12])
    assert m.weights[1] == 0.0
    with pytest.raises(ValidationError):
        DiscreteMeasure([1.0, -1e-3])
