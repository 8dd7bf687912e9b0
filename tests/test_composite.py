"""Composite functional, rectangular recursion, and induced-set tests."""

import numpy as np
import pytest

from drokit.ambiguity import AVaRSet, FiniteFamily, robust_expectation
from drokit.composite import (
    HistoryDependentSpec,
    RectangularSpec,
    UnreachableAtomError,
    composite_dominates_static,
    composite_functional,
    induced_set,
    nested_tree_value,
    permutation_invariance_check,
    product_family,
    product_filtration,
    rectangular_equivalence_check,
    rectangular_nested,
    static_rectangular,
)
from drokit.rng import Rng
from drokit.spaces import (
    DiscreteMeasure,
    Filtration,
    FiniteSpace,
    Partition,
    RandomVariable,
    ScenarioTree,
)

U4 = DiscreteMeasure.uniform(4)
F4 = Filtration(
    (Partition.trivial(4), Partition(4, ((0, 1), (2, 3))), Partition.singletons(4))
)


def full_simplex(n):
    return FiniteFamily(tuple(DiscreteMeasure.point_mass(n, i) for i in range(n)))


def witness_spec():
    """Two-stage instance with a 0.5 gap between composite and static."""
    m1 = FiniteFamily((DiscreteMeasure([0.5, 0.5]),))
    m2 = FiniteFamily((DiscreteMeasure([1.0, 0.0]), DiscreteMeasure([0.0, 1.0])))
    return RectangularSpec((FiniteSpace(2), FiniteSpace(2)), (m1, m2))


WITNESS_Z = np.array([[1.0, 0.0], [0.0, 1.0]])


def random_family(rng, n, members):
    return FiniteFamily(tuple(DiscreteMeasure(rng.simplex(n)) for _ in range(members)))


def test_two_stage_identity_when_final_stage_complete():
    # with only trivial + singleton stages the composite equals the static
    M = AVaRSet(0.5, U4)
    Z = RandomVariable([1.0, 5.0, 2.0, 7.0])
    F = Filtration((Partition.trivial(4), Partition.singletons(4)))
    static, _ = robust_expectation(M, Z)
    assert composite_functional(M, F, Z, U4) == pytest.approx(static, abs=1e-7)


def test_full_simplex_composite_is_max():
    Z = RandomVariable([1.0, 5.0, 2.0, 7.0])
    assert composite_functional(full_simplex(4), F4, Z, U4) == pytest.approx(7.0)


def test_singleton_set_composite_is_expectation():
    P = DiscreteMeasure([0.1, 0.4, 0.2, 0.3])
    Z = RandomVariable([1.0, -2.0, 3.0, 0.5])
    got = composite_functional(FiniteFamily((P,)), F4, Z, P)
    assert got == pytest.approx(float(P.weights @ Z.values), abs=1e-9)


def test_unreachable_atom_aborts():
    M = FiniteFamily((DiscreteMeasure([0.5, 0.5, 0.0, 0.0]),))
    with pytest.raises(UnreachableAtomError):
        composite_functional(M, F4, RandomVariable([1.0, 2.0, 3.0, 4.0]), U4)


def test_composite_dominates_static_randomized():
    rng = Rng(51)
    for _ in range(30):
        M = random_family(rng, 4, 2 + rng.randint(3))
        Z = RandomVariable(rng.uniforms(4, -3, 3))
        chk = composite_dominates_static(M, F4, Z, U4)
        assert chk.holds


def test_composite_gap_witness_strict():
    spec = witness_spec()
    family = product_family(spec)
    filt = product_filtration(spec)
    flat = RandomVariable(WITNESS_Z.reshape(-1))
    chk = composite_dominates_static(family, filt, flat, U4)
    assert chk.holds
    assert chk.composite_value - chk.static_value >= 1e-3
    assert chk.composite_value == pytest.approx(1.0)
    assert chk.static_value == pytest.approx(0.5)


def test_rectangular_nested_full_simplex_stages():
    spec = RectangularSpec(
        (FiniteSpace(2), FiniteSpace(2)), (full_simplex(2), full_simplex(2))
    )
    Z = np.array([[0.3, -1.0], [2.0, 0.7]])
    res = rectangular_nested(spec, Z)
    assert res.value == pytest.approx(2.0)


def test_rectangular_nested_avar_stages_closed_form():
    # AVaR marginals fold stagewise: inner AVaR over columns, then outer AVaR
    u2 = DiscreteMeasure.uniform(2)
    spec = RectangularSpec(
        (FiniteSpace(2), FiniteSpace(2)), (AVaRSet(0.5, u2), AVaRSet(0.5, u2))
    )
    Z = np.array([[1.0, 2.0], [3.0, 4.0]])
    res = rectangular_nested(spec, Z)
    # level 0.5 on two equally likely points takes the max
    assert res.tables[1] == pytest.approx([2.0, 4.0], abs=1e-9)
    assert res.value == pytest.approx(4.0, abs=1e-9)


def test_rectangular_single_stage_is_static():
    rng = Rng(57)
    M = random_family(rng, 3, 3)
    spec = RectangularSpec((FiniteSpace(3),), (M,))
    Z = rng.uniforms(3, -2, 2)
    static, _ = robust_expectation(M, RandomVariable(Z))
    assert rectangular_nested(spec, Z).value == pytest.approx(static)


def test_rectangular_equivalence_randomized():
    rng = Rng(61)
    for _ in range(25):
        T = 2 + rng.randint(2)
        sizes = [2 + rng.randint(2) for _ in range(T)]
        spec = RectangularSpec(
            tuple(FiniteSpace(s) for s in sizes),
            tuple(random_family(rng, s, 1 + rng.randint(3)) for s in sizes),
        )
        Z = rng.uniforms(int(np.prod(sizes)), -2, 2)
        chk = rectangular_equivalence_check(spec, Z)
        assert chk.agree, (chk.nested_value, chk.composite_value)


def test_nested_with_singleton_stages_is_product_expectation():
    rng = Rng(63)
    sizes = (2, 3)
    ps = [DiscreteMeasure(rng.simplex(s)) for s in sizes]
    spec = RectangularSpec(
        tuple(FiniteSpace(s) for s in sizes),
        tuple(FiniteFamily((p,)) for p in ps),
    )
    Z = rng.uniforms(6, -2, 2).reshape(sizes)
    want = float(ps[0].weights @ Z.reshape(sizes) @ ps[1].weights)
    assert rectangular_nested(spec, Z).value == pytest.approx(want, abs=1e-12)


def test_static_rectangular_full_simplex_is_max_scenario():
    spec = RectangularSpec(
        (FiniteSpace(2), FiniteSpace(2)), (full_simplex(2), full_simplex(2))
    )
    Z = np.array([[0.3, -1.0], [2.0, 0.7]])
    res = static_rectangular(spec, Z)
    assert res.exact
    assert res.value == pytest.approx(2.0)


def test_static_rectangular_heuristic_flagged():
    u2 = DiscreteMeasure.uniform(2)
    spec = RectangularSpec(
        (FiniteSpace(2), FiniteSpace(2)), (AVaRSet(0.5, u2), AVaRSet(0.5, u2))
    )
    Z = np.array([[1.0, 2.0], [3.0, 4.0]])
    res = static_rectangular(spec, Z, rng=Rng(0))
    assert not res.exact
    # worst product measure concentrates on the (1, 1) scenario
    assert res.value == pytest.approx(4.0, abs=1e-7)


def test_permutation_invariance_and_order_sensitivity():
    spec = witness_spec()
    chk = permutation_invariance_check(spec, WITNESS_Z, [(0, 1), (1, 0)])
    assert chk.static_invariant
    assert chk.nested_changed
    assert chk.max_nested_change >= 1e-3
    assert chk.nested_values[0] == pytest.approx(1.0)
    assert chk.nested_values[1] == pytest.approx(0.5)


def test_permutation_symmetric_z_keeps_nested():
    rng = Rng(71)
    M = random_family(rng, 2, 2)
    spec = RectangularSpec((FiniteSpace(2), FiniteSpace(2)), (M, M))
    Z = np.array([[0.0, 1.0], [1.0, 0.4]])
    Zs = 0.5 * (Z + Z.T)  # symmetric objective with identical stages
    chk = permutation_invariance_check(spec, Zs, [(0, 1), (1, 0)])
    assert chk.static_invariant
    assert not chk.nested_changed


def test_induced_set_counts_and_dedup():
    rng = Rng(73)
    fam1 = random_family(rng, 2, 2)
    fam2 = random_family(rng, 3, 3)
    spec = RectangularSpec((FiniteSpace(2), FiniteSpace(3)), (fam1, fam2))
    ind = induced_set(spec)
    assert ind.pre_dedup_count == 2 * 3**2
    assert len(ind.measures) <= ind.pre_dedup_count
    # constant selectors are exactly the plain products
    products = product_family(spec)
    for q in products.measures:
        assert any(
            np.allclose(q.weights, m.weights, atol=1e-12) for m in ind.measures
        )


def test_induced_set_single_second_family_collapses():
    rng = Rng(79)
    fam1 = random_family(rng, 2, 2)
    fam2 = random_family(rng, 2, 1)
    spec = RectangularSpec((FiniteSpace(2), FiniteSpace(2)), (fam1, fam2))
    ind = induced_set(spec)
    assert ind.pre_dedup_count == 2
    assert len(ind.measures) == len(product_family(spec).measures)


def test_induced_set_max_equals_composite():
    rng = Rng(83)
    for _ in range(15):
        n1, n2 = 2 + rng.randint(2), 2 + rng.randint(2)
        spec = RectangularSpec(
            (FiniteSpace(n1), FiniteSpace(n2)),
            (random_family(rng, n1, 1 + rng.randint(2)), random_family(rng, n2, 1 + rng.randint(3))),
        )
        Z = rng.uniforms(n1 * n2, -2, 2)
        ind = induced_set(spec)
        best = max(float(q.weights @ Z) for q in ind.measures)
        nested = rectangular_nested(spec, Z).value
        assert best == pytest.approx(nested, abs=1e-9)
        family1_best = max(
            float(q.weights @ Z) for q in product_family(spec).measures
        )
        static = static_rectangular(spec, Z).value
        assert family1_best == pytest.approx(static, abs=1e-9)
        assert family1_best <= best + 1e-9


def test_induced_set_cap():
    rng = Rng(89)
    fam = random_family(rng, 6, 6)
    spec = RectangularSpec((FiniteSpace(6), FiniteSpace(6)), (fam, fam))
    with pytest.raises(Exception):
        induced_set(spec, cap=10)


def test_history_dependent_tree_value():
    tree = ScenarioTree.from_branching([2, 2])
    root = tree.root.index
    kids = tree.nodes[root].children
    sets = {
        root: FiniteFamily((DiscreteMeasure([0.5, 0.5]),)),
        kids[0]: FiniteFamily((DiscreteMeasure([1.0, 0.0]), DiscreteMeasure([0.0, 1.0]))),
        kids[1]: FiniteFamily((DiscreteMeasure([1.0, 0.0]),)),
    }
    spec = HistoryDependentSpec(tree, sets)
    value, node_values = nested_tree_value(spec, [1.0, 0.0, 0.0, 1.0])
    # left node takes max(1, 0) = 1; right node is pinned to its first child 0
    assert node_values[kids[0]] == pytest.approx(1.0)
    assert node_values[kids[1]] == pytest.approx(0.0)
    assert value == pytest.approx(0.5)


def test_deep_chain_loads_and_folds():
    tree = ScenarioTree.from_branching([1] * 9999)
    assert len(tree.nodes) == 10_000
    assert tree.leaves == (9999,)
    certain = FiniteFamily((DiscreteMeasure([1.0]),))
    spec = HistoryDependentSpec(tree, {v.index: certain for v in tree.nodes if v.children})
    value, node_values = nested_tree_value(spec, [0.7])
    assert value == 0.7
    assert len(node_values) == 10_000


def test_example_mean_moment_endpoints_make_gap_vanish():
    """Convex second-stage objectives with a mean-constrained second stage
    put the worst measure on the grid endpoints independently of stage one,
    so composite and static coincide."""
    from drokit.ambiguity import MomentSet

    rng = Rng(97)
    grid_pts = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    grid = FiniteSpace(5)
    M2 = MomentSet(grid, (RandomVariable(grid_pts),), (0.4,))
    fam1 = random_family(rng, 3, 2)
    spec = RectangularSpec((FiniteSpace(3), grid), (fam1, M2))
    for _ in range(5):
        a = rng.uniforms(3, 0.5, 2.0)
        b = rng.uniforms(3, -1.0, 1.0)
        # Z(x1, x2) = a(x1) * (x2 - b(x1))^2, convex in the grid coordinate
        Z = np.array([[a[i] * (x - b[i]) ** 2 for x in grid_pts] for i in range(3)])
        nested = rectangular_nested(spec, Z).value
        static = static_rectangular(spec, Z, rng=rng).value
        assert nested == pytest.approx(static, abs=1e-6)
        # and the stage-2 maximizer sits on the endpoints
        for i in range(3):
            _, argmax = robust_expectation(M2, RandomVariable(Z[i]))
            assert argmax.weights[1:4] == pytest.approx([0.0] * 3, abs=1e-8)
