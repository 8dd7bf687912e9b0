"""Ambiguity-set operations: worst case, reference measure, strict monotonicity."""

import numpy as np
import pytest

from drokit.ambiguity import (
    _membership_lp,
    AVaRSet,
    FiniteFamily,
    MomentSet,
    WassersteinBall,
    contains,
    default_reference,
    dominates_all,
    is_strictly_monotone,
    reference_argmax,
    reference_measure,
    robust_expectation,
    sample_measures,
    worst_case,
)
from drokit.lp import GE, LinearProgram, solve
from drokit.rng import Rng
from drokit.spaces import DiscreteMeasure, FiniteSpace, RandomVariable, ValidationError


def two_point_metric_space():
    return FiniteSpace(2, metric=[[0.0, 1.0], [1.0, 0.0]])


def mean_constrained_set():
    """Measures on the grid {0, 0.5, 1} with mean 0.3."""
    grid = FiniteSpace(3, labels=("0", "0.5", "1"))
    return MomentSet(grid, (RandomVariable([0.0, 0.5, 1.0]),), (0.3,))


def test_finite_family_vertex_scan():
    M = FiniteFamily((DiscreteMeasure([1.0, 0.0]), DiscreteMeasure([0.0, 1.0])))
    value, argmax = robust_expectation(M, RandomVariable([3.0, 5.0]))
    assert value == pytest.approx(5.0)
    assert argmax.weights == pytest.approx([0.0, 1.0])


def test_zero_radius_ball_pins_center():
    M = WassersteinBall(DiscreteMeasure([1.0, 0.0]), 0.0, two_point_metric_space())
    value, argmax = robust_expectation(M, RandomVariable([1.0, 9.0]))
    assert value == pytest.approx(1.0, abs=1e-9)
    assert argmax.weights == pytest.approx([1.0, 0.0], abs=1e-9)


def test_moment_set_mean_constraint_endpoints():
    M = mean_constrained_set()
    value, argmax = robust_expectation(M, RandomVariable([0.0, 0.25, 1.0]))
    assert value == pytest.approx(0.3, abs=1e-9)
    assert argmax.weights == pytest.approx([0.7, 0.0, 0.3], abs=1e-9)


def test_moment_set_infeasible_rejected():
    grid = FiniteSpace(2)
    with pytest.raises(ValidationError):
        MomentSet(grid, (RandomVariable([0.0, 1.0]),), (2.0,))


def test_argmax_measure_is_member_and_attains():
    rng = Rng(21)
    space = FiniteSpace(4, metric=np.abs(np.subtract.outer(range(4), range(4))).astype(float))
    sets = [
        FiniteFamily(tuple(DiscreteMeasure(rng.simplex(4)) for _ in range(3))),
        AVaRSet(0.4, DiscreteMeasure(rng.simplex(4))),
        WassersteinBall(DiscreteMeasure(rng.simplex(4)), 0.7, space),
        MomentSet(space, (RandomVariable([0.0, 1.0, 2.0, 3.0]),), (1.4,)),
    ]
    for M in sets:
        for _ in range(10):
            Z = RandomVariable(rng.uniforms(4, -2, 2))
            value, argmax = robust_expectation(M, Z)
            assert float(argmax.weights @ Z.values) == pytest.approx(value, abs=1e-7)
            assert argmax.is_probability
            assert contains(M, argmax)


def test_reference_measure_finite_family():
    M = FiniteFamily((DiscreteMeasure([0.5, 0.5, 0.0]), DiscreteMeasure([0.0, 0.5, 0.5])))
    res = reference_measure(M)
    assert res.mu.weights == pytest.approx([0.5, 0.5, 0.5])
    assert res.normalized.weights == pytest.approx([1 / 3] * 3)


def test_reference_measure_singleton():
    P = DiscreteMeasure([0.2, 0.8])
    res = reference_measure(FiniteFamily((P,)))
    assert res.mu.weights == pytest.approx(P.weights)
    assert res.normalized.weights == pytest.approx(P.weights)


def test_reference_measure_avar_density_cap():
    res = reference_measure(AVaRSet(0.5, DiscreteMeasure.uniform(4)))
    assert res.mu.weights == pytest.approx([0.5] * 4)
    assert res.mu.total_mass == pytest.approx(2.0)
    assert res.normalized.weights == pytest.approx([0.25] * 4)


def test_reference_measure_dominates_and_is_attained():
    rng = Rng(33)
    space = two_point_metric_space()
    sets = [
        FiniteFamily((DiscreteMeasure([0.5, 0.5]), DiscreteMeasure([0.0, 1.0]))),
        AVaRSet(0.5, DiscreteMeasure.uniform(4)),
        WassersteinBall(DiscreteMeasure([0.6, 0.4]), 0.25, space),
    ]
    for M in sets:
        res = reference_measure(M)
        assert dominates_all(res, M, trials=1000, rng=rng)
        for w in range(M.n):
            attained = reference_argmax(M, w)
            assert attained.weights[w] == pytest.approx(res.mu.weights[w], abs=1e-9)
            assert contains(M, attained)


def test_strict_monotonicity_positive_case():
    M = FiniteFamily((DiscreteMeasure([0.5, 0.5]), DiscreteMeasure([0.9, 0.1])))
    res = is_strictly_monotone(M, DiscreteMeasure.uniform(2))
    assert res.strict
    assert res.epsilon == pytest.approx(0.1)
    assert res.witness.weights[res.outcome] == pytest.approx(res.epsilon)


def test_strict_monotonicity_killed_atom():
    M = FiniteFamily((DiscreteMeasure([1.0, 0.0]), DiscreteMeasure([0.0, 1.0])))
    res = is_strictly_monotone(M, DiscreteMeasure.uniform(2))
    assert not res.strict
    assert res.witness.weights[res.outcome] == pytest.approx(0.0, abs=1e-9)


def test_strict_monotonicity_moment_set_fails():
    # measures matching the mean can always vacate some grid point
    M = mean_constrained_set()
    res = is_strictly_monotone(M, DiscreteMeasure.uniform(3))
    assert not res.strict
    assert res.witness.weights[res.outcome] <= 1e-9


def test_avar_strict_monotonicity_boundary():
    # uniform(3): strict iff every p(w) > alpha
    assert is_strictly_monotone(AVaRSet(0.2, DiscreteMeasure.uniform(3)), DiscreteMeasure.uniform(3)).strict
    assert not is_strictly_monotone(AVaRSet(0.5, DiscreteMeasure.uniform(3)), DiscreteMeasure.uniform(3)).strict


def test_sampled_measures_are_members():
    rng = Rng(9)
    space = two_point_metric_space()
    sets = [
        AVaRSet(0.3, DiscreteMeasure([0.4, 0.6])),
        WassersteinBall(DiscreteMeasure([0.5, 0.5]), 0.2, space),
        mean_constrained_set(),
    ]
    for M in sets:
        for q in sample_measures(M, 12, rng):
            assert q.is_probability
            assert contains(M, q)


def test_moment_primal_matches_explicit_dual():
    """Assemble the moment dual LP independently and compare values."""
    rng = Rng(17)
    for _ in range(20):
        n = 3 + rng.randint(4)
        grid = FiniteSpace(n)
        xs = np.sort(rng.uniforms(n, 0.0, 1.0))
        psi = (RandomVariable(xs),)
        feasible_q = rng.simplex(n)
        target = float(feasible_q @ xs)
        M = MomentSet(grid, psi, (target,))
        Z = RandomVariable(rng.uniforms(n, -2.0, 2.0))
        primal, argmax = robust_expectation(M, Z)
        # dual: min l0 + target * l1  s.t.  l0 + l1 * psi(x) >= Z(x) on the grid
        dual = solve(
            LinearProgram(
                c=np.array([1.0, target]),
                A=np.column_stack([np.ones(n), xs]),
                senses=(GE,) * n,
                b=Z.values,
                lb=np.array([-np.inf, -np.inf]),
            )
        )
        assert dual.optimal
        assert dual.value == pytest.approx(primal, abs=1e-7)
        # Richter-Rogosinski: some maximizer supported on <= m + 1 points
        assert int(np.sum(argmax.weights > 1e-9)) <= 2


def test_default_reference():
    avar = AVaRSet(0.5, DiscreteMeasure([0.25, 0.75]))
    assert default_reference(avar).weights == pytest.approx([0.25, 0.75])
    ff = FiniteFamily((DiscreteMeasure([0.5, 0.5, 0.0]), DiscreteMeasure([0.0, 0.5, 0.5])))
    assert default_reference(ff).weights == pytest.approx([1 / 3] * 3)


def test_lipschitz_bound_random_all_types():
    rng = Rng(12)
    space = FiniteSpace(3, metric=[[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    sets = [
        FiniteFamily(tuple(DiscreteMeasure(rng.simplex(3)) for _ in range(2))),
        AVaRSet(0.6, DiscreteMeasure(rng.simplex(3))),
        WassersteinBall(DiscreteMeasure(rng.simplex(3)), 0.5, space),
        MomentSet(space, (RandomVariable([0.0, 1.0, 2.0]),), (1.0,)),
    ]
    for M in sets:
        for _ in range(25):
            z1 = RandomVariable(rng.uniforms(3, -2, 2))
            z2 = RandomVariable(rng.uniforms(3, -2, 2))
            r1, _ = robust_expectation(M, z1)
            r2, _ = robust_expectation(M, z2)
            assert abs(r1 - r2) <= float(np.max(np.abs(z1.values - z2.values))) + 1e-7


def test_worst_case_batch_matches_rows_members_and_lp():
    rng = Rng(44)
    n = 4
    space = FiniteSpace(n, metric=np.abs(np.subtract.outer(range(n), range(n))).astype(float))
    sets = [
        FiniteFamily(tuple(DiscreteMeasure(rng.simplex(n)) for _ in range(3))),
        AVaRSet(0.4, DiscreteMeasure(rng.simplex(n))),
        WassersteinBall(DiscreteMeasure(rng.simplex(n)), 0.7, space),
        MomentSet(space, (RandomVariable([0.0, 1.0, 2.0, 3.0]),), (1.4,)),
    ]
    for M in sets:
        Z = rng.uniforms(3 * 4 * n, -2.0, 2.0).reshape(3, 4, n)
        Z[1, 2] = 0.5  # all outcomes tied
        values, argmax = worst_case(M, Z)
        assert values.shape == (3, 4)
        assert argmax.shape == (3, 4, n)
        for idx in np.ndindex(3, 4):
            row = Z[idx]
            assert values[idx] == pytest.approx(robust_expectation(M, RandomVariable(row))[0], abs=1e-12)
            assert values[idx] == pytest.approx(_membership_lp(M, row, maximize=True)[0], abs=1e-9)
            assert float(argmax[idx] @ row) == pytest.approx(values[idx], abs=1e-9)
            assert contains(M, DiscreteMeasure(argmax[idx]))


def test_worst_case_tie_rules():
    # finite family: the first of the tied members wins
    corners = FiniteFamily(tuple(DiscreteMeasure.point_mass(3, i) for i in range(3)))
    values, argmax = worst_case(corners, np.array([[2.0, 3.0, 3.0], [1.0, 1.0, 1.0]]))
    assert values.tolist() == [3.0, 1.0]
    assert argmax.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    # AVaR: the cap is filled in descending order of Z, lowest index first on ties
    avar = AVaRSet(0.5, DiscreteMeasure.uniform(4))
    values, argmax = worst_case(avar, np.array([[1.0, 3.0, 3.0, 0.0], [1.0, 1.0, 1.0, 1.0]]))
    assert values.tolist() == [3.0, 1.0]
    assert argmax.tolist() == [[0.0, 0.5, 0.5, 0.0], [0.5, 0.5, 0.0, 0.0]]
