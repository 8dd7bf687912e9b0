"""Ambiguity-set operations: worst case, reference measure, strict monotonicity."""

import itertools

import numpy as np
import pytest

import drokit.ambiguity as ambiguity
from drokit.ambiguity import (
    _membership_lp,
    AVaRSet,
    FiniteFamily,
    MomentSet,
    ReferenceMeasureResult,
    WassersteinBall,
    contains,
    default_reference,
    dominates_all,
    is_strictly_monotone,
    reference_argmax,
    reference_measure,
    robust_expectation,
    sample_measures,
    vertices,
    worst_case,
)
from drokit.lp import GE, LinearProgram, solve
from drokit.rng import Rng
from drokit.spaces import DiscreteMeasure, FiniteSpace, RandomVariable, ValidationError
from drokit.verify import _moment_gap, rand_ambiguity_set


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


def test_finite_family_from_an_array_or_from_measures_is_the_same_family():
    rng = Rng(97)
    for trial in range(30):
        n, m = 2 + rng.randint(4), 1 + rng.randint(4)
        W = np.array([rng.simplex(n) for _ in range(m)])
        if trial % 3 == 0:  # solver dust below zero, clipped on both routes
            W[0] = np.eye(n)[0] * (1.0 + 1e-12)
            W[0, 1] = -1e-12
        from_array = FiniteFamily(W)
        from_measures = FiniteFamily(tuple(DiscreteMeasure(w) for w in W))
        assert from_array.weights.tobytes() == from_measures.weights.tobytes()
        assert not from_array.weights.flags.writeable
        Z = rng.uniforms(5 * n, -1.0, 1.0).reshape(5, n)
        for got, want in zip(worst_case(from_array, Z), worst_case(from_measures, Z)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "weights",
    [
        [[1.0, 0.0], [0.0, 0.5, 0.5]],
        (DiscreteMeasure([1.0, 0.0]), DiscreteMeasure([0.0, 0.5, 0.5])),
        [[np.nan, 1.0]],
        [[1.0 + 1e-6, -1e-6]],
        [[0.5, 0.4]],
        np.empty((0, 3)),
        [0.5, 0.5],
    ],
    ids=["ragged", "ragged-measures", "nan", "negative", "mass", "empty", "one-axis"],
)
def test_finite_family_rejects_malformed_weights(weights):
    with pytest.raises(ValidationError):
        FiniteFamily(weights)


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


def dominates_by_loop(result, M, trials, rng):
    """Per-trial reference for ``dominates_all``: one member and one subset
    per trial, compared one at a time."""
    pool = sample_measures(M, max(8, min(trials, 4 * M.n)), rng)
    for _ in range(trials):
        q = pool[rng.randint(len(pool))]
        A = rng.subset(M.n)
        if q.of(A) > result.mu.of(A) + 1e-9:
            return False
    return True


@pytest.mark.parametrize("kind", ["finite_family", "avar", "moment", "wasserstein"])
def test_dominates_all_matches_the_per_trial_loop(kind):
    gen = Rng(71)
    outcomes = []
    for i in range(12):
        M = rand_ambiguity_set(gen, 3 + gen.randint(4), kind)
        res = reference_measure(M)
        if i % 2:  # shrink mu so that dominance can fail
            mu = DiscreteMeasure(res.mu.weights * gen.uniform(0.5, 1.0))
            res = ReferenceMeasureResult(mu=mu, normalized=res.normalized)
        seed, trials = 100 + i, [0, 1, 50, 400][i % 4]
        a, b = Rng(seed), Rng(seed)
        got = dominates_all(res, M, trials, a)
        assert got == dominates_by_loop(res, M, trials, b)
        if got:  # a passing call draws exactly what the loop draws
            assert a.next_u64() == b.next_u64()
        outcomes.append(got)
    assert True in outcomes and False in outcomes


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


def random_ball(rng, n, radius, *, line=False, zero_weights=False):
    """Ball on random points of the plane, or of a coarse grid on the line,
    where coincident points give zero off-diagonal distances."""
    if line:
        pts = np.round(rng.uniforms(n, 0.0, 3.0))
        d = np.abs(np.subtract.outer(pts, pts))
    else:
        pts = rng.uniforms(2 * n, 0.0, 2.0).reshape(n, 2)
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    p = rng.simplex(n)
    if zero_weights:
        p[::2] = 0.0
        p /= p.sum()
    return WassersteinBall(DiscreteMeasure(p), radius, FiniteSpace(n, metric=d))


def assert_ball_oracle_exact(M, Z):
    values, argmax = worst_case(M, Z)
    for z, value, q in zip(Z, values, argmax):
        assert value == pytest.approx(_membership_lp(M, z, maximize=True)[0], abs=1e-9)
        assert float(q @ z) == pytest.approx(value, abs=1e-12)
        assert contains(M, DiscreteMeasure(q))
    return values, argmax


def test_ball_closed_form_matches_membership_lp():
    rng = Rng(71)
    for trial in range(48):
        n = 2 + rng.randint(6)
        M = random_ball(
            rng, n, rng.uniform(0.0, 1.5), line=trial % 3 == 0, zero_weights=trial % 4 == 1
        )
        Z = rng.uniforms(3 * n, -2.0, 2.0).reshape(3, n)
        if trial % 2:
            Z = np.round(2.0 * Z) / 2.0  # ties
        assert_ball_oracle_exact(M, Z)


def test_ball_closed_form_extreme_radii_and_size():
    rng = Rng(73)
    for _ in range(10):
        n = 2 + rng.randint(6)
        Z = rng.uniforms(2 * n, -2.0, 2.0).reshape(2, n)
        Z[1] = np.round(Z[1])
        pinned = random_ball(rng, n, 0.0)
        values, argmax = assert_ball_oracle_exact(pinned, Z)
        assert np.abs(argmax - pinned.center.weights).max() <= 1e-15
        diameter = float(pinned.space.metric.max())
        wide = WassersteinBall(pinned.center, diameter * (1.0 + rng.uniform(0.0, 1.0)), pinned.space)
        values, _ = assert_ball_oracle_exact(wide, Z)
        assert values == pytest.approx(Z.max(axis=1), abs=1e-12)
    big = random_ball(rng, 40, 0.3)
    assert_ball_oracle_exact(big, rng.uniforms(40, -1.0, 1.0).reshape(1, 40))


def random_moment_set(rng, n, *, tied=False, end=None):
    """One-moment set on a random grid; ``end`` puts the target at the
    ``"min"`` or ``"max"`` of ``psi``, otherwise it is the mean of a random
    measure. ``tied`` rounds ``psi`` to a coarse grid."""
    psi = rng.uniforms(n, -1.0, 2.0)
    if tied:
        psi = np.round(2.0 * psi) / 2.0
    if end is not None:
        target = float(getattr(psi, end)())
    else:
        target = float(rng.simplex(n) @ psi)
    return MomentSet(FiniteSpace(n), (RandomVariable(psi),), (target,))


def assert_moment_oracle_exact(M, Z):
    values, argmax = worst_case(M, Z)
    for z, value, q in zip(Z, values, argmax):
        scale = 1e-12 * max(1.0, float(np.abs(z).max()))
        assert abs(value - _membership_lp(M, z, maximize=True)[0]) <= scale
        assert abs(float(q @ z) - value) <= scale
        assert np.count_nonzero(q) <= 2
        assert contains(M, DiscreteMeasure(q))


def test_moment_closed_form_matches_membership_lp():
    rng = Rng(83)
    for trial in range(60):
        n = 2 + rng.randint(9)
        M = random_moment_set(rng, n, tied=trial % 2 == 1, end=(None, "min", "max")[trial % 3])
        Z = rng.uniforms(3 * n, -2.0, 2.0).reshape(3, n)
        if trial % 4 >= 2:
            Z = np.round(2.0 * Z) / 2.0  # ties in Z
        Z[2] = 0.75  # all outcomes tied
        assert_moment_oracle_exact(M, Z)
    for end in (None, "min", "max"):
        M = random_moment_set(rng, 200, end=end)
        assert_moment_oracle_exact(M, rng.uniforms(200, -1.0, 1.0).reshape(1, 200))


def test_moment_closed_form_tie_rule_and_feasibility_margin():
    grid = FiniteSpace(4)
    psi = RandomVariable([0.0, 1.0, 1.0, 2.0])
    # target on a grid point: the first pair in row-major order, (0, 1),
    # already puts all mass on outcome 1, and later ties never replace it
    M = MomentSet(grid, (psi,), (1.0,))
    values, argmax = worst_case(M, np.array([[0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
    assert values.tolist() == [1.0, 0.0]
    assert argmax.tolist() == [[0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    # off the grid: the first largest pair straddling the target
    M = MomentSet(grid, (psi,), (0.5,))
    values, argmax = worst_case(M, np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0]]))
    assert values.tolist() == [0.5, 1.0]
    assert argmax.tolist() == [[0.5, 0.5, 0.0, 0.0], [0.75, 0.0, 0.0, 0.25]]
    # targets within the feasibility margin, 1e-7 max|psi| = 2e-7 here, are
    # clamped into the range
    assert MomentSet(grid, (psi,), (2.0 + 5e-8,)).targets == (2.0,)
    assert MomentSet(grid, (psi,), (-5e-8,)).targets == (0.0,)
    for target in (2.0 + 4e-7, -4e-7):
        with pytest.raises(ValidationError):
            MomentSet(grid, (psi,), (target,))


@pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
def test_one_moment_target_margin_is_relative_to_max_abs_psi(s):
    """The margin is ``FEAS_TOL * max|psi|``: an absolute ``FEAS_TOL`` let
    infeasible targets load at 1e-12 and rejected feasible ones at 1e12."""
    grid = FiniteSpace(2)
    for psi in ([0.0, s], [-s, 0.0]):
        lo, hi = psi
        moment = (RandomVariable(psi),)
        assert MomentSet(grid, moment, (hi + s * 1e-8,)).targets == (hi,)
        assert MomentSet(grid, moment, (lo - s * 1e-8,)).targets == (lo,)
        for target in (hi + s * 1e-6, lo - s * 1e-6):
            with pytest.raises(ValidationError, match="infeasible"):
                MomentSet(grid, moment, (target,))
    with pytest.raises(ValidationError, match="infeasible"):
        MomentSet(grid, (RandomVariable([0.0, 1e-12]),), (5e-10,))


def test_two_moment_set_stays_on_the_lp_and_matches_its_dual():
    rng = Rng(89)
    for _ in range(10):
        n = 4 + rng.randint(4)
        xs = np.sort(rng.uniforms(n, 0.0, 1.0))
        anchor = rng.simplex(n)
        M = MomentSet(
            FiniteSpace(n),
            (RandomVariable(xs), RandomVariable(xs**2)),
            (float(anchor @ xs), float(anchor @ xs**2)),
        )
        Z = rng.uniforms(n, -2.0, 2.0)
        value, argmax = worst_case(M, Z)
        # the oracle runs the LP on Z over its largest magnitude
        scale = float(np.abs(Z).max())
        assert value == scale * _membership_lp(M, Z / scale, maximize=True)[0]
        dual = solve(
            LinearProgram(
                c=np.array([1.0, *M.targets]),
                A=np.column_stack([np.ones(n), xs, xs**2]),
                senses=(GE,) * n,
                b=Z,
                lb=np.full(3, -np.inf),
            )
        )
        assert dual.value == pytest.approx(float(value), abs=1e-9)
        assert float(argmax @ Z) == pytest.approx(float(value), abs=1e-9)
        assert contains(M, DiscreteMeasure(argmax))


def test_ball_and_conditional_paths_solve_no_lp(monkeypatch):
    import sys

    import drokit.lp
    from drokit.composite import RectangularSpec, rectangular_nested
    from drokit.conditional import conditional_robust, has_property_p
    from drokit.spaces import Partition

    calls = []
    original = drokit.lp.solve

    def counting(lp):
        calls.append(lp)
        return original(lp)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "drokit" and getattr(module, "solve", None) is original:
            monkeypatch.setattr(module, "solve", counting)
    rng = Rng(79)
    ball = random_ball(rng, 6, 0.4)
    _membership_lp(ball, np.ones(6), maximize=True)
    assert len(calls) == 1  # the counter sees solves made from drokit modules
    calls.clear()
    G = Partition(6, ((0, 1), (2, 3, 4), (5,)))
    avar = AVaRSet(0.3, ball.center)
    for _ in range(5):
        Z = rng.uniforms(6, -2.0, 2.0)
        worst_case(ball, np.vstack([Z, -Z, np.eye(6)]))
        conditional_robust(ball, RandomVariable(Z), G, ball.center)
        conditional_robust(avar, RandomVariable(Z), G, ball.center)
    assert calls == []
    # one-moment sets: construction, oracle, conditional values and folds
    ends = (None, None, "min", "max")
    moments = [random_moment_set(rng, 6, tied=k == 1, end=ends[k]) for k in range(4)]
    spec = RectangularSpec((FiniteSpace(6),) * 2, tuple(moments[:2]))
    for M in moments:
        Z = rng.uniforms(6, -2.0, 2.0)
        worst_case(M, np.vstack([Z, -Z, np.eye(6)]))
        conditional_robust(M, RandomVariable(Z), G, ball.center)
    rectangular_nested(spec, rng.uniforms(36, -2.0, 2.0))
    assert calls == []
    # property (P) on every family with an exact oracle
    members = tuple(DiscreteMeasure(rng.simplex(6)) for _ in range(3))
    for M in (FiniteFamily(members), avar, ball, *moments):
        has_property_p(M, G)
    assert calls == []


def avar_sort_and_fill(M, Z):
    """The AVaR oracle as ``put_along_axis``, ``take_along_axis`` and
    ``diff(prepend=0)`` over the last axis of ``Z``."""
    order = np.argsort(-Z, axis=-1, kind="stable")
    caps = M.cap * M.reference.weights[order]
    take = np.diff(np.minimum(np.cumsum(caps, axis=-1), 1.0), axis=-1, prepend=0.0)
    argmax = np.empty_like(take)
    np.put_along_axis(argmax, order, take, axis=-1)
    return (take * np.take_along_axis(Z, order, axis=-1)).sum(axis=-1), argmax


def moment_pair_scan(M, Z, chunk):
    """The one-moment oracle with its pair weights rebuilt on every call, in
    blocks of ``a`` and chunks of rows of at most ``chunk`` entries."""
    psi, t = M.psi[0].values, M.targets[0]
    below, above = np.flatnonzero(psi <= t), np.flatnonzero(psi >= t)
    r = Z.shape[0]
    values = np.full(r, -np.inf)
    pair = np.zeros((2, r), dtype=int)
    weight = np.zeros((2, r))
    block = max(1, chunk // above.size)
    for a0 in range(0, below.size, block):
        a = below[a0 : a0 + block]
        span = psi[above] - psi[a, None]
        single = span == 0.0
        span[single] = 1.0
        wa = np.where(single, 1.0, (psi[above] - t) / span).ravel()
        wb = np.where(single, 0.0, (t - psi[a, None]) / span).ravel()
        ia, ib = np.repeat(a, above.size), np.tile(above, a.size)
        step = max(1, chunk // wa.size)
        for lo in range(0, r, step):
            z = Z[lo : lo + step]
            vals = z[:, ia] * wa + z[:, ib] * wb
            k = vals.argmax(axis=1)
            best = vals[np.arange(k.size), k]
            new = best > values[lo : lo + step]
            rows = np.flatnonzero(new) + lo
            values[rows] = best[new]
            k = k[new]
            pair[:, rows] = ia[k], ib[k]
            weight[:, rows] = wa[k], wb[k]
    q = np.zeros_like(Z)
    rows = np.arange(r)
    q[rows, pair[1]] = weight[1]
    q[rows, pair[0]] += weight[0]
    return values, q


def same_bits(got, want):
    return all(
        np.asarray(g).shape == np.asarray(w).shape
        and np.asarray(g, dtype=float).tobytes() == np.asarray(w, dtype=float).tobytes()
        for g, w in zip(got, want)
    )


def test_avar_oracle_gives_the_bits_of_the_sort_and_fill():
    rng = Rng(271)
    for _ in range(60):
        n = 1 + rng.randint(12)
        p = rng.simplex(n)
        p[rng.subset(n)[: n // 3]] = 0.0  # outcomes the reference does not charge
        p = p / p.sum() if p.sum() > 0 else np.full(n, 1.0 / n)
        alpha = (0.0, 0.5, 0.9, rng.uniform(0.0, 0.99))[rng.randint(4)]
        M = AVaRSet(alpha, DiscreteMeasure(p))
        levels = np.array([-1.0, 0.0, 0.5, 1.0])  # ties in every row
        for shape in ((n,), (7, n), (2, 3, n)):
            Z = rng.uniforms(int(np.prod(shape)), -1.0, 1.0).reshape(shape)
            for z in (Z, levels[(np.abs(Z) * 4).astype(int) % 4]):
                assert same_bits(worst_case(M, z), avar_sort_and_fill(M, z))


@pytest.mark.parametrize("chunk", [1 << 16, 7, 1])
def test_one_moment_oracle_gives_the_bits_of_the_per_call_pair_scan(chunk, monkeypatch):
    import drokit.ambiguity as amb

    monkeypatch.setattr(amb, "_CHUNK", chunk)
    rng = Rng(277)
    for _ in range(40):
        n = 2 + rng.randint(9)
        psi = np.round(rng.uniforms(n, -1.0, 1.0), 1)  # repeated grid values
        t = float(psi[rng.randint(n)]) if rng.randint(2) else rng.uniform(psi.min(), psi.max())
        M = MomentSet(FiniteSpace(n), (RandomVariable(psi),), (t,))
        Z = rng.uniforms(23 * n, -1.0, 1.0).reshape(23, n)
        for z in (Z, np.round(Z, 0)):  # ties between pairs
            assert same_bits(worst_case(M, z), moment_pair_scan(M, z, chunk))
    # single-atom pairs psi_a = psi_b = t, several of them
    M = MomentSet(FiniteSpace(5), (RandomVariable([0.5, 0.2, 0.5, 0.9, 0.5]),), (0.5,))
    Z = np.array([[1.0, 2.0, 1.0, 0.0, 3.0], [0.0, 0.0, 0.0, 0.0, 0.0], [4.0, 1.0, 4.0, 1.0, 4.0]])
    values, q = worst_case(M, Z)
    assert same_bits((values, q), moment_pair_scan(M, Z, chunk))
    assert values.tolist() == [3.0, 0.0, 4.0] and q[2].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    # a grid point at -0.0 on a target of 0.0 gives a pair weight of -0.0
    M = MomentSet(FiniteSpace(3), (RandomVariable([-1.0, 0.5, -0.0]),), (0.0,))
    Z = np.array([[0.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
    assert same_bits(worst_case(M, Z), moment_pair_scan(M, Z, chunk))


@pytest.mark.parametrize("chunk", [1 << 16, 7, 1])
def test_worst_case_rows_gives_each_row_the_bits_of_its_own_call(chunk, monkeypatch):
    """Rows of mixed families and sizes, stacked where their sets share a
    family and size, each equal bit for bit to ``worst_case`` on its own,
    with the one-moment stack chunked by row and by pair table."""
    monkeypatch.setattr(ambiguity, "_CHUNK", chunk)
    rng = Rng(281)
    sets, rows = [], []
    for _ in range(80):
        n = 2 + rng.randint(3)
        kind = rng.randint(4)
        if kind == 0:
            M = FiniteFamily(tuple(DiscreteMeasure(rng.simplex(n)) for _ in range(1 + rng.randint(2))))
        elif kind == 1:
            M = AVaRSet((0.0, 0.5, 1.0)[rng.randint(3)], DiscreteMeasure(rng.simplex(n)))
        elif kind == 2:
            psi = np.round(rng.uniforms(n, -1.0, 1.0), 1)
            M = MomentSet(FiniteSpace(n), (RandomVariable(psi),), (float(psi[rng.randint(n)]),))
        else:
            M = rand_ambiguity_set(rng, n, "wasserstein")
        sets.append(M)
        rows.append(np.round(rng.uniforms(n, -1.0, 1.0), rng.randint(2)).tolist())
    got = ambiguity.worst_case_rows(sets, rows)
    assert [v.hex() for v in got.tolist()] == [
        float(worst_case(M, z)[0]).hex() for M, z in zip(sets, rows)
    ]
    assert ambiguity.worst_case_rows([], []).shape == (0,)
    M = AVaRSet(0.5, DiscreteMeasure([0.2, 0.3, 0.5]))
    with pytest.raises(ValidationError, match="one row per"):
        ambiguity.worst_case_rows([M, M], [[0.0, 1.0, 2.0]])
    with pytest.raises(ValidationError, match="different spaces"):
        ambiguity.worst_case_rows([M, M], [[0.0, 1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="finite-valued"):
        ambiguity.worst_case_rows([M, M], [[0.0, 1.0, 2.0], [0.0, np.nan, 1.0]])


def test_one_moment_pair_table_is_built_once_on_first_use():
    M = mean_constrained_set()
    assert "_pairs" not in vars(M)  # nothing is added at construction
    table = M._pairs
    worst_case(M, np.eye(3))
    assert M._pairs is table
    assert [a.tolist() for a in table] == [[0, 0], [1, 2], [0.4, 0.7], [0.6, 0.3]]


def vertex_enumeration_worst_case(M, z):
    """Worst case over a moment set as the best nonnegative solution of the
    square systems on (k + 1)-subsets of the grid; a basic optimal solution
    charges at most k + 1 atoms. Rows are scaled by their largest entry."""
    A = np.vstack([np.ones(M.n)] + [f.values for f in M.psi])
    b = np.array([1.0, *M.targets])
    subsets = np.array(list(itertools.combinations(range(M.n), len(b))))
    B = A[:, subsets].transpose(1, 0, 2)
    scale = np.abs(B).max(axis=2, keepdims=True)
    regular = np.abs(np.linalg.det(B / scale)) > 1e-12
    w = np.linalg.solve(B[regular] / scale[regular], (b / scale[regular][..., 0])[..., None])[..., 0]
    feasible = w.min(axis=1) >= -1e-12
    return float((z[subsets[regular][feasible]] * w[feasible]).sum(axis=1).max())


def test_two_moment_worst_case_in_the_units_of_z():
    """The membership LP has absolute tolerances; the oracle runs it on each
    row over its largest magnitude, so tiny and huge units give the same
    relative accuracy."""
    for scale in (1e-8, 1.0, 1e8):
        rng = Rng(3)
        for _ in range(60):
            psi = [rng.uniforms(8, -1.0, 1.0) for _ in range(2)]
            anchor = rng.simplex(8)
            M = MomentSet(
                FiniteSpace(8),
                tuple(RandomVariable(p) for p in psi),
                tuple(float(anchor @ p) for p in psi),
            )
            z = scale * rng.uniforms(8, -1.0, 1.0)
            value = float(worst_case(M, z)[0])
            assert abs(value - vertex_enumeration_worst_case(M, z)) <= 1e-9 * np.abs(z).max()
    # a zero row stays zero, with a member of the set as its measure
    value, q = worst_case(M, np.zeros(8))
    assert value == 0.0 and contains(M, DiscreteMeasure(q))


@pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e12, 1e100])
def test_one_moment_dual_matches_the_closed_form_in_the_units_of_psi(scale):
    """The dual LP of ``dp_and_moment_duality`` has absolute tolerances; it
    runs on each moment row and target over a power of two near the row's
    largest entry, so scaling ``psi`` and its target together moves neither
    side."""
    rng = Rng(3)
    for i in range(200):
        n = 3 + rng.randint(4)
        M = rand_ambiguity_set(rng, n, "moment")
        Z = RandomVariable(rng.uniforms(n, -1.0, 1.0))
        psi = (RandomVariable(scale * M.psi[0].values),)
        assert _moment_gap(MomentSet(M.support, psi, (scale * M.targets[0],)), Z) <= 1e-7, i


def two_moment_set(rng, n, scale=1.0):
    """Moments ``psi`` and ``psi**2`` of a random measure on a random grid,
    both in units of ``scale``."""
    psi = np.sort(rng.uniforms(n, 0.0, 1.0))
    rows = (scale * psi, scale * psi**2)
    anchor = rng.simplex(n)
    return MomentSet(
        FiniteSpace(n), tuple(map(RandomVariable, rows)), tuple(float(anchor @ r) for r in rows)
    )


def assert_vertices_generate(M, rng, rows=20):
    """Every vertex lies in ``M``, and on random ``Z`` the best vertex is the
    oracle's worst case to ``1e-12 max|Z|``."""
    V = vertices(M)
    assert V.ndim == 2 and V.shape[1] == M.n and not V.flags.writeable
    assert all(contains(M, DiscreteMeasure(v)) for v in V)
    Z = rng.uniforms(rows * M.n, -1.0, 1.0).reshape(rows, M.n)
    assert np.abs((Z @ V.T).max(axis=1) - worst_case(M, Z)[0]).max() <= 1e-12 * np.abs(Z).max()
    return V


def test_vertices_generate_every_family():
    rng = Rng(101)
    for n in range(1, 5):
        for kind in ("finite_family", "avar", "moment", "wasserstein"):
            for _ in range(4):
                assert_vertices_generate(rand_ambiguity_set(rng, n, kind), rng)
        if n >= 3:
            for _ in range(4):
                assert_vertices_generate(two_moment_set(rng, n), rng)


def test_vertices_of_a_finite_family_are_its_weights():
    M = rand_ambiguity_set(Rng(103), 3, "finite_family")
    assert vertices(M) is M.weights


def test_vertices_at_the_ends_of_each_family():
    rng = Rng(107)
    p = DiscreteMeasure([0.5, 0.0, 0.3, 0.2])
    # alpha = 0 is the reference alone; alpha = 1 every outcome it charges
    assert vertices(AVaRSet(0.0, p)).tolist() == [p.weights.tolist()]
    assert vertices(AVaRSet(1.0, p)).tolist() == [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for alpha in (0.0, 1.0):
        assert_vertices_generate(AVaRSet(alpha, p), rng)
    # a one-moment target at an end of psi is the point mass there
    grid, psi = FiniteSpace(4), RandomVariable([0.0, 1.0, 2.0, 3.0])
    for t, end in ((0.0, 0), (3.0, 3)):
        M = MomentSet(grid, (psi,), (t,))
        assert vertices(M).tolist() == [np.eye(4)[end].tolist()]
        assert_vertices_generate(M, rng)
    # a second moment 2 * psi repeats the first: its row is dropped
    M = MomentSet(grid, (psi, RandomVariable(2.0 * psi.values)), (1.5, 3.0))
    assert len(assert_vertices_generate(M, rng)) == 4
    # radius 0 leaves the center alone
    space = FiniteSpace(3, metric=[[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    ball = WassersteinBall(DiscreteMeasure([0.2, 0.3, 0.5]), 0.0, space)
    assert vertices(ball).tolist() == [[0.2, 0.3, 0.5]]
    assert_vertices_generate(ball, rng)


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_vertices_do_not_depend_on_units(scale):
    """Moment functions, metrics and radii in units of 1e-8 or 1e8 give the
    vertices of the same sets in units of one."""
    rng = Rng(109)
    for n in (3, 4):
        seed = rng.randint(1 << 30)
        unit, scaled = two_moment_set(Rng(seed), n), two_moment_set(Rng(seed), n, scale)
        np.testing.assert_allclose(vertices(scaled), vertices(unit), rtol=0, atol=1e-12)
        assert_vertices_generate(scaled, rng)
        ball = rand_ambiguity_set(rng, n, "wasserstein")
        space = FiniteSpace(n, metric=scale * ball.space.metric)
        big = WassersteinBall(ball.center, scale * ball.radius, space)
        np.testing.assert_allclose(vertices(big), vertices(ball), rtol=0, atol=1e-12)
        assert_vertices_generate(big, rng)


def test_vertices_over_the_basis_cap_raise_before_enumerating(monkeypatch):
    def enumerate_bases(*args):
        raise AssertionError("bases enumerated over the cap")

    monkeypatch.setattr(ambiguity.itertools, "combinations", enumerate_bases)
    ball = rand_ambiguity_set(Rng(113), 8, "wasserstein")
    with pytest.raises(ValidationError, match="cap"):
        vertices(ball)


def test_vertices_of_a_set_feasible_only_within_the_lp_tolerance_raise():
    """The target (1, 1 - 1e-9) lies 1e-9 outside the hull of the points
    (psi, psi**2) = (0, 0), (1, 1), (2, 4): the construction's LP accepts it,
    but no basic solution is nonnegative."""
    psi = np.array([0.0, 1.0, 2.0])
    M = MomentSet(FiniteSpace(3), (RandomVariable(psi), RandomVariable(psi**2)), (1.0, 1.0 - 1e-9))
    with pytest.raises(ValidationError, match="no nonnegative basic solution"):
        vertices(M)
