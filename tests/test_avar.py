"""AVaR primal/dual agreement and axiom batteries."""

import numpy as np
import pytest

from drokit.ambiguity import (
    AVaRSet,
    FiniteFamily,
    WassersteinBall,
    _membership_lp,
    contains,
    worst_case,
)
from drokit import avar
from drokit.avar import avar_dual, avar_primal, check_axioms
from drokit.rng import Rng
from drokit.spaces import DiscreteMeasure, FiniteSpace, RandomVariable, ValidationError
from drokit.verify import SET_KINDS, rand_ambiguity_set


def tau_grid_oracle(M: AVaRSet, Z: RandomVariable, points: int = 20001):
    """Dense threshold grid scan, independent of the breakpoint argument.

    Returns the grid minimum (an upper bound on the true infimum) together
    with a bound on how far above the infimum it can sit: half the grid
    spacing times the largest objective slope.
    """
    z = Z.values
    p = M.reference.weights
    scale = 1.0 / (1.0 - M.alpha)
    lo, hi = z.min() - 1.0, z.max() + 1.0
    taus = np.linspace(lo, hi, points)
    vals = taus + scale * (np.maximum(z[None, :] - taus[:, None], 0.0) @ p)
    spacing = (hi - lo) / (points - 1)
    slope = max(1.0, scale)
    return float(vals.min()), slope * spacing


Z1234 = RandomVariable([1.0, 2.0, 3.0, 4.0])
U4 = DiscreteMeasure.uniform(4)


def test_avar_half_level():
    got = avar_primal(AVaRSet(0.5, U4), Z1234)
    assert got.value == pytest.approx(3.5, abs=1e-12)
    oracle, gap = tau_grid_oracle(AVaRSet(0.5, U4), Z1234)
    assert got.value <= oracle + 1e-9
    assert oracle <= got.value + gap


def test_avar_zero_is_mean():
    assert avar_primal(AVaRSet(0.0, U4), Z1234).value == pytest.approx(2.5, abs=1e-12)


def test_avar_point_eight():
    got = avar_primal(AVaRSet(0.8, U4), Z1234)
    assert got.value == pytest.approx(4.0, abs=1e-12)
    assert got.tau == pytest.approx(4.0)


def test_avar_one_is_positive_support_max():
    M = AVaRSet(1.0, DiscreteMeasure([0.5, 0.5, 0.0]))
    got = avar_primal(M, RandomVariable([1.0, 2.0, 9.0]))
    assert got.value == pytest.approx(2.0)


def reference_with_null_outcomes(rng: Rng, n: int, null: bool) -> np.ndarray:
    """A random reference; with ``null``, up to half its outcomes get no mass."""
    p = rng.simplex(n)
    if null:
        p[rng.subset(n)[: n // 2]] = 0.0
    return p / p.sum()


def test_level_one_is_the_essential_supremum_on_every_route():
    """At alpha = 1 the oracle gives all mass to the first outcome the
    reference charges in the stable descending order of Z; that measure is a
    member, and the primal scan, the dual LP and the membership LP give the
    same value: the largest Z on the outcomes the reference charges."""
    rng = Rng(13)
    for k in range(120):
        n = 1 + rng.randint(8)
        p = reference_with_null_outcomes(rng, n, null=k % 2 == 1)
        M = AVaRSet(1.0, DiscreteMeasure(p))
        z = np.round(rng.uniforms(n, -1.0, 1.0), 1)  # ties
        ess = float(z[p > 0.0].max())
        order = np.argsort(-z, kind="stable")
        first = order[p[order] > 0.0][0]
        value, q = worst_case(M, z)
        assert value == ess and q.tolist() == np.eye(n)[first].tolist()
        assert contains(M, DiscreteMeasure(q))
        assert avar_primal(M, RandomVariable(z)).value == ess
        assert avar_dual(M, RandomVariable(z)) == pytest.approx(ess, abs=1e-12)
        assert _membership_lp(M, z, maximize=True)[0] == pytest.approx(ess, abs=1e-12)
        for w in np.flatnonzero(p == 0.0):  # the reference dominates every member
            assert not contains(M, DiscreteMeasure.point_mass(n, int(w)))


@pytest.mark.parametrize("alpha", [1.5, -0.1, 1.0 + 1e-12])
def test_level_outside_the_unit_interval_is_rejected(alpha):
    with pytest.raises(ValidationError, match="alpha"):
        AVaRSet(alpha, U4)


def test_dual_matches_primal_on_stated_examples():
    for alpha in (0.5, 0.0, 0.8):
        M = AVaRSet(alpha, U4)
        assert avar_dual(M, Z1234) == pytest.approx(
            avar_primal(M, Z1234).value, abs=1e-7
        )


def test_dual_matches_primal_randomized():
    rng = Rng(3)
    for _ in range(100):
        n = 2 + rng.randint(19)
        p = DiscreteMeasure(rng.simplex(n))
        z = RandomVariable(rng.uniforms(n, -5.0, 5.0))
        M = AVaRSet(rng.uniform(0.0, 0.95), p)
        primal = avar_primal(M, z).value
        assert avar_dual(M, z) == pytest.approx(primal, abs=1e-7)
        oracle, gap = tau_grid_oracle(M, z)
        assert primal <= oracle + 1e-9
        assert oracle <= primal + gap


def test_avar_monotone_in_alpha():
    rng = Rng(5)
    for _ in range(50):
        n = 3 + rng.randint(6)
        p = DiscreteMeasure(rng.simplex(n))
        z = RandomVariable(rng.uniforms(n, -3.0, 3.0))
        a1 = rng.uniform(0.0, 0.9)
        a2 = rng.uniform(a1, 0.999)
        assert (
            avar_primal(AVaRSet(a1, p), z).value
            <= avar_primal(AVaRSet(a2, p), z).value + 1e-9
        )


def test_avar_extremes():
    rng = Rng(8)
    p = DiscreteMeasure(rng.simplex(5))
    z = RandomVariable(rng.uniforms(5, -2.0, 2.0))
    assert avar_primal(AVaRSet(0.0, p), z).value == pytest.approx(
        float(p.weights @ z.values), abs=1e-12
    )
    assert avar_primal(AVaRSet(1.0, p), z).value == pytest.approx(float(z.values.max()))


def test_axiom_battery_avar_set():
    report = check_axioms(AVaRSet(0.5, U4), trials=200, rng=Rng(1))
    assert report.max_violation <= 1e-7


def test_axiom_battery_singleton_family_is_linear():
    M = FiniteFamily((DiscreteMeasure([0.3, 0.7]),))
    report = check_axioms(M, trials=100, rng=Rng(2))
    assert report.max_violation <= 1e-9


def test_axiom_battery_zero_radius_ball():
    space = FiniteSpace(3, metric=[[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    M = WassersteinBall(DiscreteMeasure([0.2, 0.3, 0.5]), 0.0, space)
    report = check_axioms(M, trials=60, rng=Rng(4))
    assert report.max_violation <= 1e-7


def axioms_by_loop(M, trials, rng):
    """Per-trial reference for ``check_axioms``: each trial's five draws by
    scalar calls, and one ``worst_case`` call per row. Returns the largest
    violation per axiom and the rows, trial by trial."""
    worst, rows = [0.0] * 5, []
    for _ in range(trials):
        z = rng.uniforms(M.n, -2.0, 2.0)
        z2 = rng.uniforms(M.n, -2.0, 2.0)
        bump = rng.uniforms(M.n, 0.0, 1.5)
        shift = rng.uniform(-2.0, 2.0)
        scale = rng.uniform(0.1, 3.0)
        rows.append((z, z2, z + z2, z + bump, z + shift, scale * z))
        rz, rz2, rsum, rbump, rshift, rscale = (worst_case(M, row)[0] for row in rows[-1])
        found = (
            rsum - rz - rz2,
            rz - rbump,
            abs(rshift - rz - shift),
            abs(rscale - scale * rz),
            abs(rz2 - rz) - float(np.abs(z2 - z).max(initial=0.0)),
        )
        worst = [max(w, float(v)) for w, v in zip(worst, found)]
    return worst, np.array(rows).reshape(trials, 6, M.n)


@pytest.mark.parametrize("kind", SET_KINDS)
def test_check_axioms_matches_the_per_trial_loop(kind, monkeypatch):
    """The block of draws gives the per-trial loop's rows bit for bit, and
    the call leaves the stream where the loop does."""
    seen = []

    def recording(M, rows):
        seen.append(rows)
        return worst_case(M, rows)

    monkeypatch.setattr(avar, "worst_case", recording)
    gen = Rng(17)
    for trials in (0, 1, 7, 120):
        M = rand_ambiguity_set(gen, 2 + gen.randint(5), kind)
        seed = gen.randint(1 << 30)
        a, b = Rng(seed), Rng(seed)
        report = check_axioms(M, trials, a)
        expected, rows = axioms_by_loop(M, trials, b)
        assert np.array_equal(seen.pop(), rows)
        got = [report.subadditivity, report.monotonicity, report.translation,
               report.homogeneity, report.lipschitz]
        assert got == pytest.approx(expected, abs=1e-12)
        assert report.trials == trials
        assert a.next_u64() == b.next_u64()
