"""Transport distance and bound-check tests."""

import re

import numpy as np
import pytest

from drokit.rng import Rng
from drokit.spaces import DiscreteMeasure, FiniteSpace, RandomVariable, ValidationError
from drokit.transport import (
    MultistageBoundSpec,
    TreeProcess,
    ball_robust_gap_check,
    kernel_history_moduli,
    kr_bound_check,
    multistage_bound,
    multistage_bound_empirical_check,
    scenario_lipschitz_certificate,
    wasserstein_1,
    wasserstein_dual_value,
)


def line_space(points):
    pts = np.asarray(points, dtype=float)
    return FiniteSpace(len(pts), metric=np.abs(np.subtract.outer(pts, pts)))


def random_metric_space(rng, n):
    pts = np.sort(rng.uniforms(n, 0.0, 2.0))
    return line_space(pts)


def test_point_masses_distance_is_ground_distance():
    sp = line_space([0.0, 0.7, 1.5])
    d, plan = wasserstein_1(
        DiscreteMeasure.point_mass(3, 0), DiscreteMeasure.point_mass(3, 2), sp
    )
    assert d == pytest.approx(1.5, abs=1e-9)
    assert plan.matrix[0, 2] == pytest.approx(1.0, abs=1e-9)


def test_half_half_to_point():
    sp = line_space([0.0, 1.0])
    d, _ = wasserstein_1(DiscreteMeasure([0.5, 0.5]), DiscreteMeasure([1.0, 0.0]), sp)
    assert d == pytest.approx(0.5, abs=1e-9)


def test_identical_measures_zero_distance():
    sp = line_space([0.0, 0.3, 1.1])
    P = DiscreteMeasure([0.2, 0.5, 0.3])
    d, plan = wasserstein_1(P, P, sp)
    assert d == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(plan.matrix, np.diag(P.weights), atol=1e-9)


def test_metric_axioms_randomized():
    rng = Rng(101)
    for _ in range(40):
        n = 2 + rng.randint(4)
        sp = random_metric_space(rng, n)
        P = DiscreteMeasure(rng.simplex(n))
        Q = DiscreteMeasure(rng.simplex(n))
        R = DiscreteMeasure(rng.simplex(n))
        dpq, _ = wasserstein_1(P, Q, sp)
        dqp, _ = wasserstein_1(Q, P, sp)
        dqr, _ = wasserstein_1(Q, R, sp)
        dpr, _ = wasserstein_1(P, R, sp)
        dpp, _ = wasserstein_1(P, P, sp)
        assert abs(dpq - dqp) <= 1e-7
        assert dpp <= 1e-9
        assert dpr <= dpq + dqr + 1e-7


def test_cost_matches_potential_dual():
    rng = Rng(103)
    for _ in range(20):
        n = 2 + rng.randint(4)
        sp = random_metric_space(rng, n)
        P = DiscreteMeasure(rng.simplex(n))
        Q = DiscreteMeasure(rng.simplex(n))
        primal, _ = wasserstein_1(P, Q, sp)
        assert wasserstein_dual_value(P, Q, sp) == pytest.approx(primal, abs=1e-7)


def test_kr_bound_cases():
    rng = Rng(107)
    sp = line_space([0.0, 0.5, 1.0, 2.0])
    Z = RandomVariable([0.3, -0.1, 0.8, 1.4])
    for _ in range(30):
        P = DiscreteMeasure(rng.simplex(4))
        Q = DiscreteMeasure(rng.simplex(4))
        chk = kr_bound_check(P, Q, sp, Z)
        assert chk.holds
    const = kr_bound_check(
        DiscreteMeasure(rng.simplex(4)),
        DiscreteMeasure(rng.simplex(4)),
        sp,
        RandomVariable([2.0] * 4),
    )
    assert const.lhs == pytest.approx(0.0, abs=1e-12)
    P = DiscreteMeasure(rng.simplex(4))
    same = kr_bound_check(P, P, sp, Z)
    assert same.lhs == pytest.approx(0.0, abs=1e-12)
    assert same.rhs == pytest.approx(0.0, abs=1e-9)


def test_kr_bound_degenerate_metric_flagged():
    sp = FiniteSpace(2, metric=[[0.0, 0.0], [0.0, 0.0]])
    chk = kr_bound_check(
        DiscreteMeasure([1.0, 0.0]),
        DiscreteMeasure([0.0, 1.0]),
        sp,
        RandomVariable([0.0, 1.0]),
    )
    assert chk.degenerate
    assert chk.lipschitz == float("inf")


def test_ball_gap_zero_radius():
    sp = line_space([0.0, 1.0, 2.0])
    P = DiscreteMeasure([0.3, 0.4, 0.3])
    chk = ball_robust_gap_check(P, 0.0, sp, RandomVariable([1.0, -1.0, 0.5]))
    assert chk.gap == pytest.approx(0.0, abs=1e-8)
    assert chk.holds


def test_ball_gap_saturates_at_diameter():
    sp = line_space([0.0, 1.0])
    P = DiscreteMeasure([0.5, 0.5])
    Z = RandomVariable([0.0, 3.0])
    radius = 1.5  # beyond the diameter: the ball is everything
    chk = ball_robust_gap_check(P, radius, sp, Z)
    assert chk.gap == pytest.approx(3.0 - 1.5, abs=1e-7)  # max Z - E_P Z
    assert chk.holds


def test_ball_gap_monotone_in_radius():
    rng = Rng(109)
    sp = random_metric_space(rng, 3)
    P = DiscreteMeasure(rng.simplex(3))
    Z = RandomVariable(rng.uniforms(3, -1, 1))
    prev = -1.0
    for eps in np.linspace(0.0, 2.0, 9):
        chk = ball_robust_gap_check(P, float(eps), sp, Z)
        assert chk.holds
        assert chk.gap >= prev - 1e-9
        prev = chk.gap


def test_multistage_bound_formula():
    spec = MultistageBoundSpec((0.1, 0.2), (0.0, 0.5), (1.0, 1.0), 1.0)
    assert multistage_bound(spec) == pytest.approx(0.35, abs=1e-12)
    flat = MultistageBoundSpec((0.1, 0.2, 0.3), (0.0, 0.0, 0.0), (1.0, 2.0, 1.0), 2.0)
    assert multistage_bound(flat) == pytest.approx(2.0 * (0.1 + 0.4 + 0.3), abs=1e-12)
    single = MultistageBoundSpec((0.25,), (0.7,), (2.0,), 1.5)
    assert multistage_bound(single) == pytest.approx(1.5 * 0.25 * 2.0, abs=1e-12)


def random_process(rng, T=None, max_size=3, independent=False):
    T = T or (2 + rng.randint(2))
    sizes = [2 + rng.randint(max_size - 1) for _ in range(T)]
    spaces = tuple(random_metric_space(rng, s) for s in sizes)
    kernels = []
    for t in range(T):
        shape = tuple(sizes[:t]) + (sizes[t],)
        k = np.empty(shape)
        if independent and t > 0:
            row = rng.simplex(sizes[t])
            for h in np.ndindex(*sizes[:t]):
                k[h] = row
        else:
            for h in np.ndindex(*sizes[:t]):
                k[h] = rng.simplex(sizes[t])
        kernels.append(k)
    return TreeProcess(spaces, tuple(kernels))


def certified_spec(rng, process, eps_hi=0.3):
    w = tuple(rng.uniform(0.5, 1.5) for _ in range(process.horizon))
    Z = rng.uniforms(int(np.prod(process.sizes)), -1.0, 1.0).reshape(process.sizes)
    L = scenario_lipschitz_certificate(process, Z, w)
    kappa = kernel_history_moduli(process, w)
    eps = tuple(rng.uniform(0.0, eps_hi) for _ in range(process.horizon))
    return MultistageBoundSpec(eps, kappa, w, L), Z


def test_empirical_bound_randomized_trees():
    rng = Rng(113)
    for _ in range(8):
        process = random_process(rng)
        spec, Z = certified_spec(rng, process)
        res = multistage_bound_empirical_check(process, spec, Z)
        assert res.holds


def test_empirical_bound_zero_radius_zero_gap():
    rng = Rng(127)
    process = random_process(rng, T=2)
    w = (1.0, 1.0)
    Z = rng.uniforms(int(np.prod(process.sizes)), -1, 1).reshape(process.sizes)
    L = scenario_lipschitz_certificate(process, Z, w)
    kappa = kernel_history_moduli(process, w)
    spec = MultistageBoundSpec((0.0, 0.0), kappa, w, L)
    res = multistage_bound_empirical_check(process, spec, Z)
    assert res.gap == pytest.approx(0.0, abs=1e-7)
    assert res.holds


def test_empirical_bound_stagewise_independent_corollary():
    rng = Rng(131)
    process = random_process(rng, T=3, independent=True)
    w = (1.0, 1.0, 1.0)
    Z = rng.uniforms(int(np.prod(process.sizes)), -1, 1).reshape(process.sizes)
    L = scenario_lipschitz_certificate(process, Z, w)
    kappa = kernel_history_moduli(process, w)
    assert kappa == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)
    eps = (0.1, 0.15, 0.05)
    spec = MultistageBoundSpec(eps, (0.0, 0.0, 0.0), w, L)
    res = multistage_bound_empirical_check(process, spec, Z)
    assert res.holds
    assert res.bound == pytest.approx(L * sum(e * ww for e, ww in zip(eps, w)), abs=1e-12)


def test_empirical_bound_rejects_bad_certificate():
    rng = Rng(137)
    process = random_process(rng, T=2)
    w = (1.0, 1.0)
    Z = rng.uniforms(int(np.prod(process.sizes)), -1, 1).reshape(process.sizes)
    L = scenario_lipschitz_certificate(process, Z, w)
    kappa = kernel_history_moduli(process, w)
    bad = MultistageBoundSpec((0.1, 0.1), kappa, w, L * 0.2)
    with pytest.raises(ValidationError):
        multistage_bound_empirical_check(process, bad, Z)


def test_history_metric_and_the_scenario_pairs():
    """The history metric sums the weighted stage distances from stage 0, so
    it equals the pairwise sum exactly; the certificate is the largest ratio
    over scenario pairs, and a violated one is reported on the first
    offending pair in row-major order."""
    rng = Rng(139)
    process = random_process(rng, T=3)
    w = (0.7, 1.3, 0.9)
    for t in range(process.horizon + 1):
        hist = list(np.ndindex(*process.sizes[:t]))
        D = process.history_metric(t, w)
        assert D.shape == (len(hist), len(hist))
        for i, h in enumerate(hist):
            for j, g in enumerate(hist):
                total = 0.0
                for s in range(t):
                    total += w[s] * float(process.stage_spaces[s].metric[h[s], g[s]])
                assert D[i, j] == total
    scen = list(np.ndindex(*process.sizes))
    Z = rng.uniforms(len(scen), -1.0, 1.0).reshape(process.sizes)
    pairs = [(i, j) for i in range(len(scen)) for j in range(i + 1, len(scen))]
    gaps = [abs(Z[scen[i]] - Z[scen[j]]) for i, j in pairs]
    L = scenario_lipschitz_certificate(process, Z, w)
    assert L == max(gap / D[i, j] for gap, (i, j) in zip(gaps, pairs))
    i, j = next(p for gap, p in zip(gaps, pairs) if gap > 0.5 * L * D[p] + 1e-9)
    bad = MultistageBoundSpec((0.1,) * 3, (0.0,) * 3, w, 0.5 * L)
    with pytest.raises(ValidationError, match=re.escape(f"on {scen[i]} vs {scen[j]}:")):
        multistage_bound_empirical_check(process, bad, Z)


def test_intersection_matches_self_ball_tree_when_kernels_certified():
    """With kernel moduli certified, the cross-history constraints are implied
    by the self-ball, so the faithful intersection equals a per-node
    single-ball tree evaluation."""
    from drokit.ambiguity import WassersteinBall
    from drokit.composite import HistoryDependentSpec, nested_tree_value
    from drokit.spaces import ScenarioTree, TreeNode

    rng = Rng(139)
    process = random_process(rng, T=2)
    spec, Z = certified_spec(rng, process)
    res = multistage_bound_empirical_check(process, spec, Z)

    s0, s1 = process.sizes
    nodes = [TreeNode(0, 1, None, tuple(range(1, s0 + 1)))]
    for i in range(s0):
        first_leaf = 1 + s0 + i * s1
        nodes.append(TreeNode(1 + i, 2, 0, tuple(range(first_leaf, first_leaf + s1))))
    for i in range(s0):
        for j in range(s1):
            nodes.append(TreeNode(1 + s0 + i * s1 + j, 3, 1 + i, ()))
    tree = ScenarioTree(tuple(nodes))
    node_sets = {
        0: WassersteinBall(
            DiscreteMeasure(process.kernels[0]), spec.eps[0], process.stage_spaces[0]
        )
    }
    for i in range(s0):
        node_sets[1 + i] = WassersteinBall(
            DiscreteMeasure(process.kernels[1][i]), spec.eps[1], process.stage_spaces[1]
        )
    tree_spec = HistoryDependentSpec(tree, node_sets)
    value, _ = nested_tree_value(tree_spec, list(Z.reshape(-1)))
    assert value == pytest.approx(res.nested_value, abs=1e-6)
