"""Transport distance and bound-check tests."""

import re

import numpy as np
import pytest

import drokit.transport as transport
from drokit.ambiguity import WassersteinBall, membership_system
from drokit.lp import EQ, LE, LinearProgram
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


def _loop_ball_system(center, radius, d):
    """The ball's membership rows and q_map, built entry by entry."""
    n = center.size
    rows = np.zeros((n + 1, n * n))
    for i in range(n):
        rows[i, i * n : (i + 1) * n] = 1.0
    rows[n] = d.reshape(-1)
    q_map = np.zeros((n, n * n))
    for i in range(n):
        for j in range(n):
            q_map[j, i * n + j] = 1.0
    return rows, np.concatenate([center, [radius]]), q_map


def _loop_w1_lp(p, q, d):
    n = p.size
    rows, b = [], []
    for i in range(n):
        r = np.zeros(n * n)
        r[i * n : (i + 1) * n] = 1.0
        rows.append(r)
        b.append(p[i])
    for j in range(n):
        r = np.zeros(n * n)
        r[j::n] = 1.0
        rows.append(r)
        b.append(q[j])
    return LinearProgram(c=d.reshape(-1), A=np.array(rows), senses=(EQ,) * (2 * n), b=np.array(b))


def _loop_dual_lp(p, q, d):
    n = p.size
    rows, b = [], []
    for i in range(n):
        for j in range(n):
            if i != j:
                r = np.zeros(n)
                r[i], r[j] = 1.0, -1.0
                rows.append(r)
                b.append(d[i, j])
    return LinearProgram(
        c=p - q, A=np.array(rows), senses=(LE,) * len(rows), b=np.array(b),
        lb=np.full(n, -np.inf), ub=np.full(n, float(d.max()) + 1.0), maximize=True,
    )


def _loop_node_lp(refs, radii, d, values):
    s, K = values.size, len(refs)
    nv = s + K * s * s
    rows, senses, b = [], [], []
    for k in range(K):
        base = s + k * s * s
        for i in range(s):
            r = np.zeros(nv)
            r[base + i * s : base + (i + 1) * s] = 1.0
            rows.append(r)
            senses.append(EQ)
            b.append(refs[k][i])
        for j in range(s):
            r = np.zeros(nv)
            r[base + j : base + s * s : s] = 1.0
            r[j] = -1.0
            rows.append(r)
            senses.append(EQ)
            b.append(0.0)
        r = np.zeros(nv)
        r[base : base + s * s] = d.reshape(-1)
        rows.append(r)
        senses.append(LE)
        b.append(radii[k])
    c = np.zeros(nv)
    c[:s] = values
    return LinearProgram(c=c, A=np.array(rows), senses=tuple(senses), b=np.array(b), maximize=True)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_lp(got, want):
    return got.senses == want.senses and got.maximize == want.maximize and all(
        _same_bits(getattr(got, f), getattr(want, f)) for f in ("c", "A", "b", "lb", "ub")
    )


class _Captured(Exception):
    pass


def _captured_lp(monkeypatch, call):
    """The LinearProgram ``call`` hands to ``transport.solve``, unsolved."""
    seen = []

    def capture(lp):
        seen.append(lp)
        raise _Captured

    monkeypatch.setattr(transport, "solve", capture)
    with pytest.raises(_Captured):
        call()
    return seen[0]


def test_plan_layout_matches_the_entrywise_encodings(monkeypatch):
    """Ball rows and q_map, the W1 plan LP, the potential LP and the node LP
    are bit for bit the matrices of the entry-by-entry construction: the same
    rows in the same order, with no signed zeros, so every pivot is kept."""
    rng = Rng(23)
    for n in range(1, 8):
        sp = random_metric_space(rng, n)
        d = sp.metric
        P, Q = DiscreteMeasure(rng.simplex(n)), DiscreteMeasure(rng.simplex(n))
        sys = membership_system(WassersteinBall(P, 0.3, sp))
        rows, b, q_map = _loop_ball_system(P.weights, 0.3, d)
        assert _same_bits(sys.A, rows) and _same_bits(sys.b, b) and _same_bits(sys.q_map, q_map)
        assert sys.senses == (EQ,) * n + (LE,) and sys.n_vars == n * n
        lp = _captured_lp(monkeypatch, lambda: transport.wasserstein_1(P, Q, sp))
        assert _same_lp(lp, _loop_w1_lp(P.weights, Q.weights, d))
        lp = _captured_lp(monkeypatch, lambda: transport.wasserstein_dual_value(P, Q, sp))
        assert _same_lp(lp, _loop_dual_lp(P.weights, Q.weights, d))
        for K in range(1, 10):
            refs = [rng.simplex(n) for _ in range(K)]
            radii = list(rng.uniforms(K, 0.0, 0.5))
            values = rng.uniforms(n, -1.0, 1.0)
            lp = _captured_lp(
                monkeypatch, lambda: transport._node_worst_value(refs, radii, d, values)
            )
            assert _same_lp(lp, _loop_node_lp(refs, radii, d, values))


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
