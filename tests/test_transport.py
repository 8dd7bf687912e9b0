"""Transport distance and bound-check tests."""

import re
import sys
from dataclasses import replace

import numpy as np
import pytest

import drokit.lp as lp_module
import drokit.transport as transport
from drokit.ambiguity import WassersteinBall, _plan_marginals, membership_system
from drokit.lp import EQ, LE, LinearProgram, solve
from drokit.rng import Rng
from drokit.spaces import DiscreteMeasure, FiniteSpace, RandomVariable, ValidationError
from drokit.transport import (
    MultistageBoundSpec,
    TreeProcess,
    ball_robust_gap_check,
    kernel_history_moduli,
    lipschitz_constant,
    multistage_bound,
    multistage_bound_empirical_check,
    scenario_lipschitz_certificate,
    transport_simplex,
    wasserstein_1,
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


def transport_lp(C, a, b):
    """The dense plan LP of shipping ``a`` to ``b`` over the ``k x l`` cost
    ``C``: the plan flattened row-major, row sums ``a``, then column sums ``b``."""
    k, l = C.shape
    lp = LinearProgram(
        c=C.reshape(-1),
        A=np.vstack([np.kron(np.eye(k), np.ones(l)), np.kron(np.ones(k), np.eye(l))]),
        senses=(EQ,) * (k + l),
        b=np.concatenate([a, b]),
    )
    sol = solve(lp)
    assert sol.optimal
    return float(sol.value)


def w1_plan_lp(P, Q, space):
    """W1 as the dense plan LP: the independent route to ``wasserstein_1``."""
    return transport_lp(space.metric, P.weights, Q.weights)


def wasserstein_dual_value(P, Q, space):
    """W1 via the potential (dual) LP, a second independent route:
    max <P - Q, f> over 1-Lipschitz potentials f."""
    d = space.metric
    n = space.n
    i, j = np.nonzero(~np.eye(n, dtype=bool))  # f_i - f_j <= d_ij for i != j
    eye = np.eye(n)
    lp = LinearProgram(
        c=P.weights - Q.weights,
        A=eye[i] - eye[j],
        senses=(LE,) * i.size,
        b=d[i, j],
        lb=np.full(n, -np.inf),
        ub=np.full(n, float(d.max()) + 1.0),  # translation-invariant; keep bounded
        maximize=True,
    )
    sol = solve(lp)
    assert sol.optimal
    return float(sol.value)


def plane_space(rng, n):
    pts = rng.uniforms(2 * n, 0.0, 2.0).reshape(n, 2)
    return FiniteSpace(n, metric=np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)))


def grid_space(n):
    """Points of a 2-wide integer grid under the L1 metric: many tied distances."""
    pts = np.array([(i // 2, i % 2) for i in range(n)], dtype=float)
    return FiniteSpace(n, metric=np.abs(pts[:, None] - pts[None]).sum(axis=-1))


def w1_cases(rng):
    """Random plane and line metrics and tied grid distances, each with random
    measures, P = Q, disjoint supports and one-point supports."""
    for trial in range(60):
        n = 2 + rng.randint(6)
        sp = (plane_space(rng, n), random_metric_space(rng, n), grid_space(n))[trial % 3]
        P, Q = DiscreteMeasure(rng.simplex(n)), DiscreteMeasure(rng.simplex(n))
        yield sp, P, Q
        yield sp, P, P
        cut = 1 + rng.randint(n - 1)
        left, right = np.zeros(n), np.zeros(n)
        left[:cut], right[cut:] = rng.simplex(cut), rng.simplex(n - cut)
        yield sp, DiscreteMeasure(left), DiscreteMeasure(right)
        yield sp, DiscreteMeasure.point_mass(n, rng.randint(n)), Q
        yield sp, P, DiscreteMeasure.point_mass(n, rng.randint(n))


def test_cost_matches_potential_dual():
    """W1 equals the potential LP and the dense plan LP to 1e-12 relative,
    and its plan is a coupling of P and Q whose cost is the distance."""
    rng = Rng(103)
    for sp, P, Q in w1_cases(rng):
        primal, plan = wasserstein_1(P, Q, sp)
        # P = Q is exact: the references are then off zero by their own rounding
        scale = primal if P is not Q else 1e-3 * float(sp.metric.max())
        assert primal > 0.0 if P is not Q else primal == plan.cost == 0.0
        assert abs(wasserstein_dual_value(P, Q, sp) - primal) <= 1e-12 * scale
        assert abs(w1_plan_lp(P, Q, sp) - primal) <= 1e-12 * scale
        assert abs(plan.cost - primal) <= 1e-12 * scale
        assert plan.matrix.min() >= 0.0
        assert np.allclose(plan.matrix.sum(axis=1), P.weights, rtol=0.0, atol=1e-15)
        assert np.allclose(plan.matrix.sum(axis=0), Q.weights, rtol=0.0, atol=1e-15)


def test_w1_on_line_metrics_matches_the_cdf_formula_in_any_unit():
    """On a line, W1 is ``sum |F_P - F_Q| * dx``; it holds to 1e-12 relative
    with the points scaled by 1e-8, 1 and 1e8, and never raises."""
    rng = Rng(5)
    draws = []
    for _ in range(40):
        x = np.sort(rng.uniforms(8, 0.0, 2.0))
        draws.append((x, DiscreteMeasure(rng.simplex(8)), DiscreteMeasure(rng.simplex(8))))
    for scale in (1e-8, 1.0, 1e8):
        for x, P, Q in draws:
            pts = scale * x
            cdf = np.abs(np.cumsum(P.weights - Q.weights))[:-1] @ np.diff(pts)
            dist, _ = wasserstein_1(P, Q, line_space(pts))
            assert abs(dist - cdf) <= 1e-12 * cdf


def test_transport_simplex_on_general_costs_matches_the_dense_lp():
    """On random nonnegative costs that are no metric, the simplex equals the
    dense plan LP to 1e-12 relative, and its flow is a plan of that cost.
    Half the masses are small integers, a third of those equal on both sides,
    so the northwest corner often exhausts a row and a column together and
    the pivots start from zero flows; a third of the costs are tied."""
    rng = Rng(211)
    degenerate = 0
    for trial in range(300):
        k, l = 1 + rng.randint(6), 1 + rng.randint(6)
        C = rng.uniforms(k * l, 0.0, 1.0).reshape(k, l)
        if trial % 3 == 0:
            C = np.round(4.0 * C)
        if trial % 2:
            a, b = rng.simplex(k), rng.simplex(l)
        else:  # small integers with equal totals
            a = np.array([1.0 + rng.randint(3) for _ in range(k)])
            b = np.array([1.0 + rng.randint(3) for _ in range(l)])
            if trial % 6 == 0:
                l, b, C = k, a.copy(), np.round(4.0 * rng.uniforms(k * k, 0.0, 1.0).reshape(k, k))
            b[-1] += a.sum() - b.sum()
            if b[-1] <= 0.0:
                a[-1] += 1.0 - b[-1]
                b[-1] = 1.0
        degenerate += 0.0 in transport._northwest_corner(a.tolist(), b.tolist())[1]
        value, flow = transport_simplex(C, a, b)
        want = transport_lp(C, a, b)
        scale = max(want, 1e-3)  # a tied cost matrix can have a zero optimum
        assert abs(value - want) <= 1e-12 * scale
        assert abs(float(np.sum(flow * C)) - want) <= 1e-12 * scale
        assert flow.shape == (k, l) and flow.min() >= 0.0
        assert np.allclose(flow.sum(axis=1), a, rtol=0.0, atol=1e-12 * a.sum())
        assert np.allclose(flow.sum(axis=0), b, rtol=0.0, atol=1e-12 * a.sum())
    assert degenerate >= 50


def test_every_priced_basis_is_strongly_feasible(monkeypatch):
    """Against cycling, every basis tree the simplex prices is strongly
    feasible from its root, source 0: a tree arc without flow always hangs a
    source below a sink. Checked on small integer masses, equal on both sides
    half the time, and tied costs, where most pivots are degenerate."""
    real_corner, real_tree = transport._northwest_corner, transport._basis_tree
    flows, trees = [], [0]

    def corner(a, b):
        cells, flow = real_corner(a, b)
        flows.append(flow)  # the simplex updates this list in place
        return cells, flow

    def tree(cells, cost, k, l):
        parent, up, depth, pot = real_tree(cells, cost, k, l)
        zero_below = [x for x in range(1, k + l) if flows[-1][up[x]] == 0.0]
        assert all(x < k for x in zero_below), (cells, flows[-1])
        trees[0] += 1
        return parent, up, depth, pot

    monkeypatch.setattr(transport, "_northwest_corner", corner)
    monkeypatch.setattr(transport, "_basis_tree", tree)
    rng = Rng(223)
    for trial in range(400):
        k = 2 + rng.randint(6)
        a = np.array([1.0 + rng.randint(2) for _ in range(k)])
        l = k if trial % 2 else 2 + rng.randint(6)
        b = a.copy() if trial % 2 else np.array([1.0 + rng.randint(2) for _ in range(l)])
        b[-1] += a.sum() - b.sum()
        if b[-1] <= 0.0:
            a[-1] += 1.0 - b[-1]
            b[-1] = 1.0
        C = np.round(2.0 * rng.uniforms(k * l, 0.0, 1.0).reshape(k, l))
        value, flow = transport_simplex(C, a, b)
        assert value == float(np.sum(flow * C))
    assert trees[0] > 1000


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


def _loop_w1_lp(a, b, C):
    k, l = C.shape
    rows, rhs = [], []
    for i in range(k):
        r = np.zeros(k * l)
        r[i * l : (i + 1) * l] = 1.0
        rows.append(r)
        rhs.append(a[i])
    for j in range(l):
        r = np.zeros(k * l)
        r[j::l] = 1.0
        rows.append(r)
        rhs.append(b[j])
    return LinearProgram(
        c=C.reshape(-1), A=np.array(rows), senses=(EQ,) * (k + l), b=np.array(rhs)
    )


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


def _node_worst_value(
    refs: list[np.ndarray], radii: list[float], metric: np.ndarray, values: np.ndarray
) -> float:
    """max E_Q[values] over measures within radius r_k of every reference k.

    The variables are ``q`` and then one flattened plan per reference: plan
    ``k`` has row sums ``refs[k]``, column sums ``q`` and cost at most
    ``radii[k]``, rows in that order. An infeasible LP means an empty transition set.
    """
    s, K = values.size, len(refs)
    rows, cols = _plan_marginals(s)
    block = np.vstack([rows, cols, metric.reshape(1, -1)])
    m = block.shape[0]
    q = np.zeros((K, m, s))
    q[:, s + np.arange(s), np.arange(s)] = -1.0  # column sums of every plan minus q
    plans = np.zeros((K, m, K, s * s))
    plans[np.arange(K), :, np.arange(K)] = block  # plan k's rows meet only its columns
    sol = solve(
        LinearProgram(
            c=np.concatenate([values, np.zeros(K * s * s)]),
            A=np.hstack([q.reshape(K * m, s), plans.reshape(K * m, -1)]),
            senses=((EQ,) * (2 * s) + (LE,)) * K,
            b=np.hstack([np.asarray(refs), np.zeros((K, s)), np.asarray(radii)[:, None]]).ravel(),
            maximize=True,
        )
    )
    if not sol.optimal:
        raise ValidationError(
            "empty transition set: the reference kernel is not compatible "
            "with the declared history moduli"
        )
    return float(sol.value)


def _node_lp_nested_value(process, spec, Z):
    """The nested value with each node solved as the LP over the intersection
    of the balls around every reference transition of its stage, each of
    radius ``eps_t + kappa_t * D(h, g)``: the independent route to the own-ball
    oracle that ``multistage_bound_empirical_check`` uses."""
    v = process.as_array(Z)
    for t in range(process.horizon - 1, -1, -1):
        hist = list(np.ndindex(*process.sizes[:t]))
        D = process.history_metric(t, spec.weights)
        metric = process.stage_spaces[t].metric
        out = np.empty(process.sizes[:t])
        for k, h in enumerate(hist):
            refs = [process.kernels[t][g] for g in hist]
            radii = list(spec.eps[t] + spec.kappa[t] * D[k])
            out[h] = _node_worst_value(refs, radii, metric, v[h])
        v = out
    return float(v)


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


def _captured_lp(monkeypatch, call, module=transport):
    """The LinearProgram ``call`` hands to ``module.solve``, unsolved."""
    seen = []

    def capture(lp):
        seen.append(lp)
        raise _Captured

    monkeypatch.setattr(module, "solve", capture)
    with pytest.raises(_Captured):
        call()
    return seen[0]


def test_plan_layout_matches_the_entrywise_encodings(monkeypatch):
    """Ball rows and q_map, and the test-side references (the plan LP, square
    and rectangular, the potential LP and the node LP of the intersection
    route) are bit for bit the matrices of the entry-by-entry construction:
    the same rows in the same order, with no signed zeros, so every pivot is
    kept."""
    rng = Rng(23)
    for n in range(1, 8):
        sp = random_metric_space(rng, n)
        d = sp.metric
        P, Q = DiscreteMeasure(rng.simplex(n)), DiscreteMeasure(rng.simplex(n))
        system = membership_system(WassersteinBall(P, 0.3, sp))
        rows, b, q_map = _loop_ball_system(P.weights, 0.3, d)
        assert _same_bits(system.A, rows) and _same_bits(system.b, b)
        assert _same_bits(system.q_map, q_map)
        assert system.senses == (EQ,) * n + (LE,) and system.n_vars == n * n
        here = sys.modules[__name__]
        lp = _captured_lp(monkeypatch, lambda: w1_plan_lp(P, Q, sp), here)
        assert _same_lp(lp, _loop_w1_lp(P.weights, Q.weights, d))
        l = 1 + rng.randint(7)
        C, b = rng.uniforms(n * l, 0.0, 1.0).reshape(n, l), rng.simplex(l)
        lp = _captured_lp(monkeypatch, lambda: transport_lp(C, P.weights, b), here)
        assert _same_lp(lp, _loop_w1_lp(P.weights, b, C))
        lp = _captured_lp(monkeypatch, lambda: wasserstein_dual_value(P, Q, sp), here)
        assert _same_lp(lp, _loop_dual_lp(P.weights, Q.weights, d))
        for K in range(1, 10):
            refs = [rng.simplex(n) for _ in range(K)]
            radii = list(rng.uniforms(K, 0.0, 0.5))
            values = rng.uniforms(n, -1.0, 1.0)
            lp = _captured_lp(
                monkeypatch,
                lambda: _node_worst_value(refs, radii, d, values),
                sys.modules[__name__],
            )
            assert _same_lp(lp, _loop_node_lp(refs, radii, d, values))


def test_kr_bound_cases():
    """Kantorovich-Rubinstein: |E_Q Z - E_P Z| <= L_Z * W1(P, Q)."""
    rng = Rng(107)
    sp = line_space([0.0, 0.5, 1.0, 2.0])
    Z = RandomVariable([0.3, -0.1, 0.8, 1.4])
    L = lipschitz_constant(Z, sp)
    assert np.isfinite(L)
    for _ in range(30):
        P = DiscreteMeasure(rng.simplex(4))
        Q = DiscreteMeasure(rng.simplex(4))
        dist, _ = wasserstein_1(P, Q, sp)
        assert abs(float(Q.weights @ Z.values) - float(P.weights @ Z.values)) <= L * dist + 1e-9
    const = RandomVariable([2.0] * 4)
    assert lipschitz_constant(const, sp) == 0.0
    P, Q = DiscreteMeasure(rng.simplex(4)), DiscreteMeasure(rng.simplex(4))
    assert abs(float(Q.weights @ const.values) - float(P.weights @ const.values)) == (
        pytest.approx(0.0, abs=1e-12)
    )
    P = DiscreteMeasure(rng.simplex(4))
    same, _ = wasserstein_1(P, P, sp)
    assert L * same == pytest.approx(0.0, abs=1e-9)


def test_kr_bound_degenerate_metric_flagged():
    """Two points at distance zero with different values: the constant is
    infinite and the bound vacuous."""
    sp = FiniteSpace(2, metric=[[0.0, 0.0], [0.0, 0.0]])
    assert lipschitz_constant(RandomVariable([0.0, 1.0]), sp) == float("inf")


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


def stage_process(rng, sizes, unit=1.0):
    """Process on line metrics in units of ``unit``, with random kernels."""
    spaces = tuple(random_metric_space(rng, s) for s in sizes)
    spaces = tuple(FiniteSpace(sp.n, metric=unit * sp.metric) for sp in spaces)
    kernels = tuple(
        np.array([rng.simplex(sizes[t]) for _ in np.ndindex(*sizes[:t])]).reshape(
            sizes[:t] + (sizes[t],)
        )
        for t in range(len(sizes))
    )
    return TreeProcess(spaces, kernels)


def test_empirical_bound_accepts_its_own_certificate_in_large_units():
    """``lipschitz`` is the certificate's own value, attained by some pair up
    to rounding; with Z scaled by 1e8 that rounding exceeds 1e-9 absolute."""
    rng = Rng(9)
    for _ in range(40):
        process = stage_process(rng, (3, 3, 2))
        w = tuple(rng.uniform(0.5, 1.5) for _ in range(3))
        Z = 1e8 * rng.uniforms(18, -1.0, 1.0).reshape(3, 3, 2)
        L = scenario_lipschitz_certificate(process, Z, w)
        kappa = kernel_history_moduli(process, w)
        eps = tuple(rng.uniform(0.0, 0.3) for _ in range(3))
        assert multistage_bound_empirical_check(process, MultistageBoundSpec(eps, kappa, w, L), Z).holds


def test_kernel_moduli_do_not_depend_on_the_unit_of_the_metric():
    """W1 and the history distance scale together, so the moduli are the
    same with every stage metric in units of 1e-13, where each W1 is below
    1e-12."""
    rng = Rng(9)
    w = (1.0, 1.0, 1.0)
    for _ in range(20):
        seed = rng.randint(1 << 30)
        base = kernel_history_moduli(stage_process(Rng(seed), (3, 3, 2)), w)
        tiny = kernel_history_moduli(stage_process(Rng(seed), (3, 3, 2), unit=1e-13), w)
        assert max(base) > 0.0
        assert tiny == pytest.approx(base, rel=1e-9, abs=0.0)


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
    from drokit.spaces import ScenarioTree

    rng = Rng(139)
    process = random_process(rng, T=2)
    spec, Z = certified_spec(rng, process)
    res = multistage_bound_empirical_check(process, spec, Z)

    s0, s1 = process.sizes
    # level order: the root, its s0 children, then s1 leaves under each child
    tree = ScenarioTree((None,) + (0,) * s0 + tuple(1 + i for i in range(s0) for _ in range(s1)))
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


def test_node_values_match_the_intersection_lp():
    """Each node's own ball is the whole intersection once kappa is a modulus
    of the kernels, so the oracle route equals the node LP to 1e-12 relative,
    with the derived kappa and with a declared kappa above it."""
    rng = Rng(149)
    for _ in range(50):
        T = 2 + rng.randint(2)
        process = random_process(rng, T=T, max_size=4 if T == 2 else 3)
        spec, Z = certified_spec(rng, process)
        above = replace(spec, kappa=tuple(k + rng.uniform(0.0, 0.5) for k in spec.kappa))
        for declared in (spec, above):
            got = multistage_bound_empirical_check(process, declared, Z).nested_value
            want = _node_lp_nested_value(process, declared, Z)
            assert abs(got - want) <= 1e-12 * max(abs(want), np.abs(Z).max())


def test_kappa_below_the_kernel_modulus_is_rejected():
    """A declared kappa below the modulus is rejected on the stage and the
    first offending history pair in row-major order; the derived kappa passes
    at its own argmax pair with no slack, and one ulp less does not."""
    rng = Rng(151)
    process = random_process(rng, T=3)
    spec, Z = certified_spec(rng, process)
    w = spec.weights
    hist = list(np.ndindex(*process.sizes[:1]))
    D = process.history_metric(1, w)
    low = 0.5 * spec.kappa[1]
    first = None
    for i in range(len(hist)):
        for j in range(i + 1, len(hist)):
            w1, _ = wasserstein_1(
                DiscreteMeasure(process.kernels[1][hist[i]]),
                DiscreteMeasure(process.kernels[1][hist[j]]),
                process.stage_spaces[1],
            )
            if first is None and w1 > 1e-12 and w1 / D[i, j] > low:
                first = (hist[i], hist[j])
    assert first is not None
    bad = replace(spec, kappa=(0.0, low, spec.kappa[2]))
    message = f"kernel 1 violates the history modulus on {first[0]} vs {first[1]}:"
    with pytest.raises(ValidationError, match=re.escape(message)):
        multistage_bound_empirical_check(process, bad, Z)
    assert multistage_bound_empirical_check(process, spec, Z).holds
    t = 2
    ulp_below = replace(spec, kappa=spec.kappa[:t] + (np.nextafter(spec.kappa[t], 0.0),))
    with pytest.raises(ValidationError, match=f"kernel {t} violates the history modulus"):
        multistage_bound_empirical_check(process, ulp_below, Z)


def test_check_solves_one_w1_per_history_pair(monkeypatch):
    """The check solves no LP and calls no ``wasserstein_1``: its only
    transport problems are the W1 between the kernel rows of each history
    pair of each stage, in row-major order, priced by the batched kernel and
    recomputed on every call."""
    rng = Rng(157)
    process = random_process(rng, T=3)
    spec, Z = certified_spec(rng, process)
    real_solve, real_values = lp_module.solve, transport._w1_values
    solves, pairs_seen = [], []

    def recording_solve(lp):
        solves.append(sys._getframe(1).f_code.co_name)
        return real_solve(lp)

    def recording_values(A, B, d):
        pairs_seen.extend((a.tobytes(), b.tobytes()) for a, b in zip(A, B))
        return real_values(A, B, d)

    def no_w1(P, Q, space):
        raise AssertionError("wasserstein_1 called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "drokit" and getattr(module, "solve", None) is real_solve:
            monkeypatch.setattr(module, "solve", recording_solve)
    monkeypatch.setattr(transport, "_w1_values", recording_values)
    monkeypatch.setattr(transport, "wasserstein_1", no_w1)
    expected = []
    for t in range(process.horizon):
        rows = process.kernels[t].reshape(-1, process.sizes[t])
        i, j = np.triu_indices(len(rows), 1)
        expected += [(rows[a].tobytes(), rows[b].tobytes()) for a, b in zip(i, j)]
    assert len(expected) > 3
    for _ in range(2):
        solves.clear()
        pairs_seen.clear()
        multistage_bound_empirical_check(process, spec, Z)
        assert solves == []
        assert pairs_seen == expected


def _moved(rng, p, spread):
    """``p`` with the mass of one random point spread over ``spread`` others:
    against ``p`` it has one source and ``spread`` sinks."""
    n = p.size
    q, order = p.copy(), rng.shuffled(list(range(n)))
    q[order[1 : 1 + spread]] += q[order[0]] * rng.simplex(spread)
    q[order[0]] = 0.0
    return q


def _kernel_cases(rng, n):
    """Row pairs on ``n`` points: random rows, point masses, forced plans
    with every count of sinks and of sources, and rows with ``-1e-13`` dust
    where the point's mass went elsewhere."""
    firsts, seconds = [], []
    for _ in range(6):
        p, q = rng.simplex(n), rng.simplex(n)
        firsts += [p, p, np.eye(n)[rng.randint(n)]]
        seconds += [q, p, q]
    for spread in range(1, n):
        p = rng.simplex(n)
        q = _moved(rng, p, spread)
        firsts += [p, q]
        seconds += [q, p]
    for _ in range(4):
        p, q = rng.simplex(n), rng.simplex(n)
        dusty = _moved(rng, p, 1 + rng.randint(n - 1))
        dusty[dusty == 0.0] = -1e-13
        firsts += [dusty, q, dusty]
        seconds += [q, dusty, p]
    return np.array(firsts), np.array(seconds)


def test_w1_values_equal_wasserstein_1_bit_for_bit(monkeypatch):
    """The batched kernel returns the bits of ``wasserstein_1(...)[0]`` on
    every pair, at n = 2..24 on line and plane metrics, through forced plans
    of every excess count, the simplex, and rows with clipped dust."""
    rng = Rng(211)
    real_simplex, simplex_pairs = transport.transport_simplex, []

    def recording_simplex(C, a, b):
        simplex_pairs.append(C.shape)
        return real_simplex(C, a, b)

    for n in range(2, 25):
        for space in (random_metric_space(rng, n), plane_space(rng, n)):
            A, B = _kernel_cases(rng, n)
            want = [
                wasserstein_1(DiscreteMeasure(a), DiscreteMeasure(b), space)[0]
                for a, b in zip(A, B)
            ]
            with monkeypatch.context() as patch:
                patch.setattr(transport, "transport_simplex", recording_simplex)
                got = transport._w1_values(A, B, space.metric)
            assert got.shape == (len(A),)
            assert got.tolist() == want
    assert len(simplex_pairs) > 100
    assert all(min(shape) >= 2 for shape in simplex_pairs)


def test_w1_values_of_an_empty_stack():
    """Stage 0 has one history and so no pair: the kernel prices none."""
    space = line_space([0.0, 0.4, 1.0])
    empty = np.empty((0, 3))
    assert transport._w1_values(empty, empty, space.metric).shape == (0,)
    process = random_process(Rng(5), T=2)
    assert kernel_history_moduli(process, (1.0, 1.0))[0] == 0.0