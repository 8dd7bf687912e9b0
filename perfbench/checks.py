"""Reference computations that the benchmark checks drokit's outputs against.

Nothing here imports drokit. Every reference is built from the raw parameters
the workload generated (plain numpy arrays in a dict with a ``kind`` key), by
one of three routes that drokit does not take:

* scipy's HiGHS on a constraint encoding written here from the parameters;
* a closed form (AVaR by sort-and-fill, a one-moment set by enumerating
  two-point supports, a finite family by the maximum of its matrix product,
  W1 on a line as the integral of |F_P - F_Q|);
* a property the method must have (composite >= static, static <= nested,
  the induced-set count, the multistage bound, DP policy feasibility).

Worst-case measures are never compared by identity, because ties admit
several maximisers: a measure passes when it is a probability vector, lies in
the set, and attains the value. Every comparison uses the library's 1e-7
certificate scaled by max(1, max|Z|).

Each ``check_*`` function returns a list of error strings; empty means the
output passed.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

CERT = 1e-7
_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def tol_for(z) -> float:
    return CERT * max(1.0, float(np.max(np.abs(np.asarray(z, dtype=float)))))


def _off(label: str, got, want, tol: float) -> list[str]:
    got_a, want_a = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got_a.shape != want_a.shape:
        return [f"{label}: shape {got_a.shape} != {want_a.shape}"]
    both_inf = np.isneginf(got_a) & np.isneginf(want_a)
    err = np.where(both_inf, 0.0, np.abs(got_a - want_a))
    worst = float(np.max(err, initial=0.0)) if err.size else 0.0
    if not worst <= tol:  # also catches nan
        return [f"{label}: off by {worst:.3g} (tolerance {tol:.3g})"]
    return []


# ---------------------------------------------------------------------------
# closed forms, vectorised over leading axes of Z
# ---------------------------------------------------------------------------


def avar_sup(alpha: float, p: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Sort descending and fill the density cap 1/(1-alpha) until mass 1."""
    Z = np.asarray(Z, dtype=float)
    order = np.argsort(-Z, axis=-1, kind="stable")
    zs = np.take_along_axis(Z, order, axis=-1)
    caps = p[order] / (1.0 - alpha)
    before = np.cumsum(caps, axis=-1) - caps
    take = np.clip(1.0 - before, 0.0, caps)
    return np.sum(take * zs, axis=-1)


def _two_point_supports(psi: np.ndarray, target: float):
    """Vertices of {q >= 0, sum q = 1, psi @ q = target}: at most two points."""
    n = psi.size
    I, J, wi, wj = [], [], [], []
    for i in range(n):
        if abs(psi[i] - target) <= 1e-12:
            I.append(i), J.append(i), wi.append(1.0), wj.append(0.0)
    for i, j in itertools.combinations(range(n), 2):
        lo, hi = (i, j) if psi[i] < psi[j] else (j, i)
        if psi[lo] < target < psi[hi]:
            a = (psi[hi] - target) / (psi[hi] - psi[lo])
            I.append(lo), J.append(hi), wi.append(a), wj.append(1.0 - a)
    return np.array(I), np.array(J), np.array(wi), np.array(wj)


def moment_sup(psi: np.ndarray, target: float, Z: np.ndarray) -> np.ndarray:
    I, J, wi, wj = _two_point_supports(psi, target)
    Z = np.asarray(Z, dtype=float)
    return np.max(Z[..., I] * wi + Z[..., J] * wj, axis=-1)


def finite_sup(mat: np.ndarray, Z: np.ndarray) -> np.ndarray:
    return np.max(np.asarray(Z, dtype=float) @ mat.T, axis=-1)


def sup_rows(S: dict, Z: np.ndarray) -> np.ndarray:
    """Worst-case expectation of each row of Z (last axis) by a closed form,
    or by HiGHS row by row for Wasserstein balls."""
    kind = S["kind"]
    if kind == "avar":
        return avar_sup(S["alpha"], S["p"], Z)
    if kind == "moment":
        return moment_sup(S["psi"], S["target"], Z)
    if kind == "finite":
        return finite_sup(S["mat"], Z)
    Z = np.asarray(Z, dtype=float)
    flat = Z.reshape(-1, Z.shape[-1])
    return np.array([lp_sup(S, row) for row in flat]).reshape(Z.shape[:-1])


def w1_line(x: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """W1 between two measures on points of a line: integral of |F_P - F_Q|."""
    order = np.argsort(x, kind="stable")
    gaps = np.diff(x[order])
    cdf_gap = np.cumsum(p[order] - q[order])[:-1]
    return float(np.sum(np.abs(cdf_gap) * gaps))


def line_metric(x: np.ndarray) -> np.ndarray:
    return np.abs(np.subtract.outer(x, x))


# ---------------------------------------------------------------------------
# HiGHS on an encoding written from the set's parameters
# ---------------------------------------------------------------------------


def polytope(S: dict):
    """``(A_eq, b_eq, A_ub, b_ub, Q)``: the set is {Q v : v >= 0, A_eq v = b_eq,
    A_ub v <= b_ub}. Plan variables of a ball are pi[i, j] at i * n + j."""
    kind = S["kind"]
    if kind == "finite":
        k, n = S["mat"].shape
        return sparse.csr_matrix(np.ones((1, k))), np.ones(1), None, None, sparse.csr_matrix(S["mat"].T)
    if kind == "avar":
        n = S["p"].size
        eye = sparse.identity(n, format="csr")
        return sparse.csr_matrix(np.ones((1, n))), np.ones(1), eye, S["p"] / (1.0 - S["alpha"]), eye
    if kind == "moment":
        n = S["psi"].size
        A = sparse.csr_matrix(np.vstack([np.ones(n), S["psi"]]))
        return A, np.array([1.0, S["target"]]), None, None, sparse.identity(n, format="csr")
    if kind == "wass":
        n = S["p"].size
        eye, ones = sparse.identity(n, format="csr"), sparse.csr_matrix(np.ones((1, n)))
        A_eq = sparse.kron(eye, ones, format="csr")  # row sums are the center
        A_ub = sparse.csr_matrix(S["d"].reshape(1, -1))  # transport budget
        Q = sparse.kron(ones, eye, format="csr")  # column sums are the measure
        return A_eq, S["p"], A_ub, np.array([S["r"]]), Q
    raise ValueError(f"unknown set kind {kind}")


def _linprog_max(c, A_eq, b_eq, A_ub, b_ub):
    res = linprog(-np.asarray(c), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs", options=_HIGHS)
    return res


def lp_sup(S: dict, z: np.ndarray) -> float:
    A_eq, b_eq, A_ub, b_ub, Q = polytope(S)
    res = _linprog_max(Q.T @ np.asarray(z, dtype=float), A_eq, b_eq, A_ub, b_ub)
    if res.status != 0:
        raise RuntimeError(f"reference LP: {res.message}")
    return -float(res.fun)


def cc_atom_sup(S: dict, z: np.ndarray, atom) -> float:
    """sup of E_Q[z 1_A] / Q(A) by Charnes-Cooper: variables (t v, t) with
    Q(A) scaled to 1; an infeasible program means no member charges A."""
    A_eq, b_eq, A_ub, b_ub, Q = polytope(S)
    n_out = Q.shape[0]
    sel = np.zeros(n_out)
    sel[list(atom)] = 1.0
    rows_eq = sparse.vstack([
        sparse.hstack([A_eq, sparse.csr_matrix(-b_eq.reshape(-1, 1))]),
        sparse.hstack([sparse.csr_matrix(sel @ Q), sparse.csr_matrix((1, 1))]),
    ], format="csr")
    rhs_eq = np.concatenate([np.zeros(A_eq.shape[0]), [1.0]])
    rows_ub = rhs_ub = None
    if A_ub is not None:
        rows_ub = sparse.hstack([A_ub, sparse.csr_matrix(-b_ub.reshape(-1, 1))], format="csr")
        rhs_ub = np.zeros(A_ub.shape[0])
    c = np.append(Q.T @ (np.asarray(z, dtype=float) * sel), 0.0)
    res = _linprog_max(c, rows_eq, rhs_eq, rows_ub, rhs_ub)
    if res.status == 2:
        return float("-inf")
    if res.status != 0:
        raise RuntimeError(f"reference Charnes-Cooper LP: {res.message}")
    return -float(res.fun)


def w1_lp(d: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    n = p.size
    eye, ones = sparse.identity(n, format="csr"), sparse.csr_matrix(np.ones((1, n)))
    A = sparse.vstack([sparse.kron(eye, ones), sparse.kron(ones, eye)], format="csr")
    res = linprog(d.reshape(-1), A_eq=A, b_eq=np.concatenate([p, q]), bounds=(0, None),
                  method="highs", options=_HIGHS)
    if res.status != 0:
        raise RuntimeError(f"reference transport LP: {res.message}")
    return float(res.fun)


def member_errors(S: dict, q: np.ndarray, tol: float, label: str) -> list[str]:
    q = np.asarray(q, dtype=float)
    errs = []
    if q.min() < -tol or abs(q.sum() - 1.0) > tol:
        errs.append(f"{label}: not a probability vector (min {q.min():.3g}, mass {q.sum():.12g})")
    kind = S["kind"]
    if kind == "avar":
        over = float(np.max(q - S["p"] / (1.0 - S["alpha"])))
        if over > tol:
            errs.append(f"{label}: density above the AVaR cap by {over:.3g}")
    elif kind == "moment":
        errs += _off(f"{label} moment", float(S["psi"] @ q), S["target"], tol)
    elif kind == "finite":
        k = S["mat"].shape[0]
        A_ub = sparse.csr_matrix(np.vstack([S["mat"].T, -S["mat"].T]))
        res = linprog(np.zeros(k), A_ub=A_ub, b_ub=np.concatenate([q + tol, tol - q]),
                      A_eq=np.ones((1, k)), b_eq=[1.0], bounds=(0, None), method="highs")
        if res.status != 0:
            errs.append(f"{label}: outside the convex hull of the family")
    elif kind == "wass":
        dist = w1_line(S["x"], S["p"], q) if "x" in S else w1_lp(S["d"], S["p"], q)
        if dist > S["r"] + tol:
            errs.append(f"{label}: W1 from the center {dist:.12g} exceeds radius {S['r']:.12g}")
    return errs


# ---------------------------------------------------------------------------
# single-stage outputs
# ---------------------------------------------------------------------------


def ref_value(S: dict, z: np.ndarray) -> float:
    return float(sup_rows(S, np.asarray(z, dtype=float)))


def check_static(S: dict, z, value: float, q, label: str = "static") -> list[str]:
    z = np.asarray(z, dtype=float)
    tol = tol_for(z)
    errs = member_errors(S, q, tol, f"{label} measure")
    errs += _off(f"{label} measure attains", float(np.asarray(q) @ z), value, tol)
    errs += _off(f"{label} value", value, ref_value(S, z), tol)
    return errs


def check_reference(S: dict, n: int, mu, normalized) -> list[str]:
    want = sup_rows(S, np.eye(n))  # row w is the indicator of outcome w
    errs = _off("reference measure", mu, want, CERT)
    errs += _off("normalised reference", normalized, want / want.sum(), CERT)
    return errs


def check_atoms(S: dict, z, atoms, values, label: str = "atom values") -> list[str]:
    want = [cc_atom_sup(S, z, atom) for atom in atoms]
    return _off(label, values, want, tol_for(z))


def check_w1(d: np.ndarray, p, q, dist: float, plan, want: float) -> list[str]:
    """A transport distance against ``want`` and its plan: nonnegative, with
    the two marginals, and costing the distance."""
    errs = _off("W1 distance", dist, want, CERT)
    plan = np.asarray(plan, dtype=float)
    if plan.min() < -CERT:
        errs.append("W1 plan has negative mass")
    errs += _off("W1 plan rows", plan.sum(axis=1), p, CERT)
    errs += _off("W1 plan columns", plan.sum(axis=0), q, CERT)
    errs += _off("W1 plan cost", float(np.sum(plan * d)), dist, CERT)
    return errs


# ---------------------------------------------------------------------------
# rectangular folds and trees
# ---------------------------------------------------------------------------


def fold_tables(stage_sets: list[dict], table: np.ndarray) -> list[np.ndarray]:
    """Stagewise backward recursion; tables[t] has the shape of the first t
    stages, tables[T] is the input."""
    tables = [np.asarray(table, dtype=float)]
    for S in reversed(stage_sets):
        tables.append(sup_rows(S, tables[-1]))
    return tables[::-1]


def check_nested(stage_sets, table, value, tables) -> list[str]:
    own = fold_tables(stage_sets, table)
    tol = tol_for(table)
    errs = _off("nested value", value, own[0], tol)
    if len(tables) != len(own):
        return errs + [f"nested: {len(tables)} stage tables, expected {len(own)}"]
    for t, (got, want) in enumerate(zip(tables, own)):
        errs += _off(f"nested table {t}", got, want, tol)
    return errs


def product_expectation(members, table) -> float:
    val = np.asarray(table, dtype=float)
    for q in reversed(members):
        val = val @ np.asarray(q, dtype=float)
    return float(val)


def check_static_rectangular(stage_sets, table, value, members) -> list[str]:
    """Alternating maximisation is not exact, so check what it must satisfy:
    its members lie in their stage sets, their product attains the value, and
    the value never exceeds the nested value."""
    tol = tol_for(table)
    errs = []
    for t, (S, q) in enumerate(zip(stage_sets, members)):
        errs += member_errors(S, q, tol, f"static stage {t}")
    errs += _off("static product attains", product_expectation(members, table), value, tol)
    nested = fold_tables(stage_sets, table)[0]
    if value > nested + tol:
        errs.append(f"static value {value:.12g} exceeds nested value {float(nested):.12g}")
    return errs


def check_equivalence(stage_sets, table, res) -> list[str]:
    """Both routes of the rectangular equivalence check against the fold."""
    want = fold_tables(stage_sets, table)[0]
    tol = tol_for(table)
    errs = _off("equivalence nested", res.nested_value, want, tol)
    errs += _off("equivalence composite", res.composite_value, want, tol)
    return errs + ([] if res.agree else ["routes reported as disagreeing"])


def check_induced(stage_sets, table, count: int, measures) -> list[str]:
    """The induced two-stage set holds exactly m1 * m2^n1 selector products
    before deduplication, and its best member reproduces the nested value."""
    (m1, n1), m2 = stage_sets[0]["mat"].shape, stage_sets[1]["mat"].shape[0]
    errs = [] if count == m1 * m2**n1 else [f"induced count {count} != m1*m2^n1 = {m1 * m2**n1}"]
    W = np.vstack(measures)
    tol = tol_for(table)
    if W.min() < -tol or np.max(np.abs(W.sum(axis=1) - 1.0)) > tol:
        errs.append("induced measures are not probability vectors")
    best = float(np.max(W @ np.asarray(table).reshape(-1)))
    return errs + _off("induced maximum vs nested", best, fold_tables(stage_sets, table)[0], tol)


def tree_fold(children: list[tuple[int, ...]], node_sets: dict, leaf_values: dict) -> dict:
    """Node values of a tree given as child lists, folded in reverse index
    order: every parent has a smaller index than its children."""
    values = dict(leaf_values)
    for i in range(len(children) - 1, -1, -1):
        if children[i]:
            z = np.array([values[c] for c in children[i]])
            values[i] = float(sup_rows(node_sets[i], z))
    return values


def check_tree(children, node_sets, leaf_values, root_value, node_values) -> list[str]:
    own = tree_fold(children, node_sets, leaf_values)
    tol = tol_for(list(leaf_values.values()))
    keys = sorted(own)
    if sorted(node_values) != keys:
        return ["tree: node value keys differ"]
    errs = _off("tree root", root_value, own[0], tol)
    errs += _off("tree nodes", [node_values[k] for k in keys], [own[k] for k in keys], tol)
    return errs


# ---------------------------------------------------------------------------
# multistage problems
# ---------------------------------------------------------------------------


def dp_optimum(prob: dict) -> float:
    """Backward induction: min over allowed actions of cost plus worst-case
    continuation, computed from the problem's raw tables."""
    A, S, sets, costs, feas = prob["A"], prob["S"], prob["sets"], prob["costs"], prob["feas"]
    T = len(A)
    cont = np.zeros(A[T - 1])
    for t in range(T - 1, -1, -1):
        n_prev = 1 if t == 0 else A[t - 1]
        V = np.empty((n_prev, S[t]))
        for xp in range(n_prev):
            for xi in range(S[t]):
                allowed = feas[0] if t == 0 else feas[t][xp][xi]
                V[xp, xi] = min(costs[t][a, xi] + cont[a] for a in allowed)
        if t == 0:
            return float(V[0, 0])
        cont = sup_rows(sets[t], V)


def policy_arrays(prob: dict, actions: dict) -> tuple[list[np.ndarray], list[str]]:
    """Action tables per stage, act[t][xi_1..xi_t], plus feasibility errors."""
    A, S, feas = prob["A"], prob["S"], prob["feas"]
    T = len(A)
    act = [np.full(tuple(S[1 : t + 1]), -1, dtype=np.int64) for t in range(T)]
    errs = []
    expected = sum(int(np.prod(S[1 : t + 1])) for t in range(T))
    if len(actions) != expected:
        errs.append(f"policy has {len(actions)} nodes, expected {expected}")
    for node, a in actions.items():
        if len(node) >= T:
            errs.append(f"policy node {node} is past the horizon")
            continue
        act[len(node)][node] = a
    if any((x < 0).any() for x in act):
        return act, errs + ["policy misses nodes"]
    if int(act[0]) not in feas[0]:
        errs.append("first-stage action not allowed")
    for t in range(1, T):
        allowed = np.zeros((A[t - 1], S[t], A[t]), dtype=bool)
        for xp in range(A[t - 1]):
            for xi in range(S[t]):
                allowed[xp, xi, list(feas[t][xp][xi])] = True
        prev = act[t - 1][..., None] * np.ones(S[t], dtype=np.int64)
        xi = np.broadcast_to(np.arange(S[t]), act[t].shape)
        bad = int(np.count_nonzero(~allowed[prev, xi, act[t]]))
        if bad:
            errs.append(f"policy infeasible at {bad} stage-{t} nodes")
    return act, errs


def policy_cost_table(prob: dict, act: list[np.ndarray]) -> np.ndarray:
    S, costs = prob["S"], prob["costs"]
    T = len(S)
    grid = tuple(S[1:])
    total = np.full(grid, costs[0][int(act[0]), 0])
    for t in range(1, T):
        xi = np.broadcast_to(np.arange(S[t]), act[t].shape)
        stage = costs[t][act[t], xi]
        total = total + stage.reshape(stage.shape + (1,) * (T - 1 - t))
    return total


def policy_nested_value(prob: dict, act) -> float:
    return float(fold_tables(prob["sets"][1:], policy_cost_table(prob, act))[0])


def policy_static_value(prob: dict, act) -> float:
    """Static worst case over products of finite-family vertices."""
    table = policy_cost_table(prob, act)
    mats = [S["mat"] for S in prob["sets"][1:]]
    return max(product_expectation(combo, table) for combo in itertools.product(*mats))


def check_dp(prob: dict, value: float, actions: dict) -> list[str]:
    """The DP value is the optimum and the extracted policy is feasible at
    every node and attains it under an evaluation made here."""
    opt = dp_optimum(prob)
    tol = tol_for(np.concatenate([c.ravel() for c in prob["costs"]])) * len(prob["A"])
    errs = _off("DP value", value, opt, tol)
    act, feas_errs = policy_arrays(prob, actions)
    errs += feas_errs
    if not feas_errs:
        errs += _off("DP policy nested value", policy_nested_value(prob, act), opt, tol)
    return errs


def all_policies(prob: dict):
    """Every feasible policy as a node -> action dict."""
    A, S, feas = prob["A"], prob["S"], prob["feas"]
    T = len(A)

    def assign(t, node, xp):
        allowed = feas[0] if t == 0 else feas[t][xp][node[-1]]
        for a in allowed:
            if t + 1 == T:
                yield {node: a}
                continue
            subs = [list(assign(t + 1, node + (xi,), a)) for xi in range(S[t + 1])]
            for combo in itertools.product(*subs):
                d = {node: a}
                for sub in combo:
                    d.update(sub)
                yield d

    yield from assign(0, (), 0)


def check_min_comparison(prob: dict, cmp) -> list[str]:
    """Exhaustive minima recomputed here over every feasible policy."""
    statics, nesteds = [], []
    for pol in all_policies(prob):
        act, _ = policy_arrays(prob, pol)
        statics.append(policy_static_value(prob, act))
        nesteds.append(policy_nested_value(prob, act))
    tol = tol_for(np.concatenate([c.ravel() for c in prob["costs"]])) * len(prob["A"])
    errs = _off("min static", cmp.min_static, min(statics), tol)
    errs += _off("min nested", cmp.min_nested, min(nesteds), tol)
    errs += _off("min nested vs DP", cmp.min_nested, dp_optimum(prob), tol)
    if cmp.min_static > cmp.min_nested + tol:
        errs.append("min static exceeds min nested")
    for label, pol, want, fn in (
        ("argmin static", cmp.argmin_static, cmp.min_static, policy_static_value),
        ("argmin nested", cmp.argmin_nested, cmp.min_nested, policy_nested_value),
    ):
        act, feas_errs = policy_arrays(prob, dict(pol.actions))
        errs += [f"{label}: {e}" for e in feas_errs]
        if not feas_errs:
            errs += _off(f"{label} value", fn(prob, act), want, tol)
    return errs


# ---------------------------------------------------------------------------
# transport bounds on trees
# ---------------------------------------------------------------------------


def history_distance(points, weights, h, g) -> float:
    return float(sum(w * abs(x[a] - x[b]) for w, x, a, b in zip(weights, points, h, g)))


def own_moduli(points, kernels, weights) -> list[float]:
    """kappa_t = max over history pairs of W1(kernel_h, kernel_g) / D(h, g)."""
    out = [0.0]
    sizes = [x.size for x in points]
    for t in range(1, len(points)):
        hist = list(np.ndindex(*sizes[:t]))
        worst = 0.0
        for i, h in enumerate(hist):
            for g in hist[i + 1 :]:
                w1 = w1_line(points[t], kernels[t][h], kernels[t][g])
                if w1 > 1e-12:
                    worst = max(worst, w1 / history_distance(points, weights, h, g))
        out.append(worst)
    return out


def own_lipschitz(points, weights, table) -> float:
    scen = list(np.ndindex(*table.shape))
    vals = np.array([table[s] for s in scen])
    best = 0.0
    for i, a in enumerate(scen):
        for j in range(i + 1, len(scen)):
            dist = history_distance(points, weights, a, scen[j])
            best = max(best, abs(vals[i] - vals[j]) / dist)
    return best


def own_bound(eps, kappa, weights, L) -> float:
    T = len(eps)
    return L * sum(
        eps[t] * weights[t] * float(np.prod([1.0 + weights[s] * kappa[s] for s in range(t + 1, T)]))
        for t in range(T)
    )


def reference_expectation(kernels, table) -> float:
    v = np.asarray(table, dtype=float)
    for k in reversed(kernels):
        v = np.sum(k * v, axis=-1)
    return float(v)


def check_multistage(points, kernels, weights, eps, table, kappa, L, res) -> list[str]:
    tol = tol_for(table)
    errs = _off("history moduli", kappa, own_moduli(points, kernels, weights), CERT)
    errs += _off("Lipschitz certificate", L, own_lipschitz(points, weights, table), CERT)
    bound = own_bound(eps, kappa, weights, L)
    errs += _off("multistage bound", res.bound, bound, tol)
    errs += _off("reference value", res.reference_value, reference_expectation(kernels, table), tol)
    if res.nested_value < res.reference_value - tol:
        errs.append("nested value below the reference value")
    if res.gap > bound + tol:
        errs.append(f"multistage gap {res.gap:.6g} exceeds the bound {bound:.6g}")
    return errs


# ---------------------------------------------------------------------------
# CLI reports on the golden problem files, checked from the files' raw JSON
# ---------------------------------------------------------------------------


def _golden_set(doc: dict, name: str) -> dict:
    spec = doc["ambiguity_sets"][name]
    kind = spec["kind"]
    measure = lambda m: np.array(doc["measures"][m]["weights"], dtype=float)  # noqa: E731
    if kind == "finite_family":
        mat = np.vstack([measure(m) for m in spec["measures"]])
        return {"kind": "finite", "n": mat.shape[1], "mat": mat}
    if kind == "avar":
        p = measure(spec["reference"])
        return {"kind": "avar", "n": p.size, "alpha": float(spec["alpha"]), "p": p}
    if kind == "moment":
        (fn,), (target,) = spec["functions"], spec["targets"]
        psi = np.array(doc["random_variables"][fn]["values"], dtype=float)
        return {"kind": "moment", "n": psi.size, "psi": psi, "target": float(target)}
    p = measure(spec["center"])
    d = np.array(doc["spaces"][spec["space"]]["metric"], dtype=float)
    return {"kind": "wass", "n": p.size, "p": p, "r": float(spec["radius"]), "d": d}


def _golden_problem(doc: dict, name: str) -> dict:
    spec = doc["problems"][name]
    return {
        "A": tuple(spec["n_actions"]),
        "S": tuple(spec["stage_sizes"]),
        "sets": [None if s is None else _golden_set(doc, s) for s in spec["stage_sets"]],
        "costs": [np.array(c, dtype=float) for c in spec["costs"]],
        "feas": [tuple(spec["feasible"][0])]
        + [tuple(tuple(tuple(a) for a in per_prev) for per_prev in stage) for stage in spec["feasible"][1:]],
    }


def _atom_floats(values) -> list[float]:
    return [float(v) for v in values]  # float("-inf") reads the report's "-inf"


def check_cli(argv: list[str], res: dict) -> list[str]:
    """Numbers of one CLI report, recomputed from the problem file itself."""
    import json

    with open(argv[1], encoding="utf-8") as fh:
        doc = json.load(fh)
    cmd = argv[0]
    flags = dict(zip(argv[2::2], argv[3::2]))
    rv = lambda name: np.array(doc["random_variables"][name]["values"], dtype=float)  # noqa: E731
    measure = lambda name: np.array(doc["measures"][name]["weights"], dtype=float)  # noqa: E731
    if cmd == "eval-static":
        S, z = _golden_set(doc, flags["--set"]), rv(flags["--rv"])
        return check_static(S, z, res["value"], res["argmax_measure"])
    if cmd == "eval-conditional":
        S, z = _golden_set(doc, flags["--set"]), rv(flags["--rv"])
        atoms = doc["partitions"][flags["--partition"]]["atoms"]
        got = _atom_floats(res["atom_values"])
        if "--nested-avar" in argv:
            want = [float(avar_sup(S["alpha"], S["p"][a] / S["p"][a].sum(), z[a])) for a in atoms]
            return _off("nested AVaR atoms", got, want, tol_for(z))
        return check_atoms(S, z, atoms, got)
    if cmd == "eval-composite" and "--filtration" in flags:
        S, z = _golden_set(doc, flags["--set"]), rv(flags["--rv"])
        vals = z.copy()
        for stage in reversed(doc["filtrations"][flags["--filtration"]]["stages"]):
            atoms = doc["partitions"][stage]["atoms"]
            if all(len(a) == 1 for a in atoms):
                continue  # singletons fold to the identity on reachable outcomes
            new = vals.copy()
            for a in atoms:
                new[a] = cc_atom_sup(S, vals, a)
            vals = new
        tol = tol_for(z)
        errs = _off("composite value", res["value"], vals[0], tol)
        errs += _off("composite static value", res["static_value"], ref_value(S, z), tol)
        if res["value"] < res["static_value"] - tol:
            errs.append("composite value below the static value")
        return errs
    if cmd == "eval-composite":
        spec = doc["rectangular_specs"][flags["--spec"]]
        sets = [_golden_set(doc, s) for s in spec["stage_sets"]]
        sizes = tuple(S["n"] for S in sets)
        table = rv(flags["--rv"]).reshape(sizes)
        tables = [np.array(t).reshape(sizes[:k]) for k, t in enumerate(res["stage_tables"])]
        errs = check_nested(sets, table, res["value"], tables)
        tol = tol_for(table)
        errs += _off("composite value", res["composite_value"], res["value"], tol)
        m1, m2 = sets[0]["mat"].shape[0], sets[1]["mat"].shape[0]
        if res["induced_pre_dedup_count"] != m1 * m2 ** sizes[0]:
            errs.append(f"induced count {res['induced_pre_dedup_count']} != {m1 * m2 ** sizes[0]}")
        return errs + _off("induced maximum", res["induced_max"], res["value"], tol)
    if cmd == "solve":
        prob = _golden_problem(doc, flags["--problem"])
        actions = {
            () if key == "root" else tuple(int(i) for i in key.split("/")): a
            for key, a in res["policy"].items()
        }
        errs = check_dp(prob, res["value"], actions)
        return errs + _off("enumeration value", res["enumeration_value"], res["value"], CERT)
    if cmd == "wasserstein":
        p, q = measure(flags["--p"]), measure(flags["--q"])
        d = np.array(doc["spaces"][doc["measures"][flags["--p"]]["space"]]["metric"], dtype=float)
        return check_w1(d, p, q, res["distance"], res["plan"], w1_lp(d, p, q)) + _off(
            "plan cost", res["plan_cost"], res["distance"], CERT)
    if cmd == "bounds":
        spec = doc["bound_specs"][flags["--spec"]]
        z = rv(spec["rv"])
        tol = tol_for(z)
        errs = []
        if spec["kind"] == "ball_sweep":
            p = measure(spec["measure"])
            d = np.array(doc["spaces"][spec["space"]]["metric"], dtype=float)
            off_diag = d > 0
            lip = float(np.max(np.abs(np.subtract.outer(z, z))[off_diag] / d[off_diag]))
            for eps, row in zip(spec["eps_grid"], res["sweep"]):
                ball = {"kind": "wass", "n": p.size, "p": p, "r": float(eps), "d": d}
                errs += _off(f"ball gap at {eps}", row["gap"], lp_sup(ball, z) - p @ z, tol)
                errs += _off(f"ball bound at {eps}", row["bound"], lip * eps, tol)
                if row["gap"] > row["bound"] + tol:
                    errs.append(f"ball gap above its bound at {eps}")
            return errs
        process = doc["processes"][spec["process"]]
        kernels = [np.array(k, dtype=float) for k in process["kernels"]]
        sizes = tuple(k.shape[-1] for k in kernels)
        bound = own_bound(spec["eps"], spec["kappa"], spec["weights"], spec["lipschitz"])
        errs += _off("formula bound", res["formula_bound"], bound, tol)
        errs += _off("reference value", res["reference_value"],
                     reference_expectation(kernels, z.reshape(sizes)), tol)
        if res["nested_value"] < res["reference_value"] - tol:
            errs.append("nested value below the reference value")
        if res["gap"] > bound + tol:
            errs.append("multistage gap above the bound")
        return errs
    if cmd == "verify":
        return [] if res["objects_checked"] > 0 else ["verify checked no objects"]
    return [f"no check for {cmd}"]
