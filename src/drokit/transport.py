"""Order-1 optimal transport on finite metric spaces and the bounds it buys.

Contains the Wasserstein-1 distance, solved by a transportation simplex on
the excess measures, the worst-case-vs-reference gap bound for transport
balls, and the multistage bound for trees whose per-node transition sets are
transport balls around their own kernel rows (the nested balls of Analui &
Pflug 2014).

Everything is fixed to order 1: every bound consumed downstream is stated for
the order-1 distance, and higher orders are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ambiguity import WassersteinBall, robust_expectation, worst_case
from .spaces import DiscreteMeasure, FiniteSpace, RandomVariable, ValidationError

#: A reduced cost below ``-COST_RTOL * max C`` prices an arc into the basis.
COST_RTOL = 1e-12
#: Excess masses at or below ``MASS_RTOL`` times the total excess stay in place.
MASS_RTOL = 1e-13


@dataclass(frozen=True)
class TransportPlan:
    """Joint nonnegative mass with prescribed marginals and its cost."""

    matrix: np.ndarray
    cost: float
    source: DiscreteMeasure
    target: DiscreteMeasure

    def __post_init__(self):
        pi = np.asarray(self.matrix, dtype=float)
        if np.any(pi < -1e-9):
            raise ValidationError("plan entries must be nonnegative")
        if np.max(np.abs(pi.sum(axis=1) - self.source.weights)) > 1e-7:
            raise ValidationError("row sums must reproduce the source marginal")
        if np.max(np.abs(pi.sum(axis=0) - self.target.weights)) > 1e-7:
            raise ValidationError("column sums must reproduce the target marginal")
        object.__setattr__(self, "matrix", pi)


def _northwest_corner(a: list, b: list) -> tuple[list, list]:
    """Basic cells and flows of the northwest-corner plan. A row and a column
    exhausted together step down, so the zero cell hangs a source below its
    column: the tree rooted at source 0 is strongly feasible."""
    cells, flow = [], []
    i = j = 0
    while True:
        f = min(a[i], b[j])
        cells.append((i, j))
        flow.append(f)
        a[i] -= f
        b[j] -= f
        if i == len(a) - 1 and j == len(b) - 1:
            return cells, flow
        if j == len(b) - 1 or (i < len(a) - 1 and a[i] <= b[j]):
            i += 1
        else:
            j += 1


def _basis_tree(cells: list, cost: list, k: int, l: int):
    """Parent node, parent arc, depth and potential of every node of the basis
    tree rooted at source 0, with ``u_i + v_j = C_ij`` on each tree arc.
    Sources are nodes ``0..k-1`` and sinks ``k..k+l-1``."""
    n = k + l
    arcs = [[] for _ in range(n)]
    for e, (i, j) in enumerate(cells):
        arcs[i].append(e)
        arcs[k + j].append(e)
    parent, up, depth, pot = [0] * n, [-1] * n, [0] * n, [0.0] * n
    order = [0]
    for node in order:  # breadth first: ``order`` grows while it is walked
        for e in arcs[node]:
            if e != up[node]:
                i, j = cells[e]
                child = k + j if node == i else i
                parent[child], up[child], depth[child] = node, e, depth[node] + 1
                pot[child] = cost[i][j] - pot[node]
                order.append(child)
    return parent, up, depth, pot


def transport_simplex(cost, supply, demand) -> tuple[float, np.ndarray]:
    """Minimal cost of shipping a positive ``supply`` (length k) to a positive
    ``demand`` (length l, the same total) over a nonnegative ``k x l`` cost
    matrix, and an optimal flow.

    The transportation simplex: a northwest-corner start, MODI potentials
    ``u_i + v_j = C_ij`` on the basis tree, the smallest row-major index among
    arcs whose reduced cost is below ``-COST_RTOL * max C`` entering, and the
    last blocking arc met along the cycle from its apex leaving, which keeps
    the tree strongly feasible and so rules out cycling (Ahuja, Magnanti &
    Orlin 1993, ch. 11). The returned cost is the dual objective
    ``<supply, u> + <demand, v>`` of the final potentials. With one source
    or one sink the plan is forced, and so are the potentials (the costs on
    that side, zero on the other). Otherwise the demand is first rescaled to
    the supply's total, so rounding in the totals leaves no column unserved.
    """
    C = np.asarray(cost, dtype=float)
    a, b = np.array(supply, dtype=float), np.array(demand, dtype=float)
    k, l = C.shape
    if k == 1:
        return float(b @ C[0]), b[None, :]
    if l == 1:
        return float(a @ C[:, 0]), a[:, None]
    b = b * (a.sum() / b.sum())
    cells, flow = _northwest_corner(a.tolist(), b.tolist())
    table, tol = C.tolist(), COST_RTOL * float(np.abs(C).max())
    while True:
        parent, up, depth, pot = _basis_tree(cells, table, k, l)
        entering = np.flatnonzero(C - np.add.outer(pot[:k], pot[k:]) < -tol)
        if not entering.size:
            break
        i, j = divmod(int(entering[0]), l)
        # climb from both ends of the entering arc to the apex of its cycle
        p, q, down, rise = i, k + j, [], []
        while p != q:
            if depth[p] >= depth[q]:
                down.append(p)
                p = parent[p]
            else:
                rise.append(q)
                q = parent[q]
        # the cycle runs apex -> source i -> sink j -> apex; the arcs it
        # crosses against their direction (source to sink) lose flow
        back = [x for x in reversed(down) if x < k] + [x for x in rise if x >= k]
        theta = min(flow[up[x]] for x in back)
        leaving = up[next(x for x in reversed(back) if flow[up[x]] == theta)]
        for x in down:
            flow[up[x]] += theta if x >= k else -theta
        for x in rise:
            flow[up[x]] += theta if x < k else -theta
        cells[leaving], flow[leaving] = (i, j), theta
    plan = np.zeros((k, l))
    plan[tuple(np.array(cells).T)] = flow
    return float(a @ pot[:k] + b @ pot[k:]), plan


def _excess(p: np.ndarray, q: np.ndarray):
    """``p - q`` along the last axis and the masks of its sources and sinks:
    the entries beyond ``MASS_RTOL`` times their row's total excess."""
    excess = p - q
    tol = MASS_RTOL * np.abs(excess).sum(axis=-1, keepdims=True)
    return excess, excess > tol, excess < -tol


def wasserstein_1(
    P: DiscreteMeasure, Q: DiscreteMeasure, space: FiniteSpace
) -> tuple[float, TransportPlan]:
    """Minimal transport cost between two probabilities on a metric space.

    The common mass ``min(P, Q)`` stays in place, which is optimal because the
    cost is a metric, so only the excess ``(P - Q)+`` travels to ``(P - Q)-``,
    over the metric's sub-matrix, by ``transport_simplex``. The distance is
    that solver's dual objective; the plan's cost is summed from the returned
    plan, independently of it."""
    d = space.require_metric()
    P.require_probability("P")
    Q.require_probability("Q")
    if P.n != space.n or Q.n != space.n:
        raise ValidationError("P, Q must live on the given space")
    p, q = P.weights, Q.weights
    excess, src, dst = _excess(p, q)
    src, dst = np.flatnonzero(src), np.flatnonzero(dst)
    pi = np.diag(np.minimum(p, q))
    value = 0.0
    if src.size and dst.size:
        value, pi[src[:, None], dst] = transport_simplex(d[src][:, dst], excess[src], -excess[dst])
    plan = TransportPlan(matrix=pi, cost=float(np.sum(pi * d)), source=P, target=Q)
    return value, plan


def _w1_values(A: np.ndarray, B: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``W1(A[k], B[k])`` for every row pair of two ``(K, n)`` stacks of
    probability rows on the metric ``d``, equal bit for bit to
    ``wasserstein_1`` on each pair, with no measure or plan built.

    Rows are clipped as ``DiscreteMeasure`` clips them and the common mass
    cancels in one subtraction. A pair whose excess has one source (else one
    sink) has a forced plan, which ``transport_simplex`` prices as one dot of
    the excess with that point's row (column) of ``d``: here the pairs with
    the same number of sinks (sources) take that dot in one stacked matmul
    over their compressed rows, which runs the same BLAS dot. Only pairs
    with at least two sources and two sinks reach the simplex."""
    excess, src, dst = _excess(*(np.where(X < 0.0, 0.0, X) for X in (A, B)))
    ns, nd = src.sum(axis=1), dst.sum(axis=1)
    out = np.zeros(len(excess))
    for forced, hub, spread, count, sign, dist in (
        ((ns == 1) & (nd > 0), src, dst, nd, -1.0, d),  # the source ships -excess[dst]
        ((nd == 1) & (ns > 1), dst, src, ns, 1.0, d.T),  # the sink takes excess[src]
    ):
        for m in np.flatnonzero(np.bincount(count[forced])):
            k = np.flatnonzero(forced & (count == m))
            cols = np.nonzero(spread[k])[1].reshape(-1, m)
            mass = sign * excess[k[:, None], cols]
            cost = dist[hub[k].argmax(axis=1)[:, None], cols]
            out[k] = (mass[:, None, :] @ cost[:, :, None])[:, 0, 0]
    for k in np.flatnonzero((ns > 1) & (nd > 1)):
        s, t = np.flatnonzero(src[k]), np.flatnonzero(dst[k])
        out[k] = transport_simplex(d[s][:, t], excess[k, s], -excess[k, t])[0]
    return out


def _pairs(values: np.ndarray, D: np.ndarray):
    """Pairs ``i < j`` in row-major order with ``|values_i - values_j|`` and ``D[i, j]``."""
    i, j = np.triu_indices(values.size, 1)
    return i, j, np.abs(values[i] - values[j]), D[i, j]


def _lipschitz(values: np.ndarray, D: np.ndarray) -> float:
    """Smallest L with ``|dZ| <= L D`` over all pairs: ``inf`` when two
    points at distance zero carry different values."""
    _, _, dz, dist = _pairs(values, D)
    apart = dist > 0.0
    if (dz[~apart] > 0.0).any():
        return float("inf")
    return float((dz[apart] / dist[apart]).max(initial=0.0))


def lipschitz_constant(Z: RandomVariable, space: FiniteSpace) -> float:
    """Smallest L with |Z(i) - Z(j)| <= L d(i, j); ``inf`` when two outcomes
    at distance zero carry different values (the bound is then vacuous)."""
    if Z.n != space.n:
        raise ValidationError(f"Z has {Z.n} values on a space of {space.n} points")
    return _lipschitz(Z.values, space.require_metric())


@dataclass(frozen=True)
class BallGapCheck:
    gap: float  # R(Z) - E_P Z over the ball (nonnegative: P is feasible)
    bound: float  # L_Z * radius
    holds: bool
    lipschitz: float
    degenerate: bool


def ball_robust_gap_check(
    P: DiscreteMeasure, radius: float, space: FiniteSpace, Z: RandomVariable
) -> BallGapCheck:
    """Worst case over a transport ball sits within ``L_Z * radius`` of the
    reference expectation, to ``1e-9 max|Z|``."""
    L = lipschitz_constant(Z, space)
    value, _ = robust_expectation(WassersteinBall(P, radius, space), Z)
    gap = value - float(P.weights @ Z.values)
    if not np.isfinite(L):
        return BallGapCheck(gap, float("inf"), True, L, degenerate=True)
    bound, slack = L * radius, 1e-9 * float(np.abs(Z.values).max())
    return BallGapCheck(gap, bound, gap <= bound + slack, L, degenerate=False)


# ---------------------------------------------------------------------------
# multistage transport bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultistageBoundSpec:
    """Per-stage radii, history moduli, stage weights, and the objective's
    weighted Lipschitz certificate."""

    eps: tuple[float, ...]
    kappa: tuple[float, ...]
    weights: tuple[float, ...]
    lipschitz: float

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps)
        kappa = tuple(float(k) for k in self.kappa)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "weights", weights)
        if not (len(eps) == len(kappa) == len(weights)):
            raise ValidationError("eps, kappa, and weights must share a length")
        for name, values in (("eps", eps), ("kappa", kappa), ("weights", weights)):
            if not np.isfinite(values).all():
                raise ValidationError(f"{name} must be finite")
        if any(e < 0 for e in eps) or any(k < 0 for k in kappa):
            raise ValidationError("radii and moduli must be nonnegative")
        if any(w <= 0 for w in weights):
            raise ValidationError("stage weights must be positive")
        if not self.lipschitz >= 0:  # +inf is the vacuous certificate; NaN is rejected
            raise ValidationError("lipschitz must be nonnegative, not NaN")

    @property
    def horizon(self) -> int:
        return len(self.eps)


def multistage_bound(spec: MultistageBoundSpec) -> float:
    """Closed-form gap bound: ``L * sum_t eps_t w_t prod_{s>t} (1 + w_s kappa_s)``,
    ``inf`` for the vacuous certificate ``L = inf`` even when every radius is 0."""
    if spec.lipschitz == np.inf:
        return float("inf")
    total = 0.0
    T = spec.horizon
    for t in range(T):
        tail = 1.0
        for s in range(t + 1, T):
            tail *= 1.0 + spec.weights[s] * spec.kappa[s]
        total += spec.eps[t] * spec.weights[t] * tail
    return spec.lipschitz * total


@dataclass(frozen=True)
class TreeProcess:
    """Reference process on a product of metrized stage spaces.

    ``kernels[t]`` holds the stage-t transition: an array of shape
    ``sizes[:t] + (sizes[t],)`` whose last axis is a probability vector for
    each history prefix (``kernels[0]`` is the root distribution).
    """

    stage_spaces: tuple[FiniteSpace, ...]
    kernels: tuple[np.ndarray, ...]

    def __post_init__(self):
        spaces = tuple(self.stage_spaces)
        kernels = tuple(np.asarray(k, dtype=float) for k in self.kernels)
        object.__setattr__(self, "stage_spaces", spaces)
        object.__setattr__(self, "kernels", kernels)
        if len(spaces) != len(kernels) or not spaces:
            raise ValidationError("one kernel per stage required")
        sizes = self.sizes
        for t, k in enumerate(kernels):
            if k.shape != sizes[:t] + (sizes[t],):
                raise ValidationError(f"kernel {t} has shape {k.shape}")
            if not np.isfinite(k).all():
                raise ValidationError(f"kernel {t} must be finite")
            if np.any(k < -1e-12):
                raise ValidationError("kernel masses must be nonnegative")
            if np.max(np.abs(k.sum(axis=-1) - 1.0)) > 1e-9:
                raise ValidationError("kernel rows must be probabilities")
        for sp in spaces:
            sp.require_metric()

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(sp.n for sp in self.stage_spaces)

    @property
    def horizon(self) -> int:
        return len(self.stage_spaces)

    def as_array(self, Z) -> np.ndarray:
        arr = Z.values if isinstance(Z, RandomVariable) else np.asarray(Z, dtype=float)
        if arr.shape == self.sizes:
            return arr
        if arr.size != int(np.prod(self.sizes, dtype=int)):
            raise ValidationError(f"Z has {arr.size} values on a process of sizes {self.sizes}")
        return arr.reshape(self.sizes)

    def reference_expectation(self, Z) -> float:
        v = self.as_array(Z)
        for t in range(self.horizon - 1, -1, -1):
            v = np.sum(self.kernels[t] * v, axis=-1)
        return float(v)

    def history_metric(self, t: int, weights: Sequence[float]) -> np.ndarray:
        """Weighted history metric ``D[h, g] = sum_{s<t} w_s d_s(h_s, g_s)``
        over the stage-``t`` prefixes in ``np.ndindex`` order, shape
        ``(H, H)``, summed stage by stage from stage 0."""
        sizes = self.sizes[:t]
        H = int(np.prod(sizes, dtype=int))
        coords = np.indices(sizes).reshape(t, H)
        D = np.zeros((H, H))
        for s in range(t):
            D += weights[s] * self.stage_spaces[s].metric[np.ix_(coords[s], coords[s])]
        return D


def scenario_lipschitz_certificate(
    process: TreeProcess, Z, weights: Sequence[float]
) -> float:
    """Smallest L with |Z(s) - Z(s')| <= L * sum_t w_t d_t(s_t, s'_t) over all
    scenario pairs; ``inf`` when two scenarios at distance zero differ."""
    D = process.history_metric(process.horizon, weights)
    return _lipschitz(process.as_array(Z).reshape(-1), D)


def _kernel_moduli(process: TreeProcess, t: int, weights: Sequence[float]):
    """History pairs ``i < j`` of stage ``t`` in row-major order, with the W1
    between their kernel rows, their weighted history distance and the ratio
    of the two: 0 where the rows are within 1e-12 times the largest distance
    of the stage space, ``inf`` where rows apart sit at history distance 0."""
    rows = process.kernels[t].reshape(-1, process.sizes[t])
    i, j = np.triu_indices(len(rows), 1)
    space = process.stage_spaces[t]
    w1 = _w1_values(rows[i], rows[j], space.metric)
    dist = process.history_metric(t, weights)[i, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        close = w1 <= 1e-12 * space.metric.max()
        ratio = np.where(close, 0.0, np.where(dist > 0.0, w1 / dist, np.inf))
    return i, j, w1, dist, ratio


def kernel_history_moduli(process: TreeProcess, weights: Sequence[float]) -> tuple[float, ...]:
    """Per-stage certificate kappa_t: the largest ratio of transition distance
    to weighted history distance over history pairs (0 for stage 0, ``inf``
    when rows apart sit at history distance 0)."""
    return tuple(
        float(_kernel_moduli(process, t, weights)[-1].max(initial=0.0))
        for t in range(process.horizon)
    )


@dataclass(frozen=True)
class EmpiricalBoundCheck:
    nested_value: float
    reference_value: float
    gap: float
    bound: float
    holds: bool


def multistage_bound_empirical_check(
    process: TreeProcess, spec: MultistageBoundSpec, Z
) -> EmpiricalBoundCheck:
    """Evaluate the nested worst case over history-inflated transport balls
    and compare its gap from the reference expectation to the closed form.

    The stage-t set at history h collects transitions within
    ``eps_t + kappa_t * D(h, g)`` of the reference transition ``P_g`` at
    *every* history g, where D is the weighted stage-metric sum. The
    declared ``kappa_t`` must be a modulus of the kernels:
    ``W1(P_h, P_g) <= kappa_t * D(h, g)`` for every pair, compared through
    the same ratio that ``kernel_history_moduli`` maximises. Then by the
    triangle inequality the node's own ball ``ball(P_h, eps_t)`` lies inside
    every other ball, so it is the whole set, and each node value is one
    closed-form ball worst case. Inputs that violate the declared modulus or
    the declared weighted Lipschitz certificate (to ``1e-9 max|Z|``) are
    rejected with the stage and the first offending pair in row-major order:
    below either, the closed-form bound is not proved. The gap must stay
    within the bound to ``1e-7 max|Z|``.

    The closed-form bound is stated for the static functional but proved
    through the stagewise recursion; this check compares it against the
    nested evaluation, which is the construction the per-node sets define.
    """
    T = process.horizon
    if spec.horizon != T:
        raise ValidationError("bound spec and process horizons differ")
    arr = process.as_array(Z)
    zmax = float(np.abs(arr).max())
    # certificate check: the first offending scenario pair in row-major order
    i, j, dz, dist = _pairs(arr.reshape(-1), process.history_metric(T, spec.weights))
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, and nan passes, as for floats
        bad = np.flatnonzero(dz > spec.lipschitz * dist + 1e-9 * zmax)
    if bad.size:
        k = bad[0]
        scen = list(np.ndindex(*process.sizes))
        raise ValidationError(
            f"objective violates the Lipschitz certificate on {scen[i[k]]} vs {scen[j[k]]}: "
            f"|dZ| = {dz[k]:.6g} > L * D = {spec.lipschitz * dist[k]:.6g}"
        )
    # modulus check: the first offending history pair of each stage
    for t in range(1, T):
        i, j, w1, dist, ratio = _kernel_moduli(process, t, spec.weights)
        bad = np.flatnonzero(ratio > spec.kappa[t])
        if bad.size:
            k = bad[0]
            hist = list(np.ndindex(*process.sizes[:t]))
            raise ValidationError(
                f"kernel {t} violates the history modulus on {hist[i[k]]} vs {hist[j[k]]}: "
                f"W1 = {w1[k]:.6g} > kappa * D = {spec.kappa[t] * dist[k]:.6g}"
            )
    v = arr
    for t in range(T - 1, -1, -1):
        out = np.empty(process.sizes[:t])
        for h in np.ndindex(*process.sizes[:t]):
            own = WassersteinBall(
                DiscreteMeasure(process.kernels[t][h]), spec.eps[t], process.stage_spaces[t]
            )
            out[h] = worst_case(own, v[h])[0]
        v = out
    nested = float(v)
    reference = process.reference_expectation(arr)
    gap = abs(nested - reference)
    bound = multistage_bound(spec)
    return EmpiricalBoundCheck(nested, reference, gap, bound, gap <= bound + 1e-7 * zmax)
