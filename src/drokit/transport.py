"""Order-1 optimal transport on finite metric spaces and the bounds it buys.

Contains the Wasserstein-1 distance as a transport LP, the worst-case-vs-
reference gap bound for transport balls, and the multistage bound for trees
whose per-node transition sets are transport balls around their own kernel
rows (the nested balls of Analui & Pflug 2014).

Transport LPs here, like the ball's membership system, flatten an ``n x n``
plan row-major and take its marginal rows from ``ambiguity._plan_marginals``.

Everything is fixed to order 1: every bound consumed downstream is stated for
the order-1 distance, and higher orders are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ambiguity import WassersteinBall, _plan_marginals, robust_expectation, worst_case
from .lp import EQ, LE, LinearProgram, solve
from .spaces import DiscreteMeasure, FiniteSpace, RandomVariable, ValidationError


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


def wasserstein_1(
    P: DiscreteMeasure, Q: DiscreteMeasure, space: FiniteSpace
) -> tuple[float, TransportPlan]:
    """Minimal transport cost between two probabilities on a metric space: the
    plan LP with row sums ``P`` and column sums ``Q`` (one row is redundant).
    The plan's cost is summed from the returned plan, independently of the
    LP value."""
    d = space.require_metric()
    P.require_probability("P")
    Q.require_probability("Q")
    n = space.n
    if P.n != n or Q.n != n:
        raise ValidationError("P, Q must live on the given space")
    sol = solve(
        LinearProgram(
            c=d.reshape(-1),
            A=np.vstack(_plan_marginals(n)),
            senses=(EQ,) * (2 * n),
            b=np.concatenate([P.weights, Q.weights]),
        )
    )
    if not sol.optimal:
        raise ValidationError(f"transport LP unexpectedly {sol.status}")
    pi = np.maximum(sol.x.reshape(n, n), 0.0)
    plan = TransportPlan(matrix=pi, cost=float(np.sum(pi * d)), source=P, target=Q)
    return float(sol.value), plan


def wasserstein_dual_value(
    P: DiscreteMeasure, Q: DiscreteMeasure, space: FiniteSpace
) -> float:
    """Transport cost via the potential (dual) LP, as an independent route:
    max <P - Q, f> over 1-Lipschitz potentials f."""
    d = space.require_metric()
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
    if not sol.optimal:
        raise ValidationError(f"potential LP unexpectedly {sol.status}")
    return float(sol.value)


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
    reference expectation."""
    L = lipschitz_constant(Z, space)
    value, _ = robust_expectation(WassersteinBall(P, radius, space), Z)
    gap = value - float(P.weights @ Z.values)
    if not np.isfinite(L):
        return BallGapCheck(gap, float("inf"), True, L, degenerate=True)
    bound = L * radius
    return BallGapCheck(gap, bound, gap <= bound + 1e-9, L, degenerate=False)


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
    of the two: 0 where the rows are within 1e-12, ``inf`` where rows apart
    sit at history distance 0."""
    rows = process.kernels[t].reshape(-1, process.sizes[t])
    i, j = np.triu_indices(len(rows), 1)
    space = process.stage_spaces[t]
    w1 = np.array(
        [wasserstein_1(DiscreteMeasure(rows[a]), DiscreteMeasure(rows[b]), space)[0]
         for a, b in zip(i, j)]
    )
    dist = process.history_metric(t, weights)[i, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(w1 <= 1e-12, 0.0, np.where(dist > 0.0, w1 / dist, np.inf))
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
    the declared weighted Lipschitz certificate are rejected with the stage
    and the first offending pair in row-major order: below either, the
    closed-form bound is not proved.

    The closed-form bound is stated for the static functional but proved
    through the stagewise recursion; this check compares it against the
    nested evaluation, which is the construction the per-node sets define.
    """
    T = process.horizon
    if spec.horizon != T:
        raise ValidationError("bound spec and process horizons differ")
    arr = process.as_array(Z)
    # certificate check: the first offending scenario pair in row-major order
    i, j, dz, dist = _pairs(arr.reshape(-1), process.history_metric(T, spec.weights))
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, and nan passes, as for floats
        bad = np.flatnonzero(dz > spec.lipschitz * dist + 1e-9)
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
    return EmpiricalBoundCheck(nested, reference, gap, bound, gap <= bound + 1e-7)
