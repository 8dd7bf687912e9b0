"""Ambiguity sets: representation, worst-case expectation, reference measure,
and strict-monotonicity certification.

Four families are supported, each a convex set of probability measures on a
finite space described by generators or constraints (never by enumerating the
continuum):

* ``FiniteFamily`` -- the convex hull of listed measures;
* ``AVaRSet`` -- densities ``0 <= zeta <= 1/(1-alpha)`` w.r.t. a reference,
  ``alpha`` in [0, 1];
* ``MomentSet`` -- measures on a support grid matching moment targets;
* ``WassersteinBall`` -- order-1 transport ball around a center.

Each family answers one question through one batched oracle,
``worst_case(M, Z)``: the worst-case expectation ``sup_Q E_Q[Z]`` for every
row of ``Z`` together with an attaining measure. Finite families scan their
members with a matrix product, AVaR sets sort ``Z`` and fill the capped
density (Rockafellar & Uryasev 2000), transport balls fill the radius budget
along the upper concave hulls of ``(d_ij, Z_j)`` in order of slope (the LP
relaxation of a multiple-choice knapsack, Sinha & Zemel 1979), one-moment
sets take the best two-point measure on the target, the upper concave
envelope of ``(psi_j, Z_j)`` (Kemperman 1968), over a pair table each set
builds once, and sets with two or more moments solve the membership LP on
``Z`` over its largest magnitude. The reference
measure, strict monotonicity, sampled members, reachability and the
conditional functional are all the oracle on chosen objectives (unit vectors,
their negatives, random directions, atom indicators). A linear objective on a
polytope attains its optimum at a vertex, so every reduction is exact.
``worst_case_rows`` prices a stack of rows, each over its own set, with one
call of the same per-family kernels on the sets' stacked parameters, which
gives each row the bits ``worst_case`` gives it alone.
``membership_system`` encodes each set as constraints; it feeds the LP and is
the independent route the tests compare the oracle against. ``vertices``
lists points whose hull is the set, its basic solutions, for product scans.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .lp import EQ, FEAS_TOL, GE, LE, LinearProgram, solve
from .rng import Rng
from .spaces import ATOL, DiscreteMeasure, FiniteSpace, RandomVariable, ValidationError, as_weights


@dataclass(frozen=True)
class FiniteFamily:
    """Convex hull of finitely many probability measures, held as one
    read-only ``(m, n)`` array with a member per row. Any array-like
    converts, a sequence of ``DiscreteMeasure`` included."""

    weights: np.ndarray

    def __post_init__(self):
        W = as_weights(self.weights, 2, "family weights")
        off = float(np.abs(W.sum(axis=1) - 1.0).max())
        if off > ATOL:
            raise ValidationError(f"family members must be probabilities (mass off by {off:.3g})")
        object.__setattr__(self, "weights", W)

    @property
    def n(self) -> int:
        return self.weights.shape[1]

    @property
    def measures(self) -> tuple[DiscreteMeasure, ...]:
        """The members as measures, built on each call."""
        return tuple(DiscreteMeasure(w) for w in self.weights)


@dataclass(frozen=True)
class AVaRSet:
    """Dual set of AVaR at level ``alpha`` in [0, 1]: capped densities w.r.t.
    a reference. At ``alpha = 1`` the cap is ``+inf``: the essential supremum."""

    alpha: float
    reference: DiscreteMeasure

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError("AVaRSet needs alpha in [0, 1]")
        self.reference.require_probability("AVaR reference")

    @property
    def n(self) -> int:
        return self.reference.n

    @property
    def cap(self) -> float:
        return np.inf if self.alpha == 1.0 else 1.0 / (1.0 - self.alpha)


@dataclass(frozen=True)
class MomentSet:
    """Measures on a finite support grid with prescribed generalized moments.

    The grid discretizes whatever continuum the moment functions came from;
    choosing it is up to the caller and the docs flag the approximation.
    Feasibility is decided at construction: with one moment the target must
    lie in the range of ``psi`` up to ``FEAS_TOL * max|psi|``, the LP's
    margin in the units of ``psi``, and is clamped into it; with two or more
    an LP solve certifies it.
    """

    support: FiniteSpace
    psi: tuple[RandomVariable, ...]
    targets: tuple[float, ...]

    def __post_init__(self):
        psi = tuple(self.psi)
        targets = tuple(float(t) for t in self.targets)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "targets", targets)
        if len(psi) != len(targets):
            raise ValidationError("one target per moment function required")
        for f in psi:
            if f.n != self.support.n:
                raise ValidationError("moment function off the support grid")
        if len(psi) == 1:
            lo, hi = float(psi[0].values.min()), float(psi[0].values.max())
            margin = FEAS_TOL * max(abs(lo), abs(hi))
            feasible = lo - margin <= targets[0] <= hi + margin
            object.__setattr__(self, "targets", (min(max(targets[0], lo), hi),))
        else:
            sys = membership_system(self)
            feasible = solve(
                LinearProgram(
                    c=np.zeros(sys.n_vars), A=sys.A, senses=sys.senses, b=sys.b
                )
            ).optimal
        if not feasible:
            raise ValidationError("moment constraints are infeasible on this grid")

    @property
    def n(self) -> int:
        return self.support.n

    @property
    def n_moments(self) -> int:
        return len(self.psi)

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The one-moment oracle's read-only pair table ``(ia, ib, wa, wb)``,
        built on first use: every pair ``psi_a <= t <= psi_b`` in row-major
        order of ``(a, b)``, and the weights of the two-point measure on it
        with mean ``t``, ``(1, 0)`` when ``psi_a = psi_b = t``."""
        psi, t = self.psi[0].values, self.targets[0]
        below, above = np.flatnonzero(psi <= t), np.flatnonzero(psi >= t)
        span = psi[above] - psi[below, None]
        single = span == 0.0
        span[single] = 1.0
        wa = np.where(single, 1.0, (psi[above] - t) / span).ravel()
        wb = np.where(single, 0.0, (t - psi[below, None]) / span).ravel()
        table = np.repeat(below, above.size), np.tile(above, below.size), wa, wb
        for a in table:
            a.flags.writeable = False
        return table


@dataclass(frozen=True)
class WassersteinBall:
    """Order-1 transport ball of the given radius around ``center``.

    The order is fixed at 1 and is not a field: every bound used downstream
    is stated for the order-1 distance.
    """

    center: DiscreteMeasure
    radius: float
    space: FiniteSpace

    def __post_init__(self):
        self.center.require_probability("ball center")
        if self.center.n != self.space.n:
            raise ValidationError("center and space sizes differ")
        if not 0.0 <= self.radius < np.inf:
            raise ValidationError("radius must be finite and nonnegative")
        self.space.require_metric()

    @property
    def n(self) -> int:
        return self.space.n


AmbiguitySet = Union[FiniteFamily, AVaRSet, MomentSet, WassersteinBall]


@dataclass(frozen=True)
class MembershipSystem:
    """Constraint encoding ``{q = q_map @ v : A v (sense) b, v >= 0}``.

    ``v`` are internal variables (hull weights, densities, or transport-plan
    entries); ``q_map`` maps them to the measure itself. Caps and cost budgets
    are encoded as rows so that Charnes-Cooper homogenization stays uniform.
    """

    n_vars: int
    A: np.ndarray
    senses: tuple[str, ...]
    b: np.ndarray
    q_map: np.ndarray  # shape (n_outcomes, n_vars)


def membership_system(M: AmbiguitySet) -> MembershipSystem:
    """Constraint encoding of ``M``: hull weights of sum 1, capped densities
    of unit mass, a measure meeting the moment targets, or for balls a plan
    flattened as in ``_plan_marginals``, with rows for the center's marginal
    and the cost budget and the column-sum operator as ``q_map``."""
    n = M.n
    if isinstance(M, FiniteFamily):
        m = len(M.weights)
        return MembershipSystem(m, np.ones((1, m)), (EQ,), np.array([1.0]), q_map=M.weights.T)
    if isinstance(M, AVaRSet):
        p = M.reference.weights
        caps = n if M.alpha < 1.0 else 0  # LinearProgram takes a finite b only
        A = np.vstack([p.reshape(1, -1), np.eye(n)[:caps]])
        senses = (EQ,) + (LE,) * caps
        b = np.concatenate([[1.0], np.full(caps, M.cap)])
        return MembershipSystem(n, A, senses, b, q_map=np.diag(p))
    if isinstance(M, MomentSet):
        rows = [np.ones(n)] + [f.values for f in M.psi]
        b = np.concatenate([[1.0], np.asarray(M.targets, dtype=float)])
        return MembershipSystem(
            n, np.vstack(rows), (EQ,) * (1 + M.n_moments), b, q_map=np.eye(n)
        )
    if isinstance(M, WassersteinBall):
        rows, cols = _plan_marginals(n)
        A = np.vstack([rows, M.space.require_metric().reshape(1, -1)])
        b = np.concatenate([M.center.weights, [M.radius]])
        return MembershipSystem(n * n, A, (EQ,) * n + (LE,), b, q_map=cols)
    raise ValidationError(f"unknown ambiguity set type {type(M).__name__}")


def _plan_marginals(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-sum (source marginal) and column-sum (target marginal) operators,
    each ``(n, n * n)``, of an ``n x n`` plan flattened with entry ``(i, j)``
    at index ``i * n + j``."""
    return np.repeat(np.eye(n), n, axis=1), np.tile(np.eye(n), n)


#: Most column choices ``vertices`` tries, ``C(columns, rows)``.
_VERTEX_BASES = 1 << 14


def vertices(M: AmbiguitySet) -> np.ndarray:
    """Points whose convex hull is ``M``, its extreme points among them, one
    per row of a read-only ``(k, n)`` array: a finite family's weights, or
    the nonnegative basic solutions of ``membership_system(M)`` through
    ``q_map`` (a ball's plan vertices map to some interior points too). Each
    inequality row gets a slack column, each row is divided by its largest
    magnitude so that the sign test (down to ``-1e-10``) does not depend on
    units, and rows that depend on earlier ones are dropped. Every basis with
    a nonzero determinant is solved at once; the first of each solution equal
    to 12 decimals is kept, in order. Raises ``ValidationError`` over
    ``_VERTEX_BASES`` bases, or when no solution is nonnegative.
    """
    if isinstance(M, FiniteFamily):
        return M.weights
    sys = membership_system(M)
    sign = np.array([{EQ: 0.0, LE: 1.0, GE: -1.0}[sense] for sense in sys.senses])
    slack = np.diag(sign)[:, sign != 0.0]
    scale = np.abs(sys.A).max(axis=1)
    scale[scale == 0.0] = 1.0  # a budget row of a one-point ball
    A, b = np.hstack([sys.A / scale[:, None], slack]), sys.b / scale
    rank = [np.linalg.matrix_rank(A[:i]) for i in range(len(A) + 1)]
    keep = [i for i in range(len(A)) if rank[i + 1] > rank[i]]  # rows independent of earlier ones
    (m, cols), b = A[keep].shape, b[keep]
    if (count := math.comb(cols, m)) > _VERTEX_BASES:
        raise ValidationError(f"{type(M).__name__} has {count} bases (cap {_VERTEX_BASES})")
    bases = np.array(list(itertools.combinations(range(cols), m)), dtype=np.intp)
    B = A[keep][:, bases].transpose(1, 0, 2)  # (basis, row, basic column)
    regular = np.linalg.det(B) != 0.0
    bases, x = bases[regular], np.linalg.solve(B[regular], b)
    ok = np.isfinite(x).all(axis=1) & (x.min(axis=1) >= -1e-10)
    if not ok.any():
        raise ValidationError(f"{type(M).__name__} has no nonnegative basic solution")
    q_map = np.hstack([sys.q_map, np.zeros((M.n, slack.shape[1]))])
    Q = np.einsum("kj,kjn->kn", np.maximum(x[ok], 0.0), q_map.T[bases[ok]])
    _, first = np.unique(np.round(Q, 12), axis=0, return_index=True)
    Q = Q[np.sort(first)]
    Q.flags.writeable = False
    return Q


def _membership_lp(
    M: AmbiguitySet, objective_on_q: np.ndarray, maximize: bool
) -> tuple[float, np.ndarray]:
    """Optimize a linear function of the measure over the set by the dense
    LP on ``membership_system``: the oracle of sets with two or more moments,
    and the independent route the tests compare the closed forms against."""
    sys = membership_system(M)
    sol = solve(
        LinearProgram(
            c=objective_on_q @ sys.q_map,
            A=sys.A,
            senses=sys.senses,
            b=sys.b,
            maximize=maximize,
        )
    )
    if not sol.optimal:
        raise ValidationError(f"membership LP unexpectedly {sol.status}")
    return float(sol.value), sys.q_map @ sol.x


_NOT_FINITE = "random variables must be finite-valued"


def worst_case(M: AmbiguitySet, Z) -> tuple[np.ndarray, np.ndarray]:
    """Batched worst case ``sup_Q E_Q[Z]`` over the last axis of ``Z``.

    ``Z`` has shape ``(..., n)``; returns the values, shape ``(...)``, and
    attaining measures, shape ``(..., n)``. Every other operation on a set is
    built on this one, which is where the families differ:

    * FiniteFamily: members times ``Z``, then the first largest member
      (``_family_scan``);
    * AVaRSet: a stable descending sort of ``Z``, then the density cap
      ``p / (1 - alpha)`` filled along it until the unit mass is spent, so
      the lowest index wins ties; at ``alpha = 1`` the first outcome the
      reference charges takes all of it (``_avar_fill``);
    * WassersteinBall: in closed form, no LP. Each source with ``p_i > 0``
      starts at its best point of least cost, and the segments of the upper
      concave hulls of ``(d_ij, Z_j)``, weighted by ``p_i``, are bought
      steepest first until the radius is spent (``_ball_worst_case``);
    * MomentSet with one moment: in closed form, no LP. The best of the
      two-point measures on the target, the first largest pair in row-major
      order winning ties (``_moment_scan``);
    * MomentSet with two or more moments: the membership LP, row by row, on
      each row divided by its largest magnitude, the value scaled back.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim < 1 or Z.shape[-1] != M.n:
        raise ValidationError("Z and the ambiguity set live on different spaces")
    if not np.isfinite(Z).all():
        raise ValidationError(_NOT_FINITE)
    if isinstance(M, FiniteFamily):
        return _family_scan(Z, M.weights)
    flat = Z.reshape(-1, M.n)
    if isinstance(M, AVaRSet):
        values, argmax = _avar_fill(flat, M.reference.weights, None if M.alpha == 1.0 else M.cap)
    elif isinstance(M, MomentSet) and M.n_moments == 1:
        values, argmax = _moment_scan(flat, *M._pairs)
    elif isinstance(M, WassersteinBall):
        values, argmax = np.empty(flat.shape[0]), np.empty_like(flat)
        step = max(1, _BALL_CHUNK // (M.n * M.n))
        for lo in range(0, flat.shape[0], step):
            values[lo : lo + step], argmax[lo : lo + step] = _ball_worst_case(
                M, flat[lo : lo + step]
            )
    else:
        # the LP has absolute tolerances, so it runs on each row over its
        # largest magnitude; the worst case is positively homogeneous
        values, argmax = np.empty(flat.shape[0]), np.empty_like(flat)
        for i, z in enumerate(flat):
            scale = float(np.abs(z).max()) or 1.0
            value, argmax[i] = _membership_lp(M, z / scale, maximize=True)
            values[i] = scale * value
    return values.reshape(Z.shape[:-1]), argmax.reshape(Z.shape)


def _stack_key(M: AmbiguitySet):
    """Sets with one key price a stack of rows, a set per row, in one kernel
    call: finite families of one shape, AVaR sets of one size (those at
    ``alpha = 1`` apart), one-moment sets of one size and pair-table length.
    The key's second entry is the size. ``None`` for sets with no stacked
    form, balls and sets with two or more moments."""
    if isinstance(M, FiniteFamily):
        return FiniteFamily, M.n, len(M.weights)
    if isinstance(M, AVaRSet):
        return AVaRSet, M.n, M.alpha == 1.0
    if isinstance(M, MomentSet) and M.n_moments == 1:
        return MomentSet, M.n, M._pairs[0].size
    return None


def worst_case_rows(sets, rows) -> np.ndarray:
    """``worst_case(sets[i], rows[i])[0]`` for every ``i``, bit for bit; the
    rows may differ in length. Rows whose sets share a ``_stack_key`` are
    priced by one call of the family's kernel on the sets' stacked
    parameters. A row whose key no other row shares, and every row over a
    ball or a set with two or more moments, goes through ``worst_case``."""
    if len(sets) != len(rows):
        raise ValidationError("one row per ambiguity set required")
    out = np.empty(len(sets))
    groups: dict = {}
    for i, M in enumerate(sets):
        groups.setdefault(_stack_key(M), []).append(i)
    for key, idx in groups.items():
        if key is None or len(idx) == 1:
            for i in idx:
                out[i] = worst_case(sets[i], rows[i])[0]
            continue
        if any(len(rows[i]) != key[1] for i in idx):
            raise ValidationError("Z and the ambiguity set live on different spaces")
        Z = np.array([rows[i] for i in idx], dtype=float)
        if not np.isfinite(Z).all():
            raise ValidationError(_NOT_FINITE)
        group = [sets[i] for i in idx]
        if key[0] is FiniteFamily:
            out[idx], _ = _family_scan(Z, np.array([M.weights for M in group]))
        elif key[0] is AVaRSet:
            P = np.array([M.reference.weights for M in group])
            caps = None if key[2] else np.array([[M.cap] for M in group])
            out[idx], _ = _avar_fill(Z, P, caps)
        else:
            out[idx], _ = _moment_scan(Z, *map(np.array, zip(*(M._pairs for M in group))))
    return out


def _family_scan(Z: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Members times ``Z``, then the first largest member. ``W`` is one
    ``(m, n)`` family for every row of ``Z``, shape ``(..., n)``, or an
    ``(r, m, n)`` stack, a family for each row of ``Z``, shape ``(r, n)``;
    each row of a stack takes the product ``worst_case`` takes on that row
    alone."""
    if W.ndim == 2:
        vals = Z @ W.T
        return vals.max(axis=-1), W[vals.argmax(axis=-1)]
    vals = (Z[:, None] @ W.transpose(0, 2, 1))[:, 0]
    return vals.max(axis=-1), W[np.arange(len(W)), vals.argmax(axis=-1)]


def _avar_fill(Z: np.ndarray, P: np.ndarray, cap) -> tuple[np.ndarray, np.ndarray]:
    """The AVaR sort-and-fill on each row of ``Z``, shape (r, n): a stable
    descending sort, then the density cap ``cap * p`` filled along it until
    the unit mass is spent, so the lowest index wins ties; with no cap
    (``None``, ``alpha = 1``) all of it goes to the first outcome ``p``
    charges. ``P`` and ``cap`` are one reference ``(n,)`` and one float for
    every row, or a reference and a cap per row, ``(r, n)`` and ``(r, 1)``."""
    rows = np.arange(Z.shape[0])[:, None]
    order = (-Z).argsort(axis=-1, kind="stable")
    p = P[rows, order] if P.ndim == 2 else P[order]
    if cap is None:
        filled = np.logical_or.accumulate(p > 0.0, axis=-1).astype(float)
    else:
        filled = np.minimum(np.add.accumulate(cap * p, axis=-1), 1.0)
    take = filled.copy()
    take[:, 1:] -= filled[:, :-1]
    argmax = np.empty_like(take)
    argmax[rows, order] = take
    return (take * Z[rows, order]).sum(axis=-1), argmax


#: Rows of a one-moment worst case are processed in chunks of at most this
#: many (row, a, b) entries, which bounds the working arrays.
_CHUNK = 1 << 16
#: The same bound for the (row, source, target) entries of a ball worst case,
#: 16 times smaller: its hull walk holds Python objects per entry, each many
#: times the size of an array entry.
_BALL_CHUNK = 1 << 12


def _moment_scan(Z: np.ndarray, ia, ib, wa, wb) -> tuple[np.ndarray, np.ndarray]:
    """Exact worst case over a one-moment set for each row of ``Z``, shape (r, n).

    ``sup E_Q[Z]`` subject to ``E_Q[psi] = t`` is the upper concave envelope
    of the points ``(psi_j, Z_j)`` at ``t``, attained by a measure on at most
    two points (Kemperman 1968): the largest interpolated value over the
    set's pair table ``M._pairs = (ia, ib, wa, wb)``, the pairs
    ``psi_a <= t <= psi_b`` in row-major order of ``(a, b)`` with weights
    ``(psi_b - t, t - psi_a)`` over ``psi_b - psi_a``, or ``(1, 0)`` for the
    single atom ``a`` when ``psi_a = psi_b = t``. The first largest pair
    wins. The table is one ``(L,)`` table for every row, or an ``(r, L)``
    stack, a table for each row. Work runs over slices of the table and
    chunks of rows of at most ``_CHUNK`` entries.
    """
    table = ia, ib, wa, wb
    r, per_row = Z.shape[0], ia.ndim == 2
    values = np.full(r, -np.inf)
    best = np.zeros(r, dtype=int)  # each row's winning pair, an index into its table
    for p0 in range(0, ia.shape[-1], _CHUNK):
        part = [x[..., p0 : p0 + _CHUNK] for x in table]
        step = max(1, _CHUNK // part[0].shape[-1])
        for lo in range(0, r, step):
            z = Z[lo : lo + step]
            pa, pb, qa, qb = (x[lo : lo + step] for x in part) if per_row else part
            at = np.arange(len(z))[:, None] if per_row else slice(None)
            vals = z[at, pa] * qa + z[at, pb] * qb
            k = vals.argmax(axis=1)
            top, held = vals[np.arange(k.size), k], values[lo : lo + step]
            new = top > held
            values[lo : lo + step] = np.where(new, top, held)
            best[lo : lo + step] = np.where(new, k + p0, best[lo : lo + step])
    q = np.zeros_like(Z)
    rows = np.arange(r)
    pick = (rows, best) if per_row else best
    q[rows, ib[pick]] = wb[pick]
    q[rows, ia[pick]] += wa[pick]  # a = b only for the single atom, weights (1, 0)
    return values, q


def _ball_worst_case(M: WassersteinBall, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact worst case over an order-1 ball for each row of ``Z``, shape (r, n).

    The plan LP is the LP relaxation of a multiple-choice knapsack with one
    budget row (Sinha & Zemel 1979): source ``i`` spreads its mass ``p_i``
    over targets, and the payoff it can buy per unit of transport cost is the
    upper concave hull of the points ``(d_ij, Z_j)``. Each source starts at
    its best point of least cost. The hull segments of all sources, weighted
    by ``p_i``, are then bought in order of slope, steepest first, until the
    radius budget is spent; only the last segment bought is split, so the
    plan, and hence the measure, falls out of the fill.
    """
    p = M.center.weights
    src = np.flatnonzero(p > 0.0)
    w = p[src].tolist()
    r, s = Z.shape[0], src.size
    D = M.space.require_metric()[src]
    order = np.argsort(D, axis=1, kind="stable")
    d = np.take_along_axis(D, order, axis=1)  # (s, n), by increasing cost
    z = Z[:, order]  # (r, s, n)
    budget = max(M.radius - float(p[src] @ d[:, 0]), 0.0)
    # Only the first point and points above every cheaper one can be hull
    # vertices; they come out by source and by increasing cost.
    record = np.ones(z.shape, dtype=bool)
    record[..., 1:] = z[..., 1:] > np.maximum.accumulate(z, axis=-1)[..., :-1]
    rows, srcs, pos = np.nonzero(record)
    hulls: list[list[tuple[float, float, int]]] = []
    key = None
    for row, i, dk, zk, jk in zip(
        rows.tolist(), srcs.tolist(), d[srcs, pos].tolist(), z[record].tolist(),
        order[srcs, pos].tolist(),
    ):
        if (row, i) != key:
            key = (row, i)
            hull = [(dk, zk, jk)]
            hulls.append(hull)
            continue
        if dk == hull[-1][0]:  # same cost, larger payoff
            hull.pop()
        while len(hull) > 1:
            (da, za, _), (db, zb, _) = hull[-2], hull[-1]
            if (zb - za) * (dk - da) > (zk - za) * (db - da):
                break
            hull.pop()
        hull.append((dk, zk, jk))

    q = np.zeros_like(Z)
    for row in range(r):
        row_hulls = hulls[row * s : (row + 1) * s]
        segments = []
        for i, hull in enumerate(row_hulls):
            slope = float("inf")
            for k in range(1, len(hull)):
                (da, za, _), (db, zb, _) = hull[k - 1], hull[k]
                # slopes along a hull never increase; clamping rounding dust
                # keeps each source's segments in order in the pooled sort
                slope = min(slope, (zb - za) / (db - da))
                segments.append((-slope, i, k, w[i] * (db - da)))
        at = [0] * s
        split = None
        left = budget
        for _, i, k, cost in sorted(segments):
            if cost > left:
                split = (i, k, left / cost)
                break
            left -= cost
            at[i] = k
        for i, (hull, k) in enumerate(zip(row_hulls, at)):
            q[row, hull[k][2]] += w[i]
        if split:
            i, k, frac = split
            q[row, row_hulls[i][k - 1][2]] -= frac * w[i]
            q[row, row_hulls[i][k][2]] += frac * w[i]
    return np.einsum("rn,rn->r", q, Z), q


def robust_expectation(
    M: AmbiguitySet, Z: RandomVariable
) -> tuple[float, DiscreteMeasure]:
    """Worst-case expectation ``sup_Q E_Q[Z]`` with an attaining measure:
    one row of ``worst_case``."""
    value, argmax = worst_case(M, Z.values)
    return float(value), DiscreteMeasure(argmax)


@dataclass(frozen=True)
class ReferenceMeasureResult:
    """Smallest measure dominating the whole set, with its normalization.

    ``mu`` can carry mass greater than one; ``normalized`` divides by the
    total mass and is the canonical reference probability of the set.
    """

    mu: DiscreteMeasure
    normalized: DiscreteMeasure


def reference_measure(M: AmbiguitySet) -> ReferenceMeasureResult:
    """Per-outcome suprema ``mu(w) = sup_Q Q({w})`` assembled into a measure."""
    mu, _ = worst_case(M, np.eye(M.n))
    measure = DiscreteMeasure(np.maximum(mu, 0.0))
    return ReferenceMeasureResult(mu=measure, normalized=measure.normalized())


def reference_argmax(M: AmbiguitySet, outcome: int) -> DiscreteMeasure:
    """A member of the set attaining ``sup_Q Q({outcome})``."""
    return DiscreteMeasure(worst_case(M, np.eye(M.n)[outcome])[1])


def sample_measures(M: AmbiguitySet, count: int, rng: Rng) -> list[DiscreteMeasure]:
    """Random members: extreme points for random objectives plus convex
    mixtures of them. Used by randomized dominance and membership batteries."""
    n = M.n
    directions = rng.uniforms(min(count, 2 * n + 2) * n, -1.0, 1.0).reshape(-1, n)
    _, vertices = worst_case(M, directions)
    out = [DiscreteMeasure(q) for q in vertices[:count]]
    while len(out) < count:
        k = min(len(vertices), 1 + rng.randint(3))
        picks = [vertices[rng.randint(len(vertices))] for _ in range(k)]
        lam = rng.simplex(k)
        out.append(DiscreteMeasure(sum(l * q for l, q in zip(lam, picks))))
    return out


def dominates_all(
    result: ReferenceMeasureResult, M: AmbiguitySet, trials: int, rng: Rng | None = None
) -> bool:
    """Randomized check of ``Q(A) <= mu(A)`` over sampled members and subsets.

    Every trial's member and subset are drawn first, in the order of one
    ``randint`` then one ``subset`` per trial; the comparisons are then one
    array step over the trials' indicator rows.
    """
    rng = rng or Rng()
    n = M.n
    pool = np.array([q.weights for q in sample_measures(M, max(8, min(trials, 4 * n)), rng)])
    picks, sets = rng.randints_and_subsets(trials, len(pool), n)
    q_mass = (pool[picks] * sets).sum(axis=1)
    mu_mass = (result.mu.weights * sets).sum(axis=1)
    return bool(np.all(q_mass <= mu_mass + 1e-9))


@dataclass(frozen=True)
class StrictMonotonicity:
    """Outcome of the strict-monotonicity test.

    When ``strict`` is true, ``epsilon`` is the uniform lower bound
    ``inf_Q Q({w})`` over reference-positive outcomes, attained by ``witness``
    at ``outcome``. When false, ``witness`` kills ``outcome`` while the
    reference charges it.
    """

    strict: bool
    epsilon: float
    outcome: int
    witness: DiscreteMeasure


#: The uniform lower bound ``epsilon`` must exceed this for strict monotonicity.
_STRICT_TOL = 1e-9


def is_strictly_monotone(M: AmbiguitySet, P: DiscreteMeasure) -> StrictMonotonicity:
    """Decide strict monotonicity of the worst-case functional w.r.t. ``P``.

    On a finite space ``Q(A) >= sum of singleton masses``, so it suffices to
    certify a positive infimum of ``Q({w})`` over members for every
    ``P``-positive outcome; the infimum of a linear functional over the set
    is attained at an extreme representation and is the oracle on the negated
    outcome indicator, one row per ``P``-positive outcome. The first outcome
    of least mass is reported.
    """
    P.require_probability("P")
    if P.n != M.n:
        raise ValidationError("P and the ambiguity set live on different spaces")
    positive = np.flatnonzero(P.weights > 0.0)
    values, members = worst_case(M, -np.eye(M.n)[positive])
    k = int(np.argmin(np.maximum(-values, 0.0)))
    eps = max(0.0, -float(values[k]))
    return StrictMonotonicity(
        strict=eps > _STRICT_TOL, epsilon=eps, outcome=int(positive[k]),
        witness=DiscreteMeasure(members[k]),
    )


def contains(M: AmbiguitySet, Q: DiscreteMeasure) -> bool:
    """Membership test up to ``FEAS_TOL``: is some representation ``v``
    feasible with ``q_map v`` within ``FEAS_TOL`` of ``Q`` componentwise?"""
    if Q.n != M.n:
        return False
    sys = membership_system(M)
    A = np.vstack([sys.A, sys.q_map, sys.q_map])
    senses = sys.senses + (LE,) * M.n + (GE,) * M.n
    b = np.concatenate([sys.b, Q.weights + FEAS_TOL, Q.weights - FEAS_TOL])
    sol = solve(LinearProgram(c=np.zeros(sys.n_vars), A=A, senses=senses, b=b))
    return sol.optimal


def default_reference(M: AmbiguitySet) -> DiscreteMeasure:
    """Canonical reference probability: the AVaR reference when the set has
    one, otherwise the normalized smallest dominating measure."""
    if isinstance(M, AVaRSet):
        return M.reference
    return reference_measure(M).normalized


#: Mass below this counts as "does not charge" where the measures come from
#: an LP with absolute tolerances (moment sets with two or more moments).
ZERO_MASS_TOL = 1e-9


def _mass_floor(M: AmbiguitySet) -> float:
    """Largest mass on an outcome or atom that still counts as not charging it.

    The finite-family, AVaR, ball and one-moment oracles return exact
    nonnegative measures, so any positive mass charges, and the conditional
    mean it gives is a convex combination of values of ``Z``. Measures of
    sets with two or more moments come from the membership LP, whose rounding
    dust must not count.
    """
    return ZERO_MASS_TOL if isinstance(M, MomentSet) and M.n_moments != 1 else 0.0

