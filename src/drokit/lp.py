"""Small dense linear-programming solver.

Primal simplex on a dense tableau with Bland's anti-cycling rule, two phases,
and general variable bounds. Instances here are tiny (tens of variables), so
the implementation favors predictability over speed: the pivot rule is fixed,
re-solving an instance is bit-for-bit deterministic, and every optimal solve
carries a strong-duality certificate.

Also hosts the Charnes-Cooper reduction of linear-fractional programs over
bounded polytopes to a single LP (``linear_fractional_max``), which the tests
use as the independent route to conditional values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .spaces import ValidationError

#: Primal feasibility tolerance (double-precision tableau arithmetic).
FEAS_TOL = 1e-7
#: Entries smaller than this never pivot.
PIVOT_TOL = 1e-10

LE, EQ, GE = "<=", "=", ">="
_SENSES = (LE, EQ, GE)

INF = float("inf")


@dataclass(frozen=True)
class LinearProgram:
    """min/max ``c @ x`` s.t. ``A x (<=|=|>=) b``, ``lb <= x <= ub``.

    Bounds default to ``[0, +inf)`` per variable; use ``-inf`` lower bounds
    for free variables.
    """

    c: np.ndarray
    A: np.ndarray
    senses: tuple[str, ...]
    b: np.ndarray
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None
    maximize: bool = False

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2:
            A = A.reshape(len(self.b), c.size)
        b = np.asarray(self.b, dtype=float)
        senses = tuple(self.senses)
        m, n = A.shape
        if c.shape != (n,) or b.shape != (m,) or len(senses) != m:
            raise ValidationError("inconsistent LP dimensions")
        if any(s not in _SENSES for s in senses):
            raise ValidationError(f"senses must be one of {_SENSES}")
        lb = np.zeros(n) if self.lb is None else np.asarray(self.lb, dtype=float)
        ub = np.full(n, INF) if self.ub is None else np.asarray(self.ub, dtype=float)
        if lb.shape != (n,) or ub.shape != (n,):
            raise ValidationError("bound vectors must have one entry per variable")
        if np.any(lb > ub + 1e-12):
            raise ValidationError("lower bound exceeds upper bound")
        for name, arr in (("c", c), ("A", A), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.b.size


@dataclass(frozen=True)
class LpSolution:
    """Solve outcome. ``y`` has one multiplier per original constraint row.

    For ``status == "optimal"`` the primal feasibility residual and the
    complementary-slackness residual are at most ``FEAS_TOL``, and
    ``|value - dual_value| <= FEAS_TOL`` (strong-duality certificate).
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[float] = None
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    dual_value: Optional[float] = None
    feasibility_residual: float = 0.0
    comp_slack_residual: float = 0.0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _Tableau:
    """Standard-form tableau ``min c_std @ v`` s.t. ``T v = rhs``, ``v >= 0``."""

    def __init__(self, rows: np.ndarray, rhs: np.ndarray):
        self.T = np.hstack([rows, rhs.reshape(-1, 1)])
        self.basis = np.full(rows.shape[0], -1, dtype=int)

    @property
    def m(self) -> int:
        return self.T.shape[0]

    @property
    def n_cols(self) -> int:
        return self.T.shape[1] - 1

    def pivot(self, row: int, col: int) -> None:
        T = self.T
        T[row] /= T[row, col]
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        T -= colvals[:, None] * T[row]
        # keep the pivot column numerically exact
        T[:, col] = 0.0
        T[row, col] = 1.0
        self.basis[row] = col

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        return cost - cost[self.basis] @ self.T[:, :-1]

    def objective(self, cost: np.ndarray) -> float:
        return float(cost[self.basis] @ self.T[:, -1])


class SimplexCycleError(RuntimeError):
    """Iteration cap exceeded; unreachable under Bland's rule short of a bug."""


def _run_simplex(tab: _Tableau, cost: np.ndarray, banned: np.ndarray) -> str:
    """Bland's rule primal simplex; returns "optimal" or "unbounded"."""
    cap = 10_000 + 200 * (tab.m + tab.n_cols)
    for _ in range(cap):
        r = tab.reduced_costs(cost)
        r[banned] = 0.0  # never enter banned columns
        eligible = r < -PIVOT_TOL
        entering = int(eligible.argmax())  # Bland: smallest eligible index
        if not eligible[entering]:
            return "optimal"
        col, rhs = tab.T[:, entering].tolist(), tab.T[:, -1].tolist()
        basis = tab.basis.tolist()
        best_ratio, leave = INF, -1
        for i, c in enumerate(col):  # sequential: the tie rule depends on order
            if c > PIVOT_TOL:
                ratio = rhs[i] / c
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        if leave < 0:
            return "unbounded"
        tab.pivot(leave, entering)
    raise SimplexCycleError("simplex iteration cap exceeded")


def solve(lp: LinearProgram) -> LpSolution:
    """Solve a dense LP; deterministic for identical input.

    Returns primal solution, per-row dual multipliers, and the dual objective
    value computed from the final tableau (so the strong-duality certificate
    exercises real arithmetic rather than restating the primal value).

    Standard form. Each variable is ``x_j = shift_j + v[pos[j]] - v[neg]``
    with ``v >= 0``: ``shift_j`` is a finite lower bound (else 0) and only a
    free variable has a negative-part column ``neg``. The rows are the
    constraint rows, then one ``x_j <= ub_j`` row per finite upper bound;
    rows with a negative right-hand side are negated and their senses
    swapped. The tableau's columns are one block ``[A_std | S | R]``: the
    ``pos``/``neg`` columns, then a slack (``<=``, +1) or surplus (``>=``,
    -1) column per inequality row and an artificial (+1) column per ``=`` or
    ``>=`` row, each in row order. ``id_col[i]`` is row i's slack or
    artificial column: it starts basic in row i, and its final reduced cost
    gives the row's dual multiplier.
    """
    m0, n0 = lp.n_rows, lp.n_vars
    direction = -1.0 if lp.maximize else 1.0
    c_min = direction * lp.c

    # --- column layout --------------------------------------------------------
    free = ~np.isfinite(lp.lb)
    shift = np.where(free, 0.0, lp.lb)
    pos = np.arange(n0) + np.cumsum(free) - free
    neg = pos[free] + 1
    n_std = n0 + int(free.sum())
    capped = np.flatnonzero(np.isfinite(lp.ub))
    A = np.vstack([lp.A, np.eye(n0)[capped]])
    b_std = np.concatenate([lp.b - lp.A @ shift, lp.ub[capped] - shift[capped]])
    senses = np.array(lp.senses + (LE,) * capped.size, dtype=object)
    m = b_std.size

    flip = b_std < 0.0
    row_sign = np.where(flip, -1.0, 1.0)
    A[flip] = -A[flip]
    b_std[flip] = -b_std[flip]
    eq = senses == EQ
    le = np.where(flip, senses == GE, senses == LE)

    # extra columns: a slack or surplus per inequality row, then an artificial
    # per non-<= row; the +1 column of each row is its id_col
    extra_row = np.concatenate([np.flatnonzero(~eq), np.flatnonzero(~le)])
    extra_val = np.concatenate([np.where(le, 1.0, -1.0)[~eq], np.ones(m - le.sum())])
    n_cols = n_std + extra_row.size
    full = np.zeros((m, n_cols))
    full[:, pos] = A
    full[:, neg] = -A[:, free]
    full[extra_row, n_std + np.arange(extra_row.size)] = extra_val
    ident = extra_val > 0.0
    id_col = np.empty(m, dtype=int)
    id_col[extra_row[ident]] = n_std + np.flatnonzero(ident)
    c2 = np.zeros(n_cols)
    c2[pos] = c_min
    c2[neg] = -c_min[free]

    tab = _Tableau(full, b_std)
    tab.basis[:] = id_col
    art = np.zeros(n_cols, dtype=bool)
    art[id_col[~le]] = True

    # --- phase 1 -------------------------------------------------------------
    if art.any():
        c1 = art.astype(float)
        status = _run_simplex(tab, c1, np.zeros(n_cols, dtype=bool))
        if status != "optimal" or tab.objective(c1) > FEAS_TOL:
            return LpSolution(status="infeasible")
        # drive artificials out of the basis where possible; rows where no
        # non-artificial column can pivot are redundant and stay inert
        for i in range(m):
            if art[tab.basis[i]]:
                movable = np.flatnonzero(~art & (np.abs(tab.T[i, :-1]) > PIVOT_TOL))
                if movable.size:
                    tab.pivot(i, movable[0])

    # --- phase 2: artificial columns never re-enter ---------------------------
    if _run_simplex(tab, c2, art) == "unbounded":
        return LpSolution(status="unbounded")

    v = np.zeros(n_cols)
    v[tab.basis] = tab.T[:, -1]
    delta = v[pos]
    delta[free] -= v[neg]
    x = shift + delta
    value = float(lp.c @ x)

    y_hat = -tab.reduced_costs(c2)[id_col]
    # undo: internal min-value = c_min@x - c_min@shift; user value flips sign for max
    dual_value = direction * (float(y_hat @ b_std) + float(c_min @ shift))
    y = direction * row_sign[:m0] * y_hat[:m0]

    # certificates
    gap = lp.A @ x - lp.b
    sense = senses[:m0]
    row_viol = np.where(sense == LE, gap, np.where(sense == GE, -gap, np.abs(gap)))
    resid = max(
        0.0,
        float(np.max(row_viol, initial=0.0)),
        float(np.max(lp.lb - x, initial=0.0)),
        float(np.max(x - lp.ub, initial=0.0)),
    )
    return LpSolution(
        status="optimal",
        value=value,
        x=x,
        y=y,
        dual_value=dual_value,
        feasibility_residual=resid,
        comp_slack_residual=max(0.0, float(np.max(np.abs(y * gap), initial=0.0))),
    )


@dataclass(frozen=True)
class FractionalResult:
    value: float
    x: np.ndarray


def linear_fractional_max(
    num: np.ndarray,
    num0: float,
    den: np.ndarray,
    den0: float,
    A: np.ndarray,
    senses: Sequence[str],
    b: np.ndarray,
    lb: Optional[np.ndarray] = None,
    ub: Optional[np.ndarray] = None,
) -> Optional[FractionalResult]:
    """Maximize ``(num0 + num @ x) / (den0 + den @ x)`` over a bounded polytope.

    Uses the Charnes-Cooper substitution ``v = t x, t >= 0`` with the
    normalization ``den0 t + den @ v = 1``; the supremum over the region where
    the denominator is positive is attained at a vertex of the transformed LP.

    Returns ``None`` when the denominator is <= 0 everywhere on the polytope
    (the transformed LP is then infeasible), which callers read as "atom
    unreachable". Requires the polytope itself to be bounded.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape if A.size else (0, np.asarray(num).size)
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
    ub = np.full(n, INF) if ub is None else np.asarray(ub, dtype=float)

    # variables: (v_0..v_{n-1}, t)
    rows, row_senses, rhs = [], [], []
    rows.append(np.append(den, den0))
    row_senses.append(EQ)
    rhs.append(1.0)
    for i in range(m):
        rows.append(np.append(A[i], -b[i]))
        row_senses.append(senses[i])
        rhs.append(0.0)
    cc_lb = np.zeros(n + 1)
    cc_ub = np.full(n + 1, INF)
    for j in range(n):
        if np.isfinite(lb[j]):
            if lb[j] != 0.0:
                coef = np.zeros(n + 1)
                coef[j], coef[n] = 1.0, -lb[j]
                rows.append(coef)
                row_senses.append(GE)
                rhs.append(0.0)
        else:
            cc_lb[j] = -INF
        if np.isfinite(ub[j]):
            coef = np.zeros(n + 1)
            coef[j], coef[n] = 1.0, -ub[j]
            rows.append(coef)
            row_senses.append(LE)
            rhs.append(0.0)

    lp = LinearProgram(
        c=np.append(num, num0),
        A=np.array(rows),
        senses=tuple(row_senses),
        b=np.array(rhs),
        lb=cc_lb,
        ub=cc_ub,
        maximize=True,
    )
    sol = solve(lp)
    if sol.status == "infeasible":
        return None
    if sol.status == "unbounded":
        raise ValidationError("fractional program over an unbounded polytope")
    t = sol.x[n]
    if t <= 1e-12:
        raise ValidationError("fractional program precondition violated (t ~ 0)")
    return FractionalResult(value=float(sol.value), x=sol.x[:n] / t)
