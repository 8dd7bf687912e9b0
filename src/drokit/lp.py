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
        T[row] = T[row] / T[row, col]
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        T -= np.outer(colvals, T[row])
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
        entering = -1
        for j in range(tab.n_cols):  # Bland: smallest eligible index
            if r[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        col = tab.T[:, entering]
        rhs = tab.T[:, -1]
        best_ratio, leave = INF, -1
        for i in range(tab.m):
            if col[i] > PIVOT_TOL:
                ratio = rhs[i] / col[i]
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (leave < 0 or tab.basis[i] < tab.basis[leave])
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
    """
    m0, n0 = lp.n_rows, lp.n_vars
    direction = -1.0 if lp.maximize else 1.0
    c_min = direction * lp.c

    # --- substitute bounds: x = shift + (pos - neg) with pos, neg >= 0 ------
    shift = np.where(np.isfinite(lp.lb), lp.lb, 0.0)
    col_of: list[tuple[int, Optional[int]]] = []  # (pos column, neg column)
    n_std = 0
    for j in range(n0):
        if np.isfinite(lp.lb[j]):
            col_of.append((n_std, None))
            n_std += 1
        else:
            col_of.append((n_std, n_std + 1))
            n_std += 2

    def expand(coef: np.ndarray) -> np.ndarray:
        row = np.zeros(n_std)
        for j in range(n0):
            pos, neg = col_of[j]
            row[pos] = coef[j]
            if neg is not None:
                row[neg] = -coef[j]
        return row

    rows = [expand(lp.A[i]) for i in range(m0)]
    rhs = list(lp.b - lp.A @ shift)
    senses = list(lp.senses)
    for j in range(n0):  # finite upper bounds become explicit rows
        if np.isfinite(lp.ub[j]):
            coef = np.zeros(n0)
            coef[j] = 1.0
            rows.append(expand(coef))
            rhs.append(lp.ub[j] - shift[j])
            senses.append(LE)
    m = len(rows)
    A_std = np.array(rows) if rows else np.zeros((0, n_std))
    b_std = np.array(rhs)
    c_std = expand(c_min)

    row_sign = np.ones(m)
    for i in range(m):
        if b_std[i] < 0.0:
            row_sign[i] = -1.0
            A_std[i] = -A_std[i]
            b_std[i] = -b_std[i]
            senses[i] = {LE: GE, GE: LE, EQ: EQ}[senses[i]]

    # --- slack / surplus / artificial columns -------------------------------
    slack_cols: list[int] = []
    art_cols: list[int] = []
    extra = []
    id_col = np.full(m, -1, dtype=int)  # column whose final reduced cost yields y_i
    next_col = n_std
    for i in range(m):
        if senses[i] == LE:
            col = np.zeros(m)
            col[i] = 1.0
            extra.append(col)
            slack_cols.append(next_col)
            id_col[i] = next_col
            next_col += 1
        elif senses[i] == GE:
            col = np.zeros(m)
            col[i] = -1.0
            extra.append(col)
            next_col += 1
    for i in range(m):
        if senses[i] != LE:
            col = np.zeros(m)
            col[i] = 1.0
            extra.append(col)
            art_cols.append(next_col)
            id_col[i] = next_col
            next_col += 1
    full = np.hstack([A_std] + ([np.array(extra).T] if extra else []))
    tab = _Tableau(full, b_std)

    # starting basis: slack for <=, artificial otherwise
    art_iter = iter(art_cols)
    slack_iter = iter(slack_cols)
    for i in range(m):
        tab.basis[i] = next(slack_iter) if senses[i] == LE else next(art_iter)

    n_cols = tab.n_cols
    banned = np.zeros(n_cols, dtype=bool)

    # --- phase 1 -------------------------------------------------------------
    if art_cols:
        c1 = np.zeros(n_cols)
        c1[art_cols] = 1.0
        # price out the initial artificial basis
        status = _run_simplex(tab, c1, banned)
        if status != "optimal" or tab.objective(c1) > FEAS_TOL:
            return LpSolution(status="infeasible")
        # drive artificials out of the basis where possible; rows where no
        # non-artificial column can pivot are redundant and stay inert
        art_set = set(art_cols)
        for i in range(m):
            if tab.basis[i] in art_set:
                for j in range(n_cols):
                    if j not in art_set and abs(tab.T[i, j]) > PIVOT_TOL:
                        tab.pivot(i, j)
                        break
        banned[art_cols] = True

    # --- phase 2 -------------------------------------------------------------
    c2 = np.zeros(n_cols)
    c2[:n_std] = c_std
    status = _run_simplex(tab, c2, banned)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    v = np.zeros(n_cols)
    v[tab.basis] = tab.T[:, -1]
    x = shift.copy()
    for j in range(n0):
        pos, neg = col_of[j]
        x[j] += v[pos] - (v[neg] if neg is not None else 0.0)
    value = float(lp.c @ x)

    r_final = tab.reduced_costs(c2)
    y_hat = np.array([-r_final[id_col[i]] for i in range(m)])
    dual_internal = float(y_hat @ b_std)
    # undo: internal min-value = c_min@x - c_min@shift; user value flips sign for max
    dual_value = direction * (dual_internal + float(c_min @ shift))
    y_user = direction * row_sign[:m0] * y_hat[:m0] if m0 else np.zeros(0)

    # certificates
    resid = 0.0
    Ax = lp.A @ x
    for i in range(m0):
        gap = Ax[i] - lp.b[i]
        if lp.senses[i] == LE:
            resid = max(resid, gap)
        elif lp.senses[i] == GE:
            resid = max(resid, -gap)
        else:
            resid = max(resid, abs(gap))
    resid = max(resid, float(np.max(lp.lb - x, initial=0.0)))
    resid = max(resid, float(np.max(x - lp.ub, initial=0.0)))
    cs = 0.0
    for i in range(m0):
        cs = max(cs, abs(y_user[i] * (Ax[i] - lp.b[i])))

    return LpSolution(
        status="optimal",
        value=value,
        x=x,
        y=y_user,
        dual_value=dual_value,
        feasibility_residual=max(resid, 0.0),
        comp_slack_residual=cs,
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
