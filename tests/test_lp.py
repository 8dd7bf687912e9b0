"""Simplex engine tests, cross-checked against a basis-enumeration oracle."""

import itertools

import numpy as np
import pytest

from drokit.lp import (
    EQ,
    GE,
    LE,
    FEAS_TOL,
    LinearProgram,
    _Tableau,
    linear_fractional_max,
    solve,
)
from drokit.rng import Rng
from drokit.spaces import ValidationError


def brute_force_lp(lp: LinearProgram):
    """Enumerate basic solutions of the standard form to find the optimum.

    Independent of the simplex path: converts bounds and inequalities to
    equalities with slack columns, solves every square basis system, keeps
    feasible points, and scans the objective. Only for tiny instances.
    """
    n = lp.n_vars
    rows, rhs = [], []
    cols = []

    # variable columns; free variables split into +/- parts
    var_cols = []
    for j in range(n):
        if np.isfinite(lp.lb[j]):
            var_cols.append((j, +1.0))
        else:
            var_cols.append((j, +1.0))
            var_cols.append((j, -1.0))
    shift = np.where(np.isfinite(lp.lb), lp.lb, 0.0)

    def col_for(j_sign):
        j, s = j_sign
        col = np.zeros(len(lp.b) + sum(np.isfinite(lp.ub)))
        return j, s, col

    # equality system: original rows plus upper-bound rows
    senses = list(lp.senses)
    A_rows = [lp.A[i].copy() for i in range(len(lp.b))]
    b_all = list(lp.b - lp.A @ shift)
    for j in range(n):
        if np.isfinite(lp.ub[j]):
            r = np.zeros(n)
            r[j] = 1.0
            A_rows.append(r)
            b_all.append(lp.ub[j] - shift[j])
            senses.append(LE)
    m = len(A_rows)

    # build full column set: split vars then one slack per inequality
    full_cols = []
    for j, s in var_cols:
        col = np.array([A_rows[i][j] * s for i in range(m)])
        full_cols.append(col)
    n_struct = len(full_cols)
    for i in range(m):
        if senses[i] == LE:
            e = np.zeros(m)
            e[i] = 1.0
            full_cols.append(e)
        elif senses[i] == GE:
            e = np.zeros(m)
            e[i] = -1.0
            full_cols.append(e)
    M = np.column_stack(full_cols)
    b_vec = np.array(b_all)

    best, best_x = None, None
    total = M.shape[1]
    for basis in itertools.combinations(range(total), m):
        B = M[:, basis]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        vb = np.linalg.solve(B, b_vec)
        if np.any(vb < -1e-9):
            continue
        v = np.zeros(total)
        v[list(basis)] = vb
        x = shift.copy()
        for k, (j, s) in enumerate(var_cols):
            x[j] += s * v[k]
        val = float(lp.c @ x)
        if best is None or (val > best if lp.maximize else val < best):
            best, best_x = val, x
    return best, best_x


def test_bounded_single_variable():
    lp = LinearProgram(c=[1.0], A=[[1.0]], senses=(LE,), b=[3.0], maximize=True)
    sol = solve(lp)
    assert sol.optimal
    assert sol.value == pytest.approx(3.0, abs=1e-12)
    assert sol.dual_value == pytest.approx(3.0, abs=1e-9)
    assert sol.y[0] == pytest.approx(1.0, abs=1e-9)


def test_degenerate_face():
    lp = LinearProgram(
        c=[1.0, 1.0], A=[[1.0, 1.0]], senses=(LE,), b=[1.0], maximize=True
    )
    sol = solve(lp)
    assert sol.optimal
    assert sol.value == pytest.approx(1.0, abs=1e-12)


def test_infeasible():
    lp = LinearProgram(
        c=[0.0], A=[[1.0]], senses=(EQ,), b=[1.0], ub=np.array([0.0])
    )
    assert solve(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(c=[1.0], A=[[0.0]], senses=(LE,), b=[1.0], maximize=True)
    assert solve(lp).status == "unbounded"


def test_free_variables_and_equalities():
    # min x + y s.t. x + y = 2, x - y >= -4, x free, y >= 0
    lp = LinearProgram(
        c=[1.0, 1.0],
        A=[[1.0, 1.0], [1.0, -1.0]],
        senses=(EQ, GE),
        b=[2.0, -4.0],
        lb=np.array([-np.inf, 0.0]),
    )
    sol = solve(lp)
    assert sol.optimal
    assert sol.value == pytest.approx(2.0, abs=1e-9)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        LinearProgram(c=[1.0, 2.0], A=[[1.0]], senses=(LE,), b=[1.0])


def test_strong_duality_and_residuals_random():
    rng = Rng(7)
    solved = 0
    for _ in range(60):
        n = 2 + rng.randint(4)
        m = 1 + rng.randint(4)
        A = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(m)])
        b = np.array([rng.uniform(0.5, 3) for _ in range(m)])
        c = np.array([rng.uniform(-2, 2) for _ in range(n)])
        senses = tuple(rng.choice((LE, GE, EQ)) for _ in range(m))
        ub = np.array([rng.uniform(0.5, 4) for _ in range(n)])  # keeps it bounded
        lp = LinearProgram(c=c, A=A, senses=senses, b=b, ub=ub, maximize=bool(rng.randint(2)))
        sol = solve(lp)
        if not sol.optimal:
            assert sol.status == "infeasible"
            continue
        solved += 1
        assert sol.feasibility_residual <= FEAS_TOL
        assert sol.comp_slack_residual <= FEAS_TOL
        assert abs(sol.value - sol.dual_value) <= FEAS_TOL
        ref, _ = brute_force_lp(lp)
        assert ref is not None
        assert sol.value == pytest.approx(ref, abs=1e-7)
    assert solved >= 20


def test_dual_feasibility_signs():
    """For a max problem, <= rows carry nonnegative multipliers and >= rows
    nonpositive ones (equality rows are free)."""
    rng = Rng(13)
    for _ in range(40):
        n = 2 + rng.randint(3)
        m = 1 + rng.randint(3)
        A = np.array([[rng.uniform(-1, 2) for _ in range(n)] for _ in range(m)])
        b = np.array([rng.uniform(0.5, 2) for _ in range(m)])
        c = np.array([rng.uniform(-1, 1) for _ in range(n)])
        senses = tuple(rng.choice((LE, GE)) for _ in range(m))
        lp = LinearProgram(
            c=c, A=A, senses=senses, b=b, ub=np.full(n, 3.0), maximize=True
        )
        sol = solve(lp)
        if not sol.optimal:
            continue
        for i, sense in enumerate(senses):
            if sense == LE:
                assert sol.y[i] >= -1e-9
            else:
                assert sol.y[i] <= 1e-9


def test_deterministic_resolve():
    lp = LinearProgram(
        c=[1.0, -2.0, 0.5],
        A=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
        senses=(LE, GE),
        b=[2.0, -1.0],
        ub=np.array([2.0, 2.0, 2.0]),
        maximize=True,
    )
    a, b = solve(lp), solve(lp)
    assert a.value == b.value
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_fractional_reduces_to_lp():
    res = linear_fractional_max(
        num=np.array([1.0]),
        num0=0.0,
        den=np.array([0.0]),
        den0=1.0,
        A=np.array([[1.0]]),
        senses=(LE,),
        b=np.array([2.0]),
    )
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.x[0] == pytest.approx(2.0, abs=1e-9)


def test_fractional_on_simplex():
    # max (x1 + 2 x2) / (x1 + x2) over the probability simplex -> 2 at (0, 1)
    res = linear_fractional_max(
        num=np.array([1.0, 2.0]),
        num0=0.0,
        den=np.array([1.0, 1.0]),
        den0=0.0,
        A=np.array([[1.0, 1.0]]),
        senses=(EQ,),
        b=np.array([1.0]),
    )
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.x == pytest.approx(np.array([0.0, 1.0]), abs=1e-9)


def test_fractional_matches_vertex_scan():
    """Random 3-var fractional instances against brute-force vertex ratios."""
    rng = Rng(11)
    checked = 0
    for _ in range(40):
        n = 3
        m = 2
        A = np.array([[rng.uniform(0.1, 2) for _ in range(n)] for _ in range(m)])
        b = np.array([rng.uniform(1, 3) for _ in range(m)])
        num = np.array([rng.uniform(-2, 2) for _ in range(n)])
        den = np.array([rng.uniform(0.2, 1.5) for _ in range(n)])
        den0 = rng.uniform(0.1, 1.0)
        res = linear_fractional_max(
            num, 0.0, den, den0, A, (LE,) * m, b, ub=np.full(n, 4.0)
        )
        assert res is not None
        # oracle: enumerate vertices of the polytope via basis enumeration on
        # a feasibility LP, then take the best ratio
        best = None
        ident = np.eye(n)
        rows = np.vstack([A, ident, -ident])
        rhs = np.concatenate([b, np.full(n, 4.0), np.zeros(n)])
        total_rows = rows.shape[0]
        for basis in itertools.combinations(range(total_rows), n):
            B = rows[list(basis)]
            if abs(np.linalg.det(B)) < 1e-10:
                continue
            x = np.linalg.solve(B, rhs[list(basis)])
            if np.any(x < -1e-9) or np.any(rows @ x > rhs + 1e-9):
                continue
            d = den0 + den @ x
            if d <= 1e-9:
                continue
            val = (num @ x) / d
            if best is None or val > best:
                best = val
        assert best is not None
        assert res.value == pytest.approx(best, abs=1e-7)
        checked += 1
    assert checked == 40


def test_fractional_with_shifted_bounds():
    # max x / 1 over 1 <= x <= 2 and max 1 / x over the same box
    res = linear_fractional_max(
        num=np.array([1.0]), num0=0.0, den=np.array([0.0]), den0=1.0,
        A=np.zeros((0, 1)), senses=(), b=np.zeros(0),
        lb=np.array([1.0]), ub=np.array([2.0]),
    )
    assert res.value == pytest.approx(2.0, abs=1e-9)
    res = linear_fractional_max(
        num=np.array([0.0]), num0=1.0, den=np.array([1.0]), den0=0.0,
        A=np.zeros((0, 1)), senses=(), b=np.zeros(0),
        lb=np.array([1.0]), ub=np.array([2.0]),
    )
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_fractional_unreachable_denominator():
    # denominator identically zero on the feasible set -> None
    res = linear_fractional_max(
        num=np.array([1.0]),
        num0=0.0,
        den=np.array([1.0]),
        den0=0.0,
        A=np.array([[1.0]]),
        senses=(EQ,),
        b=np.array([0.0]),
    )
    assert res is None


def _pivot_instances():
    """Seeded LPs mixing all three senses, negative right-hand sides, free
    variables and finite upper bounds, then hand-made ones: a redundant
    equality row, an infeasible and an unbounded program, two programs with
    no constraint rows, and a degenerate pair of equality rows whose
    artificial is driven out of the basis after phase 1."""
    rng = Rng(311)
    lps = []
    for _ in range(14):
        n = 2 + rng.randint(4)
        m = 1 + rng.randint(4)
        A = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(m)])
        b = np.array([rng.uniform(-3, 3) for _ in range(m)])
        c = np.array([rng.uniform(-2, 2) for _ in range(n)])
        senses = tuple(rng.choice((LE, GE, EQ)) for _ in range(m))
        lb = np.array([rng.choice((0.0, -np.inf, -1.0)) for _ in range(n)])
        ub = np.where(lb == -np.inf, 3.0, [rng.choice((np.inf, 3.0)) for _ in range(n)])
        lps.append(LinearProgram(c=c, A=A, senses=senses, b=b, lb=lb, ub=ub,
                                 maximize=bool(rng.randint(2))))
    lps += [
        LinearProgram(c=[1.0, -2.0, 0.5], A=[[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, -1.0, 0.0]],
                      senses=(EQ, EQ, LE), b=[2.0, 4.0, 1.0]),
        LinearProgram(c=[1.0, 1.0], A=[[1.0, 1.0], [1.0, 1.0]], senses=(LE, GE), b=[1.0, 3.0]),
        LinearProgram(c=[1.0, 0.0], A=[[1.0, -1.0]], senses=(LE,), b=[1.0], maximize=True),
        LinearProgram(c=[1.0, 1.0, 2.0], A=np.zeros((0, 3)), senses=(), b=np.zeros(0),
                      lb=np.array([-1.0, -np.inf, 0.0]), ub=np.array([2.0, 1.0, 4.0]), maximize=True),
        LinearProgram(c=[1.0, 2.0], A=np.zeros((0, 2)), senses=(), b=np.zeros(0)),
        LinearProgram(c=[-1.0, -1.0], A=[[1.0, -2.0], [-3.0, 1.0]], senses=(GE, LE), b=[-2.0, -1.0],
                      lb=np.array([-np.inf, -np.inf]), ub=np.array([5.0, np.inf])),
        LinearProgram(c=[1.0, 1.0], A=[[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]],
                      senses=(EQ, EQ, LE), b=[0.0, 0.0, 2.0], maximize=True),
    ]
    return lps


#: (status, [(row, col), ...]) per instance of ``_pivot_instances``. A change
#: of the standard-form layout or of the scaling must leave these as they are.
PINNED_PIVOTS = [
    ('unbounded', [(1, 0)]),
    ('optimal', [(0, 1), (0, 2), (1, 0), (1, 5), (3, 1), (4, 4)]),
    ('optimal', [(3, 0), (2, 1), (1, 3), (3, 4), (4, 6)]),
    ('optimal', [(1, 0), (1, 1), (0, 3), (3, 0), (2, 5)]),
    ('infeasible', [(1, 0), (1, 2), (3, 1)]),
    ('unbounded', [(0, 1), (2, 2)]),
    ('infeasible', [(1, 0)]),
    ('unbounded', [(0, 0), (0, 3)]),
    ('unbounded', [(0, 0), (0, 1)]),
    ('optimal', [(2, 0), (0, 1), (1, 3), (1, 5), (1, 7), (0, 4), (5, 2)]),
    ('optimal', [(0, 1), (2, 2), (0, 3), (1, 0)]),
    ('infeasible', []),
    ('optimal', [(3, 3), (2, 0), (1, 4), (0, 6), (5, 1)]),
    ('infeasible', [(3, 0)]),
    ('optimal', [(2, 0), (0, 1), (2, 3)]),
    ('infeasible', [(0, 0)]),
    ('unbounded', [(0, 0)]),
    ('optimal', [(0, 0), (1, 1), (2, 3)]),
    ('optimal', []),
    ('optimal', [(1, 0), (0, 2), (2, 5)]),
    ('optimal', [(0, 0), (2, 1)]),
]


def test_pivot_sequence_pinned(monkeypatch):
    """Every tableau pivot, phase 1, artificial drive-out and phase 2, in
    order: a change of column layout or of the pivot rules shows up here."""
    log = []
    pivot = _Tableau.pivot

    def recording_pivot(self, row, col):
        log.append((int(row), int(col)))
        pivot(self, row, col)

    monkeypatch.setattr(_Tableau, "pivot", recording_pivot)
    recorded = []
    for lp in _pivot_instances():
        log.clear()
        recorded.append((solve(lp).status, list(log)))
    assert recorded == PINNED_PIVOTS
    assert {status for status, _ in recorded} == {"optimal", "infeasible", "unbounded"}
