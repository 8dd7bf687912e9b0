"""Ambiguity sets: representation, worst-case expectation, reference measure,
and strict-monotonicity certification.

Four families are supported, each a convex set of probability measures on a
finite space described by generators or constraints (never by enumerating the
continuum):

* ``FiniteFamily`` -- the convex hull of listed measures;
* ``AVaRSet`` -- densities ``0 <= zeta <= 1/(1-alpha)`` w.r.t. a reference;
* ``MomentSet`` -- measures on a support grid matching moment targets;
* ``WassersteinBall`` -- order-1 transport ball around a center.

Each family answers one question through one batched oracle,
``worst_case(M, Z)``: the worst-case expectation ``sup_Q E_Q[Z]`` for every
row of ``Z`` together with an attaining measure. Finite families scan their
members with a matrix product, AVaR sets sort ``Z`` and fill the capped
density (Rockafellar & Uryasev 2000), and moment sets and transport balls
solve the membership LP. The reference measure, strict monotonicity, sampled
members and reachability are all the oracle on chosen objectives (unit
vectors, their negatives, random directions). A linear objective on a
polytope attains its optimum at a vertex, so every reduction is exact.
``membership_system`` encodes each set as constraints; it feeds the LP and is
the independent route the tests compare the oracle against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .lp import EQ, GE, LE, LinearProgram, solve
from .rng import Rng
from .spaces import DiscreteMeasure, FiniteSpace, RandomVariable, ValidationError


@dataclass(frozen=True)
class FiniteFamily:
    """Convex hull of finitely many probability measures."""

    measures: tuple[DiscreteMeasure, ...]

    def __post_init__(self):
        measures = tuple(self.measures)
        object.__setattr__(self, "measures", measures)
        if not measures:
            raise ValidationError("a finite family needs at least one measure")
        n = measures[0].n
        for q in measures:
            if q.n != n:
                raise ValidationError("family members live on different spaces")
            q.require_probability("family member")
        matrix = np.vstack([q.weights for q in measures])
        matrix.setflags(write=False)
        object.__setattr__(self, "_matrix", matrix)

    @property
    def n(self) -> int:
        return self.measures[0].n

    def matrix(self) -> np.ndarray:
        """Members as rows, shape (m, n), read-only."""
        return self._matrix


@dataclass(frozen=True)
class AVaRSet:
    """Dual set of AVaR at level ``alpha``: capped densities w.r.t. a reference."""

    alpha: float
    reference: DiscreteMeasure

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValidationError("AVaRSet needs alpha in [0, 1)")
        self.reference.require_probability("AVaR reference")

    @property
    def n(self) -> int:
        return self.reference.n

    @property
    def cap(self) -> float:
        return 1.0 / (1.0 - self.alpha)


@dataclass(frozen=True)
class MomentSet:
    """Measures on a finite support grid with prescribed generalized moments.

    The grid discretizes whatever continuum the moment functions came from;
    choosing it is up to the caller and the docs flag the approximation.
    Feasibility is certified by an LP solve at construction.
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
        sys = membership_system(self)
        sol = solve(
            LinearProgram(
                c=np.zeros(sys.n_vars), A=sys.A, senses=sys.senses, b=sys.b
            )
        )
        if not sol.optimal:
            raise ValidationError("moment constraints are infeasible on this grid")

    @property
    def n(self) -> int:
        return self.support.n

    @property
    def n_moments(self) -> int:
        return len(self.psi)


@dataclass(frozen=True)
class WassersteinBall:
    """Order-1 transport ball of the given radius around ``center``.

    Only order 1 is supported; every bound used downstream is stated for the
    order-1 distance.
    """

    center: DiscreteMeasure
    radius: float
    space: FiniteSpace
    order: int = 1

    def __post_init__(self):
        self.center.require_probability("ball center")
        if self.center.n != self.space.n:
            raise ValidationError("center and space sizes differ")
        if self.radius < 0.0:
            raise ValidationError("radius must be nonnegative")
        if self.order != 1:
            raise ValidationError("only order-1 balls are supported")
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
    n = M.n
    if isinstance(M, FiniteFamily):
        mat = M.matrix()  # (m, n)
        m = mat.shape[0]
        return MembershipSystem(
            n_vars=m,
            A=np.ones((1, m)),
            senses=(EQ,),
            b=np.array([1.0]),
            q_map=mat.T,
        )
    if isinstance(M, AVaRSet):
        p = M.reference.weights
        A = np.vstack([p.reshape(1, -1), np.eye(n)])
        senses = (EQ,) + (LE,) * n
        b = np.concatenate([[1.0], np.full(n, M.cap)])
        return MembershipSystem(n, A, senses, b, q_map=np.diag(p))
    if isinstance(M, MomentSet):
        rows = [np.ones(n)] + [f.values for f in M.psi]
        b = np.concatenate([[1.0], np.asarray(M.targets, dtype=float)])
        return MembershipSystem(
            n, np.vstack(rows), (EQ,) * (1 + M.n_moments), b, q_map=np.eye(n)
        )
    if isinstance(M, WassersteinBall):
        d = M.space.require_metric()
        nv = n * n  # plan entry (i, j) at index i * n + j
        rows = np.zeros((n + 1, nv))
        for i in range(n):
            rows[i, i * n : (i + 1) * n] = 1.0  # source marginal
        rows[n] = d.reshape(-1)  # transport cost budget
        b = np.concatenate([M.center.weights, [M.radius]])
        q_map = np.zeros((n, nv))
        for i in range(n):
            for j in range(n):
                q_map[j, i * n + j] = 1.0
        return MembershipSystem(nv, rows, (EQ,) * n + (LE,), b, q_map=q_map)
    raise ValidationError(f"unknown ambiguity set type {type(M).__name__}")


def _membership_lp(
    M: AmbiguitySet,
    objective_on_q: np.ndarray,
    maximize: bool,
    zero_outcomes: tuple[int, ...] = (),
    allow_infeasible: bool = False,
) -> Optional[tuple[float, np.ndarray]]:
    """Optimize a linear function of the measure over the set, optionally
    forcing ``q`` to vanish on the listed outcomes.

    Pinning outcomes to zero can empty the set; with ``allow_infeasible``
    that returns ``None`` instead of raising.
    """
    sys = membership_system(M)
    A, senses, b = sys.A, list(sys.senses), sys.b
    if zero_outcomes:
        extra = sys.q_map[list(zero_outcomes)]
        A = np.vstack([A, extra])
        senses += [EQ] * len(zero_outcomes)
        b = np.concatenate([b, np.zeros(len(zero_outcomes))])
    sol = solve(
        LinearProgram(
            c=objective_on_q @ sys.q_map,
            A=A,
            senses=tuple(senses),
            b=b,
            maximize=maximize,
        )
    )
    if not sol.optimal:
        if allow_infeasible and sol.status == "infeasible":
            return None
        raise ValidationError(f"membership LP unexpectedly {sol.status}")
    return float(sol.value), sys.q_map @ sol.x


def worst_case(M: AmbiguitySet, Z) -> tuple[np.ndarray, np.ndarray]:
    """Batched worst case ``sup_Q E_Q[Z]`` over the last axis of ``Z``.

    ``Z`` has shape ``(..., n)``; returns the values, shape ``(...)``, and
    attaining measures, shape ``(..., n)``. Every other operation on a set is
    built on this one, which is where the families differ:

    * FiniteFamily: members times ``Z``, then the first largest member;
    * AVaRSet: a stable descending sort of ``Z``, then the density cap
      ``p / (1 - alpha)`` filled along it until the unit mass is spent, so
      the lowest index wins ties;
    * MomentSet, WassersteinBall: the membership LP, row by row.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim < 1 or Z.shape[-1] != M.n:
        raise ValidationError("Z and the ambiguity set live on different spaces")
    if not np.isfinite(Z).all():
        raise ValidationError("random variables must be finite-valued")
    if isinstance(M, FiniteFamily):
        mat = M.matrix()
        vals = Z @ mat.T
        return vals.max(axis=-1), mat[vals.argmax(axis=-1)]
    if isinstance(M, AVaRSet):
        order = np.argsort(-Z, axis=-1, kind="stable")
        caps = M.cap * M.reference.weights[order]
        take = np.diff(np.minimum(np.cumsum(caps, axis=-1), 1.0), axis=-1, prepend=0.0)
        argmax = np.empty_like(take)
        np.put_along_axis(argmax, order, take, axis=-1)
        return (take * np.take_along_axis(Z, order, axis=-1)).sum(axis=-1), argmax
    flat = Z.reshape(-1, M.n)
    values = np.empty(flat.shape[0])
    argmax = np.empty_like(flat)
    for i, z in enumerate(flat):
        values[i], argmax[i] = _membership_lp(M, z, maximize=True)
    return values.reshape(Z.shape[:-1]), argmax.reshape(Z.shape)


def robust_expectation(
    M: AmbiguitySet, Z: RandomVariable
) -> tuple[float, DiscreteMeasure]:
    """Worst-case expectation ``sup_Q E_Q[Z]`` with an attaining measure.

    One row of ``worst_case``: a member scan for finite families, the sorted
    capped-density fill for AVaR sets, the membership LP otherwise.
    """
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
    directions = [rng.uniforms(n, -1.0, 1.0) for _ in range(min(count, 2 * n + 2))]
    _, vertices = worst_case(M, np.array(directions).reshape(-1, n))
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
    """Randomized check of ``Q(A) <= mu(A)`` over sampled members and subsets."""
    rng = rng or Rng()
    n = M.n
    pool = sample_measures(M, max(8, min(trials, 4 * n)), rng)
    for _ in range(trials):
        q = pool[rng.randint(len(pool))]
        A = rng.subset(n)
        if q.of(A) > result.mu.of(A) + 1e-9:
            return False
    return True


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


def _min_mass_member(M: AmbiguitySet, outcome: int) -> tuple[float, DiscreteMeasure]:
    """Member minimizing the mass of a single outcome: the worst case of
    ``-1_{outcome}``."""
    value, argmax = worst_case(M, -np.eye(M.n)[outcome])
    return max(0.0, -float(value)), DiscreteMeasure(argmax)


def is_strictly_monotone(
    M: AmbiguitySet, P: DiscreteMeasure, tol: float = 1e-9
) -> StrictMonotonicity:
    """Decide strict monotonicity of the worst-case functional w.r.t. ``P``.

    On a finite space ``Q(A) >= sum of singleton masses``, so it suffices to
    certify a positive infimum of ``Q({w})`` over members for every
    ``P``-positive outcome; the infimum of a linear functional over the set
    is attained at an extreme representation and is the oracle on the negated
    outcome indicator.
    """
    P.require_probability("P")
    if P.n != M.n:
        raise ValidationError("P and the ambiguity set live on different spaces")
    best: Optional[tuple[float, int, DiscreteMeasure]] = None
    for w in range(M.n):
        if P.weights[w] <= 0.0:
            continue
        val, member = _min_mass_member(M, w)
        if best is None or val < best[0]:
            best = (val, w, member)
    if best is None:
        raise ValidationError("P has no positive outcome")
    eps, w, member = best
    return StrictMonotonicity(strict=eps > tol, epsilon=eps, outcome=w, witness=member)


def contains(M: AmbiguitySet, Q: DiscreteMeasure, tol: float = 1e-7) -> bool:
    """Membership test up to ``tol``: is some representation ``v`` feasible
    with ``q_map v`` within ``tol`` of ``Q`` componentwise?"""
    if Q.n != M.n:
        return False
    sys = membership_system(M)
    A = np.vstack([sys.A, sys.q_map, sys.q_map])
    senses = sys.senses + (LE,) * M.n + (GE,) * M.n
    b = np.concatenate([sys.b, Q.weights + tol, Q.weights - tol])
    sol = solve(LinearProgram(c=np.zeros(sys.n_vars), A=A, senses=senses, b=b))
    return sol.optimal


def default_reference(M: AmbiguitySet) -> DiscreteMeasure:
    """Canonical reference probability: the AVaR reference when the set has
    one, otherwise the normalized smallest dominating measure."""
    if isinstance(M, AVaRSet):
        return M.reference
    return reference_measure(M).normalized


def reachable_outcomes(M: AmbiguitySet) -> np.ndarray:
    """Boolean mask of outcomes charged by at least one member."""
    return worst_case(M, np.eye(M.n))[0] > 1e-9
