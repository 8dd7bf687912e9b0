"""Conditional worst-case functionals on finite partitions.

Per atom, the conditional functional is the supremum of the conditional
expectation over set members that charge the atom; atoms no member charges
get ``-inf``, a deterministic stand-in for the "arbitrary off the reachable
part" freedom of the underlying definition, and poison translation
equivariance. The supremum is a linear-fractional program over the measure
polytope. It is computed on the worst-case oracle alone: the oracle on the
atom indicators decides which atoms some member charges, and Dinkelbach's
iteration (Dinkelbach 1967) on ``theta -> sup_Q E_Q[(Z - theta) 1_A]`` finds
the value of the others, every atom in one batched oracle call per step. The
tests check it against the Charnes-Cooper LP built from ``membership_system``.

The nested conditional AVaR -- the law-invariant alternative -- is also
provided and deliberately *not* reconciled with the worst-case conditional:
which of the two is the right conditional counterpart is left open, and the
suite keeps a stored witness showing they differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import (
    ZERO_MASS_TOL,
    AmbiguitySet,
    FiniteFamily,
    _mass_floor,
    is_strictly_monotone,
    robust_expectation,
    worst_case,
)
from .avar import AvarSpec, avar_primal
from .rng import Rng
from .spaces import (
    NEG_INF,
    DiscreteMeasure,
    Partition,
    RandomVariable,
    ValidationError,
)

@dataclass(frozen=True)
class ConditionalValue:
    """Per-atom extended-real values of a conditional functional.

    ``te_holds`` records whether conditional translation equivariance holds,
    i.e. whether every atom is charged by some member; it is false exactly
    when some atom carries ``-inf``.
    """

    partition: Partition
    atom_values: tuple[float, ...]
    te_holds: bool

    def __post_init__(self):
        if len(self.atom_values) != self.partition.n_atoms:
            raise ValidationError("one value per atom required")

    @property
    def finite(self) -> bool:
        return all(np.isfinite(v) for v in self.atom_values)

    def per_outcome(self) -> np.ndarray:
        return self.partition.expand(self.atom_values)

    def as_random_variable(self) -> RandomVariable:
        if not self.finite:
            raise ValidationError("conditional value carries -inf atoms")
        return RandomVariable(self.per_outcome())


def conditional_robust(
    M: AmbiguitySet, Z: RandomVariable, G: Partition, P: DiscreteMeasure
) -> ConditionalValue:
    """Per-atom worst-case conditional expectation, all atoms at once.

    ``P`` is the reference probability fixing the off-support convention;
    the finite values themselves depend only on the ambiguity set.

    The oracle on the atom indicators ``1_A`` gives ``sup_Q Q(A)``: an atom
    whose supremum is at most the family's mass floor (``_mass_floor``) gets
    ``-inf``. Each live atom then starts from the conditional mean ``theta``
    of the member found and follows Dinkelbach's iteration on
    ``F(theta) = sup_Q E_Q[(Z - theta) 1_A]``: the member attaining ``F`` has
    a conditional mean above ``theta`` until ``theta`` is the supremum, and
    that mean is the next ``theta``. One batched oracle call serves every
    atom still moving. An atom stops when ``theta`` rises by at most
    ``1e-12 max|Z|``, a test on ``theta`` itself: a test on ``F``, which is
    the member's mass on the atom times the rise, would stop early when the
    best member barely charges the atom.
    """
    P.require_probability("P")
    if Z.n != M.n or G.n != M.n or P.n != M.n:
        raise ValidationError("Z, G, P, and the ambiguity set must share a space")
    ind = np.zeros((G.n_atoms, M.n))
    for a, atom in enumerate(G.atoms):
        ind[a, list(atom)] = 1.0
    z = Z.values
    floor = _mass_floor(M)
    mass, Q = worst_case(M, ind)
    live = np.flatnonzero(mass > floor)
    Qa = Q[live] * ind[live]
    theta = Qa @ z / Qa.sum(axis=1)
    values = np.full(G.n_atoms, NEG_INF)
    tol = 1e-12 * float(np.abs(z).max())
    for _ in range(_DINKELBACH_CAP):
        if not live.size:
            break
        _, Q = worst_case(M, (z - theta[:, None]) * ind[live])
        Qa = Q * ind[live]
        m = Qa.sum(axis=1)
        charged = m > floor
        theta_next = np.where(charged, Qa @ z / np.where(charged, m, 1.0), theta)
        done = theta_next - theta <= tol
        values[live[done]] = np.maximum(theta, theta_next)[done]
        live, theta = live[~done], theta_next[~done]
    if live.size:
        raise ValidationError("conditional value: Dinkelbach iteration did not settle")
    values = tuple(float(v) for v in values)
    return ConditionalValue(G, values, all(np.isfinite(values)))


#: Dinkelbach's iteration ends after finitely many steps on a polytope; this
#: bound only guards against a defective oracle.
_DINKELBACH_CAP = 100


def has_property_p(M: AmbiguitySet, G: Partition, tol: float = ZERO_MASS_TOL) -> bool:
    """Can the set concentrate conditional mass on any single outcome?

    True iff for every atom and every outcome in it, some member charges that
    outcome while vanishing on the rest of the atom. Decided per pair by a
    mass-maximizing LP with the co-atom pinned to zero (a member scan for
    finite families).
    """
    from .ambiguity import _membership_lp  # local: shares the LP plumbing

    if G.n != M.n:
        raise ValidationError("partition and ambiguity set sizes differ")
    for atom in G.atoms:
        for w in atom:
            others = tuple(i for i in atom if i != w)
            if isinstance(M, FiniteFamily):
                ok = any(
                    q.weights[w] > tol and q.weights[list(others)].sum() <= tol
                    for q in M.measures
                )
            else:
                obj = np.zeros(M.n)
                obj[w] = 1.0
                res = _membership_lp(
                    M, obj, maximize=True, zero_outcomes=others, allow_infeasible=True
                )
                ok = res is not None and res[0] > tol
            if not ok:
                return False
    return True


def conditional_avar_nested(
    spec: AvarSpec, Z: RandomVariable, G: Partition
) -> ConditionalValue:
    """Nested conditional AVaR: per atom, AVaR of ``Z`` under the conditional
    law of the reference. Null atoms get ``-inf``."""
    p = spec.reference.weights
    if Z.n != p.size or G.n != p.size:
        raise ValidationError("Z, G, and the reference must share a space")
    values = []
    for atom in G.atoms:
        idx = list(atom)
        mass = float(p[idx].sum())
        if mass <= 0.0:
            values.append(NEG_INF)
            continue
        local = AvarSpec(spec.alpha, DiscreteMeasure(p[idx] / mass))
        values.append(avar_primal(local, RandomVariable(Z.values[idx])).value)
    te = all(np.isfinite(v) for v in values)
    return ConditionalValue(G, tuple(values), te)


@dataclass(frozen=True)
class TowerCheck:
    lhs: float  # R(Z)
    rhs: float  # R(R_{|G}(Z))
    holds: bool


def tower_upper_bound_check(
    M: AmbiguitySet, Z: RandomVariable, G: Partition, P: DiscreteMeasure
) -> TowerCheck:
    """Check ``R(Z) <= R(R_{|G}(Z))``. Requires every atom reachable."""
    cond = conditional_robust(M, Z, G, P)
    if not cond.finite:
        raise ValidationError("conditional value must be finite everywhere")
    lhs, _ = robust_expectation(M, Z)
    rhs, _ = robust_expectation(M, cond.as_random_variable())
    return TowerCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-9)


@dataclass(frozen=True)
class StrictMonotonicityReport:
    """Outcome of the conditional strict-monotonicity battery.

    ``checked`` is false when the underlying functional is not strictly
    monotone (the propagation statement has nothing to say then).
    """

    checked: bool
    trials: int
    violations: int
    epsilon: float
    note: str = ""


def conditional_strict_monotonicity_check(
    M: AmbiguitySet,
    G: Partition,
    P: DiscreteMeasure,
    trials: int,
    rng: Rng | None = None,
) -> StrictMonotonicityReport:
    """Sample ``Z' = Z + gamma * 1_A`` with ``P(A) > 0`` and assert the
    conditional values increase, strictly on every atom meeting ``A`` in a
    ``P``-positive set (the increase is at least ``gamma * epsilon`` there).
    """
    rng = rng or Rng()
    base = is_strictly_monotone(M, P)
    if not base.strict:
        return StrictMonotonicityReport(
            checked=False,
            trials=0,
            violations=0,
            epsilon=base.epsilon,
            note="underlying functional is not strictly monotone; check skipped",
        )
    n = M.n
    positive = [i for i in range(n) if P.weights[i] > 0.0]
    violations = 0
    for _ in range(trials):
        z = RandomVariable(rng.uniforms(n, -2.0, 2.0))
        bump_set = [positive[i] for i in rng.subset(len(positive))]
        gamma = rng.uniform(0.1, 1.0)
        z2 = z.values.copy()
        z2[bump_set] += gamma
        before = conditional_robust(M, z, G, P)
        after = conditional_robust(M, RandomVariable(z2), G, P)
        for a, atom in enumerate(G.atoms):
            delta = after.atom_values[a] - before.atom_values[a]
            if delta < -1e-9:
                violations += 1
                continue
            meets = P.weights[[i for i in atom if i in bump_set]].sum() if bump_set else 0.0
            if meets > 0.0 and delta < gamma * base.epsilon - 1e-7:
                violations += 1
    return StrictMonotonicityReport(
        checked=True, trials=trials, violations=violations, epsilon=base.epsilon
    )
