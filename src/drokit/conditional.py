"""Conditional worst-case functionals on finite partitions.

Per atom, the conditional functional is the supremum of the conditional
expectation over set members that charge the atom; atoms no member charges
get ``-inf``, a deterministic stand-in for the "arbitrary off the reachable
part" freedom of the underlying definition, and poison translation
equivariance. The supremum is a linear-fractional program over the measure
polytope. It is computed on the worst-case oracle alone: the oracle on the
atom indicators decides which atoms some member charges, and Dinkelbach's
iteration (Dinkelbach 1967) on ``theta -> sup_Q E_Q[(Z - theta) 1_A]`` finds
the value of the others, for a whole stack of random variables in one batched
oracle call per step (``_conditional_values``). The conditional values,
property (P) and the strict monotonicity battery all call it. The tests
check the values against the Charnes-Cooper LP and (P) against the LP that
pins the rest of each atom to zero; both LPs are built in the tests on
``membership_system``, and the library solves neither.

The nested conditional AVaR -- the law-invariant alternative -- is also
provided and deliberately *not* reconciled with the worst-case conditional:
which of the two is the right conditional counterpart is left open, and the
suite keeps a stored witness showing they differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import (
    AmbiguitySet,
    AVaRSet,
    _mass_floor,
    is_strictly_monotone,
    worst_case,
)
from .avar import avar_primal
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

    def per_outcome(self) -> np.ndarray:
        return self.partition.expand(self.atom_values)


def conditional_robust(
    M: AmbiguitySet, Z: RandomVariable, G: Partition, P: DiscreteMeasure
) -> ConditionalValue:
    """Per-atom worst-case conditional expectation, all atoms at once.

    ``P`` is only validated as a probability on the set's space: the
    values, and which atoms get ``-inf``, depend on ``M`` alone.
    """
    P.require_probability("P")
    if Z.n != M.n or G.n != M.n or P.n != M.n:
        raise ValidationError("Z, G, P, and the ambiguity set must share a space")
    values = _conditional_values(M, Z.values, G)
    return ConditionalValue(G, tuple(values.tolist()), bool(np.isfinite(values).all()))


def _conditional_values(M: AmbiguitySet, Z, G: Partition) -> np.ndarray:
    """Per-atom conditional suprema for every row of ``Z``: shape ``(..., n)``
    in, ``(..., atoms)`` out.

    The oracle on the atom indicators ``1_A``, called once for all rows,
    gives ``sup_Q Q(A)``: an atom whose supremum is at most the family's mass
    floor (``_mass_floor``) gets ``-inf`` in every row. A (row, live atom)
    pair whose row is constant on the atom takes that constant; every other
    pair starts from the conditional mean ``theta`` of the member found and
    follows Dinkelbach's iteration on
    ``F(theta) = sup_Q E_Q[(Z - theta) 1_A]``: the member attaining ``F`` has
    a conditional mean above ``theta`` until ``theta`` is the supremum, and
    that mean is the next ``theta``. One batched oracle call serves every
    pair still moving. A pair stops when ``theta`` reaches the row's largest
    value on the atom, which no conditional mean exceeds, or when ``theta``
    rises by at most ``1e-12 max|Z|`` over its row, a test on ``theta``
    itself: a test on ``F``, which is the member's mass on the atom times the
    rise, would stop early when the best member barely charges the atom.
    """
    if G.n != M.n:
        raise ValidationError("partition and ambiguity set sizes differ")
    z = np.asarray(Z, dtype=float).reshape(-1, M.n)
    ind = (G.atom_index == np.arange(G.n_atoms)[:, None]).astype(float)
    floor = _mass_floor(M)
    mass, Q = worst_case(M, ind)
    row, atom = np.nonzero(np.broadcast_to(mass > floor, (z.shape[0], G.n_atoms)))
    Qa = Q[atom] * ind[atom]
    theta = (Qa * z[row]).sum(axis=1) / Qa.sum(axis=1)
    values = np.full((z.shape[0], G.n_atoms), NEG_INF)
    # on a flat pair every member's conditional mean is the constant lo, and
    # a pair whose theta has reached hi can rise no further
    zr, on = z[row], ind[atom] > 0.0
    lo = np.where(on, zr, np.inf).min(axis=1)
    hi = np.where(on, zr, -np.inf).max(axis=1)
    flat = lo == hi
    settled = flat | (theta >= hi)
    values[row[settled], atom[settled]] = np.where(flat, lo, theta)[settled]
    row, atom, theta, hi = row[~settled], atom[~settled], theta[~settled], hi[~settled]
    tol = 1e-12 * np.abs(z).max(axis=1)
    for _ in range(_DINKELBACH_CAP):
        if not row.size:
            break
        zr, sel = z[row], ind[atom]
        _, Q = worst_case(M, (zr - theta[:, None]) * sel)
        Qa = Q * sel
        m = Qa.sum(axis=1)
        charged = m > floor
        mean = (Qa * zr).sum(axis=1) / np.where(charged, m, 1.0)
        theta_next = np.where(charged, mean, theta)
        done = (theta_next - theta <= tol[row]) | (theta_next >= hi)
        values[row[done], atom[done]] = np.maximum(theta, theta_next)[done]
        row, atom, theta, hi = row[~done], atom[~done], theta_next[~done], hi[~done]
    if row.size:
        raise ValidationError("conditional value: Dinkelbach iteration did not settle")
    return values.reshape(np.shape(Z)[:-1] + (G.n_atoms,))


#: Dinkelbach's iteration ends after finitely many steps on a polytope; this
#: bound only guards against a defective oracle.
_DINKELBACH_CAP = 100

#: How far the conditional value of ``1_w`` on its atom may fall short of 1 and
#: count as (P): a co-atom mass up to this fraction of the atom's is taken for 0.
_RATIO_TOL = 1e-9


def has_property_p(M: AmbiguitySet, G: Partition) -> bool:
    """Can the set concentrate conditional mass on any single outcome?

    True iff for every atom and every outcome ``w`` in it, some member charges
    ``w`` while vanishing on the rest of the atom, that is, iff the
    conditional value of ``1_w`` on its atom (the supremum of ``Q(w) / Q(A)``,
    attained at a member) is 1. One batched call on the unit vectors decides
    every outcome; a value of at least ``1 - _RATIO_TOL`` counts, and an atom
    no member charges fails.
    """
    values = _conditional_values(M, np.eye(M.n), G)
    own = values[np.arange(M.n), G.atom_index]
    return bool(np.all(own >= 1.0 - _RATIO_TOL))


def conditional_avar_nested(M: AVaRSet, Z: RandomVariable, G: Partition) -> ConditionalValue:
    """Nested conditional AVaR: per atom, AVaR of ``Z`` at the set's level
    under the conditional law of its reference. Null atoms get ``-inf``."""
    p = M.reference.weights
    if Z.n != p.size or G.n != p.size:
        raise ValidationError("Z, G, and the reference must share a space")
    values = []
    for atom in G.atoms:
        idx = list(atom)
        mass = float(p[idx].sum())
        if mass <= 0.0:
            values.append(NEG_INF)
            continue
        local = AVaRSet(M.alpha, DiscreteMeasure(p[idx] / mass))
        values.append(avar_primal(local, RandomVariable(Z.values[idx])).value)
    te = all(np.isfinite(v) for v in values)
    return ConditionalValue(G, tuple(values), te)


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
    Every trial is drawn first; one batched call on the stacked ``Z`` and
    ``Z'`` gives all conditional values.
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
    positive = np.flatnonzero(P.weights > 0.0)
    Z = np.empty((2, trials, n))  # every trial's Z, then its Z'
    bump = np.zeros((trials, n), dtype=bool)
    gamma = np.empty(trials)
    for k in range(trials):
        Z[:, k] = rng.uniforms(n, -2.0, 2.0)
        bump[k, positive[rng.subset(positive.size)]] = True
        gamma[k] = rng.uniform(0.1, 1.0)
        Z[1, k, bump[k]] += gamma[k]
    old, new = _conditional_values(M, Z, G)
    # P-mass of each trial's bump set on each atom
    meets = (bump * P.weights) @ (G.atom_index[:, None] == np.arange(G.n_atoms))
    # an atom no member charges is -inf before and after: nan, no violation
    with np.errstate(invalid="ignore"):
        delta = new - old
    short = delta < gamma[:, None] * base.epsilon - 1e-7
    violations = int(np.count_nonzero((delta < -1e-9) | ((meets > 0.0) & short)))
    return StrictMonotonicityReport(
        checked=True, trials=trials, violations=violations, epsilon=base.epsilon
    )
