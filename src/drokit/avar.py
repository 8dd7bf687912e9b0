"""Average Value-at-Risk: closed-form primal, LP dual, and axiom batteries.

The primal form is the infimum over thresholds ``tau`` of
``tau + E[(Z - tau)_+] / (1 - alpha)``; because the objective is piecewise
linear with breakpoints exactly at the values of ``Z``, the minimum is found
by scanning those breakpoints. The dual form maximizes ``E[zeta * Z]`` over
densities ``0 <= zeta <= 1/(1 - alpha)`` with ``E[zeta] = 1`` and is solved
as an LP; both routes must agree to 1e-7, which the test suite enforces on
randomized instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import AVaRSet, worst_case
from .lp import EQ, LinearProgram, solve
from .rng import Rng
from .spaces import RandomVariable, ValidationError


@dataclass(frozen=True)
class AvarValue:
    value: float
    tau: float


def avar_primal(M: AVaRSet, Z: RandomVariable) -> AvarValue:
    """Breakpoint scan of the threshold objective.

    For ``alpha == 1`` the functional is the essential supremum: the largest
    value of ``Z`` on outcomes of positive reference mass. Ties in the
    minimizing threshold resolve toward the smallest ``tau``.
    """
    p = M.reference.weights
    z = Z.values
    if z.size != p.size:
        raise ValidationError("Z and the reference live on different spaces")
    if M.alpha >= 1.0:
        top = float(np.max(z[p > 0.0]))
        return AvarValue(value=top, tau=top)
    scale = M.cap
    best_val, best_tau = np.inf, np.inf
    for tau in np.unique(z):  # ascending, so strict '<' keeps the smallest tau
        val = tau + scale * float(p @ np.maximum(z - tau, 0.0))
        if val < best_val:
            best_val, best_tau = val, float(tau)
    return AvarValue(value=best_val, tau=best_tau)


def avar_dual(M: AVaRSet, Z: RandomVariable) -> float:
    """LP over capped densities; equals the primal within 1e-7."""
    p = M.reference.weights
    z = Z.values
    if z.size != p.size:
        raise ValidationError("Z and the reference live on different spaces")
    lp = LinearProgram(
        c=z * p,
        A=p.reshape(1, -1),
        senses=(EQ,),
        b=np.array([1.0]),
        ub=np.full(p.size, M.cap),
        maximize=True,
    )
    sol = solve(lp)
    if not sol.optimal:
        raise ValidationError(f"dual LP unexpectedly {sol.status}")
    return float(sol.value)


@dataclass(frozen=True)
class AxiomReport:
    """Largest observed violation per axiom over a randomized battery.

    Violations are one-sided excesses, so exact functionals report 0.0 and
    anything above solver tolerance indicates a bug.
    """

    subadditivity: float
    monotonicity: float
    translation: float
    homogeneity: float
    lipschitz: float
    trials: int

    @property
    def max_violation(self) -> float:
        return max(
            self.subadditivity,
            self.monotonicity,
            self.translation,
            self.homogeneity,
            self.lipschitz,
        )


def check_axioms(ambiguity_set, trials: int, rng: Rng | None = None) -> AxiomReport:
    """Randomized battery for subadditivity, monotonicity, translation
    equivariance, positive homogeneity, and the sup-norm Lipschitz bound of
    the worst-case expectation functional. Each trial draws ``z`` and ``z2``
    in [-2, 2), ``bump`` in [0, 1.5), a shift in [-2, 2) and a scale in
    [0.1, 3), in that order; all trials are one block of uniforms, and the
    six rows of all trials go to one ``worst_case`` call."""
    rng = rng or Rng()
    n = ambiguity_set.n
    lo = np.repeat([-2.0, -2.0, 0.0, -2.0, 0.1], [n, n, n, 1, 1])
    hi = np.repeat([2.0, 2.0, 1.5, 2.0, 3.0], [n, n, n, 1, 1])
    draws = lo + (hi - lo) * rng.uniforms(trials * lo.size).reshape(trials, lo.size)
    z, z2, bump = draws[:, :n], draws[:, n:2 * n], draws[:, 2 * n:3 * n]
    shifts, scales = draws[:, 3 * n], draws[:, 3 * n + 1]
    rows = np.stack((z, z2, z + z2, z + bump, z + shifts[:, None], scales[:, None] * z), axis=1)
    risk = worst_case(ambiguity_set, rows)[0]
    rz, rz2, rsum, rbump, rshift, rscale = risk.T
    gap = np.abs(rows[:, 1] - rows[:, 0]).max(axis=1, initial=0.0)
    violations = (
        rsum - rz - rz2,
        rz - rbump,
        np.abs(rshift - rz - shifts),
        np.abs(rscale - scales * rz),
        np.abs(rz2 - rz) - gap,
    )
    return AxiomReport(*(float(v.max(initial=0.0)) for v in violations), trials)
