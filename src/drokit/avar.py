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

from .lp import EQ, LinearProgram, solve
from .rng import Rng
from .spaces import DiscreteMeasure, RandomVariable, ValidationError


@dataclass(frozen=True)
class AvarSpec:
    """Risk level ``alpha`` in [0, 1] plus the reference probability."""

    alpha: float
    reference: DiscreteMeasure

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError("alpha must lie in [0, 1]")
        self.reference.require_probability("reference")


@dataclass(frozen=True)
class AvarValue:
    value: float
    tau: float


def avar_primal(spec: AvarSpec, Z: RandomVariable) -> AvarValue:
    """Breakpoint scan of the threshold objective.

    For ``alpha == 1`` the functional is the essential supremum: the largest
    value of ``Z`` on outcomes of positive reference mass. Ties in the
    minimizing threshold resolve toward the smallest ``tau``.
    """
    p = spec.reference.weights
    z = Z.values
    if z.size != p.size:
        raise ValidationError("Z and the reference live on different spaces")
    if spec.alpha >= 1.0:
        top = float(np.max(z[p > 0.0]))
        return AvarValue(value=top, tau=top)
    scale = 1.0 / (1.0 - spec.alpha)
    best_val, best_tau = np.inf, np.inf
    for tau in np.unique(z):  # ascending, so strict '<' keeps the smallest tau
        val = tau + scale * float(p @ np.maximum(z - tau, 0.0))
        if val < best_val:
            best_val, best_tau = val, float(tau)
    return AvarValue(value=best_val, tau=best_tau)


def avar_dual(spec: AvarSpec, Z: RandomVariable) -> float:
    """LP over capped densities; equals the primal within 1e-7."""
    p = spec.reference.weights
    z = Z.values
    if z.size != p.size:
        raise ValidationError("Z and the reference live on different spaces")
    cap = np.inf if spec.alpha >= 1.0 else 1.0 / (1.0 - spec.alpha)
    n = p.size
    lp = LinearProgram(
        c=z * p,
        A=p.reshape(1, -1),
        senses=(EQ,),
        b=np.array([1.0]),
        ub=np.full(n, cap),
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
    the worst-case expectation functional."""
    from .ambiguity import worst_case  # deferred: layering

    rng = rng or Rng()
    n = ambiguity_set.n

    def risk(values: np.ndarray) -> float:
        return float(worst_case(ambiguity_set, values)[0])

    sub = mono = trans = homog = lip = 0.0
    for _ in range(trials):
        z = rng.uniforms(n, -2.0, 2.0)
        z2 = rng.uniforms(n, -2.0, 2.0)
        bump = rng.uniforms(n, 0.0, 1.5)
        a = rng.uniform(-2.0, 2.0)
        lam = rng.uniform(0.1, 3.0)
        rz, rz2 = risk(z), risk(z2)
        sub = max(sub, risk(z + z2) - rz - rz2)
        mono = max(mono, rz - risk(z + bump))
        trans = max(trans, abs(risk(z + a) - rz - a))
        homog = max(homog, abs(risk(lam * z) - lam * rz))
        lip = max(lip, abs(rz2 - rz) - float(np.max(np.abs(z2 - z))))
    return AxiomReport(sub, mono, trans, homog, lip, trials)
