"""The acceptance battery: twelve criteria, two sources of instances.

Each criterion checks one inequality, equivalence, or certificate the library
claims, through two independent evaluation routes where the claim relates two
quantities. A criterion is a shared check of one instance (the two routes
compared and the residual that results) fed from one of two sources:

* ``run_builtin`` (``verify --builtin``) draws randomized instances from the
  pinned generator in ``rng`` and adds stored witnesses; a fixed seed
  reproduces every instance byte-for-byte, and the battery finishes in well
  under a minute.
* ``run_file`` (``verify FILE``) takes the instances from the objects of a
  problem file: one check per criterion and applicable instance, named
  ``criterion[labels]`` after the objects. A criterion with no applicable
  object is left out. Each instance runs on its data divided by its scale
  (``Z / max|Z|``, costs over ``cost_scale``), so by positive homogeneity it
  is compared at the criterion's stated bound in any unit. A random variable
  the file does not define on a space is drawn from ``Rng(seed)``.
"""

from __future__ import annotations

import dataclasses
import itertools
from functools import partial, wraps
from typing import Callable, Optional

import numpy as np

from .ambiguity import (
    AmbiguitySet,
    AVaRSet,
    FiniteFamily,
    MomentSet,
    WassersteinBall,
    contains,
    default_reference,
    dominates_all,
    is_strictly_monotone,
    reference_argmax,
    reference_measure,
    robust_expectation,
    worst_case,
)
from .avar import avar_dual, avar_primal, check_axioms
from .composite import (
    _INDUCED_SET_CAP,
    RectangularSpec,
    composite_dominates_static,
    induced_set,
    permutation_invariance_check,
    product_family,
    product_filtration,
    rectangular_equivalence_check,
    rectangular_nested,
    static_rectangular,
)
from .conditional import (
    conditional_robust,
    conditional_strict_monotonicity_check,
    has_property_p,
)
from .dp import (
    _POLICY_CAP,
    MultistageProblem,
    compare_min_static_vs_min_nested,
    count_policies,
    solve_dp,
    verify_optimality_necessity,
)
from .lp import GE, LinearProgram, solve
from .report import Check
from .rng import Rng
from .schema import ProblemFile
from .spaces import (
    DiscreteMeasure,
    Filtration,
    FiniteSpace,
    Partition,
    RandomVariable,
)
from .transport import (
    MultistageBoundSpec,
    TreeProcess,
    _w1_values,
    ball_robust_gap_check,
    kernel_history_moduli,
    lipschitz_constant,
    multistage_bound,
    multistage_bound_empirical_check,
    scenario_lipschitz_certificate,
)

VACUOUS_NOTE = "vacuous pass: 0 trials requested (warning: nothing was checked)"


def _vacuous(name: str) -> Check:
    return Check(name, True, 0.0, VACUOUS_NOTE)


class _Failed(Exception):
    """Stops a criterion early: it fails with this residual and detail."""

    def __init__(self, residual: float, detail: str):
        super().__init__(detail)
        self.residual, self.detail = residual, detail


def _checked(name: str, trials: int, rng: Optional[Rng], run) -> Check:
    """What every check shares: 0 trials is a vacuous pass; otherwise
    ``run(rng)``, on the pinned generator by default, gives the verdict, the
    worst residual and the detail, or stops early with ``_Failed``."""
    if trials == 0:
        return _vacuous(name)
    try:
        return Check(name, *run(rng or Rng()))
    except _Failed as stop:
        return Check(name, False, stop.residual, stop.detail)


def _criterion(name: str, stated: int):
    """Makes ``body(trials, rng)``, which returns the verdict, the worst
    residual and the detail, the criterion ``name``: a function of
    ``(trials, rng)``, with ``stated`` trials by default, that returns its
    ``Check`` through ``_checked``. The stated count is written here only."""

    def wrap(body):
        @wraps(body)
        def criterion(trials: int = stated, rng: Optional[Rng] = None) -> Check:
            return _checked(name, trials, rng, partial(body, trials))

        del criterion.__wrapped__  # the signature shown is the criterion's
        criterion.name = name
        criterion.stated = stated
        return criterion

    return wrap


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def rand_positive_measure(rng: Rng, n: int) -> DiscreteMeasure:
    return DiscreteMeasure(rng.simplex(n))


def rand_metric_space(rng: Rng, n: int) -> FiniteSpace:
    pts = np.sort(rng.uniforms(n, 0.0, 2.0))
    return FiniteSpace(n, metric=np.abs(np.subtract.outer(pts, pts)))


def rand_partition(rng: Rng, n: int, atoms: Optional[int] = None) -> Partition:
    k = atoms if atoms is not None else 2 + rng.randint(max(1, n - 1))
    k = min(k, n)
    order = rng.shuffled(list(range(n)))
    buckets = [[order[i]] for i in range(k)]
    for i in range(k, n):
        buckets[rng.randint(k)].append(order[i])
    return Partition(n, tuple(tuple(b) for b in buckets))


def rand_refining_filtration(rng: Rng, n: int) -> Filtration:
    mid = rand_partition(rng, n)
    return Filtration((Partition.trivial(n), mid, Partition.singletons(n)))


SET_KINDS = ("finite_family", "avar", "moment", "wasserstein")


def rand_ambiguity_set(rng: Rng, n: int, kind: str) -> AmbiguitySet:
    """Random instance of one set family, fully supported so every atom of
    every partition is reachable."""
    if kind == "finite_family":
        return rand_finite_family(rng, n, 2 + rng.randint(3))
    if kind == "avar":
        return AVaRSet(rng.uniform(0.0, 0.9), rand_positive_measure(rng, n))
    if kind == "moment":
        grid = rand_metric_space(rng, n)
        psi = RandomVariable(np.sort(rng.uniforms(n, 0.0, 1.0)))
        anchor = rand_positive_measure(rng, n)
        target = float(anchor.weights @ psi.values)
        return MomentSet(grid, (psi,), (target,))
    if kind == "wasserstein":
        space = rand_metric_space(rng, n)
        return WassersteinBall(rand_positive_measure(rng, n), rng.uniform(0.05, 0.8), space)
    raise ValueError(f"unknown kind {kind}")


def rand_finite_family(rng: Rng, n: int, members: int) -> FiniteFamily:
    return FiniteFamily([rng.simplex(n) for _ in range(members)])


def rand_rectangular_spec(rng: Rng) -> RectangularSpec:
    """Two or three stages of two or three outcomes, one to three members each."""
    T = 2 + rng.randint(2)
    sizes = [2 + rng.randint(2) for _ in range(T)]
    return RectangularSpec(
        tuple(FiniteSpace(s) for s in sizes),
        tuple(rand_finite_family(rng, s, 1 + rng.randint(3)) for s in sizes),
    )


# ---------------------------------------------------------------------------
# stored witnesses
# ---------------------------------------------------------------------------


def witness_rectangular() -> tuple[RectangularSpec, np.ndarray]:
    """Two-stage instance with a 0.5 gap between the composite and static
    values: uniform first stage, point-mass second-stage family, diagonal
    objective."""
    m1 = FiniteFamily([[0.5, 0.5]])
    m2 = FiniteFamily(np.eye(2))
    spec = RectangularSpec((FiniteSpace(2), FiniteSpace(2)), (m1, m2))
    return spec, np.array([[1.0, 0.0], [0.0, 1.0]])


def witness_conditional_discrepancy():
    """Configured pair on which the worst-case conditional and a nested
    per-atom AVaR disagree."""
    P = DiscreteMeasure.uniform(4)
    G = Partition(4, ((0, 1), (2, 3)))
    Z = RandomVariable([1.0, 5.0, 2.0, 7.0])
    return AVaRSet(0.5, P), AVaRSet(0.0, P), Z, G, P


def witness_dp() -> MultistageProblem:
    """Three-stage problem where the static and nested policy optima differ
    by 0.5 and the argmin policies differ."""
    simplex2 = FiniteFamily(np.eye(2))
    unif2 = FiniteFamily([[0.5, 0.5]])
    return MultistageProblem(
        n_actions=(1, 2, 2),
        stage_sizes=(1, 2, 2),
        stage_sets=(None, unif2, simplex2),
        costs=(
            np.zeros((1, 1)),
            np.zeros((2, 2)),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
        ),
        feasible=(
            (0,),
            (((0, 1), (0, 1)),),
            (((0,), (0,)), ((1,), (1,))),
        ),
    )


# ---------------------------------------------------------------------------
# shared checks: one instance, two routes, one residual (``Z`` last)
# ---------------------------------------------------------------------------


def _avar_gap(M: AVaRSet, Z: RandomVariable) -> float:
    return abs(avar_primal(M, Z).value - avar_dual(M, Z))


def _atom_max_gap(M, G: Partition, Ps, Z: RandomVariable) -> float:
    """Under (P) the conditional value on each atom is the largest value of
    ``Z`` on the atom's outcomes charged by ``Ps[0]``, under every reference
    in ``Ps``."""
    expected = tuple(
        max(Z.values[w] for w in atom if Ps[0].weights[w] > 0.0) for atom in G.atoms
    )
    return max(
        max(abs(a - b) for a, b in zip(conditional_robust(M, Z, G, P).atom_values, expected))
        for P in Ps
    )


def _dominance_excess(M, F: Filtration, P, Z: RandomVariable) -> float:
    chk = composite_dominates_static(M, F, Z, P)
    return chk.static_value - chk.composite_value


def _equivalence_gap(spec: RectangularSpec, Z) -> float:
    chk = rectangular_equivalence_check(spec, Z)
    return abs(chk.nested_value - chk.composite_value)


def _induced_gap(spec: RectangularSpec, Z) -> float:
    """The selector-product family's maximum against the nested value and
    the plain products' against the static value; the pre-dedup count must
    be ``m1 * m2**n1`` and family 1 never above family 2."""
    z = spec.as_product_array(Z).reshape(-1)
    ind = induced_set(spec)
    (m1, n1), (m2, _) = (M.weights.shape for M in spec.stage_sets)
    if ind.pre_dedup_count != m1 * m2**n1:
        raise _Failed(1.0, "pre-dedup count mismatch")
    best = float(worst_case(ind, z)[0])
    family1 = float(worst_case(product_family(spec), z)[0])
    if family1 > best + 1e-9:
        raise _Failed(family1 - best, "family-1 exceeded family-2")
    return max(abs(best - rectangular_nested(spec, z).value),
               abs(family1 - static_rectangular(spec, z).value))


def _static_spread(spec: RectangularSpec, perms, Z) -> float:
    chk = permutation_invariance_check(spec, Z, perms)
    return max(chk.static_values) - min(chk.static_values)


def _reference_gap(M, trials: int, rng: Rng, label: str) -> float:
    """Dominance over sampled (member, subset) pairs, then the gap of the
    per-outcome attainment."""
    res = reference_measure(M)
    if not dominates_all(res, M, trials, rng):
        raise _Failed(1.0, f"dominance failed for {label}")
    return max(abs(reference_argmax(M, w).weights[w] - res.mu.weights[w]) for w in range(M.n))


def _certificate(M, P: DiscreteMeasure, strict: bool) -> float:
    """The strict-monotonicity certificate's epsilon: positive where
    ``strict`` says so, attained by its witness, and the witness a member."""
    cert = is_strictly_monotone(M, P)
    if strict and (not cert.strict or cert.epsilon <= 0.0):
        raise _Failed(1.0, "expected a strict certificate")
    if abs(cert.witness.weights[cert.outcome] - cert.epsilon) > 1e-9:
        raise _Failed(1.0, "epsilon not attained by the witness")
    if not contains(M, cert.witness):
        raise _Failed(1.0, "witness is not a member")
    return cert.epsilon


def _transport_excess(P, Q, R, space: FiniteSpace, Z: RandomVariable) -> float:
    """W1 symmetry and triangle inequality, then Kantorovich-Rubinstein on
    the same W1(P, Q) (vacuous for an infinite Lipschitz constant). The four
    distances are priced in one call, with both directions of (P, Q)."""
    for name, M in zip("PQR", (P, Q, R)):
        M.require_probability(name)
    p, q, r = P.weights, Q.weights, R.weights
    firsts, seconds = np.array([p, q, q, p]), np.array([q, p, r, r])
    dpq, dqp, dqr, dpr = _w1_values(firsts, seconds, space.require_metric()).tolist()
    excess = max(abs(dpq - dqp), dpr - (dpq + dqr))
    L = lipschitz_constant(Z, space)
    if np.isfinite(L):
        gap = abs(float(Q.weights @ Z.values) - float(P.weights @ Z.values))
        excess = max(excess, gap - L * dpq)
    return excess


def _sweep_excess(P, space: FiniteSpace, radii, Z: RandomVariable) -> float:
    """The ball's gap over increasing radii: within its bound, never falling."""
    excess, prev_gap = -np.inf, -np.inf
    for eps in radii:
        chk = ball_robust_gap_check(P, float(eps), space, Z)
        excess = max(excess, chk.gap - chk.bound, prev_gap - chk.gap)
        prev_gap = chk.gap
    return excess


def _dp_gap(prob: MultistageProblem) -> float:
    """Backward induction against policy enumeration, and how far the static
    optimum exceeds the nested one (never, by the claim)."""
    sol = solve_dp(prob)
    cmp = compare_min_static_vs_min_nested(prob)
    return max(abs(sol.value - cmp.min_nested), cmp.min_static - cmp.min_nested)


def _necessity(prob: MultistageProblem, strict: bool) -> None:
    """Optimal policies follow the argmin rule (checked only where every
    stage set is strictly monotone, which ``strict`` requires), and the
    extracted policy attains the optimum."""
    rep = verify_optimality_necessity(prob)
    if (strict and not rep.checked) or rep.violations or not rep.sufficiency_ok:
        raise _Failed(1.0, "necessity check failed")


def _moment_gap(M: MomentSet, Z: RandomVariable) -> float:
    """The closed form against the dual LP ``min t + lambda . targets`` over
    ``t + lambda . psi >= Z``; the maximizer charges at most one outcome
    more than there are moments. Each moment row and its target are divided
    by a power of two near the row's largest entry, an exact scaling that
    puts the rows in the units the LP's absolute tolerances assume."""
    primal, argmax = robust_expectation(M, Z)
    psi = np.array([f.values for f in M.psi])
    scale = np.ldexp(1.0, -np.frexp(np.abs(psi).max(axis=1))[1])
    dual = solve(
        LinearProgram(
            c=np.array([1.0, *(scale * M.targets)]),
            A=np.column_stack([np.ones(M.n), *(scale[:, None] * psi)]),
            senses=(GE,) * M.n,
            b=Z.values,
            lb=np.full(1 + M.n_moments, -np.inf),
        )
    )
    if int(np.sum(argmax.weights > 1e-9)) > M.n_moments + 1:
        raise _Failed(1.0, "moment maximizer support too large")
    return abs(dual.value - primal)


# ---------------------------------------------------------------------------
# criteria on generated instances
# ---------------------------------------------------------------------------


@_criterion("avar_duality", 500)
def check_avar_duality(trials: int, rng: Rng):
    """1: primal threshold scan equals the dual density LP."""
    worst = 0.0
    for _ in range(trials):
        n = 2 + rng.randint(19)
        M = AVaRSet(rng.uniform(0.0, 0.95), DiscreteMeasure(rng.simplex(n)))
        worst = max(worst, _avar_gap(M, RandomVariable(rng.uniforms(n, -5.0, 5.0))))
    return worst <= 1e-7, worst, f"{trials} instances, n <= 20"


@_criterion("axiom_battery", 500)
def check_axiom_battery(trials: int, rng: Rng):
    """2: coherence axioms plus the sup-norm Lipschitz bound, all four set
    families."""
    worst = 0.0
    details = []
    for kind in SET_KINDS:
        M = rand_ambiguity_set(rng, 4, kind)
        violation = check_axioms(M, trials, rng).max_violation
        worst = max(worst, violation)
        details.append(f"{kind}={violation:.2e}")
    return worst <= 1e-7, worst, ", ".join(details)


@_criterion("property_p_atom_max", 40)
def check_property_p_atom_max(trials: int, rng: Rng):
    """3: under property (P) the conditional equals the per-atom maximum over
    reference-positive outcomes and ignores the positive reference."""
    worst = 0.0
    for i in range(trials):
        n = 4 + rng.randint(3)
        G = rand_partition(rng, n)
        P = rand_positive_measure(rng, n)
        which = i % 3
        if which == 0:
            M: AmbiguitySet = FiniteFamily(np.eye(n))
        elif which == 1:
            biggest = max(P.of(atom) for atom in G.atoms)
            alpha = min(0.97, biggest + (1.0 - biggest) * rng.uniform(0.0, 0.9))
            M = AVaRSet(alpha, P)
        else:
            space = rand_metric_space(rng, n)
            diameter = float(space.metric.max())
            M = WassersteinBall(P, diameter + 1.0, space)
        if not has_property_p(M, G):
            raise _Failed(1.0, f"property (P) unexpectedly false ({which})")
        Z = RandomVariable(rng.uniforms(n, -3.0, 3.0))
        worst = max(worst, _atom_max_gap(M, G, (P, rand_positive_measure(rng, n)), Z))
    return worst <= 1e-9, worst, f"{trials} instances incl. AVaR small-atom case"


@_criterion("tower_inequality", 500)
def check_tower_inequality(trials: int, rng: Rng):
    """4: R(Z) <= R(R_{|G}(Z)), composite dominance on the filtration
    (trivial, G)."""
    worst = 0.0
    for i in range(trials):
        n = 3 + rng.randint(4)
        M = rand_ambiguity_set(rng, n, SET_KINDS[i % 4])
        Z = RandomVariable(rng.uniforms(n, -3.0, 3.0))
        F = Filtration((Partition.trivial(n), rand_partition(rng, n)))
        worst = max(worst, _dominance_excess(M, F, rand_positive_measure(rng, n), Z))
    return worst <= 1e-9, worst, f"{trials} instances, all set kinds"


@_criterion("composite_dominance", 500)
def check_composite_dominance(trials: int, rng: Rng):
    """5: R(Z) <= composite(Z) on random instances; the stored witness has a
    gap of at least 1e-3."""
    worst = 0.0
    for i in range(trials):
        n = 4 + rng.randint(3)
        M = rand_ambiguity_set(rng, n, SET_KINDS[i % 4])
        Z = RandomVariable(rng.uniforms(n, -3.0, 3.0))
        F = rand_refining_filtration(rng, n)
        worst = max(worst, _dominance_excess(M, F, rand_positive_measure(rng, n), Z))
    spec, Zw = witness_rectangular()
    gap = -_dominance_excess(
        product_family(spec), product_filtration(spec), DiscreteMeasure.uniform(4),
        RandomVariable(Zw.reshape(-1)),
    )
    return worst <= 1e-9 and gap >= 1e-3, worst, f"{trials} instances; witness gap {gap:.3f}"


@_criterion("rectangular_equivalence", 100)
def check_rectangular_equivalence(trials: int, rng: Rng):
    """6: nested recursion equals conditional composition under
    rectangularity."""
    worst = 0.0
    for _ in range(trials):
        spec = rand_rectangular_spec(rng)
        worst = max(worst, _equivalence_gap(spec, rng.uniforms(spec.product_size, -2.0, 2.0)))
    return worst <= 1e-7, worst, f"{trials} instances, T <= 3, sizes <= 3"


@_criterion("induced_set", 50)
def check_induced_set(trials: int, rng: Rng):
    """7: the selector-product family reproduces the composite value, plain
    products reproduce the static value, and the pre-dedup count is exact."""
    worst = 0.0
    for _ in range(trials):
        n1, n2 = 2 + rng.randint(2), 2 + rng.randint(2)
        m1, m2 = 1 + rng.randint(2), 1 + rng.randint(3)
        spec = RectangularSpec(
            (FiniteSpace(n1), FiniteSpace(n2)),
            (rand_finite_family(rng, n1, m1), rand_finite_family(rng, n2, m2)),
        )
        worst = max(worst, _induced_gap(spec, rng.uniforms(n1 * n2, -2.0, 2.0)))
    return worst <= 1e-9, worst, f"{trials} two-stage instances"


@_criterion("permutation_invariance", 100)
def check_permutation_invariance(trials: int, rng: Rng):
    """8: the static value ignores stage order; the stored witness moves the
    composite value by at least 1e-3 under a swap."""
    worst = 0.0
    for _ in range(trials):
        spec = rand_rectangular_spec(rng)
        Z = rng.uniforms(spec.product_size, -2.0, 2.0)
        T = spec.horizon
        perms = [tuple(range(T)), tuple(rng.shuffled(list(range(T))))]
        worst = max(worst, _static_spread(spec, perms, Z))
    spec, Zw = witness_rectangular()
    wit = permutation_invariance_check(spec, Zw, [(0, 1), (1, 0)])
    ok = worst <= 1e-9 and wit.static_invariant and wit.max_nested_change >= 1e-3
    return ok, worst, f"{trials} instances; witness nested change {wit.max_nested_change:.3f}"


@_criterion("reference_measure", 1000)
def check_reference_measure(trials: int, rng: Rng):
    """9: dominance of the smallest dominating measure over sampled members
    and subsets, and per-outcome attainment (minimality)."""
    worst = 0.0
    for kind in SET_KINDS:
        for _ in range(3):
            M = rand_ambiguity_set(rng, 3 + rng.randint(3), kind)
            worst = max(worst, _reference_gap(M, trials, rng, kind))
    return worst <= 1e-9, worst, f"{3 * len(SET_KINDS)} instances x {trials} (Q, A) pairs"


@_criterion("strict_monotonicity", 200)
def check_strict_monotonicity(trials: int, rng: Rng):
    """10: strictly monotone sets propagate strictness to the conditional
    functional; the epsilon certificate is positive and attained."""
    violations = checked = 0
    eps_floor = np.inf
    for i in range(6):
        n = 2 + rng.randint(3)
        if i % 2 == 0:
            M: AmbiguitySet = FiniteFamily([0.6 * rng.simplex(n) + 0.4 / n for _ in range(2)])
            P = rand_positive_measure(rng, n)
        else:
            P = DiscreteMeasure(0.5 * rng.simplex(n) + 0.5 / n)
            M = AVaRSet(0.5 * float(P.weights.min()), P)
        G = rand_partition(rng, n)
        eps_floor = min(eps_floor, _certificate(M, P, strict=True))
        rep = conditional_strict_monotonicity_check(M, G, P, trials // 6 + 1, rng)
        checked += rep.trials
        violations += rep.violations
    detail = f"{checked} ordered pairs, min epsilon {eps_floor:.3g}"
    return violations == 0, float(violations), detail


@_criterion("transport_bounds", 200)
def check_transport(trials: int, rng: Rng):
    """11: metric axioms, the expectation-gap bound, the ball-gap bound over
    radius sweeps, and the multistage bound on random trees."""
    worst = 0.0
    for _ in range(trials):
        n = 2 + rng.randint(4)
        sp = rand_metric_space(rng, n)
        P, Q, R = (rand_positive_measure(rng, n) for _ in range(3))
        Z = RandomVariable(rng.uniforms(n, -2.0, 2.0))
        worst = max(worst, _transport_excess(P, Q, R, sp, Z))
    for _ in range(8):
        n = 3 + rng.randint(2)
        sp = rand_metric_space(rng, n)
        P = rand_positive_measure(rng, n)
        Z = RandomVariable(rng.uniforms(n, -2.0, 2.0))
        radii = np.linspace(0.0, 1.2 * float(sp.metric.max()), 7)
        worst = max(worst, _sweep_excess(P, sp, radii, Z))
    corollary_gap = 0.0
    for i in range(20):
        T = 2 + rng.randint(2)
        sizes = [2 + rng.randint(2) for _ in range(T)]
        spaces = tuple(rand_metric_space(rng, s) for s in sizes)
        independent = i % 4 == 0
        kernels = []
        for t in range(T):  # one row per history, or one row for all
            histories = int(np.prod(sizes[:t]))
            rows = [rng.simplex(sizes[t]) for _ in range(1 if independent and t > 0 else histories)]
            kernels.append(np.array(rows * (histories // len(rows))).reshape(*sizes[:t], sizes[t]))
        process = TreeProcess(spaces, tuple(kernels))
        w = tuple(rng.uniforms(T, 0.5, 1.5).tolist())
        Z = rng.uniforms(int(np.prod(sizes)), -1.0, 1.0).reshape(sizes)
        L = scenario_lipschitz_certificate(process, Z, w)
        kappa = kernel_history_moduli(process, w)
        spec = MultistageBoundSpec(tuple(rng.uniforms(T, 0.0, 0.3).tolist()), kappa, w, L)
        worst = max(worst, _tree_excess(process, spec, Z))
        if independent:
            flat = MultistageBoundSpec(spec.eps, (0.0,) * T, w, L)
            simplified = L * sum(e * ww for e, ww in zip(spec.eps, w))
            corollary_gap = max(corollary_gap, abs(multistage_bound(flat) - simplified))
    worst = max(worst, corollary_gap)
    ok = worst <= 1e-7 and corollary_gap <= 1e-12
    return ok, worst, f"{trials} triples, 8 radius sweeps, 20 trees"


def _tree_excess(process: TreeProcess, spec: MultistageBoundSpec, Z) -> float:
    res = multistage_bound_empirical_check(process, spec, Z)
    return res.gap - res.bound


@_criterion("dp_and_moment_duality", 50)
def check_dp(trials: int, rng: Rng):
    """12: backward induction equals policy enumeration, the static optimum
    never exceeds the nested optimum, the argmin rule is necessary under
    strict monotonicity, and the moment dual matches its primal with small
    support."""

    def random_problem(strictly_monotone: bool) -> MultistageProblem:
        T = 2 + rng.randint(2)
        n_actions = tuple(1 + rng.randint(2) for _ in range(T))
        sizes = (1,) + tuple(2 + rng.randint(1) for _ in range(T - 1))
        sets = [None]
        for s in sizes[1:]:
            members = [rng.simplex(s) for _ in range(1 + rng.randint(2))]
            if strictly_monotone:
                members = [0.7 * w + 0.3 / s for w in members]
            sets.append(FiniteFamily(members))
        costs = tuple(rng.uniforms(a * s, -1.0, 1.0).reshape(a, s) for a, s in zip(n_actions, sizes))

        def allowed(a: int) -> tuple[int, ...]:
            k = 1 + rng.randint(a)
            return tuple(sorted(rng.shuffled(list(range(a)))[:k]))

        feasible = (tuple(range(n_actions[0])),) + tuple(
            tuple(tuple(allowed(a) for _ in range(s)) for _ in range(prior))
            for prior, a, s in zip(n_actions, n_actions[1:], sizes[1:])
        )
        return MultistageProblem(n_actions, sizes, tuple(sets), costs, feasible)

    worst = 0.0
    necessity_runs = 0
    for i in range(trials):
        strict = i % 5 == 0
        prob = random_problem(strict)
        worst = max(worst, _dp_gap(prob))
        if strict and necessity_runs < 6:
            _necessity(prob, strict=True)
            necessity_runs += 1
    wit = compare_min_static_vs_min_nested(witness_dp())
    if not (wit.min_nested - wit.min_static >= 1e-3 and wit.argmins_differ):
        raise _Failed(1.0, "stored DP witness lost its gap")
    moment_worst = 0.0
    for _ in range(20):
        n = 3 + rng.randint(4)
        M = rand_ambiguity_set(rng, n, "moment")
        moment_worst = max(moment_worst, _moment_gap(M, RandomVariable(rng.uniforms(n, -2.0, 2.0))))
    ok = worst <= 1e-9 and moment_worst <= 1e-7
    detail = f"{trials} instances, {necessity_runs} necessity runs, 20 moment duals"
    return ok, max(worst, moment_worst), detail


# ---------------------------------------------------------------------------
# criteria on the objects of a problem file
# ---------------------------------------------------------------------------


def _unit(values) -> np.ndarray:
    """Data over its largest magnitude: the file's own unit."""
    values = np.asarray(values, dtype=float)
    return values / (float(np.abs(values).max()) or 1.0)


def _variables(pf: ProblemFile, n: int, seed: int) -> list[tuple[str, RandomVariable]]:
    """The file's random variables on ``n`` outcomes, in their own units, or
    one drawn from ``Rng(seed)`` if the file defines none."""
    found = [
        (name, RandomVariable(_unit(Z.values)))
        for name, Z in pf.random_variables.items()
        if Z.n == n
    ]
    return found or [("drawn", RandomVariable(Rng(seed).uniforms(n, -1.0, 1.0)))]


def _over(zs, bound: float, residual: Callable) -> Callable:
    """A file case: the worst ``residual(Z)`` over the variables ``zs``."""

    def case(trials, rng):
        worst = 0.0
        for _, Z in zs:
            worst = max(worst, residual(Z))
        return worst <= bound, worst, "Z: " + ", ".join(name for name, _ in zs)

    return case


def _reachable(M, partitions) -> bool:
    """Whether some member charges every atom of every partition: the
    conditional values of 0 are finite (no ``-inf``)."""
    zero, P = RandomVariable(np.zeros(M.n)), DiscreteMeasure.uniform(M.n)
    return all(conditional_robust(M, zero, G, P).te_holds for G in partitions)


def _file_cases(pf: ProblemFile, seed: int):
    """(criterion, label, case) for every applicable instance of the file;
    ``case(trials, rng)`` gives the verdict, the worst residual and the
    detail. An atom no member charges, a fold that hits one, an induced set
    over ``_INDUCED_SET_CAP`` cells or a problem over ``_POLICY_CAP``
    policies makes its instance not applicable."""
    for name, M in pf.ambiguity_sets.items():
        zs, P = _variables(pf, M.n, seed), default_reference(M)
        if isinstance(M, AVaRSet):
            yield "avar_duality", name, _over(zs, 1e-7, partial(_avar_gap, M))
        yield "axiom_battery", name, partial(_axiom_case, M)
        yield "reference_measure", name, partial(_reference_case, name, M)
        partitions = [G for G in pf.partitions.values() if G.n == M.n]
        yield "strict_monotonicity", name, partial(_strict_case, M, P, partitions)
        if isinstance(M, WassersteinBall):
            sweep = partial(_sweep_excess, M.center, M.space, (0.0, M.radius))
            yield "transport_bounds", name, _over(zs, 1e-7, sweep)
        if isinstance(M, MomentSet):
            yield "dp_and_moment_duality", name, _over(zs, 1e-7, partial(_moment_gap, M))
        for other, G in pf.partitions.items():
            if G.n == M.n and has_property_p(M, G):
                atom_max = partial(_atom_max_gap, M, G, (P,))
                yield "property_p_atom_max", f"{name}|{other}", _over(zs, 1e-9, atom_max)
            if G.n == M.n and _reachable(M, (G,)):
                tower = partial(_dominance_excess, M, Filtration((Partition.trivial(M.n), G)), P)
                yield "tower_inequality", f"{name}|{other}", _over(zs, 1e-9, tower)
        for other, F in pf.filtrations.items():
            if F.n == M.n and _reachable(M, F.stages[1:]):
                dominance = partial(_dominance_excess, M, F, P)
                yield "composite_dominance", f"{name}|{other}", _over(zs, 1e-9, dominance)
    for name, spec in pf.rectangular_specs.items():
        if not spec.finitely_generated:
            continue
        zs, T = _variables(pf, spec.product_size, seed), spec.horizon
        family, filtration = product_family(spec), product_filtration(spec)
        if _reachable(family, filtration.stages[1:]):
            uniform = DiscreteMeasure.uniform(spec.product_size)
            dominance = partial(_dominance_excess, family, filtration, uniform)
            yield "composite_dominance", name, _over(zs, 1e-9, dominance)
            yield "rectangular_equivalence", name, _over(zs, 1e-7, partial(_equivalence_gap, spec))
        if T == 2:
            (m1, n1), (m2, n2) = (M.weights.shape for M in spec.stage_sets)
            if m1 * m2**n1 * n1 * n2 <= _INDUCED_SET_CAP:
                yield "induced_set", name, _over(zs, 1e-9, partial(_induced_gap, spec))
        if T > 1:
            perms = [tuple(range(T)), tuple(reversed(range(T)))]
            spread = partial(_static_spread, spec, perms)
            yield "permutation_invariance", name, _over(zs, 1e-9, spread)
    for name, space in pf.spaces.items():  # W1 in units of the largest distance
        measures = [pf.measures[m] for m, s in pf.measure_space.items() if s == name]
        if space.metric is not None and len(measures) > 1:
            unit = FiniteSpace(space.n, metric=_unit(space.metric))
            triples = list(itertools.product(measures, repeat=3))
            excess = partial(_triples_excess, triples, unit)
            yield "transport_bounds", name, _over(_variables(pf, space.n, seed), 1e-7, excess)
    for name, spec in pf.bound_specs.items():
        rv, Z = spec["rv"], pf.random_variables[spec["rv"]].values
        if spec["kind"] == "ball_sweep":
            sweep = partial(_sweep_excess, spec["measure"], spec["space"], sorted(spec["grid"]))
            yield "transport_bounds", name, _over([(rv, RandomVariable(_unit(Z)))], 1e-7, sweep)
        else:  # the Lipschitz certificate is in the units of Z
            L = spec["bound"].lipschitz / (float(np.abs(Z).max()) or 1.0)
            bound = dataclasses.replace(spec["bound"], lipschitz=L)
            excess = partial(_tree_excess, spec["process"], bound)
            yield "transport_bounds", name, _over([(rv, _unit(Z))], 1e-7, excess)
    for name, prob in pf.problems.items():
        if count_policies(prob) <= _POLICY_CAP:
            scaled = dataclasses.replace(
                prob, costs=tuple(c / (prob.cost_scale or 1.0) for c in prob.costs)
            )
            yield "dp_and_moment_duality", name, partial(_dp_case, scaled)


def _triples_excess(triples, space: FiniteSpace, Z: RandomVariable) -> float:
    return max(_transport_excess(P, Q, R, space, Z) for P, Q, R in triples)


def _axiom_case(M, trials: int, rng: Rng):
    violation = check_axioms(M, trials, rng).max_violation
    return violation <= 1e-7, violation, f"{trials} trials"


def _reference_case(label: str, M, trials: int, rng: Rng):
    gap = _reference_gap(M, trials, rng, label)
    return gap <= 1e-9, gap, f"{trials} (Q, A) pairs"


def _strict_case(M, P, partitions, trials: int, rng: Rng):
    """The certificate against the set's reference; where it is strict,
    propagation on every partition of the set's outcomes."""
    eps = _certificate(M, P, strict=False)
    checked = violations = 0
    for G in partitions:
        rep = conditional_strict_monotonicity_check(M, G, P, trials, rng)
        checked += rep.trials
        violations += rep.violations
    return violations == 0, float(violations), f"{checked} ordered pairs, epsilon {eps:.3g}"


def _dp_case(prob: MultistageProblem, trials: int, rng: Rng):
    gap = _dp_gap(prob)
    _necessity(prob, strict=False)
    return gap <= 1e-9, gap, "costs over cost_scale"


# ---------------------------------------------------------------------------
# battery drivers
# ---------------------------------------------------------------------------

CRITERIA: tuple[tuple[Callable[..., Check], int], ...] = tuple(
    (fn, fn.stated)
    for fn in (
        check_avar_duality,
        check_axiom_battery,
        check_property_p_atom_max,
        check_tower_inequality,
        check_composite_dominance,
        check_rectangular_equivalence,
        check_induced_set,
        check_permutation_invariance,
        check_reference_measure,
        check_strict_monotonicity,
        check_transport,
        check_dp,
    )
)

#: The order of a file report.
NAMES = tuple(fn.name for fn, _ in CRITERIA)

#: Draws of each drawing check on one file instance (axiom trials, dominance
#: pairs, ordered pairs per partition) when ``trials`` is not given: a file
#: has one instance per object, where a builtin criterion draws hundreds.
FILE_TRIALS = 200


def run_builtin(seed: int = 42, trials: Optional[int] = None) -> list[Check]:
    """Run every criterion; ``trials`` overrides each stated count (0 gives a
    vacuous pass with a warning in every detail line)."""
    results = []
    for fn, stated in CRITERIA:
        n = stated if trials is None else trials
        results.append(fn(n, Rng(seed)))
    return results


def run_file(pf: ProblemFile, seed: int, trials: Optional[int]) -> list[Check]:
    """Run every criterion on the file's objects: one check per applicable
    instance, each on a fresh ``Rng(seed)``. ``trials`` overrides
    ``FILE_TRIALS``; 0 gives one vacuous line per applicable criterion."""
    n = FILE_TRIALS if trials is None else trials
    cases = sorted(_file_cases(pf, seed), key=lambda case: NAMES.index(case[0]))
    results = []
    for name, group in itertools.groupby(cases, key=lambda case: case[0]):
        if n == 0:
            results.append(_vacuous(name))
            continue
        for _, label, case in group:
            results.append(_checked(f"{name}[{label}]", n, Rng(seed), partial(case, n)))
    return results
