"""Built-in verification battery.

Each check below corresponds to one inequality, equivalence, or certificate
the library claims, exercised on randomized instances plus stored witnesses,
always through two independent evaluation routes where the claim relates two
quantities. The battery is driven by the pinned generator in ``rng``; a fixed
seed reproduces every instance byte-for-byte.

``run_builtin`` executes the full battery (the CLI's ``verify --builtin``)
and is sized to finish in well under a minute.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .ambiguity import (
    AmbiguitySet,
    AVaRSet,
    FiniteFamily,
    MomentSet,
    WassersteinBall,
    contains,
    dominates_all,
    is_strictly_monotone,
    reference_argmax,
    reference_measure,
    robust_expectation,
    worst_case,
)
from .avar import AvarSpec, avar_dual, avar_primal, check_axioms
from .composite import (
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
    tower_upper_bound_check,
)
from .dp import (
    MultistageProblem,
    compare_min_static_vs_min_nested,
    solve_dp,
    verify_optimality_necessity,
)
from .lp import GE, LinearProgram, solve
from .report import Check
from .rng import Rng
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
    ball_robust_gap_check,
    kernel_history_moduli,
    lipschitz_constant,
    multistage_bound,
    multistage_bound_empirical_check,
    scenario_lipschitz_certificate,
    wasserstein_1,
)

VACUOUS_NOTE = "vacuous pass: 0 trials requested (warning: nothing was checked)"


def _vacuous(name: str) -> Check:
    return Check(name, True, 0.0, VACUOUS_NOTE)


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
    return AVaRSet(0.5, P), AvarSpec(0.0, P), Z, G, P


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
# criteria
# ---------------------------------------------------------------------------


def check_avar_duality(trials: int = 500, rng: Optional[Rng] = None) -> Check:
    """1: primal threshold scan equals the dual density LP."""
    name = "avar_duality"
    if trials == 0:
        return _vacuous(name)
    rng = rng or Rng()
    worst = 0.0
    for _ in range(trials):
        n = 2 + rng.randint(19)
        spec = AvarSpec(rng.uniform(0.0, 0.95), DiscreteMeasure(rng.simplex(n)))
        Z = RandomVariable(rng.uniforms(n, -5.0, 5.0))
        worst = max(worst, abs(avar_primal(spec, Z).value - avar_dual(spec, Z)))
    return Check(name, worst <= 1e-7, worst, f"{trials} instances, n <= 20")


def check_axiom_battery(trials: int = 500, rng: Optional[Rng] = None) -> Check:
    """2: coherence axioms plus the sup-norm Lipschitz bound, all four set
    families."""
    name = "axiom_battery"
    if trials == 0:
        return _vacuous(name)
    rng = rng or Rng()
    worst = 0.0
    details = []
    for kind in SET_KINDS:
        M = rand_ambiguity_set(rng, 4, kind)
        report = check_axioms(M, trials, rng)
        worst = max(worst, report.max_violation)
        details.append(f"{kind}={report.max_violation:.2e}")
    return Check(name, worst <= 1e-7, worst, ", ".join(details))


def check_property_p_atom_max(trials: int = 40, rng: Optional[Rng] = None) -> Check:
    """3: under property (P) the conditional equals the per-atom maximum over
    reference-positive outcomes and ignores the positive reference."""
    name = "property_p_atom_max"
    if trials == 0:
        return _vacuous(name)
    rng = rng or Rng()
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
            return Check(name, False, 1.0, f"property (P) unexpectedly false ({which})")
        Z = RandomVariable(rng.uniforms(n, -3.0, 3.0))
        expected = tuple(
            max(Z.values[w] for w in atom if P.weights[w] > 0.0) for atom in G.atoms
        )
        got = conditional_robust(M, Z, G, P).atom_values
        worst = max(worst, max(abs(a - b) for a, b in zip(got, expected)))
        P2 = rand_positive_measure(rng, n)
        again = conditional_robust(M, Z, G, P2).atom_values
        worst = max(worst, max(abs(a - b) for a, b in zip(again, expected)))
    return Check(name, worst <= 1e-9, worst, f"{trials} instances incl. AVaR small-atom case")


def check_tower_inequality(trials: int = 500, rng: Optional[Rng] = None) -> Check:
    """4: R(Z) <= R(R_{|G}(Z))."""
    name = "tower_inequality"
    if trials == 0:
        return _vacuous(name)
    rng = rng or Rng()
    worst = 0.0
    for i in range(trials):
        n = 3 + rng.randint(4)
        M = rand_ambiguity_set(rng, n, SET_KINDS[i % 4])
        Z = RandomVariable(rng.uniforms(n, -3.0, 3.0))
        G = rand_partition(rng, n)
        P = rand_positive_measure(rng, n)
        chk = tower_upper_bound_check(M, Z, G, P)
        worst = max(worst, chk.lhs - chk.rhs)
    return Check(name, worst <= 1e-9, max(worst, 0.0), f"{trials} instances, all set kinds")


def check_composite_dominance(trials: int = 500, rng: Optional[Rng] = None) -> Check:
    """5: R(Z) <= composite(Z) on random instances; the stored witness has a
    gap of at least 1e-3."""
    name = "composite_dominance"
    if trials == 0:
        return _vacuous(name)
    rng = rng or Rng()
    worst = 0.0
    for i in range(trials):
        n = 4 + rng.randint(3)
        M = rand_ambiguity_set(rng, n, SET_KINDS[i % 4])
        Z = RandomVariable(rng.uniforms(n, -3.0, 3.0))
        F = rand_refining_filtration(rng, n)
        P = rand_positive_measure(rng, n)
        chk = composite_dominates_static(M, F, Z, P)
        worst = max(worst, chk.static_value - chk.composite_value)
    spec, Zw = witness_rectangular()
    flat = RandomVariable(Zw.reshape(-1))
    wit = composite_dominates_static(
        product_family(spec), product_filtration(spec), flat, DiscreteMeasure.uniform(4)
    )
    gap = wit.composite_value - wit.static_value
    ok = worst <= 1e-9 and gap >= 1e-3
    return Check(
        name, ok, max(worst, 0.0), f"{trials} instances; witness gap {gap:.3f}"
    )


def check_rectangular_equivalence(trials: int = 100, rng: Optional[Rng] = None) -> Check:
    """6: nested recursion equals conditional composition under
    rectangularity."""
    name = "rectangular_equivalence"
    if trials == 0:
        return _vacuous(name)
    rng = rng or Rng()
    worst = 0.0
    for _ in range(trials):
        T = 2 + rng.randint(2)
        sizes = [2 + rng.randint(2) for _ in range(T)]
        spec = RectangularSpec(
            tuple(FiniteSpace(s) for s in sizes),
            tuple(rand_finite_family(rng, s, 1 + rng.randint(3)) for s in sizes),
        )
        Z = rng.uniforms(int(np.prod(sizes)), -2.0, 2.0)
        chk = rectangular_equivalence_check(spec, Z)
        worst = max(worst, abs(chk.nested_value - chk.composite_value))
    return Check(name, worst <= 1e-7, worst, f"{trials} instances, T <= 3, sizes <= 3")


def check_induced_set(trials: int = 50, rng: Optional[Rng] = None) -> Check:
    """7: the selector-product family reproduces the composite value, plain
    products reproduce the static value, and the pre-dedup count is exact."""
    name = "induced_set"
    if trials == 0:
        return _vacuous(name)
    rng = rng or Rng()
    worst = 0.0
    for _ in range(trials):
        n1, n2 = 2 + rng.randint(2), 2 + rng.randint(2)
        m1, m2 = 1 + rng.randint(2), 1 + rng.randint(3)
        spec = RectangularSpec(
            (FiniteSpace(n1), FiniteSpace(n2)),
            (rand_finite_family(rng, n1, m1), rand_finite_family(rng, n2, m2)),
        )
        Z = rng.uniforms(n1 * n2, -2.0, 2.0)
        ind = induced_set(spec)
        if ind.pre_dedup_count != m1 * m2**n1:
            return Check(name, False, 1.0, "pre-dedup count mismatch")
        best = float(worst_case(ind, Z)[0])
        nested = rectangular_nested(spec, Z).value
        worst = max(worst, abs(best - nested))
        family1 = float(worst_case(product_family(spec), Z)[0])
        static = static_rectangular(spec, Z).value
        worst = max(worst, abs(family1 - static))
        if family1 > best + 1e-9:
            return Check(name, False, family1 - best, "family-1 exceeded family-2")
    return Check(name, worst <= 1e-9, worst, f"{trials} two-stage instances")


def check_permutation_invariance(trials: int = 100, rng: Optional[Rng] = None) -> Check:
    """8: the static value ignores stage order; the stored witness moves the
    composite value by at least 1e-3 under a swap."""
    name = "permutation_invariance"
    if trials == 0:
        return _vacuous(name)
    rng = rng or Rng()
    worst = 0.0
    for _ in range(trials):
        T = 2 + rng.randint(2)
        sizes = [2 + rng.randint(2) for _ in range(T)]
        spec = RectangularSpec(
            tuple(FiniteSpace(s) for s in sizes),
            tuple(rand_finite_family(rng, s, 1 + rng.randint(3)) for s in sizes),
        )
        Z = rng.uniforms(int(np.prod(sizes)), -2.0, 2.0)
        perms = [tuple(range(T)), tuple(rng.shuffled(list(range(T))))]
        chk = permutation_invariance_check(spec, Z, perms)
        spread = max(chk.static_values) - min(chk.static_values)
        worst = max(worst, spread)
    spec, Zw = witness_rectangular()
    wit = permutation_invariance_check(spec, Zw, [(0, 1), (1, 0)])
    ok = worst <= 1e-9 and wit.static_invariant and wit.max_nested_change >= 1e-3
    return Check(
        name,
        ok,
        worst,
        f"{trials} instances; witness nested change {wit.max_nested_change:.3f}",
    )


def check_reference_measure(trials: int = 1000, rng: Optional[Rng] = None) -> Check:
    """9: dominance of the smallest dominating measure over sampled members
    and subsets, and per-outcome attainment (minimality)."""
    name = "reference_measure"
    if trials == 0:
        return _vacuous(name)
    rng = rng or Rng()
    worst = 0.0
    count = 0
    for kind in SET_KINDS:
        for _ in range(3):
            n = 3 + rng.randint(3)
            M = rand_ambiguity_set(rng, n, kind)
            res = reference_measure(M)
            if not dominates_all(res, M, trials, rng):
                return Check(name, False, 1.0, f"dominance failed for {kind}")
            for w in range(n):
                attained = reference_argmax(M, w)
                worst = max(worst, abs(attained.weights[w] - res.mu.weights[w]))
            count += 1
    return Check(
        name, worst <= 1e-9, worst, f"{count} instances x {trials} (Q, A) pairs"
    )


def check_strict_monotonicity(trials: int = 200, rng: Optional[Rng] = None) -> Check:
    """10: strictly monotone sets propagate strictness to the conditional
    functional; the epsilon certificate is positive and attained."""
    name = "strict_monotonicity"
    if trials == 0:
        return _vacuous(name)
    rng = rng or Rng()
    violations = 0
    eps_floor = np.inf
    checked = 0
    for i in range(6):
        n = 2 + rng.randint(3)
        if i % 2 == 0:
            M: AmbiguitySet = FiniteFamily([0.6 * rng.simplex(n) + 0.4 / n for _ in range(2)])
            P = rand_positive_measure(rng, n)
        else:
            P = DiscreteMeasure(0.5 * rng.simplex(n) + 0.5 / n)
            alpha = 0.5 * float(P.weights.min())
            M = AVaRSet(alpha, P)
        cert = is_strictly_monotone(M, P)
        if not cert.strict or cert.epsilon <= 0.0:
            return Check(name, False, 1.0, "expected a strict certificate")
        if abs(cert.witness.weights[cert.outcome] - cert.epsilon) > 1e-9:
            return Check(name, False, 1.0, "epsilon not attained by the witness")
        if not contains(M, cert.witness):
            return Check(name, False, 1.0, "witness is not a member")
        eps_floor = min(eps_floor, cert.epsilon)
        G = rand_partition(rng, n)
        rep = conditional_strict_monotonicity_check(M, G, P, trials // 6 + 1, rng)
        checked += rep.trials
        violations += rep.violations
    return Check(
        name,
        violations == 0,
        float(violations),
        f"{checked} ordered pairs, min epsilon {eps_floor:.3g}",
    )


def check_transport(trials: int = 200, rng: Optional[Rng] = None) -> Check:
    """11: metric axioms, the expectation-gap bound, the ball-gap bound over
    radius sweeps, and the multistage bound on random trees."""
    name = "transport_bounds"
    if trials == 0:
        return _vacuous(name)
    rng = rng or Rng()
    worst = 0.0
    for _ in range(trials):
        n = 2 + rng.randint(4)
        sp = rand_metric_space(rng, n)
        P = rand_positive_measure(rng, n)
        Q = rand_positive_measure(rng, n)
        R = rand_positive_measure(rng, n)
        dpq, _ = wasserstein_1(P, Q, sp)
        dqp, _ = wasserstein_1(Q, P, sp)
        dqr, _ = wasserstein_1(Q, R, sp)
        dpr, _ = wasserstein_1(P, R, sp)
        worst = max(worst, abs(dpq - dqp), dpr - (dpq + dqr))
        # Kantorovich-Rubinstein on the same W1(P, Q); vacuous for infinite L
        Z = RandomVariable(rng.uniforms(n, -2.0, 2.0))
        L = lipschitz_constant(Z, sp)
        if np.isfinite(L):
            gap = abs(float(Q.weights @ Z.values) - float(P.weights @ Z.values))
            worst = max(worst, gap - L * dpq)
    sweep_violation = 0.0
    for _ in range(8):
        n = 3 + rng.randint(2)
        sp = rand_metric_space(rng, n)
        P = rand_positive_measure(rng, n)
        Z = RandomVariable(rng.uniforms(n, -2.0, 2.0))
        diameter = float(sp.metric.max())
        prev_gap = -np.inf
        for eps in np.linspace(0.0, 1.2 * diameter, 7):
            chk = ball_robust_gap_check(P, float(eps), sp, Z)
            sweep_violation = max(sweep_violation, chk.gap - chk.bound, prev_gap - chk.gap)
            prev_gap = chk.gap
    tree_violation = 0.0
    corollary_gap = 0.0
    for i in range(20):
        T = 2 + rng.randint(2)
        sizes = [2 + rng.randint(2) for _ in range(T)]
        spaces = tuple(rand_metric_space(rng, s) for s in sizes)
        independent = i % 4 == 0
        kernels = []
        for t in range(T):
            shape = tuple(sizes[:t]) + (sizes[t],)
            k = np.empty(shape)
            if independent and t > 0:
                row = rng.simplex(sizes[t])
                for h in np.ndindex(*sizes[:t]):
                    k[h] = row
            else:
                for h in np.ndindex(*sizes[:t]):
                    k[h] = rng.simplex(sizes[t])
            kernels.append(k)
        process = TreeProcess(spaces, tuple(kernels))
        w = tuple(rng.uniform(0.5, 1.5) for _ in range(T))
        Z = rng.uniforms(int(np.prod(sizes)), -1.0, 1.0).reshape(sizes)
        L = scenario_lipschitz_certificate(process, Z, w)
        kappa = kernel_history_moduli(process, w)
        eps = tuple(rng.uniform(0.0, 0.3) for _ in range(T))
        spec = MultistageBoundSpec(eps, kappa, w, L)
        res = multistage_bound_empirical_check(process, spec, Z)
        tree_violation = max(tree_violation, res.gap - res.bound)
        if independent:
            flat = MultistageBoundSpec(eps, (0.0,) * T, w, L)
            simplified = L * sum(e * ww for e, ww in zip(eps, w))
            corollary_gap = max(
                corollary_gap, abs(multistage_bound(flat) - simplified)
            )
    worst = max(worst, sweep_violation, tree_violation, corollary_gap)
    ok = worst <= 1e-7 and corollary_gap <= 1e-12
    return Check(
        name, ok, max(worst, 0.0), f"{trials} triples, 8 radius sweeps, 20 trees"
    )


def check_dp(trials: int = 50, rng: Optional[Rng] = None) -> Check:
    """12: backward induction equals policy enumeration, the static optimum
    never exceeds the nested optimum, the argmin rule is necessary under
    strict monotonicity, and the moment dual matches its primal with small
    support."""
    name = "dp_and_moment_duality"
    if trials == 0:
        return _vacuous(name)
    rng = rng or Rng()
    worst = 0.0

    def random_problem(strictly_monotone: bool) -> MultistageProblem:
        T = 2 + rng.randint(2)
        n_actions = tuple(1 + rng.randint(2) for _ in range(T))
        stage_sizes = (1,) + tuple(2 + rng.randint(1) for _ in range(T - 1))
        sets = [None]
        for t in range(1, T):
            members = []
            for _ in range(1 + rng.randint(2)):
                wgt = rng.simplex(stage_sizes[t])
                if strictly_monotone:
                    wgt = 0.7 * wgt + 0.3 / stage_sizes[t]
                members.append(wgt)
            sets.append(FiniteFamily(members))
        costs = tuple(
            np.array(
                [
                    [rng.uniform(-1.0, 1.0) for _ in range(stage_sizes[t])]
                    for _ in range(n_actions[t])
                ]
            )
            for t in range(T)
        )
        feasible = [tuple(range(n_actions[0]))]
        for t in range(1, T):
            per_prev = []
            for _ in range(n_actions[t - 1]):
                per_out = []
                for _ in range(stage_sizes[t]):
                    k = 1 + rng.randint(n_actions[t])
                    per_out.append(
                        tuple(sorted(rng.shuffled(list(range(n_actions[t])))[:k]))
                    )
                per_prev.append(tuple(per_out))
            feasible.append(tuple(per_prev))
        return MultistageProblem(
            n_actions=n_actions,
            stage_sizes=stage_sizes,
            stage_sets=tuple(sets),
            costs=costs,
            feasible=tuple(feasible),
        )

    necessity_runs = 0
    for i in range(trials):
        strict = i % 5 == 0
        prob = random_problem(strict)
        sol = solve_dp(prob)
        cmp = compare_min_static_vs_min_nested(prob)
        worst = max(worst, abs(sol.value - cmp.min_nested), cmp.min_static - cmp.min_nested)
        if strict and necessity_runs < 6:
            rep = verify_optimality_necessity(prob)
            necessity_runs += 1
            if not rep.checked or rep.violations or not rep.sufficiency_ok:
                return Check(name, False, 1.0, "necessity check failed")
    wit = compare_min_static_vs_min_nested(witness_dp())
    if not (wit.min_nested - wit.min_static >= 1e-3 and wit.argmins_differ):
        return Check(name, False, 1.0, "stored DP witness lost its gap")

    moment_worst = 0.0
    for _ in range(20):
        n = 3 + rng.randint(4)
        M = rand_ambiguity_set(rng, n, "moment")
        Z = RandomVariable(rng.uniforms(n, -2.0, 2.0))
        primal, argmax = robust_expectation(M, Z)
        xs = M.psi[0].values
        dual = solve(
            LinearProgram(
                c=np.array([1.0, M.targets[0]]),
                A=np.column_stack([np.ones(n), xs]),
                senses=(GE,) * n,
                b=Z.values,
                lb=np.array([-np.inf, -np.inf]),
            )
        )
        moment_worst = max(moment_worst, abs(dual.value - primal))
        if int(np.sum(argmax.weights > 1e-9)) > M.n_moments + 1:
            return Check(name, False, 1.0, "moment maximizer support too large")
    ok = worst <= 1e-9 and moment_worst <= 1e-7
    return Check(
        name,
        ok,
        max(worst, moment_worst),
        f"{trials} instances, {necessity_runs} necessity runs, 20 moment duals",
    )


# ---------------------------------------------------------------------------
# battery driver
# ---------------------------------------------------------------------------

CRITERIA: tuple[tuple[Callable[..., Check], int], ...] = (
    (check_avar_duality, 500),
    (check_axiom_battery, 500),
    (check_property_p_atom_max, 40),
    (check_tower_inequality, 500),
    (check_composite_dominance, 500),
    (check_rectangular_equivalence, 100),
    (check_induced_set, 50),
    (check_permutation_invariance, 100),
    (check_reference_measure, 1000),
    (check_strict_monotonicity, 200),
    (check_transport, 200),
    (check_dp, 50),
)


def run_builtin(seed: int = 42, trials: Optional[int] = None) -> list[Check]:
    """Run every criterion; ``trials`` overrides each stated count (0 gives a
    vacuous pass with a warning in every detail line)."""
    results = []
    for fn, stated in CRITERIA:
        n = stated if trials is None else trials
        results.append(fn(n, Rng(seed)))
    return results
