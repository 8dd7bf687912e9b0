"""Command-line interface: problem ingestion, evaluation, and verification.

Subcommands
-----------
eval-static       worst-case expectation of a random variable over a set
eval-conditional  per-atom conditional values (worst-case or nested AVaR)
eval-composite    composite value along a filtration or stagewise recursion
solve             dynamic-programming solution of a multistage problem
wasserstein       order-1 transport distance with the optimal plan
bounds            transport-ball radius sweep (CSV) or multistage bound check
verify            invariant battery, either --builtin or against a file

Exit codes: 0 success, 1 at least one check failed, 2 unusable input. Output
is deterministic for identical file, flags, and seed; elapsed time goes to
stderr only. Reports render as canonical JSON or as text carrying the same
numbers verbatim.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from typing import Optional

import numpy as np

from .ambiguity import (
    AVaRSet,
    FiniteFamily,
    default_reference,
    dominates_all,
    is_strictly_monotone,
    reference_measure,
    robust_expectation,
)
from .avar import AvarSpec, check_axioms
from .composite import (
    composite_dominates_static,
    composite_functional,
    induced_set,
    rectangular_equivalence_check,
    rectangular_nested,
    static_rectangular,
)
from .conditional import (
    conditional_avar_nested,
    conditional_robust,
    has_property_p,
    tower_upper_bound_check,
)
from .dp import enumerate_policies, nested_policy_value, solve_dp
from .report import Check, Report, to_csv, to_json, to_text
from .rng import Rng
from .schema import InputError, ProblemFile, load_problem_file
from .spaces import ValidationError
from .transport import (
    ball_robust_gap_check,
    multistage_bound,
    multistage_bound_empirical_check,
    wasserstein_1,
)
from .verify import run_builtin

EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT = 0, 1, 2


def _digest(pf: Optional[ProblemFile], args: argparse.Namespace) -> str:
    base = pf.digest if pf is not None else "builtin"
    flags = f"seed={args.seed};trials={args.trials};tolerance={args.tolerance}"
    return hashlib.sha256(f"{base};{flags}".encode()).hexdigest()


def _measure_list(m) -> list[float]:
    return [float(x) for x in m.weights]


def _emit(report: Report, args: argparse.Namespace, csv_block: Optional[str] = None) -> int:
    if args.format == "json":
        text = to_json(report)
    else:
        text = to_text(report)
        if csv_block:
            text += csv_block
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.csv and csv_block:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_block)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_eval_static(args) -> int:
    pf = load_problem_file(args.file)
    Z = pf.lookup("random_variables", args.rv)
    M = pf.lookup("ambiguity_sets", args.set)
    value, argmax = robust_expectation(M, Z)
    report = Report(
        command=f"eval-static --rv {args.rv} --set {args.set}",
        inputs_digest=_digest(pf, args),
        results={
            "value": value,
            "argmax_measure": _measure_list(argmax),
            "argmax_expectation": float(argmax.weights @ Z.values),
        },
        checks=[
            Check(
                "argmax_attains_value",
                abs(float(argmax.weights @ Z.values) - value) <= args.tolerance,
                abs(float(argmax.weights @ Z.values) - value),
            )
        ],
    )
    return _emit(report, args)


def cmd_eval_conditional(args) -> int:
    pf = load_problem_file(args.file)
    Z = pf.lookup("random_variables", args.rv)
    M = pf.lookup("ambiguity_sets", args.set)
    G = pf.lookup("partitions", args.partition)
    P = pf.lookup("measures", args.reference) if args.reference else default_reference(M)
    if args.nested_avar:
        if not isinstance(M, AVaRSet):
            raise InputError("--nested-avar requires an avar ambiguity set")
        cv = conditional_avar_nested(AvarSpec(M.alpha, M.reference), Z, G)
        mode = "nested-avar"
    else:
        cv = conditional_robust(M, Z, G, P)
        mode = "worst-case"
    atom_values = ["-inf" if v == float("-inf") else float(v) for v in cv.atom_values]
    report = Report(
        command=f"eval-conditional --rv {args.rv} --set {args.set} "
        f"--partition {args.partition} ({mode})",
        inputs_digest=_digest(pf, args),
        results={
            "atoms": [list(a) for a in G.atoms],
            "atom_values": atom_values,
            "te_holds": cv.te_holds,
            "property_p": has_property_p(M, G),
        },
        checks=[Check("evaluated", True, None)],
    )
    return _emit(report, args)


def cmd_eval_composite(args) -> int:
    pf = load_problem_file(args.file)
    Z = pf.lookup("random_variables", args.rv)
    if args.spec:
        spec = pf.lookup("rectangular_specs", args.spec)
        nested = rectangular_nested(spec, Z)
        results = {
            "value": nested.value,
            "stage_tables": [t.reshape(-1).tolist() for t in nested.tables],
        }
        checks = []
        if all(isinstance(M, FiniteFamily) for M in spec.stage_sets):
            eq = rectangular_equivalence_check(spec, Z)
            results["composite_value"] = eq.composite_value
            checks.append(
                Check(
                    "rectangular_equivalence",
                    eq.agree,
                    abs(eq.nested_value - eq.composite_value),
                )
            )
        if args.induced_set:
            if spec.horizon != 2:
                raise InputError("--induced-set needs a two-stage spec")
            ind = induced_set(spec)
            flat = spec.as_product_array(Z).reshape(-1)
            best = max(float(q.weights @ flat) for q in ind.measures)
            results["induced_pre_dedup_count"] = ind.pre_dedup_count
            results["induced_distinct"] = len(ind.measures)
            results["induced_max"] = best
            shown = ind.measures[:256]
            results["induced_measures"] = [_measure_list(q) for q in shown]
            results["induced_measures_truncated"] = len(shown) < len(ind.measures)
            checks.append(
                Check("induced_max_equals_value", abs(best - nested.value) <= 1e-9,
                      abs(best - nested.value))
            )
        report = Report(
            command=f"eval-composite --rv {args.rv} --spec {args.spec}",
            inputs_digest=_digest(pf, args),
            results=results,
            checks=checks or [Check("evaluated", True, None)],
        )
        return _emit(report, args)
    if not (args.set and args.filtration):
        raise InputError("eval-composite needs either --spec or --set with --filtration")
    M = pf.lookup("ambiguity_sets", args.set)
    F = pf.lookup("filtrations", args.filtration)
    P = pf.lookup("measures", args.reference) if args.reference else default_reference(M)
    value = composite_functional(M, F, Z, P)
    dom = composite_dominates_static(M, F, Z, P)
    report = Report(
        command=f"eval-composite --rv {args.rv} --set {args.set} "
        f"--filtration {args.filtration}",
        inputs_digest=_digest(pf, args),
        results={
            "value": value,
            "static_value": dom.static_value,
        },
        checks=[
            Check(
                "dominates_static",
                dom.holds,
                max(dom.static_value - dom.composite_value, 0.0),
            )
        ],
    )
    return _emit(report, args)


def cmd_solve(args) -> int:
    pf = load_problem_file(args.file)
    prob = pf.lookup("problems", args.problem)
    sol = solve_dp(prob)
    results = {
        "value": sol.value,
        "policy": {
            "/".join(str(i) for i in node) or "root": int(a)
            for node, a in sorted(sol.policy.actions.items())
        },
        "value_functions": [v.tolist() for v in sol.value_functions.V],
        "continuation_values": [v.tolist() for v in sol.value_functions.calV],
    }
    residual = sol.value_functions.bellman_residual(prob)
    checks = [Check("bellman_residual", residual <= 1e-9, residual)]
    if args.enumerate:
        oracle = min(nested_policy_value(prob, pi) for pi in enumerate_policies(prob))
        results["enumeration_value"] = oracle
        checks.append(
            Check("matches_enumeration", abs(oracle - sol.value) <= 1e-9,
                  abs(oracle - sol.value))
        )
    report = Report(
        command=f"solve --problem {args.problem}",
        inputs_digest=_digest(pf, args),
        results=results,
        checks=checks,
    )
    return _emit(report, args)


def cmd_wasserstein(args) -> int:
    pf = load_problem_file(args.file)
    P = pf.lookup("measures", args.p)
    Q = pf.lookup("measures", args.q)
    space_name = pf.measure_space[args.p]
    if pf.measure_space[args.q] != space_name:
        raise InputError("the two measures live on different spaces")
    space = pf.lookup("spaces", space_name)
    dist, plan = wasserstein_1(P, Q, space)
    report = Report(
        command=f"wasserstein --p {args.p} --q {args.q}",
        inputs_digest=_digest(pf, args),
        results={
            "distance": dist,
            "plan": plan.matrix.tolist(),
            "plan_cost": plan.cost,
        },
        checks=[Check("plan_cost_matches", abs(plan.cost - dist) <= 1e-9,
                      abs(plan.cost - dist))],
    )
    return _emit(report, args)


def cmd_bounds(args) -> int:
    pf = load_problem_file(args.file)
    spec = pf.lookup("bound_specs", args.spec)
    if spec["kind"] == "ball_sweep":
        Z = pf.lookup("random_variables", spec["rv"])
        rows = []
        ok = True
        for eps in spec["grid"]:
            chk = ball_robust_gap_check(spec["measure"], eps, spec["space"], Z)
            ok = ok and chk.holds
            rows.append(
                {"epsilon": eps, "gap": chk.gap, "bound": chk.bound, "holds": chk.holds}
            )
        csv_block = to_csv(rows, ("epsilon", "gap", "bound", "holds"))
        report = Report(
            command=f"bounds --spec {args.spec} (ball_sweep)",
            inputs_digest=_digest(pf, args),
            results={"sweep": rows},
            checks=[Check("gap_within_bound_on_grid", ok, None)],
        )
        return _emit(report, args, csv_block=csv_block)
    process = spec["process"]
    bound = spec["bound"]
    Z = pf.lookup("random_variables", spec["rv"])
    res = multistage_bound_empirical_check(process, bound, Z.values)
    report = Report(
        command=f"bounds --spec {args.spec} (multistage)",
        inputs_digest=_digest(pf, args),
        results={
            "formula_bound": multistage_bound(bound),
            "nested_value": res.nested_value,
            "reference_value": res.reference_value,
            "gap": res.gap,
        },
        checks=[Check("gap_within_bound", res.holds, max(res.gap - res.bound, 0.0))],
    )
    return _emit(report, args)


def _default_rv(pf: ProblemFile, M):
    """Any file-defined variable on the set's space, else a ramp."""
    from .spaces import RandomVariable

    for rv in pf.random_variables.values():
        if rv.n == M.n:
            return rv
    return RandomVariable(np.linspace(-1.0, 1.0, M.n))


def _verify_file(pf: ProblemFile, args) -> Report:
    """Invariant battery over every object a problem file defines."""

    def rng_seeded() -> Rng:
        return Rng(args.seed)

    trials = args.trials if args.trials is not None else 200
    checks: list[Check] = []
    if trials == 0:
        checks.append(Check("vacuous", True, None, "0 trials requested (warning)"))
    else:
        for name, M in pf.ambiguity_sets.items():
            rep = check_axioms(M, trials, rng_seeded())
            checks.append(Check(f"axioms[{name}]", rep.max_violation <= 1e-7,
                                rep.max_violation))
            res = reference_measure(M)
            checks.append(
                Check(
                    f"reference_dominates[{name}]",
                    dominates_all(res, M, trials, rng_seeded()),
                    None,
                )
            )
            cert = is_strictly_monotone(M, default_reference(M))
            checks.append(
                Check(
                    f"strict_monotonicity_certificate[{name}]",
                    (not cert.strict) or cert.epsilon > 0.0,
                    None,
                    "strict" if cert.strict else "not strict",
                )
            )
            for pname, G in pf.partitions.items():
                if G.n != M.n:
                    continue
                P = default_reference(M)
                try:
                    chk = tower_upper_bound_check(M, _default_rv(pf, M), G, P)
                except ValidationError:
                    continue  # unreachable atoms: the inequality is vacuous
                checks.append(
                    Check(
                        f"tower[{name}|{pname}]",
                        chk.holds,
                        max(chk.lhs - chk.rhs, 0.0),
                    )
                )
        for name, spec in pf.rectangular_specs.items():
            if all(isinstance(M, FiniteFamily) for M in spec.stage_sets):
                rng = rng_seeded()
                Z = rng.uniforms(spec.product_size, -1.0, 1.0)
                eq = rectangular_equivalence_check(spec, Z)
                checks.append(
                    Check(
                        f"rectangular_equivalence[{name}]",
                        eq.agree,
                        abs(eq.nested_value - eq.composite_value),
                    )
                )
                nested = rectangular_nested(spec, Z).value
                static = static_rectangular(spec, Z).value
                checks.append(
                    Check(
                        f"nested_dominates_static[{name}]",
                        static <= nested + 1e-9,
                        max(static - nested, 0.0),
                    )
                )
        for name, prob in pf.problems.items():
            sol = solve_dp(prob)
            try:
                oracle = min(
                    nested_policy_value(prob, pi) for pi in enumerate_policies(prob)
                )
                checks.append(
                    Check(
                        f"dp_matches_enumeration[{name}]",
                        abs(oracle - sol.value) <= 1e-9,
                        abs(oracle - sol.value),
                    )
                )
            except ValidationError:
                residual = sol.value_functions.bellman_residual(prob)
                checks.append(
                    Check(f"dp_bellman[{name}]", residual <= 1e-9, residual,
                          "enumeration cap exceeded; Bellman residual only")
                )
    return Report(
        command="verify (file)",
        inputs_digest=_digest(pf, args),
        results={"objects_checked": len(checks)},
        checks=checks,
    )


def cmd_verify(args) -> int:
    if args.builtin:
        results = run_builtin(seed=args.seed, trials=args.trials)
        report = Report(
            command="verify --builtin",
            inputs_digest=_digest(None, args),
            results={"criteria": len(results)},
            checks=[
                Check(r.name, r.passed, r.residual, r.detail) for r in results
            ],
        )
        return _emit(report, args)
    if not args.file:
        raise InputError("verify needs a problem file or --builtin")
    pf = load_problem_file(args.file)
    return _emit(_verify_file(pf, args), args)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=42, help="battery seed (default 42)")
    p.add_argument("--trials", type=int, default=None, help="override trial counts")
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="report-level comparison tolerance")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None, help="write the report to a file")
    p.add_argument("--csv", default=None, help="write delimited output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drokit",
        description="Distributionally robust risk functionals on finite spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-static", help="worst-case expectation")
    p.add_argument("file")
    p.add_argument("--rv", required=True)
    p.add_argument("--set", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_eval_static)

    p = sub.add_parser("eval-conditional", help="per-atom conditional values")
    p.add_argument("file")
    p.add_argument("--rv", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--reference", default=None)
    p.add_argument("--nested-avar", action="store_true",
                   help="use the nested conditional AVaR instead")
    _add_common(p)
    p.set_defaults(fn=cmd_eval_conditional)

    p = sub.add_parser("eval-composite", help="composite / nested evaluation")
    p.add_argument("file")
    p.add_argument("--rv", required=True)
    p.add_argument("--set", default=None)
    p.add_argument("--filtration", default=None)
    p.add_argument("--spec", default=None, help="rectangular spec name")
    p.add_argument("--reference", default=None)
    p.add_argument("--induced-set", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_eval_composite)

    p = sub.add_parser("solve", help="multistage dynamic programming")
    p.add_argument("file")
    p.add_argument("--problem", required=True)
    p.add_argument("--enumerate", action="store_true",
                   help="cross-check against exhaustive policy enumeration")
    _add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("wasserstein", help="order-1 transport distance")
    p.add_argument("file")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_wasserstein)

    p = sub.add_parser("bounds", help="transport bound checks")
    p.add_argument("file")
    p.add_argument("--spec", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("verify", help="invariant battery")
    p.add_argument("file", nargs="?")
    p.add_argument("--builtin", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.fn(args)
    except (InputError, ValidationError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        elapsed = time.perf_counter() - start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
