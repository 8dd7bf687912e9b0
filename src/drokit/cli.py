"""Command-line interface: problem ingestion, evaluation, and verification.

Subcommands
-----------
eval-static       worst-case expectation of a random variable over a set
eval-conditional  per-atom conditional values (worst-case or nested AVaR)
eval-composite    composite value along a filtration or stagewise recursion
solve             dynamic-programming solution of a multistage problem
wasserstein       order-1 transport distance with the optimal plan
bounds            transport-ball radius sweep (CSV) or multistage bound check
verify            the acceptance battery (``verify.py``) on generated
                  instances (--builtin) or on a file's objects (FILE)

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

from .ambiguity import AVaRSet, default_reference, robust_expectation, worst_case
from .composite import (
    UnreachableAtomError,
    composite_dominates_static,
    induced_set,
    rectangular_equivalence_check,
    rectangular_nested,
)
from .conditional import conditional_avar_nested, conditional_robust, has_property_p
from .dp import enumeration_value, solve_dp
from .report import Check, Report, to_csv, to_json, to_text
from .schema import InputError, load_problem_file
from .spaces import ValidationError
from .transport import (
    ball_robust_gap_check,
    multistage_bound,
    multistage_bound_empirical_check,
    wasserstein_1,
)
from .verify import run_builtin, run_file

EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT = 0, 1, 2


def _verify_digest(base: str, args: argparse.Namespace) -> str:
    """The battery also reads ``--seed`` and ``--trials``; every other
    subcommand's digest is the file's own, ``ProblemFile.digest``."""
    return hashlib.sha256(f"{base};seed={args.seed};trials={args.trials}".encode()).hexdigest()


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
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _reject_flags(args: argparse.Namespace, dests, context: str) -> None:
    """Raises naming the flags among ``dests`` that are given: the mode that
    ``context`` names does not read them."""
    given = [f"--{d.replace('_', '-')}" for d in dests if getattr(args, d)]
    if given:
        raise InputError(f"{', '.join(given)} cannot be used {context}")


def cmd_eval_static(args) -> int:
    pf = load_problem_file(args.file)
    Z = pf.lookup("random_variables", args.rv)
    M = pf.lookup("ambiguity_sets", args.set)
    value, argmax = robust_expectation(M, Z)
    expectation = float(argmax.weights @ Z.values)
    gap = abs(expectation - value)
    report = Report(
        command=f"eval-static --rv {args.rv} --set {args.set}",
        inputs_digest=pf.digest,
        results={
            "value": value,
            "argmax_measure": argmax.weights.tolist(),
            "argmax_expectation": expectation,
        },
        # compared in the units of Z
        checks=[Check("argmax_attains_value", gap <= 1e-9 * np.abs(Z.values).max(), gap)],
    )
    return _emit(report, args)


def cmd_eval_conditional(args) -> int:
    if args.nested_avar:
        _reject_flags(args, ("reference",), "with --nested-avar")
    pf = load_problem_file(args.file)
    Z = pf.lookup("random_variables", args.rv)
    M = pf.lookup("ambiguity_sets", args.set)
    G = pf.lookup("partitions", args.partition)
    P = pf.lookup("measures", args.reference) if args.reference else default_reference(M)
    if args.nested_avar:
        if not isinstance(M, AVaRSet):
            raise InputError("--nested-avar requires an avar ambiguity set")
        cv = conditional_avar_nested(M, Z, G)
        mode = "nested-avar"
    else:
        cv = conditional_robust(M, Z, G, P)
        mode = "worst-case"
    atom_values = ["-inf" if v == float("-inf") else float(v) for v in cv.atom_values]
    report = Report(
        command=f"eval-conditional --rv {args.rv} --set {args.set} "
        f"--partition {args.partition} ({mode})",
        inputs_digest=pf.digest,
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
    if args.spec:
        _reject_flags(args, ("set", "filtration", "reference"), "with --spec")
    else:
        _reject_flags(args, ("induced_set",), "without --spec")
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
        try:  # the composite exists where the product family reaches every history
            eq = rectangular_equivalence_check(spec, Z) if spec.finitely_generated else None
        except UnreachableAtomError:
            eq = None
        if eq is not None:
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
            table = spec.as_product_array(Z).reshape(-1)
            best = float(worst_case(ind, table)[0])
            results["induced_pre_dedup_count"] = ind.pre_dedup_count
            results["induced_distinct"] = len(ind.weights)
            results["induced_max"] = best
            shown = ind.weights[:256]
            results["induced_measures"] = shown.tolist()
            results["induced_measures_truncated"] = len(shown) < len(ind.weights)
            gap = abs(best - nested.value)  # compared in the units of Z
            checks.append(Check("induced_max_equals_value", gap <= 1e-9 * np.abs(table).max(), gap))
        report = Report(
            command=f"eval-composite --rv {args.rv} --spec {args.spec}",
            inputs_digest=pf.digest,
            results=results,
            checks=checks or [Check("evaluated", True, None)],
        )
        return _emit(report, args)
    if not (args.set and args.filtration):
        raise InputError("eval-composite needs either --spec or --set with --filtration")
    M = pf.lookup("ambiguity_sets", args.set)
    F = pf.lookup("filtrations", args.filtration)
    P = pf.lookup("measures", args.reference) if args.reference else default_reference(M)
    dom = composite_dominates_static(M, F, Z, P)
    report = Report(
        command=f"eval-composite --rv {args.rv} --set {args.set} "
        f"--filtration {args.filtration}",
        inputs_digest=pf.digest,
        results={
            "value": dom.composite_value,
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
    tol = 1e-9 * prob.cost_scale
    checks = [Check("bellman_residual", residual <= tol, residual)]
    if args.enumerate:
        oracle = enumeration_value(prob)
        results["enumeration_value"] = oracle
        checks.append(
            Check("matches_enumeration", abs(oracle - sol.value) <= tol,
                  abs(oracle - sol.value))
        )
    report = Report(
        command=f"solve --problem {args.problem}",
        inputs_digest=pf.digest,
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
        inputs_digest=pf.digest,
        results={
            "distance": dist,
            "plan": plan.matrix.tolist(),
            "plan_cost": plan.cost,
        },
        # compared in the units of the metric, which bounds both values
        checks=[Check("plan_cost_matches", abs(plan.cost - dist) <= 1e-9 * space.metric.max(),
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
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(csv_block)
        report = Report(
            command=f"bounds --spec {args.spec} (ball_sweep)",
            inputs_digest=pf.digest,
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
        inputs_digest=pf.digest,
        results={
            "formula_bound": multistage_bound(bound),
            "nested_value": res.nested_value,
            "reference_value": res.reference_value,
            "gap": res.gap,
        },
        checks=[Check("gap_within_bound", res.holds, max(res.gap - res.bound, 0.0))],
    )
    return _emit(report, args)


def cmd_verify(args) -> int:
    if args.trials is not None and args.trials < 0:
        raise InputError(f"--trials must be nonnegative, not {args.trials}")
    if args.builtin and args.file:
        raise InputError("verify takes a problem file or --builtin, not both")
    if args.builtin:
        checks = run_builtin(seed=args.seed, trials=args.trials)
        command, digest, results = "verify --builtin", "builtin", {"criteria": len(checks)}
    elif args.file:
        pf = load_problem_file(args.file)
        checks = run_file(pf, args.seed, args.trials)
        command, digest, results = "verify (file)", pf.digest, {"objects_checked": len(checks)}
    else:
        raise InputError("verify needs a problem file or --builtin")
    report = Report(command, _verify_digest(digest, args), results, checks)
    return _emit(report, args)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None, help="write the report to a file")


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
    p.add_argument("--csv", default=None, help="write the sweep's delimited rows to a file")
    _add_common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("verify", help="invariant battery")
    p.add_argument("file", nargs="?")
    p.add_argument("--builtin", action="store_true")
    p.add_argument("--seed", type=int, default=42, help="battery seed (default 42)")
    p.add_argument("--trials", type=int, default=None, help="override trial counts")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.fn(args)
    except (InputError, ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        elapsed = time.perf_counter() - start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
