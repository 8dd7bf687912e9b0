"""The benchmark's workloads: inputs generated from a seed, the fixed
list of operations one pass runs, and the check of each operation's output.

Each workload is a closed loop with one caller: an operation starts when the
previous one returns. ``build`` makes the inputs with ``drokit.rng.Rng`` and
hands drokit only the generated objects. Operations call drokit through
module attributes looked up at call time, so the traced run's wrappers are
seen without any change here.

Checks take the reference module (``checks``) as their first argument: it
imports scipy, which must stay out of the process until the timed passes and
the memory reading are over.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import drokit.ambiguity as amb
import drokit.cli as cli
import drokit.composite as comp
import drokit.conditional as cond
import drokit.dp as dp
import drokit.transport as tr
import drokit.verify as verify
from drokit.rng import Rng
from drokit.spaces import DiscreteMeasure, FiniteSpace, Partition, RandomVariable, ScenarioTree

#: Seed of the ``verify --builtin`` battery in ``selfcheck``: a fixed input,
#: like the battery's trial counts.
BATTERY_SEED = 42

#: The workloads of ``BENCHMARK.json``; ``wide`` is run by hand only.
WORKLOADS = ("selfcheck", "deep")
BY_HAND = ("wide",)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], list]  # (checks module, output) -> errors


# ---------------------------------------------------------------------------
# generated parameters and the drokit objects built from them
# ---------------------------------------------------------------------------


def line_points(rng: Rng, n: int) -> np.ndarray:
    return np.sort(rng.uniforms(n, 0.0, 2.0))


#: Shape parameters of the generated sets are fixed, so that the seed moves
#: the measures, points and payoffs but not the amount of work: with a random
#: radius in [0.05, 0.8] the time of one ball LP at n = 45 varied by 37%
#: (sd/mean over six seeds), with a fixed radius by 11%.
FAMILY_MEMBERS = 3
AVAR_ALPHA = 0.5
BALL_RADIUS = 0.2


def gen_set(rng: Rng, kind: str, n: int) -> dict:
    """Raw parameters of one fully supported ambiguity set on n outcomes."""
    if kind == "finite":
        mat = np.vstack([rng.simplex(n) for _ in range(FAMILY_MEMBERS)])
        return {"kind": kind, "n": n, "mat": mat}
    if kind == "avar":
        return {"kind": kind, "n": n, "alpha": AVAR_ALPHA, "p": rng.simplex(n)}
    if kind == "moment":
        x = line_points(rng, n)
        psi = np.sort(rng.uniforms(n, 0.0, 1.0))
        return {"kind": kind, "n": n, "x": x, "psi": psi, "target": float(rng.simplex(n) @ psi)}
    if kind == "wass":
        x = line_points(rng, n)
        d = np.abs(np.subtract.outer(x, x))
        return {"kind": kind, "n": n, "x": x, "d": d, "p": rng.simplex(n), "r": BALL_RADIUS}
    raise ValueError(kind)


def to_set(S: dict):
    kind = S["kind"]
    if kind == "finite":
        return amb.FiniteFamily(tuple(DiscreteMeasure(row) for row in S["mat"]))
    if kind == "avar":
        return amb.AVaRSet(S["alpha"], DiscreteMeasure(S["p"]))
    if kind == "moment":
        space = FiniteSpace(S["x"].size, metric=np.abs(np.subtract.outer(S["x"], S["x"])))
        return amb.MomentSet(space, (RandomVariable(S["psi"]),), (S["target"],))
    return amb.WassersteinBall(DiscreteMeasure(S["p"]), S["r"], FiniteSpace(S["p"].size, metric=S["d"]))


def gen_partition(rng: Rng, n: int, k: int) -> tuple[tuple[int, ...], ...]:
    order = rng.shuffled(list(range(n)))
    buckets = [[order[i]] for i in range(k)]
    for i in range(k, n):
        buckets[rng.randint(k)].append(order[i])
    return tuple(tuple(sorted(b)) for b in buckets)


def rect_spec(sets: list[dict]):
    return comp.RectangularSpec(
        tuple(FiniteSpace(S["n"]) for S in sets), tuple(to_set(S) for S in sets)
    )


def gen_problem(rng: Rng, T: int, A: int, S: int, kinds) -> dict:
    """Multistage problem with A actions and S outcomes per random stage;
    every action list is a random nonempty subset."""
    sizes = (1,) + (S,) * (T - 1)
    sets = [None] + [gen_set(rng, kinds[t % len(kinds)], S) for t in range(1, T)]
    costs = [rng.uniforms(A * sizes[t], -1.0, 1.0).reshape(A, sizes[t]) for t in range(T)]
    feas = [tuple(range(A))]
    for _ in range(1, T):
        feas.append(tuple(
            tuple(tuple(sorted(rng.shuffled(list(range(A)))[: 1 + rng.randint(A)])) for _ in range(S))
            for _ in range(A)
        ))
    return {"A": (A,) * T, "S": sizes, "sets": sets, "costs": costs, "feas": feas}


def to_problem(prob: dict):
    return dp.MultistageProblem(
        n_actions=prob["A"], stage_sizes=prob["S"],
        stage_sets=tuple(None if S is None else to_set(S) for S in prob["sets"]),
        costs=tuple(prob["costs"]), feasible=tuple(prob["feas"]),
    )


# ---------------------------------------------------------------------------
# wide: single-stage operations on large sets
# ---------------------------------------------------------------------------


def _static_op(label: str, S: dict, z: np.ndarray) -> Op:
    M, Z = to_set(S), RandomVariable(z)
    return Op(f"static {label}", lambda: amb.robust_expectation(M, Z),
              lambda C, out: C.check_static(S, z, out[0], out[1].weights))


def _reference_op(label: str, S: dict, n: int) -> Op:
    M = to_set(S)
    return Op(f"reference {label}", lambda: amb.reference_measure(M),
              lambda C, out: C.check_reference(S, n, out.mu.weights, out.normalized.weights))


def _conditional_op(label: str, S: dict, z: np.ndarray, atoms) -> Op:
    n = z.size
    M, Z, G = to_set(S), RandomVariable(z), Partition(n, atoms)
    P = DiscreteMeasure.uniform(n)
    return Op(f"conditional {label}", lambda: cond.conditional_robust(M, Z, G, P),
              lambda C, out: C.check_atoms(S, z, atoms, out.atom_values))


def _w1_op(rng: Rng, n: int) -> Op:
    x = line_points(rng, n)
    p, q = rng.simplex(n), rng.simplex(n)
    P, Q = DiscreteMeasure(p), DiscreteMeasure(q)
    space = FiniteSpace(n, metric=np.abs(np.subtract.outer(x, x)))
    return Op(f"wasserstein_1 n={n}", lambda: tr.wasserstein_1(P, Q, space),
              lambda C, out: C.check_w1(C.line_metric(x), p, q, out[0], out[1].matrix,
                                        C.w1_line(x, p, q)))


def build_wide(seed: int) -> list[Op]:
    rng = Rng(seed)
    ops = []
    for n in (20, 30, 40, 50, 60):
        ops.append(_static_op(f"wass n={n}", gen_set(rng, "wass", n), rng.uniforms(n, -1.0, 1.0)))
    for n in (12, 16, 20):
        S = gen_set(rng, "wass", n)
        z = rng.uniforms(n, -1.0, 1.0)
        ops.append(_conditional_op(f"wass n={n}", S, z, gen_partition(rng, n, n // 2)))
        ops.append(_reference_op(f"wass n={n}", S, n))
    for kind in ("avar", "moment", "finite"):
        for n in (50, 100, 200):
            S = gen_set(rng, kind, n)
            z = rng.uniforms(n, -1.0, 1.0)
            ops.append(_static_op(f"{kind} n={n}", S, z))
            ops.append(_conditional_op(f"{kind} n={n}", S, z, gen_partition(rng, n, 10)))
            ops.append(_reference_op(f"{kind} n={n}", S, n))
    for n in (10, 20, 30):
        ops.append(_w1_op(rng, n))
    return ops


# ---------------------------------------------------------------------------
# deep: multistage evaluation
# ---------------------------------------------------------------------------


def _nested_op(rng: Rng, kind: str, T: int, s: int) -> Op:
    sets = [gen_set(rng, kind, s) for _ in range(T)]
    table = rng.uniforms(s**T, -1.0, 1.0).reshape((s,) * T)
    spec = rect_spec(sets)
    return Op(f"rectangular_nested {kind} {s}^{T}", lambda: comp.rectangular_nested(spec, table),
              lambda C, out: C.check_nested(sets, table, out.value, out.tables))


def _static_rect_op(rng: Rng, seed: int, kind: str, T: int, s: int) -> Op:
    sets = [gen_set(rng, kind, s) for _ in range(T)]
    table = rng.uniforms(s**T, -1.0, 1.0).reshape((s,) * T)
    spec = rect_spec(sets)
    return Op(f"static_rectangular {kind} {s}^{T}",
              lambda: comp.static_rectangular(spec, table, rng=Rng(seed)),
              lambda C, out: C.check_static_rectangular(
                  sets, table, out.value, [q.weights for q in out.members]))


def _dp_op(rng: Rng, T: int, kinds) -> Op:
    prob = gen_problem(rng, T, 6, 6, kinds)
    problem = to_problem(prob)
    return Op(f"solve_dp T={T}", lambda: dp.solve_dp(problem),
              lambda C, out: C.check_dp(prob, out.value, out.policy.actions))


def gen_small_problem(rng: Rng) -> dict:
    """Three stages, A = (1, 2, 2), S = (1, 2, 3), finite-family stage sets.

    Both stage-1 actions are always allowed and every stage-2 list holds both
    actions except one random singleton, so the problem has exactly
    (4 + 8)^2 = 144 feasible policies whatever the seed."""
    A, S = (1, 2, 2), (1, 2, 3)
    sets = [None, gen_set(rng, "finite", S[1]), gen_set(rng, "finite", S[2])]
    costs = [rng.uniforms(A[t] * S[t], -1.0, 1.0).reshape(A[t], S[t]) for t in range(3)]
    narrow, where, keep = rng.randint(2), rng.randint(3), rng.randint(2)
    stage2 = tuple(
        tuple((keep,) if (a, xi) == (narrow, where) else (0, 1) for xi in range(S[2]))
        for a in range(A[1])
    )
    return {"A": A, "S": S, "sets": sets, "costs": costs, "feas": [(0,), (((0, 1), (0, 1)),), stage2]}


def _min_comparison_op(rng: Rng) -> Op:
    prob = gen_small_problem(rng)
    problem = to_problem(prob)
    return Op("compare_min_static_vs_min_nested 144 policies",
              lambda: dp.compare_min_static_vs_min_nested(problem),
              lambda C, out: C.check_min_comparison(prob, out))


def _tree_op(rng: Rng, depth: int, s: int) -> Op:
    tree = ScenarioTree.from_branching([s] * depth)
    kinds = ("avar", "moment", "finite")
    children = [node.children for node in tree.nodes]
    node_sets = {i: gen_set(rng, kinds[i % 3], s) for i, ch in enumerate(children) if ch}
    leaves = [i for i, ch in enumerate(children) if not ch]
    leaf_z = rng.uniforms(len(leaves), -1.0, 1.0)
    spec = comp.HistoryDependentSpec(tree, {i: to_set(S) for i, S in node_sets.items()})
    # leaves are numbered depth-first, which is the order nested_tree_value expects
    return Op(f"nested_tree_value {s}^{depth}", lambda: comp.nested_tree_value(spec, leaf_z),
              lambda C, out: C.check_tree(children, node_sets, dict(zip(leaves, leaf_z)),
                                          out[0], out[1]))


def _equivalence_op(rng: Rng, T: int, s: int) -> Op:
    sets = [gen_set(rng, "finite", s) for _ in range(T)]
    table = rng.uniforms(s**T, -1.0, 1.0).reshape((s,) * T)
    spec = rect_spec(sets)
    return Op(f"rectangular_equivalence_check {s}^{T}",
              lambda: comp.rectangular_equivalence_check(spec, table),
              lambda C, out: C.check_equivalence(sets, table, out))


def _induced_op(rng: Rng, n1: int, n2: int) -> Op:
    sets = [gen_set(rng, "finite", n1), gen_set(rng, "finite", n2)]
    table = rng.uniforms(n1 * n2, -1.0, 1.0).reshape(n1, n2)
    spec = rect_spec(sets)
    return Op(f"induced_set {n1}x{n2}", lambda: comp.induced_set(spec),
              lambda C, out: C.check_induced(sets, table, out.pre_dedup_count,
                                             [q.weights for q in out.measures]))


def _multistage_op(rng: Rng, sizes: tuple[int, ...]) -> Op:
    T = len(sizes)
    points = [line_points(rng, s) for s in sizes]
    kernels = [np.array([rng.simplex(sizes[t]) for _ in np.ndindex(*sizes[:t])]).reshape(sizes[: t + 1])
               for t in range(T)]
    weights = tuple(rng.uniform(0.5, 1.5) for _ in range(T))
    eps = tuple(rng.uniform(0.0, 0.3) for _ in range(T))
    table = rng.uniforms(int(np.prod(sizes)), -1.0, 1.0).reshape(sizes)
    process = tr.TreeProcess(
        tuple(FiniteSpace(s, metric=np.abs(np.subtract.outer(x, x))) for s, x in zip(sizes, points)),
        tuple(kernels),
    )

    def run():
        kappa = tr.kernel_history_moduli(process, weights)
        L = tr.scenario_lipschitz_certificate(process, table, weights)
        res = tr.multistage_bound_empirical_check(
            process, tr.MultistageBoundSpec(eps, kappa, weights, L), table)
        return kappa, L, res

    return Op(f"multistage_bound_empirical_check {'x'.join(map(str, sizes))}", run,
              lambda C, out: C.check_multistage(points, kernels, weights, eps, table, *out))


def build_deep(seed: int) -> list[Op]:
    rng = Rng(seed)
    return [
        _nested_op(rng, "avar", 8, 3),
        _nested_op(rng, "avar", 6, 4),
        _nested_op(rng, "moment", 8, 3),
        _nested_op(rng, "moment", 6, 4),
        _nested_op(rng, "finite", 4, 9),
        _nested_op(rng, "finite", 6, 4),
        _static_rect_op(rng, seed, "avar", 5, 3),
        _static_rect_op(rng, seed, "moment", 4, 3),
        _dp_op(rng, 8, ("avar",)),
        _dp_op(rng, 8, ("moment", "finite")),
        _dp_op(rng, 7, ("finite", "avar")),
        _min_comparison_op(rng),
        _min_comparison_op(rng),
        _tree_op(rng, 6, 3),
        _equivalence_op(rng, 3, 3),
        _induced_op(rng, 6, 3),
        _multistage_op(rng, (3, 3, 3)),
        _multistage_op(rng, (3, 3, 3)),
    ]


# ---------------------------------------------------------------------------
# selfcheck: the built-in battery and every CLI subcommand on the golden files
# ---------------------------------------------------------------------------


def _criterion_op(name: str, trials: int) -> Op:
    def check(C, res):
        if not res.passed or not np.isfinite(res.residual):
            return [f"{name}: criterion failed (residual {res.residual}, {res.detail})"]
        return []

    return Op(f"verify.{name}", lambda: getattr(verify, name)(trials, Rng(BATTERY_SEED)), check)


def _cli_op(argv: list[str]) -> Op:
    """One in-process CLI call with a JSON report: it must exit 0 with every
    report check passed, and ``checks.check_cli`` recomputes its numbers."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--format", "json"])
        return code, out.getvalue()

    def check(C, output):
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads(text)
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        return [f"report checks failed: {failed}"] if failed else C.check_cli(argv, doc["results"])

    return Op(" ".join(argv[:1] + [os.path.basename(argv[1])] + argv[2:]), run, check)


def build_selfcheck(root: str) -> list[Op]:
    static, condcomp, dpt = (os.path.join(root, "tests", "golden", f"{name}.json")
                             for name in ("static_examples", "conditional_composite", "dp_transport"))
    ops = [_criterion_op(fn.__name__, trials) for fn, trials in verify.CRITERIA]
    calls = [
        ["eval-static", static, "--rv", "payout", "--set", "two_corners"],
        ["eval-static", static, "--rv", "jump", "--set", "pinned_ball"],
        ["eval-static", static, "--rv", "square", "--set", "mean_03"],
        ["eval-conditional", condcomp, "--rv", "zigzag", "--set", "avar_half", "--partition", "halves"],
        ["eval-conditional", condcomp, "--rv", "zigzag", "--set", "avar_half", "--partition", "halves",
         "--nested-avar"],
        ["eval-composite", condcomp, "--rv", "zigzag", "--set", "avar_half", "--filtration", "steps"],
        ["eval-composite", condcomp, "--rv", "diagonal", "--spec", "gap_witness", "--induced-set"],
        ["solve", dpt, "--problem", "carried", "--enumerate"],
        ["wasserstein", dpt, "--p", "spread", "--q", "shifted"],
        ["bounds", dpt, "--spec", "ball_sweep"],
        ["bounds", dpt, "--spec", "stagewise"],
        ["verify", static],
        ["verify", condcomp],
        ["verify", dpt],
    ]
    return ops + [_cli_op(argv) for argv in calls]


def build(workload: str, seed: int, root: str) -> list[Op]:
    """Inputs and operations of one workload. ``selfcheck`` ignores the seed:
    its battery seed and the golden files are fixed inputs."""
    if workload == "wide":
        return build_wide(seed)
    if workload == "deep":
        return build_deep(seed)
    if workload == "selfcheck":
        return build_selfcheck(root)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS + BY_HAND}")
