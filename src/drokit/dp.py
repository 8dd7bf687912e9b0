"""Multistage worst-case optimization via dynamic programming.

Stages are indexed ``0..T-1``; stage 0 is deterministic (a single outcome).
Actions and outcomes are finite explicit sets so that every optimality claim
is exactly checkable: the backward recursion alternates a minimization over
feasible actions with a worst-case expectation over the next stage's marginal
ambiguity set, and an exhaustive policy-enumeration oracle validates the
optimal value on small instances.

Every policy the module builds, the solver's and each enumerated one, is one
flat integer array per stage: stage t's array holds the action at every
stage-t node ``(xi_1, ..., xi_t)`` at that node's C-order index. The arrays
are flat rather than shaped by the stage sizes because numpy caps arrays at
64 dimensions, and a chain of 1500 one-outcome stages is a valid problem.
``Policy.actions`` builds a node -> action dict from them on each read, and
``Policy.from_actions`` builds the arrays from a node-keyed mapping.

Two ways of pricing a fixed policy coexist: the nested (stagewise) value,
which the recursion optimizes, and the static worst case over product
measures, which is never larger. Minimizing the static value over policies
cannot be decomposed stagewise; the module only compares the two optima.
Policies are priced in stacks: their cost arrays are gathered into one
``(P, *scenario_shape)`` array, stage by stage, the nested values come from
one ``worst_case`` fold over it, and the static values, for every family,
from one vertex scan (``composite._static_scan``). A single policy is a stack
of one and gets the per-policy bits; in a larger stack a value can differ
from its single-policy price by an ulp.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ambiguity import (
    AmbiguitySet,
    default_reference,
    is_strictly_monotone,
    worst_case,
)
from .composite import RectangularSpec, _static_scan
from .spaces import FiniteSpace, ValidationError


@dataclass(frozen=True)
class MultistageProblem:
    """Finite multistage problem with per-stage marginal ambiguity sets.

    Parameters
    ----------
    n_actions : tuple of int
        Size of the action set at each stage.
    stage_sizes : tuple of int
        Outcome-space size per stage; stage 0 must be deterministic (size 1).
    stage_sets : tuple
        Marginal ambiguity set per stage (``None`` at stage 0).
    costs : tuple of arrays
        ``costs[t][action, outcome]``.
    feasible : tuple
        ``feasible[0]`` lists the allowed first-stage actions;
        ``feasible[t][x_prev][outcome]`` lists allowed actions afterwards.
        Every such list must be nonempty (relatively complete recourse,
        validated here rather than assumed) and free of repeats. The same
        lists are kept as one read-only mask per stage,
        ``allow[t][x_prev, outcome, action]`` (``x_prev = outcome = 0`` at
        stage 0).
    """

    n_actions: tuple[int, ...]
    stage_sizes: tuple[int, ...]
    stage_sets: tuple[Optional[AmbiguitySet], ...]
    costs: tuple[np.ndarray, ...]
    feasible: tuple

    def __post_init__(self):
        T = len(self.n_actions)
        if T < 1:
            raise ValidationError("at least one stage required")
        if len(self.stage_sizes) != T or len(self.stage_sets) != T or len(self.costs) != T:
            raise ValidationError("per-stage fields must share the horizon")
        if self.stage_sizes[0] != 1:
            raise ValidationError("stage 0 is deterministic: its size must be 1")
        if self.stage_sets[0] is not None:
            raise ValidationError("stage 0 carries no ambiguity set")
        costs = tuple(np.asarray(c, dtype=float) for c in self.costs)
        object.__setattr__(self, "costs", costs)
        for t in range(T):
            if costs[t].shape != (self.n_actions[t], self.stage_sizes[t]):
                raise ValidationError(f"cost table {t} has shape {costs[t].shape}")
            if not np.isfinite(costs[t]).all():
                raise ValidationError(f"cost table {t} must be finite")
            if t >= 1:
                M = self.stage_sets[t]
                if M is None or M.n != self.stage_sizes[t]:
                    raise ValidationError(f"stage {t} ambiguity set mismatched")

        def action_list(t, raw, where):
            allowed = tuple(int(a) for a in raw)
            if not allowed:
                raise ValidationError(f"empty action set at stage {t}{where}")
            if any(a < 0 or a >= self.n_actions[t] for a in allowed):
                raise ValidationError(f"action out of range at stage {t}{where}")
            if len(set(allowed)) < len(allowed):
                raise ValidationError(f"repeated action at stage {t}{where}")
            return allowed

        first = action_list(0, self.feasible[0], " (the first-stage list)")
        feas = [first]
        allow = [np.zeros((1, 1, self.n_actions[0]), dtype=bool)]
        allow[0][0, 0, list(first)] = True
        for t in range(1, T):
            per_prev = []
            if len(self.feasible[t]) != self.n_actions[t - 1]:
                raise ValidationError(f"feasibility table {t} must cover every prior action")
            mask = np.zeros((self.n_actions[t - 1], self.stage_sizes[t], self.n_actions[t]), bool)
            for xp in range(self.n_actions[t - 1]):
                per_out = []
                if len(self.feasible[t][xp]) != self.stage_sizes[t]:
                    raise ValidationError(f"feasibility table {t} must cover every outcome")
                for xi in range(self.stage_sizes[t]):
                    where = f", prior action {xp}, outcome {xi}"
                    allowed = action_list(t, self.feasible[t][xp][xi], where)
                    per_out.append(allowed)
                    mask[xp, xi, list(allowed)] = True
                per_prev.append(tuple(per_out))
            feas.append(tuple(per_prev))
            allow.append(mask)
        for mask in allow:
            mask.setflags(write=False)
        object.__setattr__(self, "feasible", tuple(feas))
        object.__setattr__(self, "_allow", tuple(allow))

    @property
    def horizon(self) -> int:
        return len(self.n_actions)

    @property
    def cost_scale(self) -> float:
        """Sum over stages of ``max |costs[t]|``, the unit values compare in."""
        return float(sum(np.abs(c).max() for c in self.costs))

    def allowed(self, t: int, x_prev: int, outcome: int) -> tuple[int, ...]:
        if t == 0:
            return self.feasible[0]
        return self.feasible[t][x_prev][outcome]

    def scenario_shape(self) -> tuple[int, ...]:
        """Shape of the random-scenario grid (stages 1..T-1)."""
        return tuple(self.stage_sizes[1:])

    def random_spec(self) -> RectangularSpec:
        """Rectangular spec over the random stages, for pricing policies."""
        if self.horizon == 1:
            raise ValidationError("a one-stage problem has no random stages")
        return RectangularSpec(
            tuple(FiniteSpace(s) for s in self.stage_sizes[1:]),
            tuple(self.stage_sets[1:]),
        )


def _stage_nodes(stage_sizes, t: int):
    """The stage-t nodes ``(xi_1, ..., xi_t)`` in C order; the parent of the
    k-th one is the ``k // stage_sizes[t]``-th stage-(t-1) node."""
    return itertools.product(*[range(s) for s in stage_sizes[1 : t + 1]])


@dataclass(frozen=True, eq=False)
class Policy:
    """One flat integer array of actions per stage, made read-only:
    ``stages[t][k]`` acts at the k-th stage-t node ``(xi_1, ..., xi_t)`` in C
    order over the outcome counts ``stage_sizes``. Pricing checks feasibility.
    """

    stages: tuple[np.ndarray, ...]
    stage_sizes: tuple[int, ...]

    def __post_init__(self):
        stages, sizes = tuple(self.stages), tuple(self.stage_sizes)
        if len(stages) != len(sizes):
            raise ValidationError(f"{len(stages)} action arrays for {len(sizes)} stages")
        nodes = 1
        for t, a in enumerate(stages):
            nodes *= sizes[t] if t else 1
            if not isinstance(a, np.ndarray) or a.shape != (nodes,) or a.dtype.kind not in "iu":
                raise ValidationError(f"stage {t} needs a flat integer array of {nodes} actions")
            a.setflags(write=False)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "stage_sizes", sizes)

    def __eq__(self, other):
        if not isinstance(other, Policy):
            return NotImplemented
        return self.stage_sizes == other.stage_sizes and all(
            np.array_equal(a, b) for a, b in zip(self.stages, other.stages)
        )

    def __setstate__(self, state):
        """Unpickling re-runs the validation, which makes the arrays
        read-only again; the pickled bytes stay the default ones."""
        self.__init__(**state)

    @property
    def actions(self) -> dict[tuple[int, ...], int]:
        """A new node -> action dict on each read, key ``()`` for stage 0,
        stage by stage, each stage in C order."""
        nodes = (_stage_nodes(self.stage_sizes, t) for t in range(len(self.stages)))
        acts = (a.tolist() for a in self.stages)
        return dict(zip(itertools.chain.from_iterable(nodes), itertools.chain.from_iterable(acts)))

    @classmethod
    def from_actions(cls, prob: MultistageProblem, actions: Mapping) -> Policy:
        """The policy taking ``actions[node]`` at every node of ``prob``;
        raises at the shallowest node whose action is missing or infeasible."""
        sizes = prob.stage_sizes
        stages = [[actions.get(n) for n in _stage_nodes(sizes, t)] for t in range(prob.horizon)]
        _checked_actions(prob, stages)
        return cls(tuple(np.array(a, dtype=np.int64) for a in stages), sizes)


def _checked_actions(prob: MultistageProblem, stages) -> None:
    """Raises at the shallowest node whose action, ``stages[t][k]`` for the
    k-th stage-t node in C order, is missing (``None``) or not allowed after
    its parent's action."""
    sizes = prob.stage_sizes
    if stages[0][0] is None or stages[0][0] not in prob.allowed(0, 0, 0):
        raise ValidationError("infeasible or missing first-stage action")
    for t in range(1, prob.horizon):
        s, prev, feas = sizes[t], stages[t - 1], prob.feasible[t]
        for k, a in enumerate(stages[t]):
            if a is None or a not in feas[prev[k // s]][k % s]:
                node = next(itertools.islice(_stage_nodes(sizes, t), k, None))
                raise ValidationError(f"policy infeasible at node {node}")


def _bellman_step(prob: MultistageProblem, t: int, cont: np.ndarray):
    """Stage t's minimum of ``cost + continuation`` over the allowed actions,
    per (prior action, outcome), and the smallest action attaining it."""
    cells = np.where(prob._allow[t], prob.costs[t].T + cont, np.inf)
    return cells.min(-1), cells.argmin(-1)


@dataclass(frozen=True)
class ValueFunctions:
    """Backward tables: ``V[t][x_prev, outcome]`` and ``calV[t][x_prev]``
    (the worst-case continuation; ``calV[T]`` is identically zero)."""

    V: tuple[np.ndarray, ...]
    calV: tuple[np.ndarray, ...]

    def bellman_residual(self, prob: MultistageProblem) -> float:
        worst = 0.0
        for t in range(prob.horizon):
            best, _ = _bellman_step(prob, t, self.calV[t + 1])
            worst = max(worst, float(np.max(np.abs(best - self.V[t]))))
            if t >= 1:
                vals, _ = worst_case(prob.stage_sets[t], self.V[t])
                worst = max(worst, float(np.max(np.abs(vals - self.calV[t]))))
        return worst


@dataclass(frozen=True)
class DpSolution:
    value: float
    policy: Policy
    value_functions: ValueFunctions


def solve_dp(prob: MultistageProblem) -> DpSolution:
    """Backward induction with smallest-index tie-breaking in the argmin.

    The optimal policy is kept as one flat action array per stage, each in C
    order over that stage's nodes and gathered from the previous stage's
    array in one indexing step, with no per-node Python.
    """
    T = prob.horizon
    # stage 0 has no continuation table; calV[1..T-1] are filled below
    calV = [np.zeros(0)] * T + [np.zeros(prob.n_actions[T - 1])]
    V, argmin = [None] * T, [None] * T
    for t in range(T - 1, -1, -1):
        V[t], argmin[t] = _bellman_step(prob, t, calV[t + 1])
        if t >= 1:
            calV[t], _ = worst_case(prob.stage_sets[t], V[t])

    # stage by stage, each node follows the argmin of its parent's action:
    # node k of stage t has parent k // s_t and last outcome k % s_t, so the
    # rows of argmin[t] picked by the parents' actions, raveled, are stage t
    stages = [argmin[0][0]]
    for t in range(1, T):
        stages.append(argmin[t][stages[-1]].ravel())
    policy = Policy(tuple(stages), prob.stage_sizes)
    vf = ValueFunctions(V=tuple(V), calV=tuple(calV))
    return DpSolution(value=float(V[0][0, 0]), policy=policy, value_functions=vf)


def _cost_stack(prob: MultistageProblem, policies) -> np.ndarray:
    """Total cost per scenario of each policy, shape ``(P, *scenario_shape)``
    (``(P, 1)`` for one stage), gathered stage by stage from the stacked
    action arrays.

    Each scenario's total adds its first-stage cost, then its stage costs in
    stage order, so it is rounded exactly like the sum along its path. The
    actions are checked against ``_allow`` in the same gather; a stack with an
    infeasible policy raises at the shallowest bad node of the first such
    policy.
    """
    sizes, P = tuple(prob.stage_sizes), len(policies)
    if any(pi.stage_sizes != sizes for pi in policies):
        raise ValidationError(f"policy stage sizes differ from the problem's {sizes}")
    stages = [np.stack(arrays) for arrays in zip(*(pi.stages for pi in policies))]  # (P, nodes)
    # an action out of range would wrap around or overflow in the gathers
    feasible = all(st.min() >= 0 and st.max() < n for st, n in zip(stages, prob.n_actions))
    if feasible:
        ok = prob._allow[0][0, 0, stages[0][:, 0]]
        totals = prob.costs[0][stages[0], 0]
        for t in range(1, prob.horizon):
            s = sizes[t]
            acts = stages[t].reshape(P, -1, s)  # (policy, parent node, outcome)
            ok &= prob._allow[t][stages[t - 1][..., None], np.arange(s), acts].all(axis=(1, 2))
            totals = (totals[..., None] + prob.costs[t][acts, np.arange(s)]).reshape(P, -1)
        feasible = ok.all()
    if not feasible:
        for pi in policies:
            _checked_actions(prob, pi.stages)
    return totals.reshape((P,) + (prob.scenario_shape() or (1,)))


def _nested_values(prob: MultistageProblem, costs: np.ndarray, spec=None) -> np.ndarray:
    """Stagewise worst-case value of each cost array in the stack: one
    ``worst_case`` fold per stage, last stage first, over the whole stack."""
    if prob.horizon == 1:
        return costs[:, 0]
    for M in reversed((spec or prob.random_spec()).stage_sets):
        costs, _ = worst_case(M, costs)
    return costs


def _static_values(prob: MultistageProblem, costs: np.ndarray, spec=None) -> np.ndarray:
    """Worst case of each cost array in the stack over product measures, from
    the one vertex scan of the whole stack that ``static_rectangular`` uses."""
    if prob.horizon == 1:
        return costs[:, 0]
    return _static_scan(spec or prob.random_spec(), costs)[0]


#: Most cost cells one stack of policies holds; enumerations are priced in
#: stacks of at most this many cells (and at least one policy), which bounds
#: the working arrays of the folds over a stack.
_STACK_CELLS = 1 << 16


def _stacks(prob: MultistageProblem, policies):
    """The policies in order, in lists small enough for ``_STACK_CELLS``,
    each with its cost stack."""
    per = max(1, _STACK_CELLS // math.prod(prob.scenario_shape()))
    policies = iter(policies)
    while chunk := list(itertools.islice(policies, per)):
        yield chunk, _cost_stack(prob, chunk)


def policy_cost_array(prob: MultistageProblem, pi: Policy) -> np.ndarray:
    """Total cost of the policy per scenario, on the random-stage grid."""
    return _cost_stack(prob, [pi])[0]


def nested_policy_value(prob: MultistageProblem, pi: Policy) -> float:
    """Stagewise worst-case value of the policy's cost profile."""
    return float(_nested_values(prob, _cost_stack(prob, [pi]))[0])


def static_policy_value(prob: MultistageProblem, pi: Policy) -> float:
    """Worst case of the policy's cost over product measures; never exceeds
    the nested value."""
    return float(_static_values(prob, _cost_stack(prob, [pi]))[0])


def _enumerated_nested(prob: MultistageProblem):
    """Every enumerated policy with its nested value, priced in stacks."""
    for chunk, costs in _stacks(prob, enumerate_policies(prob)):
        yield from zip(chunk, _nested_values(prob, costs).tolist())


def enumeration_value(prob: MultistageProblem) -> float:
    """Least nested value over every enumerated policy, the exhaustive oracle
    for the DP value; raises when there are over ``_POLICY_CAP`` policies."""
    return min(value for _, value in _enumerated_nested(prob))


def count_policies(prob: MultistageProblem) -> int:
    """Number of feasible policies, counted backwards stage by stage.

    ``below[a]`` is the number of ways to complete a policy under a node
    whose action is ``a``: the product, over the next stage's outcomes, of
    the completions summed over the actions allowed there.
    """
    T = prob.horizon
    below = [1] * prob.n_actions[T - 1]
    for t in range(T - 1, 0, -1):
        below = [
            math.prod(
                sum(below[a] for a in prob.allowed(t, xp, xi))
                for xi in range(prob.stage_sizes[t])
            )
            for xp in range(prob.n_actions[t - 1])
        ]
    return sum(below[a] for a in prob.allowed(0, 0, 0))


#: Most policies ``enumerate_policies`` yields; larger problems are rejected.
_POLICY_CAP = 10**5


def enumerate_policies(prob: MultistageProblem):
    """Yield every feasible policy; raises when there are over ``_POLICY_CAP``.

    The subtrees under a node depend only on its prior action and its last
    outcome, so the subtree tables, built backwards stage by stage for the
    prior actions some policy reaches, are keyed by that pair. A subtree is
    one tuple of actions per depth, in C order, joined from its children's
    depth by depth; the stage-0 ones are yielded one at a time as stage
    arrays. Order: first-stage actions in list order, then the product of the
    child subtrees with the last outcome varying fastest.
    """
    total = count_policies(prob)
    if total > _POLICY_CAP:
        raise ValidationError(f"{total} policies exceed the enumeration cap {_POLICY_CAP}")
    T, sizes = prob.horizon, prob.stage_sizes
    priors = [[0]]  # priors[t]: the actions some policy takes at stage t - 1
    for t in range(1, T):
        priors.append(np.flatnonzero(prob._allow[t - 1][priors[-1]].any((0, 1))).tolist())

    def tables(t, xp, outcome, below):
        for a in prob.allowed(t, xp, outcome):
            if t + 1 == T:
                yield ((a,),)
                continue
            for combo in itertools.product(*[below[a, xi] for xi in range(sizes[t + 1])]):
                if len(combo) > 1:  # join depth by depth; a lone child (chains) needs no copy
                    combo = (tuple(tuple(itertools.chain(*d)) for d in zip(*combo)),)
                yield ((a,),) + combo[0]

    below: dict = {}
    for t in range(T - 1, 0, -1):
        below = {
            (xp, xi): list(tables(t, xp, xi, below)) for xp in priors[t] for xi in range(sizes[t])
        }
    for table in tables(0, 0, 0, below):
        yield Policy(tuple(np.array(d) for d in table), sizes)


@dataclass(frozen=True)
class MinComparison:
    """Exhaustive comparison of the two policy-optimization problems."""

    min_static: float
    min_nested: float
    argmin_static: Policy
    argmin_nested: Policy
    holds: bool  # min_static <= min_nested + 1e-9 cost_scale
    argmins_differ: bool


def compare_min_static_vs_min_nested(prob: MultistageProblem) -> MinComparison:
    """Both optima over every policy. The policies are priced as one stack
    of cost arrays on one spec; the argmins are then scanned in enumeration
    order, a policy replacing the best only when below it by over 1e-12."""
    spec = prob.random_spec() if prob.horizon > 1 else None
    best_s, best_n = np.inf, np.inf
    arg_s = arg_n = None
    for chunk, costs in _stacks(prob, enumerate_policies(prob)):
        statics = _static_values(prob, costs, spec).tolist()
        nesteds = _nested_values(prob, costs, spec).tolist()
        for pi, s, v in zip(chunk, statics, nesteds):
            if s < best_s - 1e-12:
                best_s, arg_s = s, pi
            if v < best_n - 1e-12:
                best_n, arg_n = v, pi
    return MinComparison(
        min_static=best_s,
        min_nested=best_n,
        argmin_static=arg_s,
        argmin_nested=arg_n,
        holds=best_s <= best_n + 1e-9 * prob.cost_scale,
        argmins_differ=arg_s != arg_n,
    )


@dataclass(frozen=True)
class NecessityReport:
    """Outcome of checking that optimal policies obey the argmin rule.

    Necessity of the rule needs strict monotonicity of the per-stage sets;
    when that gate fails, only sufficiency (the extracted policy attains the
    optimum) is asserted.
    """

    checked: bool
    sufficiency_ok: bool
    optimal_policies: int
    violations: tuple[str, ...]
    note: str = ""


#: Value gap, in units of ``cost_scale``, up to which a policy counts as
#: optimal and an action as an argmin.
_OPTIMALITY_TOL = 1e-9


def verify_optimality_necessity(prob: MultistageProblem) -> NecessityReport:
    sol = solve_dp(prob)
    tol = _OPTIMALITY_TOL * prob.cost_scale
    sufficiency = abs(nested_policy_value(prob, sol.policy) - sol.value) <= tol
    strict = all(
        is_strictly_monotone(M, default_reference(M)).strict
        for M in prob.stage_sets[1:]
    )
    if not strict:
        return NecessityReport(
            checked=False,
            sufficiency_ok=sufficiency,
            optimal_policies=0,
            violations=(),
            note="some stage set is not strictly monotone; necessity skipped",
        )
    vf = sol.value_functions
    violations: list[str] = []
    optimal = 0
    for pi, value in _enumerated_nested(prob):
        if value > sol.value + tol:
            continue
        optimal += 1
        stages = [a.tolist() for a in pi.stages]
        for t in range(prob.horizon):
            s = prob.stage_sizes[t]
            for k, node in enumerate(_stage_nodes(prob.stage_sizes, t)):
                a, outcome = stages[t][k], k % s
                xp = stages[t - 1][k // s] if t > 0 else 0  # single prior state at stage 0
                cell = prob.costs[t][a, outcome] + vf.calV[t + 1][a]
                best = vf.V[t][xp, outcome]
                if cell > best + tol:
                    violations.append(
                        f"node {node}: action {a} off the argmin by {cell - best:.3g}"
                    )
    return NecessityReport(
        checked=True,
        sufficiency_ok=sufficiency,
        optimal_policies=optimal,
        violations=tuple(sorted(set(violations))),
    )
