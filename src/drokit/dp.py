"""Multistage worst-case optimization via dynamic programming.

Stages are indexed ``0..T-1``; stage 0 is deterministic (a single outcome).
Actions and outcomes are finite explicit sets so that every optimality claim
is exactly checkable: the backward recursion alternates a minimization over
feasible actions with a worst-case expectation over the next stage's marginal
ambiguity set, and an exhaustive policy-enumeration oracle validates the
optimal value on small instances.

The solver keeps its optimal policy as one flat integer array per stage:
stage t's array holds the action at every stage-t node ``(xi_1, ..., xi_t)``
at that node's C-order index, and is gathered from stage t-1's in one step.
The arrays are flat rather than shaped by the stage sizes because numpy caps
arrays at 64 dimensions, and a chain of 1500 one-outcome stages is a valid
problem. ``Policy.actions`` reads them through a read-only mapping, so one
``Policy`` type serves both these arrays and the plain dicts that policy
enumeration builds.

Two ways of pricing a fixed policy coexist: the nested (stagewise) value,
which the recursion optimizes, and the static worst case over product
measures, which is never larger. Minimizing the static value over policies
cannot be decomposed stagewise; the module only compares the two optima.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ambiguity import (
    AmbiguitySet,
    default_reference,
    is_strictly_monotone,
    worst_case,
)
from .composite import RectangularSpec, rectangular_nested, static_rectangular
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
        validated here rather than assumed).
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
            if t >= 1:
                M = self.stage_sets[t]
                if M is None or M.n != self.stage_sizes[t]:
                    raise ValidationError(f"stage {t} ambiguity set mismatched")
        first = tuple(int(a) for a in self.feasible[0])
        if not first or any(a < 0 or a >= self.n_actions[0] for a in first):
            raise ValidationError("invalid first-stage action list")
        feas = [first]
        for t in range(1, T):
            per_prev = []
            if len(self.feasible[t]) != self.n_actions[t - 1]:
                raise ValidationError(f"feasibility table {t} must cover every prior action")
            for xp in range(self.n_actions[t - 1]):
                per_out = []
                if len(self.feasible[t][xp]) != self.stage_sizes[t]:
                    raise ValidationError(f"feasibility table {t} must cover every outcome")
                for xi in range(self.stage_sizes[t]):
                    allowed = tuple(int(a) for a in self.feasible[t][xp][xi])
                    if not allowed:
                        raise ValidationError(
                            f"empty action set at stage {t}, prior action {xp}, outcome {xi}"
                        )
                    if any(a < 0 or a >= self.n_actions[t] for a in allowed):
                        raise ValidationError(f"action out of range at stage {t}")
                    per_out.append(allowed)
                per_prev.append(tuple(per_out))
            feas.append(tuple(per_prev))
        object.__setattr__(self, "feasible", tuple(feas))

    @property
    def horizon(self) -> int:
        return len(self.n_actions)

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


class _StageActions(Mapping):
    """Read-only node -> action view over flat per-stage action arrays.

    ``stages[t][k]`` is the action at the k-th stage-t node in C order. Keys
    come stage by stage, each stage in C order; a key past the horizon or
    with a component out of range is missing.
    """

    __slots__ = ("_stages", "_sizes")

    def __init__(self, stages: tuple[np.ndarray, ...], stage_sizes: tuple[int, ...]):
        self._stages = stages
        self._sizes = stage_sizes

    def __getitem__(self, node) -> int:
        if not isinstance(node, tuple) or len(node) >= len(self._stages):
            raise KeyError(node)
        k = 0
        for xi, s in zip(node, self._sizes[1:]):
            if not 0 <= xi < s:
                raise KeyError(node)
            k = k * s + xi
        return int(self._stages[len(node)][k])

    def __iter__(self):
        for t in range(len(self._stages)):
            yield from _stage_nodes(self._sizes, t)

    def __len__(self) -> int:
        return sum(a.size for a in self._stages)

    def items(self):
        return _StageItems(self)

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):
        return _StageActions, (self._stages, self._sizes)


class _StageItems(ItemsView):
    """Items of a ``_StageActions``, read off the arrays in key order rather
    than looked up key by key."""

    def __iter__(self):
        stages = self._mapping._stages
        return zip(self._mapping, itertools.chain.from_iterable(a.tolist() for a in stages))


@dataclass(frozen=True)
class Policy:
    """Action per history node: key ``()`` for stage 0, ``(xi_1, ..., xi_t)``
    for the stage-t node reached by those outcomes.

    ``actions`` is any mapping: policy enumeration builds dicts, and
    ``solve_dp`` a read-only view over one flat action array per stage, in
    C order.
    """

    actions: Mapping[tuple[int, ...], int]

    def action(self, history: tuple[int, ...]) -> int:
        return self.actions[history]

    def validate(self, prob: MultistageProblem) -> None:
        """Raises at the shallowest node whose action is missing or not
        allowed after its parent's action."""
        _checked_actions(prob, self)


def _checked_actions(prob: MultistageProblem, pi: Policy) -> list[list[int]]:
    """The policy's actions stage by stage, each stage in C order, looking up
    every node once and checking it against its parent's action."""
    first = pi.actions.get(())
    if first is None or first not in prob.allowed(0, 0, 0):
        raise ValidationError("infeasible or missing first-stage action")
    stages = [[first]]
    for t in range(1, prob.horizon):
        s, prev, acts = prob.stage_sizes[t], stages[-1], []
        for k, node in enumerate(_stage_nodes(prob.stage_sizes, t)):
            a = pi.actions.get(node)
            if a is None or a not in prob.allowed(t, prev[k // s], node[-1]):
                raise ValidationError(f"policy infeasible at node {node}")
            acts.append(a)
        stages.append(acts)
    return stages


@dataclass(frozen=True)
class ValueFunctions:
    """Backward tables: ``V[t][x_prev, outcome]`` and ``calV[t][x_prev]``
    (the worst-case continuation; ``calV[T]`` is identically zero)."""

    V: tuple[np.ndarray, ...]
    calV: tuple[np.ndarray, ...]

    def bellman_residual(self, prob: MultistageProblem) -> float:
        worst = 0.0
        for t in range(prob.horizon):
            n_prev = 1 if t == 0 else prob.n_actions[t - 1]
            for xp in range(n_prev):
                for xi in range(prob.stage_sizes[t]):
                    best = min(
                        prob.costs[t][a, xi] + self.calV[t + 1][a]
                        for a in prob.allowed(t, xp, xi)
                    )
                    worst = max(worst, abs(best - self.V[t][xp, xi]))
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
    array in one indexing step, with no per-node Python. The arrays are flat,
    not shaped by the stage sizes, because numpy caps arrays at 64
    dimensions and deep chains (1500 stages in the tests) must work.
    """
    T = prob.horizon
    calV: list[Optional[np.ndarray]] = [None] * (T + 1)
    calV[0] = np.zeros(0)  # stage 0 has no continuation table
    calV[T] = np.zeros(prob.n_actions[T - 1])
    V: list[Optional[np.ndarray]] = [None] * T
    argmin: list[Optional[np.ndarray]] = [None] * T
    for t in range(T - 1, -1, -1):
        n_prev = 1 if t == 0 else prob.n_actions[t - 1]
        V[t] = np.empty((n_prev, prob.stage_sizes[t]))
        argmin[t] = np.empty((n_prev, prob.stage_sizes[t]), dtype=int)
        for xp in range(n_prev):
            for xi in range(prob.stage_sizes[t]):
                best, best_a = np.inf, -1
                for a in prob.allowed(t, xp, xi):  # ascending: ties keep smallest
                    val = prob.costs[t][a, xi] + calV[t + 1][a]
                    if val < best:
                        best, best_a = val, a
                V[t][xp, xi] = best
                argmin[t][xp, xi] = best_a
        if t >= 1:
            calV[t], _ = worst_case(prob.stage_sets[t], V[t])

    # stage by stage, each node follows the argmin of its parent's action:
    # node k of stage t has parent k // s_t and last outcome k % s_t
    stages = [argmin[0][0]]
    for t in range(1, T):
        prev, s = stages[-1], prob.stage_sizes[t]
        stages.append(argmin[t][np.repeat(prev, s), np.tile(np.arange(s), prev.size)])
    for a in stages:
        a.flags.writeable = False
    policy = Policy(_StageActions(tuple(stages), prob.stage_sizes))
    vf = ValueFunctions(V=tuple(V), calV=tuple(calV))
    return DpSolution(value=float(V[0][0, 0]), policy=policy, value_functions=vf)


def policy_cost_array(prob: MultistageProblem, pi: Policy) -> np.ndarray:
    """Total cost of the policy per scenario, on the random-stage grid.

    Each scenario's total adds its first-stage cost, then its stage costs in
    stage order, so it is rounded exactly like the sum along its path.
    """
    stages = _checked_actions(prob, pi)
    totals = [float(prob.costs[0][stages[0][0], 0])]
    for t in range(1, prob.horizon):
        s, cost = prob.stage_sizes[t], prob.costs[t].tolist()
        totals = [totals[k // s] + cost[a][k % s] for k, a in enumerate(stages[t])]
    shape = prob.scenario_shape()
    return np.array(totals).reshape(shape) if shape else np.array(totals)


def nested_policy_value(prob: MultistageProblem, pi: Policy) -> float:
    """Stagewise worst-case value of the policy's cost profile."""
    cost = policy_cost_array(prob, pi)
    if prob.horizon == 1:
        return float(cost[0])
    return rectangular_nested(prob.random_spec(), cost).value


def static_policy_value(prob: MultistageProblem, pi: Policy) -> float:
    """Worst case of the policy's cost over product measures; never exceeds
    the nested value."""
    cost = policy_cost_array(prob, pi)
    if prob.horizon == 1:
        return float(cost[0])
    return static_rectangular(prob.random_spec(), cost).value


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

    Subtree tables are built backwards, stage by stage, for every node and
    prior action some policy reaches; the stage-0 tables are then yielded one
    at a time. Order: first-stage actions ascending, then the product of the
    child subtrees with the last outcome varying fastest.
    """
    total = count_policies(prob)
    if total > _POLICY_CAP:
        raise ValidationError(f"{total} policies exceed the enumeration cap {_POLICY_CAP}")
    T = prob.horizon
    # reached[t]: stage-t node -> prior actions it can be reached with
    reached: list[dict[tuple[int, ...], set[int]]] = [{(): {0}}]
    for t in range(1, T):
        nodes: dict[tuple[int, ...], set[int]] = {}
        for node, priors in reached[-1].items():
            outcome = node[-1] if node else 0
            acts = {a for xp in priors for a in prob.allowed(t - 1, xp, outcome)}
            for xi in range(prob.stage_sizes[t]):
                nodes[node + (xi,)] = acts
        reached.append(nodes)

    def tables(t, node, xp, below):
        outcome = node[-1] if t > 0 else 0
        for a in prob.allowed(t, xp, outcome):
            if t + 1 >= T:
                yield {node: a}
                continue
            child_opts = [below[node + (xi,), a] for xi in range(prob.stage_sizes[t + 1])]
            for combo in itertools.product(*child_opts):
                d = {node: a}
                for sub in combo:
                    d.update(sub)
                yield d

    below: dict = {}
    for t in range(T - 1, 0, -1):
        below = {
            (node, xp): list(tables(t, node, xp, below))
            for node, priors in reached[t].items()
            for xp in priors
        }
    for table in tables(0, (), 0, below):
        yield Policy(table)


@dataclass(frozen=True)
class MinComparison:
    """Exhaustive comparison of the two policy-optimization problems."""

    min_static: float
    min_nested: float
    argmin_static: Policy
    argmin_nested: Policy
    holds: bool  # min_static <= min_nested + 1e-9
    argmins_differ: bool


def compare_min_static_vs_min_nested(prob: MultistageProblem) -> MinComparison:
    best_s, best_n = np.inf, np.inf
    arg_s = arg_n = None
    for pi in enumerate_policies(prob):
        s = static_policy_value(prob, pi)
        v = nested_policy_value(prob, pi)
        if s < best_s - 1e-12:
            best_s, arg_s = s, pi
        if v < best_n - 1e-12:
            best_n, arg_n = v, pi
    return MinComparison(
        min_static=best_s,
        min_nested=best_n,
        argmin_static=arg_s,
        argmin_nested=arg_n,
        holds=best_s <= best_n + 1e-9,
        argmins_differ=dict(arg_s.actions) != dict(arg_n.actions),
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


#: Value gap up to which a policy counts as optimal and an action as an argmin.
_OPTIMALITY_TOL = 1e-9


def verify_optimality_necessity(prob: MultistageProblem) -> NecessityReport:
    sol = solve_dp(prob)
    sufficiency = abs(nested_policy_value(prob, sol.policy) - sol.value) <= _OPTIMALITY_TOL
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
    calV = vf.calV
    violations: list[str] = []
    optimal = 0
    for pi in enumerate_policies(prob):
        if nested_policy_value(prob, pi) > sol.value + _OPTIMALITY_TOL:
            continue
        optimal += 1
        stages = _checked_actions(prob, pi)
        for t in range(prob.horizon):
            s = prob.stage_sizes[t]
            for k, node in enumerate(_stage_nodes(prob.stage_sizes, t)):
                a, outcome = stages[t][k], k % s
                xp = stages[t - 1][k // s] if t > 0 else 0  # single prior state at stage 0
                cell = prob.costs[t][a, outcome] + calV[t + 1][a]
                best = vf.V[t][xp, outcome]
                if cell > best + _OPTIMALITY_TOL:
                    violations.append(
                        f"node {node}: action {a} off the argmin by {cell - best:.3g}"
                    )
    return NecessityReport(
        checked=True,
        sufficiency_ok=sufficiency,
        optimal_policies=optimal,
        violations=tuple(sorted(set(violations))),
    )
