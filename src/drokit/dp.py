"""Multistage worst-case optimization via dynamic programming.

Stages are indexed ``0..T-1``; stage 0 is deterministic (a single outcome).
Actions and outcomes are finite explicit sets so that every optimality claim
is exactly checkable: the backward recursion alternates a minimization over
feasible actions with a worst-case expectation over the next stage's marginal
ambiguity set, and an exhaustive policy-enumeration oracle validates the
optimal value on small instances.

Two ways of pricing a fixed policy coexist: the nested (stagewise) value,
which the recursion optimizes, and the static worst case over product
measures, which is never larger. Minimizing the static value over policies
cannot be decomposed stagewise; the module only compares the two optima.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

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


@dataclass(frozen=True)
class Policy:
    """Action per history node: key ``()`` for stage 0, ``(xi_1, ..., xi_t)``
    for the stage-t node reached by those outcomes."""

    actions: Mapping[tuple[int, ...], int]

    def action(self, history: tuple[int, ...]) -> int:
        return self.actions[history]

    def validate(self, prob: MultistageProblem) -> None:
        x_prev = self.actions.get(())
        if x_prev is None or x_prev not in prob.allowed(0, 0, 0):
            raise ValidationError("infeasible or missing first-stage action")
        for hist in itertools.product(*[range(s) for s in prob.scenario_shape()]):
            xp = self.actions[()]
            for t in range(1, prob.horizon):
                node = hist[: t]
                a = self.actions.get(node)
                if a is None or a not in prob.allowed(t, xp, hist[t - 1]):
                    raise ValidationError(f"policy infeasible at node {node}")
                xp = a


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
    """Backward induction with smallest-index tie-breaking in the argmin."""
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

    # stage by stage, each node follows the argmin of its parent's action
    actions: dict[tuple[int, ...], int] = {(): int(argmin[0][0, 0])}
    for t in range(1, T):
        rule = argmin[t].tolist()
        for node in itertools.product(*[range(s) for s in prob.stage_sizes[1 : t + 1]]):
            actions[node] = rule[actions[node[:-1]]][node[-1]]
    policy = Policy(actions)
    vf = ValueFunctions(V=tuple(V), calV=tuple(calV))
    return DpSolution(value=float(V[0][0, 0]), policy=policy, value_functions=vf)


def policy_cost_array(prob: MultistageProblem, pi: Policy) -> np.ndarray:
    """Total cost of the policy per scenario, on the random-stage grid."""
    pi.validate(prob)
    shape = prob.scenario_shape()
    out = np.empty(shape if shape else (1,))
    first_cost = prob.costs[0][pi.action(()), 0]
    if not shape:
        return np.array([first_cost])
    for hist in itertools.product(*[range(s) for s in shape]):
        total = first_cost
        for t in range(1, prob.horizon):
            total += prob.costs[t][pi.action(hist[:t]), hist[t - 1]]
        out[hist] = total
    return out


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
    T = prob.horizon

    def subtree(t: int, outcome: int, xp: int) -> int:
        total = 0
        for a in prob.allowed(t, xp, outcome):
            prod = 1
            if t + 1 < T:
                for xi in range(prob.stage_sizes[t + 1]):
                    prod *= subtree(t + 1, xi, a)
            total += prod
        return total

    return subtree(0, 0, 0)


def enumerate_policies(prob: MultistageProblem, cap: int = 10**5):
    """Yield every feasible policy; raises when the count exceeds the cap."""
    total = count_policies(prob)
    if total > cap:
        raise ValidationError(f"{total} policies exceed the enumeration cap {cap}")
    T = prob.horizon

    def assignments(t: int, node: tuple[int, ...], xp: int):
        outcome = node[-1] if t > 0 else 0
        for a in prob.allowed(t, xp, outcome):
            if t + 1 >= T:
                yield {node: a}
                continue
            child_opts = [
                list(assignments(t + 1, node + (xi,), a))
                for xi in range(prob.stage_sizes[t + 1])
            ]
            for combo in itertools.product(*child_opts):
                d = {node: a}
                for sub in combo:
                    d.update(sub)
                yield d

    for table in assignments(0, (), 0):
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


def compare_min_static_vs_min_nested(
    prob: MultistageProblem, cap: int = 10**5
) -> MinComparison:
    best_s, best_n = np.inf, np.inf
    arg_s = arg_n = None
    for pi in enumerate_policies(prob, cap):
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


def verify_optimality_necessity(
    prob: MultistageProblem, cap: int = 10**5, tol: float = 1e-9
) -> NecessityReport:
    sol = solve_dp(prob)
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
    calV = vf.calV
    violations: list[str] = []
    optimal = 0
    for pi in enumerate_policies(prob, cap):
        if nested_policy_value(prob, pi) > sol.value + tol:
            continue
        optimal += 1
        for hist in itertools.product(*[range(s) for s in prob.scenario_shape()]):
            xp = 0  # single prior state at stage 0
            for t in range(prob.horizon):
                node = hist[:t] if t > 0 else ()
                outcome = hist[t - 1] if t > 0 else 0
                a = pi.action(node)
                cell = prob.costs[t][a, outcome] + calV[t + 1][a]
                best = vf.V[t][xp, outcome]
                if cell > best + tol:
                    violations.append(
                        f"node {node}: action {a} off the argmin by {cell - best:.3g}"
                    )
                xp = a
    return NecessityReport(
        checked=True,
        sufficiency_ok=sufficiency,
        optimal_policies=optimal,
        violations=tuple(sorted(set(violations))),
    )
