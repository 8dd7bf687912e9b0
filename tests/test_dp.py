"""Dynamic-programming solver tests with an exhaustive-enumeration oracle."""

import itertools
import pickle

import numpy as np
import pytest

import drokit.composite as composite
import drokit.dp as dp
from drokit.ambiguity import FiniteFamily
from drokit.composite import rectangular_nested, static_rectangular
from drokit.dp import (
    MultistageProblem,
    Policy,
    compare_min_static_vs_min_nested,
    count_policies,
    enumerate_policies,
    enumeration_value,
    nested_policy_value,
    policy_cost_array,
    solve_dp,
    static_policy_value,
    verify_optimality_necessity,
)
from drokit.rng import Rng
from drokit.spaces import DiscreteMeasure, ValidationError
from drokit.verify import rand_ambiguity_set


def full_simplex(n):
    return FiniteFamily(tuple(DiscreteMeasure.point_mass(n, i) for i in range(n)))


def all_actions(n_prev, n_out, n_act):
    return tuple(
        tuple(tuple(range(n_act)) for _ in range(n_out)) for _ in range(n_prev)
    )


def carried_action(n_prev, n_out):
    """Stage forced to repeat the previous action."""
    return tuple(tuple((xp,) for _ in range(n_out)) for xp in range(n_prev))


def witness_problem():
    """min_static < min_nested with differing argmin policies."""
    simplex2 = full_simplex(2)
    unif2 = FiniteFamily((DiscreteMeasure([0.5, 0.5]),))
    return MultistageProblem(
        n_actions=(1, 2, 2),
        stage_sizes=(1, 2, 2),
        stage_sets=(None, unif2, simplex2),
        costs=(
            np.zeros((1, 1)),
            np.zeros((2, 2)),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
        ),
        feasible=((0,), all_actions(1, 2, 2), carried_action(2, 2)),
    )


def random_problem(rng, strictly_monotone=False):
    T = 2 + rng.randint(2)
    n_actions = tuple(1 + rng.randint(2) for _ in range(T))
    stage_sizes = (1,) + tuple(2 + rng.randint(1) for _ in range(T - 1))
    stage_sets = [None]
    for t in range(1, T):
        members = []
        for _ in range(1 + rng.randint(2)):
            w = rng.simplex(stage_sizes[t])
            if strictly_monotone:
                w = 0.7 * w + 0.3 / stage_sizes[t]  # bounded away from zero
            members.append(DiscreteMeasure(w))
        stage_sets.append(FiniteFamily(tuple(members)))
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
                per_out.append(tuple(sorted(rng.shuffled(list(range(n_actions[t])))[:k])))
            per_prev.append(tuple(per_out))
        feasible.append(tuple(per_prev))
    return MultistageProblem(
        n_actions=n_actions,
        stage_sizes=stage_sizes,
        stage_sets=tuple(stage_sets),
        costs=costs,
        feasible=tuple(feasible),
    )


def test_one_stage_deterministic():
    prob = MultistageProblem(
        n_actions=(3,),
        stage_sizes=(1,),
        stage_sets=(None,),
        costs=(np.array([[2.0], [0.5], [1.0]]),),
        feasible=((0, 1, 2),),
    )
    sol = solve_dp(prob)
    assert sol.value == pytest.approx(0.5)
    assert sol.policy.actions[()] == 1


def test_two_stage_full_simplex_worst_child():
    prob = MultistageProblem(
        n_actions=(2, 2),
        stage_sizes=(1, 2),
        stage_sets=(None, full_simplex(2)),
        costs=(np.array([[0.0], [0.1]]), np.array([[1.0, 3.0], [2.0, 2.1]])),
        feasible=((0, 1), all_actions(2, 2, 2)),
    )
    sol = solve_dp(prob)
    # worst-case child of each stage-1 action: min over a of max over xi
    best = min(
        c0 + max(min(prob.costs[1][a, xi] for a in range(2)) for xi in range(2))
        for c0 in (0.0, 0.1)
    )
    assert sol.value == pytest.approx(best)
    # oracle: exhaustive policies
    oracle = min(nested_policy_value(prob, pi) for pi in enumerate_policies(prob))
    assert sol.value == pytest.approx(oracle, abs=1e-9)


def test_relatively_complete_recourse_validated():
    with pytest.raises(ValidationError):
        MultistageProblem(
            n_actions=(1, 1),
            stage_sizes=(1, 2),
            stage_sets=(None, full_simplex(2)),
            costs=(np.zeros((1, 1)), np.zeros((1, 2))),
            feasible=((0,), (((0,), ()),)),  # empty action list at one node
        )


def two_action_problem(first):
    """Two stages, 2 actions, 2 outcomes; both first actions are optimal with
    one best continuation each."""
    return MultistageProblem(
        n_actions=(2, 2),
        stage_sizes=(1, 2),
        stage_sets=(None, FiniteFamily([[0.5, 0.5]])),
        costs=(np.zeros((2, 1)), np.array([[0.0, 0.0], [1.0, 1.0]])),
        feasible=(first, (((0, 1), (0, 1)), ((0, 1), (0, 1)))),
    )


def test_repeated_action_rejected():
    prob = two_action_problem((0, 1))
    assert count_policies(prob) == len(list(enumerate_policies(prob))) == 8
    assert verify_optimality_necessity(prob).optimal_policies == 2
    # a repeat would count, enumerate and report policy 0 twice
    with pytest.raises(ValidationError, match=r"repeated action at stage 0"):
        two_action_problem((0, 0, 1))
    with pytest.raises(ValidationError, match=r"repeated action at stage 1, prior action 1, outcome 0"):
        MultistageProblem(
            n_actions=(2, 2),
            stage_sizes=(1, 2),
            stage_sets=(None, FiniteFamily([[0.5, 0.5]])),
            costs=(np.zeros((2, 1)), np.zeros((2, 2))),
            feasible=((0, 1), (((0, 1), (0, 1)), ((1, 1), (0, 1)))),
        )


def test_non_finite_cost_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="must be finite"):
            MultistageProblem(
                n_actions=(2,),
                stage_sizes=(1,),
                stage_sets=(None,),
                costs=(np.array([[bad], [1.0]]),),
                feasible=((0, 1),),
            )


def test_dp_matches_enumeration_randomized():
    rng = Rng(211)
    for _ in range(15):
        prob = random_problem(rng)
        sol = solve_dp(prob)
        oracle = min(nested_policy_value(prob, pi) for pi in enumerate_policies(prob))
        assert sol.value == pytest.approx(oracle, abs=1e-9)
        assert nested_policy_value(prob, sol.policy) == pytest.approx(sol.value, abs=1e-9)
        assert sol.value_functions.bellman_residual(prob) <= 1e-9


def test_singleton_marginals_reduce_to_risk_neutral():
    rng = Rng(223)
    for _ in range(5):
        T = 2 + rng.randint(2)
        sizes = (1,) + tuple(2 for _ in range(T - 1))
        ps = [DiscreteMeasure(rng.simplex(2)) for _ in range(T - 1)]
        prob = MultistageProblem(
            n_actions=tuple(2 for _ in range(T)),
            stage_sizes=sizes,
            stage_sets=(None,) + tuple(FiniteFamily((p,)) for p in ps),
            costs=tuple(
                np.array([[rng.uniform(-1, 1) for _ in range(sizes[t])] for _ in range(2)])
                for t in range(T)
            ),
            feasible=(tuple(range(2)),)
            + tuple(all_actions(2, sizes[t], 2) for t in range(1, T)),
        )
        sol = solve_dp(prob)
        # classical expected-cost enumeration
        best = np.inf
        for pi in enumerate_policies(prob):
            cost = policy_cost_array(prob, pi)
            e = cost
            for p in reversed(ps):
                e = e @ p.weights
            best = min(best, float(e))
        assert sol.value == pytest.approx(best, abs=1e-9)
        for pi in enumerate_policies(prob):
            assert static_policy_value(prob, pi) == pytest.approx(
                nested_policy_value(prob, pi), abs=1e-9
            )


def test_static_never_exceeds_nested():
    rng = Rng(227)
    for _ in range(10):
        prob = random_problem(rng)
        for pi in enumerate_policies(prob):
            assert static_policy_value(prob, pi) <= nested_policy_value(prob, pi) + 1e-9


def test_witness_gap_and_argmins():
    prob = witness_problem()
    cmp = compare_min_static_vs_min_nested(prob)
    assert cmp.holds
    assert cmp.min_nested - cmp.min_static >= 1e-3
    assert cmp.argmins_differ
    assert cmp.min_static == pytest.approx(0.5)
    assert cmp.min_nested == pytest.approx(1.0)


def test_min_comparison_randomized():
    rng = Rng(229)
    for _ in range(8):
        prob = random_problem(rng)
        cmp = compare_min_static_vs_min_nested(prob)
        assert cmp.holds


def test_min_comparison_and_optimality_in_the_units_of_the_costs():
    """With costs scaled by 1e8 the two optima and the solver's own policy
    agree with the DP value to rounding in those units, not to 1e-9."""
    rng = Rng(3)
    every = ((tuple(range(2)),) * 2,) * 2
    for _ in range(40):
        sets = (None,) + tuple(
            FiniteFamily([rng.simplex(2) for _ in range(2)]) for _ in (1, 2)
        )
        costs = (1e8 * rng.uniforms(2, -1.0, 1.0).reshape(2, 1),) + tuple(
            1e8 * rng.uniforms(4, -1.0, 1.0).reshape(2, 2) for _ in (1, 2)
        )
        prob = MultistageProblem((2, 2, 2), (1, 2, 2), sets, costs, ((0, 1), every, every))
        assert compare_min_static_vs_min_nested(prob).holds
        report = verify_optimality_necessity(prob)
        assert report.sufficiency_ok and not report.violations


def test_policy_count_cap(monkeypatch):
    monkeypatch.setattr(dp, "_POLICY_CAP", 3)
    prob = witness_problem()
    assert count_policies(prob) == 4
    with pytest.raises(ValidationError):
        list(enumerate_policies(prob))


def test_necessity_on_strictly_monotone_instances():
    rng = Rng(233)
    for _ in range(6):
        prob = random_problem(rng, strictly_monotone=True)
        rep = verify_optimality_necessity(prob)
        assert rep.checked
        assert rep.sufficiency_ok
        assert rep.optimal_policies >= 1
        assert rep.violations == ()


def test_necessity_gate_on_full_simplex():
    prob = witness_problem()  # full-simplex stage kills strict monotonicity
    rep = verify_optimality_necessity(prob)
    assert not rep.checked
    assert rep.sufficiency_ok


def test_weak_duality_exchange():
    """max over product vertices of min-over-policies <= min over policies of
    the static worst case."""
    rng = Rng(239)
    for _ in range(6):
        prob = random_problem(rng)
        policies = list(enumerate_policies(prob))
        spec = prob.random_spec()
        vertex_tuples = list(itertools.product(*[f.measures for f in spec.stage_sets]))
        outer = -np.inf
        for combo in vertex_tuples:
            inner = np.inf
            for pi in policies:
                cost = policy_cost_array(prob, pi)
                e = cost
                for q in reversed(combo):
                    e = e @ q.weights
                inner = min(inner, float(e))
            outer = max(outer, inner)
        min_static = min(static_policy_value(prob, pi) for pi in policies)
        assert outer <= min_static + 1e-9


def test_policy_validation():
    prob = witness_problem()
    with pytest.raises(ValidationError):
        Policy.from_actions(
            prob, {(): 0, (0,): 0, (1,): 0, (0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0}
        )


def test_policy_helpers_on_deep_chain():
    """One action and one outcome per stage for 1500 stages: exactly one
    policy, counted and enumerated without recursing once per stage."""
    T = 1500
    certain = FiniteFamily((DiscreteMeasure([1.0]),))
    prob = MultistageProblem(
        n_actions=(1,) * T,
        stage_sizes=(1,) * T,
        stage_sets=(None,) + (certain,) * (T - 1),
        costs=(np.ones((1, 1)),) * T,
        feasible=((0,),) + (carried_action(1, 1),) * (T - 1),
    )
    assert solve_dp(prob).value == pytest.approx(1500.0)
    assert count_policies(prob) == 1
    (pi,) = list(enumerate_policies(prob))
    actions = pi.actions
    assert len(actions) == T
    assert actions[(0,) * (T - 1)] == 0


def mixed_problem(rng):
    """Random problem with T = 1..6 and stage sizes mixed between 1 and 4."""
    T = 1 + rng.randint(6)
    n_actions = tuple(1 + rng.randint(3) for _ in range(T))
    stage_sizes = (1,) + tuple(1 + rng.randint(4) for _ in range(T - 1))
    stage_sets = (None,) + tuple(
        FiniteFamily(tuple(DiscreteMeasure(rng.simplex(s)) for _ in range(2)))
        for s in stage_sizes[1:]
    )
    costs = tuple(
        rng.uniforms(n_actions[t] * stage_sizes[t], -1.0, 1.0).reshape(n_actions[t], stage_sizes[t])
        for t in range(T)
    )
    feasible = [tuple(range(n_actions[0]))] + [
        tuple(
            tuple(
                tuple(sorted(rng.shuffled(list(range(n_actions[t])))[: 1 + rng.randint(n_actions[t])]))
                for _ in range(stage_sizes[t])
            )
            for _ in range(n_actions[t - 1])
        )
        for t in range(1, T)
    ]
    return MultistageProblem(n_actions, stage_sizes, stage_sets, costs, tuple(feasible))


def per_node_extraction(prob, vf):
    """The optimal policy as a dict built node by node, each node following
    the smallest argmin of its parent's action."""
    rules = [
        [
            [
                min(prob.allowed(t, xp, xi), key=lambda a: prob.costs[t][a, xi] + vf.calV[t + 1][a])
                for xi in range(prob.stage_sizes[t])
            ]
            for xp in range(1 if t == 0 else prob.n_actions[t - 1])
        ]
        for t in range(prob.horizon)
    ]
    actions = {(): rules[0][0][0]}
    for t in range(1, prob.horizon):
        rule = rules[t]
        for node in itertools.product(*[range(s) for s in prob.stage_sizes[1 : t + 1]]):
            actions[node] = rule[actions[node[:-1]]][node[-1]]
    return actions


def triple_loop_minima(prob, calV):
    """``V[t][x_prev, outcome]`` as the minimum over the allowed actions, one
    action at a time."""
    return [
        np.array(
            [
                [
                    min(prob.costs[t][a, xi] + calV[t + 1][a] for a in prob.allowed(t, xp, xi))
                    for xi in range(prob.stage_sizes[t])
                ]
                for xp in range(1 if t == 0 else prob.n_actions[t - 1])
            ]
        )
        for t in range(prob.horizon)
    ]


def deep_chain(T):
    certain = FiniteFamily((DiscreteMeasure([1.0]),))
    return MultistageProblem(
        n_actions=(1,) * T,
        stage_sizes=(1,) * T,
        stage_sets=(None,) + (certain,) * (T - 1),
        costs=(np.ones((1, 1)),) * T,
        feasible=((0,),) + (carried_action(1, 1),) * (T - 1),
    )


def test_stage_array_policy_matches_per_node_extraction():
    rng = Rng(241)
    problems = [mixed_problem(rng) for _ in range(40)] + [deep_chain(1500)]
    assert {p.horizon for p in problems} >= {1, 6, 1500}
    for prob in problems:
        sol = solve_dp(prob)
        vf = sol.value_functions
        assert all((v == m).all() for v, m in zip(vf.V, triple_loop_minima(prob, vf.calV)))
        assert vf.bellman_residual(prob) == 0.0
        actions, ref = sol.policy.actions, per_node_extraction(prob, vf)
        assert type(actions) is dict and actions is not sol.policy.actions
        items = list(actions.items())
        assert items == list(ref.items())
        assert all(type(a) is int for _, a in items)
        assert len(actions) == len(ref)
        assert all(node in actions for node in ref)
        T, sizes = prob.horizon, prob.stage_sizes
        missing = [(0,) * T, (-1,) + (0,) * (T - 2), "root", 0]
        if T > 1:
            missing.append((sizes[1],) + (0,) * (T - 2))
        for node in missing:
            assert node not in actions
            assert actions.get(node) is None
            with pytest.raises(KeyError):
                actions[node]
        assert pickle.loads(pickle.dumps(sol.policy)) == sol.policy
        assert pickle.dumps(sol.policy) == pickle.dumps(solve_dp(prob).policy)
        assert Policy.from_actions(prob, actions) == sol.policy


def test_from_actions_names_the_shallowest_offending_node():
    prob = witness_problem()  # stage 2 must repeat the stage-1 action
    actions = {(): 0, (0,): 0, (1,): 1, (0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}
    with pytest.raises(ValidationError, match=r"node \(1, 1\)"):
        Policy.from_actions(prob, actions)
    # (0, 0) breaks the rule too and comes first in scenario order
    actions = {(): 0, (0,): 0, (0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    with pytest.raises(ValidationError, match=r"node \(1,\)"):
        Policy.from_actions(prob, actions)


def per_node_enumeration(prob):
    """Every feasible policy as a dict built node by node: subtree tables for
    each node and prior action it can be reached with, merged child by child."""
    T = prob.horizon
    reached = [{(): {0}}]  # stage-t node -> prior actions it can be reached with
    for t in range(1, T):
        nodes = {}
        for node, priors in reached[-1].items():
            outcome = node[-1] if node else 0
            acts = {a for xp in priors for a in prob.allowed(t - 1, xp, outcome)}
            for xi in range(prob.stage_sizes[t]):
                nodes[node + (xi,)] = acts
        reached.append(nodes)

    def tables(t, node, xp, below):
        for a in prob.allowed(t, xp, node[-1] if t > 0 else 0):
            if t + 1 >= T:
                yield {node: a}
                continue
            child_opts = [below[node + (xi,), a] for xi in range(prob.stage_sizes[t + 1])]
            for combo in itertools.product(*child_opts):
                d = {node: a}
                for sub in combo:
                    d.update(sub)
                yield d

    below = {}
    for t in range(T - 1, 0, -1):
        below = {
            (node, xp): list(tables(t, node, xp, below))
            for node, priors in reached[t].items()
            for xp in priors
        }
    return list(tables(0, (), 0, below))


def test_enumeration_matches_per_node_dicts():
    rng = Rng(251)
    problems = [random_problem(rng) for _ in range(15)] + [mixed_problem(rng) for _ in range(40)]
    problems += [witness_problem(), deep_chain(1500)]
    for prob in problems:
        if count_policies(prob) > 5000:  # the reference takes ~0.2 ms a policy
            continue
        got = [dict(pi.actions) for pi in enumerate_policies(prob)]
        assert got == per_node_enumeration(prob)
        assert all(type(a) is int for d in got for a in d.values())


def test_pricing_a_solved_policy_reads_its_stage_arrays(monkeypatch):
    """Solving, enumerating and pricing never build the node -> action dict."""
    rng = Rng(257)
    probs = [mixed_problem(rng) for _ in range(10)] + [witness_problem()]

    def no_dict(self):
        raise AssertionError("Policy.actions read")

    monkeypatch.setattr(Policy, "actions", property(no_dict))
    for prob in probs:
        sol = solve_dp(prob)
        assert nested_policy_value(prob, sol.policy) == pytest.approx(sol.value, abs=1e-9)
        static_policy_value(prob, sol.policy)
        policy_cost_array(prob, sol.policy)
        if count_policies(prob) <= 5000:
            assert sum(1 for _ in enumerate_policies(prob)) == count_policies(prob)
            assert enumeration_value(prob) == pytest.approx(sol.value, abs=1e-9)
            compare_min_static_vs_min_nested(prob)
            verify_optimality_necessity(prob)


def test_min_comparison_builds_spec_and_costs_once(monkeypatch):
    """The spec and the cost stack of all policies are built once and scanned
    once, and no policy is priced on its own, whatever the stage families."""
    prob = mixed_family_problem(Rng(263), 3)
    assert {type(M).__name__ for M in prob.stage_sets[1:]} == {"MomentSet", "WassersteinBall"}
    assert count_policies(prob) > 1
    calls = {"random_spec": 0, "_cost_stack": 0, "_static_scan": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def per_policy(*args):
        raise AssertionError("a policy priced on its own")

    for owner, name in ((MultistageProblem, "random_spec"), (dp, "_cost_stack"), (dp, "_static_scan")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    for owner, name in ((dp, "policy_cost_array"), (composite, "rectangular_nested"),
                        (composite, "static_rectangular")):
        monkeypatch.setattr(owner, name, per_policy)
    compare_min_static_vs_min_nested(prob)
    assert calls == {"random_spec": 1, "_cost_stack": 1, "_static_scan": 1}


def per_node_costs(prob, pi):
    """A policy's cost per scenario, summed along each path node by node."""
    shape, actions = prob.scenario_shape(), pi.actions
    out = np.empty(shape or (1,))
    for scen in itertools.product(*[range(s) for s in shape]):
        total = float(prob.costs[0][actions[()], 0])
        for t in range(1, prob.horizon):
            total += prob.costs[t][actions[scen[:t]], scen[t - 1]]
        out[scen or 0] = total
    return out


def mixed_family_problem(rng, T):
    """Random problem of horizon T, each random stage's set drawn from the
    finite, AVaR, one-moment and ball families."""
    kinds = ("finite_family", "avar", "moment", "wasserstein")
    n_actions = tuple(1 + rng.randint(3) for _ in range(T))
    stage_sizes = (1,) + tuple(2 + rng.randint(2) for _ in range(T - 1))
    stage_sets = (None,) + tuple(
        rand_ambiguity_set(rng, s, kinds[rng.randint(4)]) for s in stage_sizes[1:]
    )
    costs = tuple(
        rng.uniforms(n_actions[t] * stage_sizes[t], -1.0, 1.0).reshape(n_actions[t], stage_sizes[t])
        for t in range(T)
    )
    feasible = [tuple(range(n_actions[0]))] + [
        tuple(
            tuple(
                tuple(sorted(rng.shuffled(list(range(n_actions[t])))[: 1 + rng.randint(2)]))
                for _ in range(stage_sizes[t])
            )
            for _ in range(n_actions[t - 1])
        )
        for t in range(1, T)
    ]
    return MultistageProblem(n_actions, stage_sizes, stage_sets, costs, tuple(feasible))


def argmin_scan(policies, values):
    """The first policy below every earlier best by over 1e-12."""
    best, arg = np.inf, None
    for pi, v in zip(policies, values):
        if v < best - 1e-12:
            best, arg = v, pi
    return best, arg


def test_batched_pricing_matches_per_policy_folds(monkeypatch):
    rng = Rng(281)
    problems = [mixed_family_problem(rng, 1 + rng.randint(3)) for _ in range(40)]
    problems += [random_problem(rng) for _ in range(10)]
    problems = [p for p in problems if count_policies(p) <= 100]
    assert {p.horizon for p in problems} >= {1, 2, 3}
    assert {type(M).__name__ for p in problems for M in p.stage_sets[1:]} == {
        "FiniteFamily", "AVaRSet", "MomentSet", "WassersteinBall"
    }
    for prob in problems:
        policies = list(enumerate_policies(prob))
        nested, static = [], []
        for pi in policies:
            cost = per_node_costs(prob, pi)
            assert policy_cost_array(prob, pi).tobytes() == cost.tobytes()
            if prob.horizon == 1:
                n_ref = s_ref = float(cost[0])
            else:
                spec = prob.random_spec()
                n_ref = rectangular_nested(spec, cost).value
                s_ref = static_rectangular(spec, cost).value
            # a stack of one gives the per-policy folds' bits
            assert nested_policy_value(prob, pi) == n_ref
            assert static_policy_value(prob, pi) == s_ref
            nested.append(n_ref)
            static.append(s_ref)
        tol = 1e-12 * prob.cost_scale
        costs = dp._cost_stack(prob, policies)
        assert np.abs(dp._nested_values(prob, costs) - nested).max() <= tol
        assert np.abs(dp._static_values(prob, costs) - static).max() <= tol
        cmp = compare_min_static_vs_min_nested(prob)
        (min_s, arg_s), (min_n, arg_n) = argmin_scan(policies, static), argmin_scan(policies, nested)
        assert abs(cmp.min_static - min_s) <= tol and abs(cmp.min_nested - min_n) <= tol
        assert cmp.argmin_static == arg_s and cmp.argmin_nested == arg_n
        assert enumeration_value(prob) == pytest.approx(min(nested), abs=tol)
        # stacks capped at one cell hold one policy each: the per-policy bits
        with monkeypatch.context() as m:
            m.setattr(dp, "_STACK_CELLS", 1)
            one = compare_min_static_vs_min_nested(prob)
            assert enumeration_value(prob) == min(nested)
        assert (one.min_static, one.min_nested) == (min_s, min_n)
        assert one.argmin_static == arg_s and one.argmin_nested == arg_n


def with_action(pi, t, k, a):
    """``pi``'s stage arrays with the k-th stage-t action replaced by ``a``."""
    stages = [s.copy() for s in pi.stages]
    stages[t][k] = a
    return Policy(tuple(stages), pi.stage_sizes)


def test_policies_built_from_arrays_are_checked_where_they_are_priced():
    prob = witness_problem()  # stage 2 must repeat the stage-1 action
    policies = list(enumerate_policies(prob))
    for pi in policies:
        assert Policy.from_actions(prob, pi.actions) == pi
        copy = Policy(tuple(a.copy() for a in pi.stages), prob.stage_sizes)
        assert nested_policy_value(prob, copy) == nested_policy_value(prob, pi)
    bad = with_action(policies[0], 2, 3, 1 - policies[0].stages[2][3])  # node (1, 1)
    with pytest.raises(ValidationError, match=r"policy infeasible at node \(1, 1\)"):
        dp._cost_stack(prob, [policies[1], bad])
    missing = policies[0].actions
    del missing[(1, 1)]
    with pytest.raises(ValidationError, match=r"node \(1, 1\)"):
        Policy.from_actions(prob, missing)
    # an action out of range would wrap around or overflow in the gathers
    for t, k, a, where in ((0, 0, -1, "first-stage"), (1, 1, 2, r"node \(1,\)"),
                           (2, 0, -1, r"node \(0, 0\)"), (2, 2, 2, r"node \(1, 0\)")):
        with pytest.raises(ValidationError, match=where):
            static_policy_value(prob, with_action(policies[0], t, k, a))
        with pytest.raises(ValidationError, match=where):
            dp._cost_stack(prob, policies[:2] + [with_action(policies[0], t, k, a)])
    short = Policy(policies[0].stages[:2], prob.stage_sizes[:2])
    with pytest.raises(ValidationError, match="stage sizes"):
        nested_policy_value(prob, short)


def test_policy_rejects_malformed_stage_arrays():
    sizes = (1, 2, 3)
    good = (np.zeros(1, np.int64), np.ones(2, np.uint8), np.zeros(6, np.intp))
    pi = Policy(list(good), list(sizes))
    assert all(a is b for a, b in zip(pi.stages, good)) and pi.stage_sizes == sizes
    assert not any(a.flags.writeable for a in good)
    assert pi == Policy(tuple(a.astype(int) for a in good), sizes)
    assert pi != Policy(good[:2] + (np.ones(6, int),), sizes) and pi != "policy"
    for stages in (
        good[:2],
        good + (np.zeros(6, int),),
        good[:2] + (np.zeros((2, 3), int),),
        good[:2] + (np.zeros(5, int),),
        good[:2] + (np.zeros(6),),
        good[:2] + (np.zeros(6, bool),),
        good[:2] + ([0] * 6,),
    ):
        with pytest.raises(ValidationError, match="stage"):
            Policy(stages, sizes)


def test_unpickled_policy_is_validated_and_read_only():
    pi = Policy((np.zeros(1, np.int64), np.array([1, 0], np.int64)), (1, 2))
    back = pickle.loads(pickle.dumps(pi))
    assert back == pi
    assert not any(a.flags.writeable for a in back.stages)
    with pytest.raises(ValueError, match="read-only"):
        back.stages[1][0] = 5
    blank = Policy.__new__(Policy)
    with pytest.raises(ValidationError, match="stage"):
        blank.__setstate__({"stages": (np.zeros(1, np.int64),), "stage_sizes": (1, 2)})


def test_solve_dp_policy_arrays_match_the_repeat_tile_extraction():
    rng = Rng(283)
    for kinds in (("avar",), ("moment", "finite_family"), ("finite_family", "avar")):
        T, sizes = 8, (1,) + (3,) * 7
        stage_sets = (None,) + tuple(rand_ambiguity_set(rng, 3, kinds[t % len(kinds)]) for t in range(7))
        costs = tuple(rng.uniforms(3 * s, -1.0, 1.0).reshape(3, s) for s in sizes)
        every = tuple(tuple((0, 1, 2) for _ in range(3)) for _ in range(3))
        prob = MultistageProblem((3,) * T, sizes, stage_sets, costs, ((0, 1, 2),) + (every,) * 7)
        sol = solve_dp(prob)
        argmin = [dp._bellman_step(prob, t, sol.value_functions.calV[t + 1])[1] for t in range(T)]
        want = [argmin[0][0]]
        for t in range(1, T):
            prev, s = want[-1], sizes[t]
            want.append(argmin[t][np.repeat(prev, s), np.tile(np.arange(s), prev.size)])
        got = sol.policy.stages
        assert [a.dtype for a in got] == [a.dtype for a in want]
        assert all((g == w).all() for g, w in zip(got, want))
        assert got[-1].size == 3**7
