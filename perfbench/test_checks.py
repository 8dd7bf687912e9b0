"""Tests of the benchmark's own checker: each check passes drokit's true
output and rejects it once one number is changed.

Run from the repository root::

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from drokit.rng import Rng  # noqa: E402

KINDS = ("avar", "moment", "finite", "wass")


def _static(kind: str, n: int = 8):
    rng = Rng(7)
    op = W._static_op(kind, W.gen_set(rng, kind, n), rng.uniforms(n, -1.0, 1.0))
    return op, op.run()


def test_static_value_and_measure_are_checked():
    for kind in KINDS:
        op, (value, q) = _static(kind)
        assert op.check(checks, (value, q)) == [], kind
        assert op.check(checks, (value + 1e-5, q)), f"{kind}: changed value accepted"
        w = q.weights.copy()
        top, low = int(np.argmax(w)), int(np.argmin(w))
        w[top], w[low] = w[top] - 1e-3, w[low] + 1e-3
        moved = SimpleNamespace(weights=w)
        assert op.check(checks, (value, moved)), f"{kind}: changed measure accepted"


def test_atom_values_are_checked():
    rng = Rng(11)
    for kind in KINDS:
        n = 9
        S, z = W.gen_set(rng, kind, n), rng.uniforms(n, -1.0, 1.0)
        op = W._conditional_op(kind, S, z, W.gen_partition(rng, n, 3))
        out = op.run()
        assert op.check(checks, out) == [], kind
        values = list(out.atom_values)
        values[1] += 1e-5
        assert op.check(checks, SimpleNamespace(atom_values=tuple(values))), kind


def test_reference_measure_is_checked():
    rng = Rng(5)
    for kind in KINDS:
        S = W.gen_set(rng, kind, 6)
        op = W._reference_op(kind, S, 6)
        out = op.run()
        assert op.check(checks, out) == [], kind
        mu = out.mu.weights.copy()
        mu[2] *= 0.99
        bad = SimpleNamespace(mu=SimpleNamespace(weights=mu), normalized=out.normalized)
        assert op.check(checks, bad), kind


def test_dp_value_and_policy_are_checked():
    op = W._dp_op(Rng(3), 4, ("avar", "moment", "finite"))
    sol = op.run()
    assert op.check(checks, sol) == []
    changed = SimpleNamespace(value=sol.value + 1e-5, policy=sol.policy)
    assert op.check(checks, changed), "changed DP value accepted"
    actions = dict(sol.policy.actions)
    node = max(actions, key=len)
    actions[node] = (actions[node] + 1) % 6
    bad = SimpleNamespace(value=sol.value, policy=SimpleNamespace(actions=actions))
    assert op.check(checks, bad), "changed DP policy accepted"


def test_small_problem_has_144_policies():
    prob = W.gen_small_problem(Rng(4))
    assert sum(1 for _ in checks.all_policies(prob)) == 144
    assert sum(1 for _ in W.dp.enumerate_policies(W.to_problem(prob))) == 144


def test_nested_tables_are_checked():
    op = W._nested_op(Rng(2), "moment", 4, 3)
    out = op.run()
    assert op.check(checks, out) == []
    tables = [t.copy() for t in out.tables]
    tables[2][1, 1] += 1e-5
    assert op.check(checks, SimpleNamespace(value=out.value, tables=tables))


def test_cli_report_numbers_are_checked():
    ops = {op.name: op for op in W.build_selfcheck(ROOT) if not op.name.startswith("verify.")}
    op = ops["eval-static static_examples.json --rv jump --set pinned_ball"]
    code, text = op.run()
    assert op.check(checks, (code, text)) == []
    doc = json.loads(text)
    doc["results"]["value"] += 1e-5
    assert op.check(checks, (code, json.dumps(doc)))


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == dict(spans.metric_names() + [("traced.run_s", "s")])
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
