"""Span tracing of drokit's public functions, installed from outside.

``Tracer.install`` wraps each function named in ``TRACED`` and rebinds every
module-level reference to it across ``drokit.*`` (the modules import names
directly, as in ``from .lp import solve``), plus the criterion table
``verify.CRITERIA``. ``Rng`` methods are wrapped on the class, and only the
outermost ``Rng`` call of a nest records a span. The untraced run installs
nothing.

A span holds a name, start, end, parent span, operation id, a family tag and
an amount (LP cells, atoms). Spans are kept in flat in-memory arrays and
written out at the end of the run; ``layer_metrics`` derives the per-layer
metrics from them. ``s`` is inclusive time (a call nested in a call of the
same function is not counted twice) and ``self_s`` excludes traced children.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: module -> functions to trace. ``amount`` gives a per-call count (summed
#: into ``lp.solve.cells`` and ``conditional.conditional_robust.atoms``);
#: ``family`` tags the span with the family of the set passed in.
TRACED = {
    "lp": {"solve": {"amount": lambda lp: lp.n_rows * lp.n_vars},
           "linear_fractional_max": {}},
    "ambiguity": {"robust_expectation": {"family": True}, "reference_measure": {},
                  "is_strictly_monotone": {}, "contains": {}},
    "avar": {"avar_primal": {}, "avar_dual": {}, "check_axioms": {}},
    "conditional": {"conditional_robust": {"amount": lambda M, Z, G, *_: G.n_atoms},
                    "has_property_p": {}},
    "composite": {"rectangular_nested": {}, "composite_functional": {}, "static_rectangular": {},
                  "nested_tree_value": {}, "induced_set": {}},
    "dp": {"solve_dp": {}, "nested_policy_value": {}, "static_policy_value": {}},
    "transport": {"wasserstein_1": {}, "kernel_history_moduli": {},
                  "multistage_bound_empirical_check": {}},
    "schema": {"load_problem_file": {}},
    "report": {"to_json": {}},
    "cli": {"main": {}},
}
RNG_METHODS = ("next_u64", "uniform", "uniforms", "randint", "choice", "simplex", "subset", "shuffled")
FAMILIES = {"FiniteFamily": "finite_family", "AVaRSet": "avar", "MomentSet": "moment",
            "WassersteinBall": "wasserstein"}

#: (span name, stats). ``policies`` counts the policies enumerate_policies yields.
_LAYERS = [
    ("lp.solve", ("calls", "s", "cells")),
    ("lp.linear_fractional_max", ("calls",)),
    ("ambiguity.robust_expectation",
     ("calls", "self_s", "finite_family.s", "avar.s", "moment.s", "wasserstein.s")),
    ("ambiguity.reference_measure", ("s",)),
    ("ambiguity.is_strictly_monotone", ("s",)),
    ("ambiguity.contains", ("s",)),
    ("avar.avar_primal", ("calls", "s")),
    ("avar.avar_dual", ("s",)),
    ("avar.check_axioms", ("s",)),
    ("conditional.conditional_robust", ("calls", "atoms", "s", "self_s")),
    ("conditional.has_property_p", ("s",)),
    ("composite.rectangular_nested", ("calls", "s", "self_s")),
    ("composite.composite_functional", ("s",)),
    ("composite.static_rectangular", ("s",)),
    ("composite.nested_tree_value", ("s",)),
    ("composite.induced_set", ("s",)),
    ("dp.solve_dp", ("s", "self_s")),
    ("dp.enumerate_policies", ("policies",)),
    ("dp.nested_policy_value", ("s",)),
    ("dp.static_policy_value", ("s",)),
    ("transport.wasserstein_1", ("calls", "s")),
    ("transport.kernel_history_moduli", ("s",)),
    ("transport.multistage_bound_empirical_check", ("s", "self_s")),
    ("rng.Rng", ("s", "setup_s")),
    ("schema.load_problem_file", ("s",)),
    ("report.to_json", ("s",)),
    ("cli.main", ("self_s",)),
]


def criterion_names() -> list[str]:
    import drokit.verify as verify

    return [fn.__name__ for fn, _ in verify.CRITERIA]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for span, stats in _LAYERS:
        for stat in stats:
            timed = stat in ("s", "self_s", "setup_s") or stat.endswith(".s")
            out.append((f"{span}.{stat}", "s" if timed else "count"))
    out += [(f"verify.{name}.s", "s") for name in criterion_names()]
    return out


SETUP_OP = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.tag = array("i")
        self.nested = array("b")
        self.amount = array("d")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()  # (op, counter name) -> count
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._in_rng = False

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _wrap(self, fn, name: str, amount=None, family=False):
        nid = self._nid(name)
        tags = {cls: self._nid(fam) for cls, fam in FAMILIES.items()} if family else {}
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_id.append(self.op)
            self.tag.append(tags.get(type(args[0]).__name__, -1) if family else -1)
            self.nested.append(1 if self._depth[nid] else 0)
            self.amount.append(amount(*args, **kwargs) if amount else 0.0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self._depth[nid] += 1
            self.start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._depth[nid] -= 1
                self._stack.pop()

        return functools.update_wrapper(traced, fn)

    def _wrap_rng(self, fn, name: str):
        inner = self._wrap(fn, name)

        def outermost(*args, **kwargs):
            if self._in_rng:
                return fn(*args, **kwargs)
            self._in_rng = True
            try:
                return inner(*args, **kwargs)
            finally:
                self._in_rng = False

        return outermost

    def _wrap_counting(self, fn, counter: str):
        def counting(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[(self.op, counter)] += 1
                yield item

        return counting

    def install(self) -> None:
        import importlib

        import drokit.rng
        import drokit.verify

        replace = {}
        for mod_name, fns in TRACED.items():
            mod = importlib.import_module(f"drokit.{mod_name}")
            for fn_name, opts in fns.items():
                fn = getattr(mod, fn_name)
                replace[id(fn)] = self._wrap(fn, f"{mod_name}.{fn_name}", opts.get("amount"),
                                             opts.get("family", False))
        enum = importlib.import_module("drokit.dp").enumerate_policies
        replace[id(enum)] = self._wrap_counting(enum, "dp.enumerate_policies.policies")
        for fn, _ in drokit.verify.CRITERIA:
            replace[id(fn)] = self._wrap(fn, f"verify.{fn.__name__}")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "drokit" or mod_name.startswith("drokit."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in replace:
                        setattr(mod, attr, replace[id(value)])
        drokit.verify.CRITERIA = tuple((replace[id(fn)], n) for fn, n in drokit.verify.CRITERIA)
        for method in RNG_METHODS:
            setattr(drokit.rng.Rng, method, self._wrap_rng(getattr(drokit.rng.Rng, method), "rng.Rng"))

    # -- derived metrics ------------------------------------------------------

    def _columns(self) -> dict[str, np.ndarray]:
        dtypes = {"i": np.int32, "b": np.int8, "d": np.float64}
        return {k: np.frombuffer(col, dtype=dtypes[col.typecode])
                for k in ("name", "parent", "op_id", "tag", "nested", "amount", "start", "end")
                for col in [getattr(self, k)]}

    def layer_metrics(self, ops: range) -> dict[str, float]:
        """Per-layer metrics over the spans of the given operation ids, plus
        ``rng.Rng.setup_s`` from the spans recorded while making the inputs."""
        c = self._columns()
        n_names = len(self.names)
        dur = c["end"] - c["start"]
        has_parent = c["parent"] >= 0
        child = np.bincount(c["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        sel = (c["op_id"] >= ops.start) & (c["op_id"] < ops.stop)

        def per_name(weights, mask):
            return np.bincount(c["name"][mask], weights=weights[mask], minlength=n_names)

        calls = per_name(np.ones_like(dur), sel)
        incl = per_name(dur, sel & (c["nested"] == 0))
        selfs = per_name(self_time, sel)
        amounts = per_name(c["amount"], sel)
        tagged = np.bincount(c["tag"][sel & (c["tag"] >= 0)], weights=dur[sel & (c["tag"] >= 0)],
                             minlength=n_names)
        rng_id = self._name_id.get("rng.Rng", -1)
        setup = (c["op_id"] == SETUP_OP) & (c["name"] == rng_id)
        out = {}
        for name, _ in metric_names():
            span, stat = name.rsplit(".", 1)
            if span.endswith(tuple(FAMILIES.values())):
                span, fam = span.rsplit(".", 1)
                out[name] = float(tagged[self._name_id[fam]]) if fam in self._name_id else 0.0
                continue
            if stat == "policies":
                out[name] = float(sum(v for (op, k), v in self.counts.items()
                                      if k == f"{span}.policies" and op in ops))
                continue
            if stat == "setup_s":
                out[name] = float(dur[setup].sum())
                continue
            i = self._name_id.get(span)
            if i is None:
                out[name] = 0.0
                continue
            out[name] = float({"calls": calls, "s": incl, "self_s": selfs}.get(stat, amounts)[i])
        return out

    def write(self, path: str, op_names: list[str]) -> None:
        c = self._columns()
        doc = {"names": self.names, "operations": op_names,
               "columns": {k: v.tolist() for k, v in c.items()}}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)
