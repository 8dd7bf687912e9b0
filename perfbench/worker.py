"""One workload process: make the inputs, run timed passes, check outputs.

Started by ``run.py``; not meant to be run by hand. It prints ``ready`` as
soon as the inputs exist (the launcher times set-up up to that line), then,
unless ``--setup-only``, runs whole passes over the workload's operations and
prints one JSON line with the pass times, the peak resident memory read after
the last pass, and the check results.

Every pass runs the same operations on the same inputs, so their outputs must
be identical: each pass's outputs are hashed, and only the last pass's are
kept and checked against the references in ``checks``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import statistics
import sys
import time
import traceback

#: Passes run even when one pass outlasts ``--seconds``, so that the median
#: of ``run_s`` has at least this many samples.
MIN_PASSES = 3


class _HashSink:
    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, data) -> None:
        self.hash.update(data)


def digest(outputs) -> str:
    """Hash of the pickled outputs, streamed and without the pickler's memo,
    so that hashing a pass does not raise the process's peak memory."""
    sink = _HashSink()
    pickler = pickle.Pickler(sink, protocol=4)
    pickler.fast = True
    pickler.dump(outputs)
    return sink.hash.hexdigest()


def run_passes(ops, seconds: float, tracer=None):
    """Whole passes until the next one would end past ``seconds``; returns
    the pass times, the failure count, the last outputs and whether every
    pass produced the same outputs."""
    times, failed, first, same = [], 0, None, True
    begin = time.perf_counter()
    while True:
        outputs = []
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(times) * len(ops) + i
            try:
                outputs.append(op.run())
            except Exception:  # an operation that raises counts as failed
                failed += 1
                outputs.append(None)
                print(f"operation {op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
        times.append(time.perf_counter() - t0)
        h = digest(outputs)
        first = first or h
        same = same and h == first
        elapsed = time.perf_counter() - begin
        if len(times) >= MIN_PASSES and elapsed * (len(times) + 1) / len(times) > seconds:
            return times, failed, outputs, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))

    tracer = None
    if args.trace:
        from spans import Tracer, metric_names

        tracer = Tracer()
        tracer.install()
    import workloads

    ops = workloads.build(args.workload, args.seed, root)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    times, failed, outputs, same = run_passes(ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks  # imports scipy: only after the memory reading

    errors = [] if same else ["outputs differ between passes"]
    for op, out in zip(ops, outputs):
        if out is not None:
            errors += [f"{op.name}: {e}" for e in op.check(checks, out)]
    result = {
        "passes": times,
        "attempted": len(times) * len(ops),
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        per_pass = [tracer.layer_metrics(range(k * len(ops), (k + 1) * len(ops)))
                    for k in range(len(times))]
        result["layers"] = {name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
                            for name, unit in metric_names()}
        os.makedirs(os.path.join(root, "perfbench", "results"), exist_ok=True)
        path = os.path.join(root, "perfbench", "results", f"trace-{args.workload}-seed{args.seed}.json.gz")
        tracer.write(path, [op.name for op in ops])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
