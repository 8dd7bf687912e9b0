"""drokit benchmark: one command, two timed workloads (selfcheck, deep).

Run from the root of a drokit checkout::

    python3 perfbench/run.py                          # both workloads, untraced
    python3 perfbench/run.py --workload deep --seed 3 --seconds 55 --trace 0
    python3 perfbench/run.py --workload deep --trace 1   # per-layer metrics
    python3 perfbench/run.py --workload wide            # by hand only

Untraced, each workload reports ``setup_s`` (process start until the inputs
are ready; median of several set-ups), ``run_s`` (median wall time of one pass
over the workload's operations) and ``peak_rss_mb``. Traced, it reports the
per-layer metrics of ``spans.py`` instead. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload runs in a child process with the BLAS thread count fixed at
``BLAS_THREADS``. The command exits 2, printing no result, when the current
directory holds no drokit sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: The workloads of ``BENCHMARK.json``, run in turn when no ``--workload`` is given.
WORKLOADS = ("selfcheck", "deep")
#: Checked like the others but left out of ``BENCHMARK.json``: see README.md.
BY_HAND = ("wide",)
#: Set-ups timed per untraced run: one per extra set-up-only process plus the
#: workload process itself.
SETUP_SAMPLES = 7
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in _BLAS_VARS})
    return env


def run_worker(args: list[str]) -> tuple[float, str]:
    """Start a workload process; return the seconds until it printed
    ``ready`` and the rest of its standard output."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env())
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read().decode()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != b"ready" or code != 0:
        raise RuntimeError(f"workload process {' '.join(args)} exited with {code}")
    return setup, rest


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [] if trace else [run_worker(common + ["--seconds", "0", "--setup-only"])[0]
                               for _ in range(SETUP_SAMPLES - 1)]
    setup, out = run_worker(common + ["--seconds", str(seconds), "--trace", str(trace)])
    setups.append(setup)
    res = json.loads(out.strip().splitlines()[-1])
    for err in res["errors"]:
        print(f"check failed: {workload}: {err}", file=sys.stderr)
    if trace:
        metrics = dict(res["layers"])
        metrics["traced.run_s"] = {"value": statistics.median(res["passes"]), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(res["passes"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    shown = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in metrics.items()
                      if not trace or k == "traced.run_s")
    print(f"{workload}: {shown}; {len(res['passes'])} passes, attempted {res['attempted']}, "
          f"failed {res['failed']}, BLAS threads {BLAS_THREADS}")
    return {"correct": not res["errors"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + BY_HAND, help="default: %s in turn" % " and ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "drokit", "__init__.py")):
        print("error: run from the root of a drokit checkout (no src/drokit here)", file=sys.stderr)
        return 2
    correct = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        correct = correct and result["correct"]
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
