"""Byte pins of the CLI reports on the golden files.

``cli_reports.json`` holds the stdout and exit code of every call below, in
text and JSON. An intended change of a report regenerates the fixture with
``PYTHONPATH=src python tests/test_cli_reports.py`` and names the change in
CHANGES.md.
"""

import contextlib
import io
import json
import os

import pytest

from drokit.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "cli_reports.json")

STATIC, CONDITIONAL, DP_TRANSPORT = (
    f"golden/{name}.json" for name in ("static_examples", "conditional_composite", "dp_transport")
)
FILE_CALLS = [
    ["eval-static", STATIC, "--rv", "payout", "--set", "two_corners"],
    ["eval-static", STATIC, "--rv", "jump", "--set", "pinned_ball"],
    ["eval-static", STATIC, "--rv", "square", "--set", "mean_03"],
    ["eval-conditional", CONDITIONAL, "--rv", "zigzag", "--set", "avar_half", "--partition", "halves"],
    ["eval-conditional", CONDITIONAL, "--rv", "zigzag", "--set", "avar_half", "--partition", "halves",
     "--nested-avar"],
    ["eval-composite", CONDITIONAL, "--rv", "zigzag", "--set", "avar_half", "--filtration", "steps"],
    ["eval-composite", CONDITIONAL, "--rv", "zigzag", "--set", "avar_half",
     "--filtration", "steps_from_tree"],
    ["eval-composite", CONDITIONAL, "--rv", "diagonal", "--spec", "gap_witness", "--induced-set"],
    ["solve", DP_TRANSPORT, "--problem", "carried", "--enumerate"],
    ["wasserstein", DP_TRANSPORT, "--p", "spread", "--q", "shifted"],
    ["bounds", DP_TRANSPORT, "--spec", "ball_sweep"],
    ["bounds", DP_TRANSPORT, "--spec", "stagewise"],
    ["verify", STATIC],
    ["verify", CONDITIONAL],
    ["verify", DP_TRANSPORT],
]
CALLS = [argv + ["--format", fmt] for argv in FILE_CALLS for fmt in ("text", "json")]
CALLS += [["verify", "--builtin", "--format", fmt] for fmt in ("text", "json")]
CALLS += [["verify", "--builtin", "--seed", seed, "--trials", "5", "--format", "json"]
          for seed in ("1", "7", "123")]


def run(argv):
    """Exit code and stdout of one in-process call; golden paths are given
    relative to this directory."""
    argv = [os.path.join(HERE, a) if a.startswith("golden/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def load_fixture():
    with open(FIXTURE) as fh:
        return {" ".join(entry["argv"]): entry for entry in json.load(fh)}


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_report_matches_the_pinned_bytes(argv):
    pinned = load_fixture()[" ".join(argv)]
    assert run(argv) == (pinned["code"], pinned["stdout"])


if __name__ == "__main__":
    entries = [dict(zip(("argv", "code", "stdout"), (argv, *run(argv)))) for argv in CALLS]
    old = load_fixture() if os.path.exists(FIXTURE) else {}
    for entry in entries:  # name every changed stdout line, so a regeneration shows its scope
        key = " ".join(entry["argv"])
        was = old.get(key, {"code": None, "stdout": ""})
        if was["code"] != entry["code"]:
            print(f"{key}: exit code {was['code']} -> {entry['code']}")
        before, after = was["stdout"].splitlines(), entry["stdout"].splitlines()
        for line in range(max(len(before), len(after))):
            if before[line:line + 1] != after[line:line + 1]:
                print(f"{key}: line {line + 1}")
    with open(FIXTURE, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
