"""The README's quickstart runs as written and gives the results its
comments state, so a renamed or removed public name fails the suite."""

import argparse
import re
from pathlib import Path

from drokit.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_block() -> str:
    after = README.read_text(encoding="utf-8").split("## Quickstart", 1)[1]
    return after.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_gives_its_commented_results():
    ns: dict = {}
    exec(quickstart_block(), ns)
    assert ns["value"] == 6.0
    charged = ns["Z"].values[ns["worst_measure"].weights > 0.0]
    assert sorted(charged.tolist()) == [5.0, 7.0]
    assert ns["cond"].atom_values == (5.0, 7.0)
    assert ns["has_property_p"](ns["M"], ns["G"]) is True


def cli_synopsis() -> dict[str, set[str]]:
    """The ``--flags`` of each subcommand in the README's CLI ``sh`` block."""
    after = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = after.split("```sh\n", 1)[1].split("```", 1)[0]
    flags: dict[str, set[str]] = {}
    for line in block.splitlines():
        _, command, *rest = line.split("#", 1)[0].split()
        flags.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", " ".join(rest)))
    return flags


def test_readme_cli_synopsis_matches_the_parser():
    """``--format``, ``--out`` and ``--help``, which every subcommand takes,
    are left to the prose."""
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    common = {"--format", "--out", "--help"}
    parsed = {
        name: {s for a in p._actions for s in a.option_strings if s.startswith("--")} - common
        for name, p in subparsers.choices.items()
    }
    assert cli_synopsis() == parsed
