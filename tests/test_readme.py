"""The README's quickstart runs as written and gives the results its
comments state, so a renamed or removed public name fails the suite."""

from pathlib import Path

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
