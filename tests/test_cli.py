"""CLI, schema, and report round-trip tests against the golden files."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drokit.cli import main
from drokit.report import Check, Report, to_csv
from drokit.rng import Rng
from drokit.schema import InputError, load_problem_file
from drokit.spaces import DiscreteMeasure
from drokit.verify import VACUOUS_NOTE

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
STATIC = os.path.join(GOLDEN, "static_examples.json")
CONDITIONAL = os.path.join(GOLDEN, "conditional_composite.json")
DP_TRANSPORT = os.path.join(GOLDEN, "dp_transport.json")


def run_json(argv, capsys):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_eval_static_vertex_scan(capsys):
    code, doc = run_json(
        ["eval-static", STATIC, "--rv", "payout", "--set", "two_corners"], capsys
    )
    assert code == 0
    assert doc["results"]["value"] == pytest.approx(5.0)
    assert doc["results"]["argmax_measure"] == pytest.approx([0.0, 1.0])


def test_eval_static_pinned_ball(capsys):
    code, doc = run_json(
        ["eval-static", STATIC, "--rv", "jump", "--set", "pinned_ball"], capsys
    )
    assert code == 0
    assert doc["results"]["value"] == pytest.approx(1.0, abs=1e-7)


def test_eval_static_moment_endpoints(capsys):
    code, doc = run_json(
        ["eval-static", STATIC, "--rv", "square", "--set", "mean_03"], capsys
    )
    assert code == 0
    assert doc["results"]["value"] == pytest.approx(0.3, abs=1e-7)
    assert doc["results"]["argmax_measure"] == pytest.approx([0.7, 0.0, 0.3], abs=1e-7)


def test_eval_static_unknown_name_exit_2(capsys):
    assert main(["eval-static", STATIC, "--rv", "nope", "--set", "two_corners"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "version": "1",\n  "spaces": {\n')
    assert main(["eval-static", str(bad), "--rv", "x", "--set", "y"]) == 2
    assert "line" in capsys.readouterr().err


def test_eval_conditional_modes_differ_on_witness(capsys):
    code, worst = run_json(
        [
            "eval-conditional", CONDITIONAL,
            "--rv", "zigzag", "--set", "avar_half", "--partition", "halves",
        ],
        capsys,
    )
    assert code == 0
    assert worst["results"]["atom_values"] == pytest.approx([5.0, 7.0], abs=1e-7)
    assert worst["results"]["te_holds"] is True
    assert worst["results"]["property_p"] is True
    code, nested = run_json(
        [
            "eval-conditional", CONDITIONAL,
            "--rv", "zigzag", "--set", "avar_half", "--partition", "halves",
            "--nested-avar",
        ],
        capsys,
    )
    assert code == 0
    assert nested["results"]["atom_values"] == pytest.approx([5.0, 7.0], abs=1e-9)


def test_nested_avar_flag_changes_result_on_same_set(capsys):
    """On one avar set (alpha 0.3), the worst-case path hits the atom maxima
    while the nested path stays at the per-atom AVaR values 27/7 and 39/7."""
    base = ["eval-conditional", CONDITIONAL, "--rv", "zigzag", "--set", "avar_03",
            "--partition", "halves"]
    code, worst = run_json(base, capsys)
    code2, nested = run_json(base + ["--nested-avar"], capsys)
    assert code == code2 == 0
    assert worst["results"]["atom_values"] == pytest.approx([5.0, 7.0], abs=1e-7)
    assert nested["results"]["atom_values"] == pytest.approx([27 / 7, 39 / 7], abs=1e-9)
    assert max(
        abs(a - b)
        for a, b in zip(worst["results"]["atom_values"], nested["results"]["atom_values"])
    ) > 1e-3


def test_eval_conditional_renders_minus_inf(capsys):
    code, doc = run_json(
        [
            "eval-conditional", CONDITIONAL,
            "--rv", "zigzag", "--set", "only_null_tail", "--partition", "halves",
            "--reference", "uniform4",
        ],
        capsys,
    )
    assert code == 0
    assert doc["results"]["atom_values"][0] == pytest.approx(3.0)
    assert doc["results"]["atom_values"][1] == "-inf"
    assert doc["results"]["te_holds"] is False


def test_eval_composite_filtration_path(capsys):
    code, doc = run_json(
        [
            "eval-composite", CONDITIONAL,
            "--rv", "zigzag", "--set", "avar_half", "--filtration", "steps",
        ],
        capsys,
    )
    assert code == 0
    assert doc["results"]["value"] >= doc["results"]["static_value"] - 1e-9
    assert doc["checks"][0]["passed"] is True


def test_eval_composite_spec_with_induced_set(capsys):
    code, doc = run_json(
        [
            "eval-composite", CONDITIONAL,
            "--rv", "diagonal", "--spec", "gap_witness", "--induced-set",
        ],
        capsys,
    )
    assert code == 0
    assert doc["results"]["value"] == pytest.approx(1.0)
    assert doc["results"]["induced_pre_dedup_count"] == 1 * 2**2
    assert doc["results"]["induced_max"] == pytest.approx(1.0, abs=1e-9)
    assert all(c["passed"] for c in doc["checks"])


def test_solve_with_enumeration(capsys):
    code, doc = run_json(
        ["solve", DP_TRANSPORT, "--problem", "carried", "--enumerate"], capsys
    )
    assert code == 0
    assert doc["results"]["value"] == pytest.approx(1.0)
    assert doc["results"]["enumeration_value"] == pytest.approx(1.0)
    assert doc["results"]["policy"]["root"] == 0
    assert all(c["passed"] for c in doc["checks"])


def test_wasserstein_command(capsys):
    code, doc = run_json(
        ["wasserstein", DP_TRANSPORT, "--p", "spread", "--q", "shifted"], capsys
    )
    assert code == 0
    # moving 0.25 mass from the middle point to the left end costs 0.25 * 0.5
    assert doc["results"]["distance"] == pytest.approx(0.125, abs=1e-9)


def test_bounds_ball_sweep_csv(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code = main(
        [
            "bounds", DP_TRANSPORT, "--spec", "ball_sweep",
            "--format", "text", "--csv", str(csv_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    content = csv_path.read_text()
    assert content.splitlines()[0] == "epsilon,gap,bound,holds"
    assert len(content.splitlines()) == 7
    # every CSV number also appears in the text report
    for token in content.splitlines()[1].split(",")[:3]:
        assert token in out


@pytest.mark.parametrize(
    "argv",
    [
        ["wasserstein", DP_TRANSPORT, "--p", "spread", "--q", "shifted", "--out"],
        ["bounds", DP_TRANSPORT, "--spec", "ball_sweep", "--csv"],
    ],
    ids=["out", "csv"],
)
def test_output_path_at_a_directory_exit_2(argv, tmp_path, capsys):
    """A report or CSV path that cannot be written is unusable input: exit 2
    and one error line, not a traceback."""
    assert main(argv + [str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if not line.startswith("elapsed:")]
    assert len(errors) == 1 and errors[0].startswith("error: ")
    assert str(tmp_path) in errors[0]


def test_bounds_multistage(capsys):
    code, doc = run_json(["bounds", DP_TRANSPORT, "--spec", "stagewise"], capsys)
    assert code == 0
    assert doc["results"]["formula_bound"] == pytest.approx(0.3, abs=1e-12)
    assert doc["checks"][0]["passed"] is True


def test_verify_builtin_small(capsys):
    code, doc = run_json(["verify", "--builtin", "--trials", "3"], capsys)
    assert code == 0
    assert len(doc["checks"]) == 12
    assert all(c["passed"] for c in doc["checks"])


def test_verify_trials_zero_vacuous(capsys):
    code, doc = run_json(["verify", "--builtin", "--trials", "0"], capsys)
    assert code == 0
    assert all("vacuous" in c["detail"] for c in doc["checks"])


@pytest.mark.parametrize("argv", [["verify", "--builtin"], ["verify", DP_TRANSPORT]], ids=["builtin", "file"])
def test_negative_trials_exit_2(argv, capsys):
    assert main(argv + ["--trials", "-3"]) == 2
    err = capsys.readouterr().err
    message = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(message) == 1 and "--trials" in message[0]


FILE_ARGV = {
    "eval-static": ["eval-static", STATIC, "--rv", "payout", "--set", "two_corners"],
    "eval-conditional": ["eval-conditional", CONDITIONAL, "--rv", "zigzag", "--set", "avar_half",
                         "--partition", "halves"],
    "eval-composite": ["eval-composite", CONDITIONAL, "--rv", "zigzag", "--set", "avar_half",
                       "--filtration", "steps"],
    "solve": ["solve", DP_TRANSPORT, "--problem", "carried"],
    "wasserstein": ["wasserstein", DP_TRANSPORT, "--p", "spread", "--q", "shifted"],
    "bounds": ["bounds", DP_TRANSPORT, "--spec", "ball_sweep"],
    "verify": ["verify", DP_TRANSPORT],
}
UNREAD_FLAGS = [FILE_ARGV[cmd] + ["--tolerance", "1e-9"] for cmd in FILE_ARGV] + [
    FILE_ARGV["eval-static"] + ["--seed", "7"],
    FILE_ARGV["eval-conditional"] + ["--trials", "3"],
    FILE_ARGV["eval-composite"] + ["--csv", "x"],
    FILE_ARGV["solve"] + ["--csv", "x"],
    FILE_ARGV["wasserstein"] + ["--seed", "7"],
    FILE_ARGV["bounds"] + ["--trials", "3"],
    FILE_ARGV["verify"] + ["--csv", "x"],
    ["verify", "--builtin", "--tolerance", "1e-9"],
]


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=lambda argv: " ".join(map(os.path.basename, argv)))
def test_unread_flag_exit_2(argv, capsys):
    """Each subcommand takes only the flags it reads; ``--tolerance`` is gone
    from all of them. argparse rejects the rest: exit 2, a usage line, one
    error line, nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    message = [line for line in captured.err.splitlines() if "error:" in line]
    assert captured.err.startswith("usage:") and captured.out == ""
    assert len(message) == 1 and argv[-2] in message[0]


@pytest.mark.parametrize("cmd", sorted(FILE_ARGV))
def test_file_digest_ignores_format_and_out(cmd, tmp_path, capsys):
    main(FILE_ARGV[cmd] + ["--format", "text"])
    text_digest = capsys.readouterr().out.splitlines()[1].split()[1]
    _, doc = run_json(FILE_ARGV[cmd], capsys)
    out = tmp_path / "report.json"
    main(FILE_ARGV[cmd] + ["--format", "json", "--out", str(out)])
    assert capsys.readouterr().out == ""
    assert text_digest == doc["inputs_digest"] == json.loads(out.read_text())["inputs_digest"]


def _scaled_static_file(rng, kind, path):
    """Five points, three members, AVaR level 0.6, ball radius 0.3, and a
    variable of magnitude up to 1e8."""
    pts = np.sort(rng.uniforms(5, 0.0, 2.0))
    doc = {
        "version": "1",
        "spaces": {"s": {"n": 5, "metric": np.abs(np.subtract.outer(pts, pts)).tolist()}},
        "measures": {f"m{i}": {"space": "s", "weights": rng.simplex(5).tolist()} for i in range(3)},
        "random_variables": {"z": {"space": "s", "values": (1e8 * rng.uniforms(5, -1.0, 1.0)).tolist()}},
        "ambiguity_sets": {"M": {
            "finite_family": {"kind": "finite_family", "space": "s", "measures": ["m0", "m1", "m2"]},
            "avar": {"kind": "avar", "alpha": 0.6, "reference": "m0"},
            "wasserstein": {"kind": "wasserstein", "center": "m0", "radius": 0.3, "space": "s"},
        }[kind]},
    }
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("kind", ["finite_family", "avar", "wasserstein"])
def test_eval_static_argmax_check_in_the_units_of_z(kind, tmp_path, capsys):
    """``argmax_attains_value`` compares at 1e-9 * max|Z|; an absolute 1e-9
    failed 7, 6 and 2 of these 20 files, whose value and argmax expectation
    agree to about 1e-16 relative."""
    rng = Rng(13)
    codes = []
    for i in range(20):
        path = _scaled_static_file(rng, kind, tmp_path / f"{i}.json")
        codes.append(main(["eval-static", path, "--rv", "z", "--set", "M"]))
    capsys.readouterr()
    assert codes == [0] * 20


def _edited_golden(tmp_path, edit):
    with open(DP_TRANSPORT) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _one_error_line(err):
    message = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(message) == 1 and "Traceback" not in err
    return message[0]


@pytest.mark.parametrize(
    "path, value",
    [
        (("trees", "explicit", "parents"), [None, 0, 0, 1.9, 1, 2, 2]),
        (("trees", "explicit", "parents"), [None, 0, 0, True, 1, 2, 2]),
        (("trees", "binary", "branching"), [2.7, 2]),
        (("spaces", "stage2", "n"), 2.5),
        (("partitions", "halves", "atoms"), [[0, 1.5], [2, 3]]),
    ],
    ids=["parents", "bool-parent", "branching", "space-n", "atom"],
)
def test_non_integer_indices_and_sizes_exit_2(tmp_path, capsys, path, value):
    # each of these used to be truncated to an integer and load
    with open(CONDITIONAL) as fh:
        doc = json.load(fh)
    *head, key = path
    node = doc
    for part in head:
        node = node[part]
    node[key] = value
    bad = tmp_path / "non_integer.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 2
    assert key in _one_error_line(capsys.readouterr().err)


def _shrink_grid4(doc):
    doc["spaces"]["grid4"]["n"] = 3
    doc["random_variables"]["grid_cost"]["values"] = [0.0, 0.5, 1.0]


def _sweep_grid_cost(doc):
    doc["bound_specs"]["ball_sweep"]["rv"] = "grid_cost"


@pytest.mark.parametrize(
    "edit, spec",
    [(_shrink_grid4, "stagewise"), (_sweep_grid_cost, "ball_sweep")],
    ids=["multistage-rv-count", "ball-sweep-rv-size"],
)
def test_objective_sized_off_its_space_exits_2(tmp_path, capsys, edit, spec):
    path = _edited_golden(tmp_path, edit)
    assert main(["bounds", path, "--spec", spec]) == 2
    assert "Z has" in _one_error_line(capsys.readouterr().err)


def test_kappa_below_the_kernel_modulus_exits_2(tmp_path, capsys):
    """Declared kappa = (0, 0) with stage-1 rows 0.35 apart in W1: the
    closed-form bound is not proved, so the input is rejected."""

    def edit(doc):
        doc["processes"]["two_leg"]["kernels"][1] = [[0.9, 0.1], [0.2, 0.8]]

    path = _edited_golden(tmp_path, edit)
    assert main(["bounds", path, "--spec", "stagewise"]) == 2
    message = _one_error_line(capsys.readouterr().err)
    assert "kernel 1 violates the history modulus on (0,) vs (1,): W1 = 0.35 > kappa * D = 0" in message


def test_infinite_lipschitz_with_zero_radii_is_a_vacuous_pass(tmp_path, capsys):
    def edit(doc):
        doc["bound_specs"]["stagewise"]["lipschitz"] = float("inf")
        doc["bound_specs"]["stagewise"]["eps"] = [0.0, 0.0]

    path = _edited_golden(tmp_path, edit)
    code, doc = run_json(["bounds", path, "--spec", "stagewise"], capsys)
    assert code == 0
    assert doc["results"]["formula_bound"] == "inf"
    assert doc["checks"][0]["passed"] is True


def test_verify_problem_file(capsys):
    code, doc = run_json(["verify", CONDITIONAL, "--trials", "40"], capsys)
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert any(name.startswith("axiom_battery[") for name in names)
    assert any(name.startswith("rectangular_equivalence[") for name in names)


def test_verify_problem_file_with_dp(capsys):
    code, doc = run_json(["verify", DP_TRANSPORT, "--trials", "30"], capsys)
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert "dp_and_moment_duality[carried]" in names
    assert all(c["passed"] for c in doc["checks"])


def test_verify_file_and_builtin_together_exit_2(capsys):
    """``verify FILE --builtin`` is ambiguous, not a run of the builtin
    battery that ignores FILE."""
    assert main(["verify", "/nonexistent.json", "--builtin", "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--builtin" in _one_error_line(captured.err)


def test_verify_file_surfaces_a_failing_conditional_routine(monkeypatch, capsys):
    """An error inside the conditional routine is not read as "not
    applicable": the run exits 2 instead of dropping the checks."""
    import drokit.conditional as conditional
    from drokit.spaces import ValidationError

    def broken(*args):
        raise ValidationError("conditional routine failed")

    monkeypatch.setattr(conditional, "_conditional_values", broken)
    assert main(["verify", CONDITIONAL]) == 2
    assert "conditional routine failed" in _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("golden", [STATIC, CONDITIONAL, DP_TRANSPORT], ids=os.path.basename)
def test_verify_file_zero_trials_gives_one_vacuous_line_per_criterion(golden, capsys):
    code, full = run_json(["verify", golden], capsys)
    assert code == 0
    criteria = list(dict.fromkeys(c["name"].split("[")[0] for c in full["checks"]))
    code, doc = run_json(["verify", golden, "--trials", "0"], capsys)
    assert code == 0
    assert [c["name"] for c in doc["checks"]] == criteria
    assert all(c["detail"] == VACUOUS_NOTE for c in doc["checks"])
    assert doc["results"]["objects_checked"] == len(criteria)


def _scale_data(doc, scale):
    """Every random variable except moment functions, every cost table, and
    the Lipschitz certificates (in the units of their variable) times
    ``scale``; moment functions and metrics keep their units."""
    psi = {f for s in doc.get("ambiguity_sets", {}).values() for f in s.get("functions", [])}
    for name, rv in doc.get("random_variables", {}).items():
        if name not in psi:
            rv["values"] = [scale * v for v in rv["values"]]
    for prob in doc.get("problems", {}).values():
        prob["costs"] = [(scale * np.asarray(c)).tolist() for c in prob["costs"]]
    for spec in doc.get("bound_specs", {}).values():
        if "lipschitz" in spec:
            spec["lipschitz"] *= scale


@pytest.mark.parametrize("scale", [1e-8, 1e8])
@pytest.mark.parametrize("golden", [STATIC, CONDITIONAL, DP_TRANSPORT], ids=os.path.basename)
def test_verify_file_holds_in_the_units_of_the_data(golden, scale, tmp_path, capsys):
    """Each file instance runs on its data over its scale, so the criteria
    hold at their stated bounds with the data scaled by 1e-8 or 1e8."""
    code, plain = run_json(["verify", golden], capsys)
    with open(golden) as fh:
        doc = json.load(fh)
    _scale_data(doc, scale)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    code, scaled = run_json(["verify", str(path)], capsys)
    assert code == 0, [c for c in scaled["checks"] if not c["passed"]]
    assert [c["name"] for c in scaled["checks"]] == [c["name"] for c in plain["checks"]]


def test_verify_file_holds_on_random_data_in_large_units(tmp_path, capsys):
    """The golden files' values stay exact when scaled by a power of ten;
    random variables at 1e8 round by about 1e-8 in absolute terms, which
    exceeds the criteria's stated bounds unless each instance runs in the
    units of its data."""
    rng = Rng(11)
    path = tmp_path / "large.json"
    for _ in range(10):
        doc = {
            "version": "1",
            "spaces": {"omega": {"n": 6}},
            "measures": {name: {"space": "omega", "weights": rng.simplex(6).tolist()}
                         for name in ("p", "q", "r")},
            "random_variables": {name: {"space": "omega",
                                        "values": (1e8 * rng.uniforms(6, -1.0, 1.0)).tolist()}
                                 for name in ("z", "w")},
            "partitions": {"trivial": {"space": "omega", "atoms": [list(range(6))]},
                           "thirds": {"space": "omega", "atoms": [[0, 1], [2, 3], [4, 5]]},
                           "points": {"space": "omega", "atoms": [[k] for k in range(6)]}},
            "filtrations": {"steps": {"stages": ["trivial", "thirds", "points"]}},
            "ambiguity_sets": {
                "avar": {"kind": "avar", "alpha": rng.uniform(0.1, 0.9), "reference": "p"},
                "family": {"kind": "finite_family", "measures": ["p", "q", "r"]},
            },
        }
        path.write_text(json.dumps(doc))
        code, report = run_json(["verify", str(path), "--trials", "20"], capsys)
        assert code == 0, [c for c in report["checks"] if not c["passed"]]


def test_verify_file_one_moment_set_with_psi_in_small_units(tmp_path, capsys):
    """A valid one-moment set whose ``psi`` and target are of order 1e-8 (a
    set of ``rand_ambiguity_set(Rng(3), 5, "moment")`` scaled): the dual LP's
    absolute tolerances used to miss the closed form by 3.9e-3."""
    psi = [0.2984398187214855, 0.5334077311651368, 0.6353762538044379, 0.9123581167524344,
           0.9519185976765645]
    doc = {
        "version": "1",
        "spaces": {"grid": {"n": 5}},
        "random_variables": {
            "psi": {"space": "grid", "values": [1e-8 * v for v in psi]},
            "z": {"space": "grid", "values": [0.8539221777697474, 0.9539259838613021,
                                              -0.18560198458381771, 0.7103932624284637,
                                              -0.10347645362016067]},
        },
        "ambiguity_sets": {"m": {"kind": "moment", "support": "grid", "functions": ["psi"],
                                 "targets": [1e-8 * 0.5246421221669554]}},
    }
    path = tmp_path / "small_psi.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(["verify", str(path), "--trials", "20"], capsys)
    dual = [c for c in report["checks"] if c["name"] == "dp_and_moment_duality[m]"]
    assert code == 0 and dual and dual[0]["passed"], report["checks"]


#: The checks each golden file's ``verify FILE`` report made before the file
#: route ran the battery's criteria, under their old names.
OLD_FILE_CHECKS = {
    STATIC: [
        f"{check}[{name}]"
        for name in ("two_corners", "pinned_ball", "mean_03")
        for check in ("axioms", "reference_dominates", "strict_monotonicity_certificate")
    ],
    CONDITIONAL: [
        f"{check}[{name}]"
        for name in ("avar_half", "avar_03", "only_null_tail", "stage1_coin", "stage2_corners")
        for check in ("axioms", "reference_dominates", "strict_monotonicity_certificate")
    ]
    + [f"tower[{s}|{p}]" for s in ("avar_half", "avar_03") for p in ("trivial", "halves", "points")]
    + ["tower[only_null_tail|trivial]", "rectangular_equivalence[gap_witness]",
       "nested_dominates_static[gap_witness]"],
    DP_TRANSPORT: [
        f"{check}[{name}]"
        for name in ("coin_only", "corners")
        for check in ("axioms", "reference_dominates", "strict_monotonicity_certificate")
    ]
    + ["dp_matches_enumeration[carried]"],
}
RENAMED = {
    "axioms": "axiom_battery",
    "reference_dominates": "reference_measure",
    "strict_monotonicity_certificate": "strict_monotonicity",
    "tower": "tower_inequality",
    "nested_dominates_static": "composite_dominance",
    "dp_matches_enumeration": "dp_and_moment_duality",
}


@pytest.mark.parametrize("golden", [STATIC, CONDITIONAL, DP_TRANSPORT], ids=os.path.basename)
def test_verify_file_covers_every_old_check(golden, capsys):
    code, doc = run_json(["verify", golden], capsys)
    assert code == 0
    passed = {c["name"] for c in doc["checks"] if c["passed"]}
    for old in OLD_FILE_CHECKS[golden]:
        check, labels = old.split("[", 1)
        assert f"{RENAMED.get(check, check)}[{labels}" in passed, old


def test_json_report_deterministic(capsys):
    argv = ["eval-static", STATIC, "--rv", "payout", "--set", "two_corners",
            "--format", "json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_seed_changes_digest_not_outcome(capsys):
    code1, doc1 = run_json(["verify", "--builtin", "--trials", "2", "--seed", "1"], capsys)
    code2, doc2 = run_json(["verify", "--builtin", "--trials", "2", "--seed", "2"], capsys)
    assert code1 == code2 == 0
    assert doc1["inputs_digest"] != doc2["inputs_digest"]
    assert [c["passed"] for c in doc1["checks"]] == [c["passed"] for c in doc2["checks"]]


def test_text_numbers_appear_in_json(capsys):
    main(["eval-static", STATIC, "--rv", "payout", "--set", "two_corners",
          "--format", "json"])
    json_out = capsys.readouterr().out
    main(["eval-static", STATIC, "--rv", "payout", "--set", "two_corners",
          "--format", "text"])
    text_out = capsys.readouterr().out
    for line in text_out.splitlines():
        for token in line.split():
            if token.replace(".", "").replace("-", "").isdigit():
                assert token in json_out


def test_failing_check_maps_to_exit_1(tmp_path):
    from argparse import Namespace

    from drokit.cli import _emit

    report = Report("demo", "digest", {}, [Check("broken", False, 1.0)])
    args = Namespace(format="json", out=str(tmp_path / "r.json"))
    assert _emit(report, args) == 1


def test_solve_rejects_empty_action_node_at_load(tmp_path, capsys):
    doc = json.loads(open(DP_TRANSPORT).read())
    doc["problems"]["carried"]["feasible"][2][0][1] = []  # kill one node
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--problem", "carried"]) == 2
    assert "empty action set" in capsys.readouterr().err


def test_solve_rejects_repeated_action_at_load(tmp_path, capsys):
    doc = json.loads(open(DP_TRANSPORT).read())
    doc["problems"]["carried"]["feasible"][2][1][0] = [1, 1]  # one node lists action 1 twice
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--problem", "carried"]) == 2
    captured = capsys.readouterr()
    message = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(message) == 1 and "repeated action at stage 2, prior action 1, outcome 0" in message[0]
    assert captured.out == ""


def test_metric_violation_rejected_at_load(tmp_path, capsys):
    doc = {
        "version": "1",
        "spaces": {"bad": {"n": 2, "metric": [[0.0, 1.0], [2.0, 0.0]]}},
    }
    path = tmp_path / "bad_metric.json"
    path.write_text(json.dumps(doc))
    assert main(["wasserstein", str(path), "--p", "x", "--q", "y"]) == 2
    assert "symmetric" in capsys.readouterr().err


def test_schema_revalidates_invariants(tmp_path):
    doc = {
        "version": "1",
        "spaces": {"s": {"n": 2}},
        "measures": {"m": {"space": "s", "weights": [0.5, 0.7]}},
        "ambiguity_sets": {"a": {"kind": "finite_family", "space": "s", "measures": ["m"]}},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_problem_file(str(path))


def test_tree_sections_load_and_agree():
    pf = load_problem_file(CONDITIONAL)
    binary = pf.trees["binary"]
    explicit = pf.trees["explicit"]
    assert binary.depth == explicit.depth == 3
    assert len(binary.leaves) == len(explicit.leaves) == 4
    from_names = pf.filtrations["steps"]
    from_tree = pf.filtrations["steps_from_tree"]
    assert [p.atoms for p in from_tree.stages] == [p.atoms for p in from_names.stages]


def test_composite_same_through_tree_filtration(capsys):
    code, by_names = run_json(
        ["eval-composite", CONDITIONAL, "--rv", "zigzag", "--set", "avar_half",
         "--filtration", "steps"],
        capsys,
    )
    code2, by_tree = run_json(
        ["eval-composite", CONDITIONAL, "--rv", "zigzag", "--set", "avar_half",
         "--filtration", "steps_from_tree"],
        capsys,
    )
    assert code == code2 == 0
    assert by_names["results"]["value"] == pytest.approx(by_tree["results"]["value"])


def test_verify_builtin_byte_deterministic(capsys):
    argv = ["verify", "--builtin", "--trials", "2", "--format", "json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("edit", ["epsilon", "witness"])
def test_verify_file_fails_an_unattained_strictness_certificate(monkeypatch, capsys, edit):
    """The certificate check holds only if the witness is a member that
    charges its outcome with epsilon."""
    import drokit.verify as verify

    real = verify.is_strictly_monotone

    def patched(M, P):
        cert = real(M, P)
        if edit == "epsilon":
            return dataclasses.replace(cert, epsilon=cert.epsilon + 0.1)
        elsewhere = DiscreteMeasure.point_mass(M.n, (cert.outcome + 1) % M.n)
        return dataclasses.replace(cert, strict=False, epsilon=0.0, witness=elsewhere)

    monkeypatch.setattr(verify, "is_strictly_monotone", patched)
    code, doc = run_json(["verify", STATIC, "--trials", "5"], capsys)
    assert code == 1
    failed = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert "strict_monotonicity[pinned_ball]" in failed


def test_wasserstein_plan_cost_is_summed_from_the_plan(monkeypatch, capsys):
    """``plan_cost`` is the returned plan's cost, so a distance off its own
    plan fails ``plan_cost_matches``."""
    import drokit.transport as transport

    argv = ["wasserstein", DP_TRANSPORT, "--p", "spread", "--q", "shifted"]
    code, doc = run_json(argv, capsys)
    assert code == 0 and doc["results"]["plan_cost"] == doc["results"]["distance"] == 0.125
    real = transport.transport_simplex

    def shifted(*args):
        value, flow = real(*args)
        return value + 1e-3, flow

    monkeypatch.setattr(transport, "transport_simplex", shifted)
    code, doc = run_json(argv, capsys)
    assert code == 1
    assert doc["results"]["plan_cost"] == 0.125
    assert doc["checks"][0]["name"] == "plan_cost_matches" and not doc["checks"][0]["passed"]


def test_wasserstein_in_large_units_exits_0(tmp_path, capsys):
    """``plan_cost_matches`` compares in the units of the metric: on line
    metrics scaled by 1e8 the plan's cost and the distance agree to about
    1e-16 relative, which can exceed 1e-9 absolute."""
    rng = Rng(5)
    path = tmp_path / "large_units.json"
    for _ in range(20):
        x = np.sort(rng.uniforms(6, 0.0, 2.0))
        doc = {
            "version": "1",
            "spaces": {"line": {"n": 6, "metric": (1e8 * np.abs(x[:, None] - x)).tolist()}},
            "measures": {
                name: {"space": "line", "weights": rng.simplex(6).tolist()} for name in "pq"
            },
        }
        path.write_text(json.dumps(doc))
        assert main(["wasserstein", str(path), "--p", "p", "--q", "q"]) == 0
    capsys.readouterr()


def _three_stage_problem(rng, scale, n) -> dict:
    """Problem ``p``: 2 actions at every stage, all allowed, ``n`` outcomes
    at stages 1 and 2, two-member finite families, costs uniform in
    ``[-scale, scale)``."""
    doc = {"version": "1", "spaces": {"s1": {"n": n}, "s2": {"n": n}},
           "measures": {}, "ambiguity_sets": {}}
    for t in (1, 2):
        names = [f"q{t}{k}" for k in range(2)]
        for name in names:
            doc["measures"][name] = {"space": f"s{t}", "weights": rng.simplex(n).tolist()}
        doc["ambiguity_sets"][f"m{t}"] = {"kind": "finite_family", "measures": names}
    costs = [(scale * rng.uniforms(2, -1.0, 1.0)).reshape(2, 1).tolist()]
    costs += [(scale * rng.uniforms(2 * n, -1.0, 1.0)).reshape(2, n).tolist() for _ in (1, 2)]
    every = [[[0, 1]] * n] * 2
    doc["problems"] = {"p": {"n_actions": [2, 2, 2], "stage_sizes": [1, n, n],
                             "stage_sets": [None, "m1", "m2"], "costs": costs,
                             "feasible": [[0, 1], every, every]}}
    return doc


def test_dp_checks_hold_in_the_units_of_the_costs(tmp_path, capsys):
    """DP and enumeration agree to about 1e-16 of the cost scale; with costs
    scaled by 1e8 that exceeds 1e-9 absolute, and both ``solve --enumerate``
    and ``verify FILE`` exit 0."""
    rng = Rng(3)
    path = tmp_path / "large_costs.json"
    for _ in range(20):
        path.write_text(json.dumps(_three_stage_problem(rng, 1e8, 2)))
        assert main(["solve", str(path), "--problem", "p", "--enumerate"]) == 0
        assert main(["verify", str(path), "--trials", "5"]) == 0
    capsys.readouterr()


def test_ball_sweep_holds_in_the_units_of_z(tmp_path, capsys):
    """On a 5-point line the ball's gap meets ``L_Z * radius`` up to
    rounding in the units of Z; with Z scaled by 1e8 the sweep exits 0."""
    rng = Rng(5)
    path = tmp_path / "ball.json"
    for _ in range(20):
        x = np.sort(rng.uniforms(5, 0.0, 2.0))
        doc = {
            "version": "1",
            "spaces": {"line": {"n": 5, "metric": np.abs(x[:, None] - x).tolist()}},
            "measures": {"p": {"space": "line", "weights": rng.simplex(5).tolist()}},
            "random_variables": {
                "z": {"space": "line", "values": (1e8 * rng.uniforms(5, -1.0, 1.0)).tolist()}
            },
            "bound_specs": {"sweep": {"kind": "ball_sweep", "measure": "p", "space": "line",
                                      "rv": "z", "eps_grid": [0.0, 0.1, 0.5]}},
        }
        path.write_text(json.dumps(doc))
        assert main(["bounds", str(path), "--spec", "sweep"]) == 0
    capsys.readouterr()


def _two_stage_file(path, stage_weights, values) -> str:
    """Problem file with a two-stage rectangular spec ``two`` whose stage
    sets list the given member weights, and the objective ``z``."""
    doc = {"version": "1", "spaces": {"prod": {"n": len(values)}}, "measures": {},
           "random_variables": {"z": {"space": "prod", "values": list(values)}},
           "ambiguity_sets": {},
           "rectangular_specs": {"two": {"stage_spaces": ["s0", "s1"], "stage_sets": ["m0", "m1"]}}}
    for t, W in enumerate(stage_weights):
        doc["spaces"][f"s{t}"] = {"n": len(W[0])}
        names = [f"q{t}_{k}" for k in range(len(W))]
        for name, w in zip(names, W):
            doc["measures"][name] = {"space": f"s{t}", "weights": list(w)}
        doc["ambiguity_sets"][f"m{t}"] = {"kind": "finite_family", "measures": names}
    path.write_text(json.dumps(doc))
    return str(path)


def test_induced_set_checks_agree_in_the_units_of_z(tmp_path, capsys):
    """The induced maximum and the nested value agree to about 1e-16
    relative at any scale of Z; with Z scaled by 1e8 both checks pass."""
    rng = Rng(7)
    for _ in range(40):
        n1, n2 = 2 + rng.randint(2), 2 + rng.randint(2)
        W = [[rng.simplex(n).tolist() for _ in range(1 + rng.randint(3))] for n in (n1, n2)]
        Z = (1e8 * rng.uniforms(n1 * n2, -1.0, 1.0)).tolist()
        path = _two_stage_file(tmp_path / "two_stage.json", W, Z)
        argv = ["eval-composite", path, "--rv", "z", "--spec", "two", "--induced-set"]
        code, doc = run_json(argv, capsys)
        assert code == 0 and all(c["passed"] for c in doc["checks"])


def test_induced_set_of_avar_stages(tmp_path, capsys):
    """The induced set is built on the stage sets' vertices, so AVaR stages
    get one too: its maximum is the nested value."""
    doc = {"version": "1", "spaces": {"prod": {"n": 6}, "s0": {"n": 2}, "s1": {"n": 3}},
           "measures": {"p0": {"space": "s0", "weights": [0.6, 0.4]},
                        "p1": {"space": "s1", "weights": [0.5, 0.25, 0.25]}},
           "random_variables": {"z": {"space": "prod", "values": [8.0, -9.0, -2.0, 6.0, 7.0, 5.0]}},
           "ambiguity_sets": {"m0": {"kind": "avar", "alpha": 0.75, "reference": "p0"},
                              "m1": {"kind": "avar", "alpha": 0.5, "reference": "p1"}},
           "rectangular_specs": {"two": {"stage_spaces": ["s0", "s1"], "stage_sets": ["m0", "m1"]}}}
    path = tmp_path / "avar_stages.json"
    path.write_text(json.dumps(doc))
    argv = ["eval-composite", str(path), "--rv", "z", "--spec", "two", "--induced-set"]
    code, out = run_json(argv, capsys)
    assert code == 0 and [c["name"] for c in out["checks"]] == ["induced_max_equals_value"]
    assert out["results"]["induced_max"] == pytest.approx(out["results"]["value"], abs=1e-12)


def test_eval_composite_spec_whose_product_family_misses_a_history(tmp_path, capsys):
    """The first stage never charges outcome 1, so the composite fold over
    the product family hits an atom no member charges; the nested value is
    still defined and reported, without the composite and its check."""
    path = _two_stage_file(tmp_path / "two_stage.json", [[[1.0, 0.0]], [[0.5, 0.5]]],
                           [1.0, 2.0, 3.0, 4.0])
    code, doc = run_json(["eval-composite", path, "--rv", "z", "--spec", "two"], capsys)
    assert code == 0
    assert doc["results"]["value"] == 1.5 and "composite_value" not in doc["results"]
    assert [c["name"] for c in doc["checks"]] == ["evaluated"]


def _avar_file(path, alpha) -> str:
    """An AVaR set at level ``alpha`` whose reference leaves outcome 2 out."""
    doc = {
        "version": "1",
        "spaces": {"s": {"n": 4}},
        "measures": {"p": {"space": "s", "weights": [0.25, 0.25, 0.0, 0.5]}},
        "random_variables": {"z": {"space": "s", "values": [1.0, 3.0, 9.0, 2.0]}},
        "ambiguity_sets": {"M": {"kind": "avar", "alpha": alpha, "reference": "p"}},
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_avar_level_one_file_gives_the_essential_supremum(tmp_path, capsys):
    code, doc = run_json(["eval-static", _avar_file(tmp_path / "a.json", 1), "--rv", "z",
                          "--set", "M"], capsys)
    assert code == 0
    assert doc["results"]["value"] == 3.0
    assert doc["results"]["argmax_measure"] == [0.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("alpha", [1.5, -0.1])
def test_avar_level_outside_the_unit_interval_exits_2(alpha, tmp_path, capsys):
    argv = ["eval-static", _avar_file(tmp_path / "a.json", alpha), "--rv", "z", "--set", "M"]
    assert main(argv) == 2
    assert "alpha" in _one_error_line(capsys.readouterr().err)


def test_induced_set_above_the_cell_cap_exits_2(monkeypatch, capsys):
    """The cap counts cells: the witness's 4 products of 4 cells pass a cap
    of 10 products but not of 10 cells."""
    import drokit.composite as composite

    monkeypatch.setattr(composite, "_INDUCED_SET_CAP", 10)
    argv = ["eval-composite", CONDITIONAL, "--rv", "diagonal", "--spec", "gap_witness"]
    assert main(argv + ["--induced-set"]) == 2
    assert "cap" in _one_error_line(capsys.readouterr().err)


def test_ragged_finite_family_exits_2(tmp_path, capsys):
    """Members of different lengths make no weight matrix: one error line,
    exit 2, no traceback."""
    doc = {
        "version": "1",
        "spaces": {"two": {"n": 2}, "three": {"n": 3}},
        "measures": {"a": {"space": "two", "weights": [0.5, 0.5]},
                     "b": {"space": "three", "weights": [0.2, 0.3, 0.5]}},
        "random_variables": {"z": {"space": "two", "values": [1.0, 2.0]}},
        "ambiguity_sets": {"ragged": {"kind": "finite_family", "measures": ["a", "b"]}},
    }
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(doc))
    assert main(["eval-static", str(path), "--rv", "z", "--set", "ragged"]) == 2
    assert "family" in _one_error_line(capsys.readouterr().err)


def test_bounds_with_a_stage_metric_in_large_units_exits_0_or_2(tmp_path, capsys):
    """A stage metric in units of 1e8 is valid input. With ``leg2`` an
    8-point line metric scaled by 1e8, length-8 kernel rows and the objective
    on 16 points, ``bounds`` ends in a report or in one ``error:`` line on
    every draw, never in a traceback."""
    rng = Rng(5)
    for _ in range(10):
        x = np.sort(rng.uniforms(8, 0.0, 2.0))
        rows = [rng.simplex(8).tolist(), rng.simplex(8).tolist()]
        values = rng.uniforms(16, 0.0, 1.0).tolist()

        def edit(doc):
            doc["spaces"]["leg2"] = {"n": 8, "metric": (1e8 * np.abs(x[:, None] - x)).tolist()}
            doc["spaces"]["grid16"] = {"n": 16}
            doc["processes"]["two_leg"]["kernels"][1] = rows
            doc["random_variables"]["grid_cost"] = {"space": "grid16", "values": values}

        path = _edited_golden(tmp_path, edit)
        assert main(["bounds", path, "--spec", "stagewise"]) in (0, 2)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert sum(line.startswith("error:") for line in err.splitlines()) <= 1


def test_report_csv_roundtrip():
    rows = [{"epsilon": 0.5, "gap": 0.25, "bound": 1.0, "holds": True}]
    block = to_csv(rows, ("epsilon", "gap", "bound", "holds"))
    assert block == "epsilon,gap,bound,holds\n0.5,0.25,1.0,true\n"


@pytest.mark.parametrize(
    "section, name, field, value, path",
    [
        ("spaces", "s", "n", "abc", "spaces.s.n"),
        ("measures", "m", "weights", "xy", "measures.m.weights"),
    ],
)
def test_malformed_field_exits_2_naming_its_path(tmp_path, capsys, section, name, field, value, path):
    doc = {
        "version": "1",
        "spaces": {"s": {"n": 2}},
        "measures": {"m": {"space": "s", "weights": [0.5, 0.5]}},
        "random_variables": {"z": {"space": "s", "values": [1.0, 2.0]}},
        "ambiguity_sets": {"a": {"kind": "finite_family", "measures": ["m"]}},
    }
    doc[section][name][field] = value
    bad = tmp_path / "bad_field.json"
    bad.write_text(json.dumps(doc))
    assert main(["eval-static", str(bad), "--rv", "z", "--set", "a"]) == 2
    err = capsys.readouterr().err
    message = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(message) == 1 and path in message[0]
    assert "Traceback" not in err
    with pytest.raises(InputError, match=path):
        load_problem_file(str(bad))


NAN, INF = float("nan"), float("inf")
_BALL = ["eval-static", "--rv", "jump", "--set", "pinned_ball"]
_STAGEWISE = ["bounds", "--spec", "stagewise"]


@pytest.mark.parametrize(
    "golden, node, key, value, argv, field",
    [
        (STATIC, ("spaces", "bit", "metric", 0), 1, NAN, _BALL, "metric"),
        (STATIC, ("ambiguity_sets", "pinned_ball"), "radius", NAN, _BALL, "radius"),
        (STATIC, ("ambiguity_sets", "pinned_ball"), "radius", INF, _BALL, "radius"),
        (DP_TRANSPORT, ("processes", "two_leg", "kernels", 1, 0), 0, NAN, _STAGEWISE, "kernel"),
        (DP_TRANSPORT, ("bound_specs", "stagewise", "eps"), 0, NAN, _STAGEWISE, "eps"),
        (DP_TRANSPORT, ("bound_specs", "stagewise", "kappa"), 1, NAN, _STAGEWISE, "kappa"),
        (DP_TRANSPORT, ("bound_specs", "stagewise", "weights"), 0, NAN, _STAGEWISE, "weights"),
        (DP_TRANSPORT, ("bound_specs", "stagewise"), "lipschitz", NAN, _STAGEWISE, "lipschitz"),
        (DP_TRANSPORT, ("bound_specs", "ball_sweep", "eps_grid"), 2, NAN,
         ["bounds", "--spec", "ball_sweep"], "eps_grid"),
    ],
    ids=["metric-nan", "radius-nan", "radius-inf", "kernel-nan", "eps-nan", "kappa-nan",
         "weights-nan", "lipschitz-nan", "eps_grid-nan"],
)
def test_non_finite_input_exits_2_naming_its_field(tmp_path, capsys, golden, node, key, value, argv, field):
    """NaN or infinite numbers, which JSON's NaN and Infinity literals let in,
    are rejected where they enter, before any solve."""
    with open(golden) as fh:
        doc = json.load(fh)
    parent = doc
    for step in node:
        parent = parent[step]
    parent[key] = value
    bad = tmp_path / "non_finite.json"
    bad.write_text(json.dumps(doc))
    assert main([argv[0], str(bad)] + argv[1:]) == 2
    err = capsys.readouterr().err
    message = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(message) == 1 and field in message[0].replace(str(bad), "")
    assert "Traceback" not in err


# one entry of every float field: (golden file, node, key); the field's JSON
# path is the first three steps
FLOAT_FIELDS = {
    "alpha": (CONDITIONAL, ("ambiguity_sets", "avar_half"), "alpha"),
    "radius": (STATIC, ("ambiguity_sets", "pinned_ball"), "radius"),
    "lipschitz": (DP_TRANSPORT, ("bound_specs", "stagewise"), "lipschitz"),
    "targets": (STATIC, ("ambiguity_sets", "mean_03", "targets"), 0),
    "eps": (DP_TRANSPORT, ("bound_specs", "stagewise", "eps"), 1),
    "kappa": (DP_TRANSPORT, ("bound_specs", "stagewise", "kappa"), 0),
    "weights": (DP_TRANSPORT, ("bound_specs", "stagewise", "weights"), 1),
    "eps_grid": (DP_TRANSPORT, ("bound_specs", "ball_sweep", "eps_grid"), 2),
    "measure-weights": (STATIC, ("measures", "left", "weights"), 0),
    "values": (STATIC, ("random_variables", "payout", "values"), 0),
    "metric": (STATIC, ("spaces", "bit", "metric", 0), 1),
    "costs": (DP_TRANSPORT, ("problems", "carried", "costs", 2, 0), 0),
    "kernels": (DP_TRANSPORT, ("processes", "two_leg", "kernels", 1, 0), 0),
}


@pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "string"])
@pytest.mark.parametrize("field", sorted(FLOAT_FIELDS))
def test_bool_or_string_in_a_float_field_exits_2_naming_its_path(field, value, tmp_path, capsys):
    """A JSON boolean or numeric string is not a number: it is rejected where
    it enters, never converted (``true`` would read as 1, ``"0.5"`` as 0.5)."""
    golden, node, key = FLOAT_FIELDS[field]
    with open(golden) as fh:
        doc = json.load(fh)
    parent = doc
    for step in node:
        parent = parent[step]
    parent[key] = value
    bad = tmp_path / "not_a_number.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad), "--trials", "0"]) == 2
    message = _one_error_line(capsys.readouterr().err)
    path = ".".join((*node, key)[:3])
    assert path in message and "expected a number" in message


# mutated golden files: any document exits 0, 1 or 2 and never raises

_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.floats(-1e3, 1e3),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e300]),
    st.text(max_size=4),
    st.lists(st.floats(-2.0, 2.0), max_size=4),
    st.just({}),
)


def _mutate(doc, data) -> None:
    """Walk down from the root along drawn keys, then replace or delete the
    node reached."""
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.integers(0, 3)):
            node = child
            continue
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(_JSON_VALUES)
        return


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([STATIC, CONDITIONAL, DP_TRANSPORT]), st.integers(1, 3), st.data())
def test_mutated_golden_files_exit_cleanly(golden, mutations, data):
    with open(golden) as fh:
        doc = json.load(fh)
    for _ in range(mutations):
        if doc:
            _mutate(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            load_problem_file(path)
        except InputError:
            pass
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", path, "--trials", "2"])
    assert code in (0, 1, 2)
    if code == 2:
        assert [line for line in err.getvalue().splitlines() if line.startswith("error:")]


def test_python_m_drokit_runs_the_cli(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "drokit", *argv], capture_output=True, text=True, env=env
        )

    ok = run("verify", DP_TRANSPORT)
    assert ok.returncode == 0, ok.stderr
    assert "[PASS]" in ok.stdout
    bad = run("verify", str(tmp_path / "missing.json"))
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert len([line for line in bad.stderr.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in bad.stderr


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["eval-composite", CONDITIONAL, "--rv", "zigzag", "--set", "avar_half",
          "--filtration", "steps", "--induced-set"], ["--induced-set"]),
        (["eval-composite", CONDITIONAL, "--rv", "diagonal", "--spec", "gap_witness",
          "--set", "avar_half", "--filtration", "steps", "--reference", "nosuch"],
         ["--set", "--filtration", "--reference"]),
        (["eval-composite", CONDITIONAL, "--rv", "diagonal", "--spec", "gap_witness",
          "--reference", "null_tail"], ["--reference"]),
        (["eval-conditional", CONDITIONAL, "--rv", "zigzag", "--set", "avar_half",
          "--partition", "halves", "--nested-avar", "--reference", "null_tail"], ["--reference"]),
    ],
    ids=["induced-set-with-filtration", "filtration-flags-with-spec", "reference-with-spec",
         "reference-with-nested-avar"],
)
def test_flags_of_the_other_mode_exit_2(argv, flags, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    message = _one_error_line(captured.err)
    assert captured.out == "" and all(flag in message for flag in flags)


def test_eval_composite_filtration_path_folds_once(monkeypatch, capsys):
    """The report's value is the dominance check's composite value: one fold."""
    import drokit.cli as cli
    import drokit.composite as composite

    calls = []
    fold = composite.composite_functional

    def counted(*args):
        calls.append(args)
        return fold(*args)

    monkeypatch.setattr(composite, "composite_functional", counted)
    monkeypatch.setattr(cli, "composite_functional", counted, raising=False)
    code, doc = run_json(FILE_ARGV["eval-composite"], capsys)
    assert code == 0 and len(calls) == 1
    assert doc["results"]["value"] == fold(*calls[0])


def _one_char_names_doc() -> dict:
    """A file whose objects all have one-character names, so that a name list
    written as a string of those names loads when strings are split."""
    return {
        "version": "1",
        "spaces": {"s": {"n": 2, "labels": ["x", "y"], "metric": [[0.0, 1.0], [1.0, 0.0]]}},
        "measures": {"a": {"space": "s", "weights": [0.5, 0.5]},
                     "b": {"space": "s", "weights": [1.0, 0.0]}},
        "random_variables": {"z": {"space": "s", "values": [1.0, 2.0]}},
        "partitions": {"t": {"space": "s", "atoms": [[0, 1]]}},
        "filtrations": {"F": {"stages": ["t"]}},
        "ambiguity_sets": {
            "M": {"kind": "finite_family", "measures": ["a", "b"]},
            "m": {"kind": "moment", "support": "s", "functions": ["z"], "targets": [1.5]},
        },
        "rectangular_specs": {"R": {"stage_spaces": ["s"], "stage_sets": ["M"]}},
        "problems": {"P": {"n_actions": [1, 1], "stage_sizes": [1, 2], "stage_sets": [None, "M"],
                           "costs": [[[0.0]], [[1.0, 2.0]]], "feasible": [[0], [[[0], [0]]]]}},
        "processes": {"p": {"stage_spaces": ["s"], "kernels": [[0.5, 0.5]]}},
    }


@pytest.mark.parametrize(
    "path, value",
    [
        (("ambiguity_sets", "M", "measures"), "ab"),
        (("ambiguity_sets", "m", "functions"), "z"),
        (("filtrations", "F", "stages"), "t"),
        (("rectangular_specs", "R", "stage_spaces"), "s"),
        (("rectangular_specs", "R", "stage_sets"), "M"),
        (("problems", "P", "stage_sets"), "M"),
        (("problems", "P", "stage_sets"), [None, None]),
        (("processes", "p", "stage_spaces"), "s"),
        (("spaces", "s", "labels"), "xy"),
        (("spaces", "s", "labels"), [1, True]),
    ],
    ids=lambda v: ".".join(v) if isinstance(v, tuple) else json.dumps(v),
)
def test_name_lists_take_json_arrays_of_strings_only(path, value, tmp_path, capsys):
    doc = _one_char_names_doc()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    argv = ["--rv", "z", "--set", "M"]
    assert main(["eval-static", str(good)] + argv) == 0
    *head, key = path
    node = doc
    for part in head:
        node = node[part]
    node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval-static", str(bad)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and ".".join(path) in _one_error_line(captured.err)
