from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from maxplusprob.cli import run

IDEMPOTENT = {"space": ["a", "b"], "kind": "idempotent", "weights": {"a": 0, "b": -1}}
CLASSICAL = {"space": ["a", "b"], "kind": "classical", "weights": {"a": 0.5, "b": 0.5}}
FUNCTION = {"space": ["a", "b"], "values": {"a": 2, "b": 4}}
MERGE_MAP = {
    "domain": ["a", "b", "c"],
    "codomain": ["a", "b"],
    "map": {"a": "a", "b": "b", "c": "a"},
}
WIDE = {
    "space": ["a", "b", "c"],
    "kind": "idempotent",
    "weights": {"a": 0, "b": -0.5, "c": -0.25},
}
FLAT_DENSITY = {"breakpoints": [[0, 0], [1, 0]], "lipschitz": 0}
RAMP = {"breakpoints": [[0, 0], [1, 1]], "lipschitz": 1}


@pytest.fixture
def doc(tmp_path):
    def write(name: str, payload: object) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def invoke(capsys, *argv: str) -> tuple[int, object]:
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- happy paths --------------------------------------------------------------


def test_eval_idempotent(doc, capsys):
    code, out = invoke(
        capsys, "eval", "--measure", doc("m.json", IDEMPOTENT),
        "--function", doc("f.json", FUNCTION),
    )
    assert code == 0
    assert out == {"value": 3}


def test_eval_classical(doc, capsys):
    code, out = invoke(
        capsys, "eval", "--measure", doc("m.json", CLASSICAL),
        "--function", doc("f.json", FUNCTION),
    )
    assert code == 0
    assert out == {"value": 3}


@pytest.mark.parametrize(
    "masses", ({"a": 0.1577549464810931, "b": 0.842245053518907}, {"a": 0.5, "b": 0.5000000000005})
)
def test_eval_classical_at_the_float_maximum(doc, capsys, masses):
    # The expectation's sum passed the float maximum and exited 1.
    top = 1.7976931348623157e308
    code, out = invoke(
        capsys, "eval",
        "--measure", doc("m.json", {"space": ["a", "b"], "kind": "classical", "weights": masses}),
        "--function", doc("f.json", {"space": ["a", "b"], "values": {"a": top, "b": top}}),
    )
    assert code == 0
    assert out == {"value": 1.79769313486e308}


def test_push_takes_fiber_maxima(doc, capsys):
    code, out = invoke(
        capsys, "push", "--measure", doc("m.json", WIDE),
        "--map", doc("map.json", MERGE_MAP),
    )
    assert code == 0
    assert out == {
        "space": ["a", "b"],
        "kind": "idempotent",
        "weights": {"a": 0, "b": -0.5},
    }


def test_product_of_idempotent_measures(doc, capsys):
    path = doc("m.json", IDEMPOTENT)
    code, out = invoke(capsys, "product", "--measure", path, "--measure2", path)
    assert code == 0
    assert out["kind"] == "idempotent"
    assert out["weights"] == {"(a,a)": 0, "(a,b)": -1, "(b,a)": -1, "(b,b)": -2}


def test_convert_both_ways(doc, capsys):
    flat = {"space": ["a", "b"], "kind": "idempotent", "weights": {"a": 0, "b": 0}}
    code, out = invoke(
        capsys, "convert", "--measure", doc("m.json", flat), "--to", "classical"
    )
    assert code == 0
    assert out == {
        "space": ["a", "b"],
        "kind": "classical",
        "weights": {"a": 0.5, "b": 0.5},
    }
    code, back = invoke(
        capsys, "convert", "--measure", doc("c.json", CLASSICAL), "--to", "idempotent"
    )
    assert code == 0
    assert back["weights"] == {"a": 0, "b": 0}


def test_dist_reports_measured_and_tabulated(doc, capsys):
    code, out = invoke(capsys, "dist", "--epsilon", "0.25")
    assert code == 0
    assert out == {
        "closed_form": 0.333333333333,
        "epsilon": 0.25,
        "measured": 0.333333333333,
    }


def test_dist_branches_disagree_above_one_half(capsys):
    code, out = invoke(capsys, "dist", "--epsilon", "0.8")
    assert code == 0
    assert out["closed_form"] == 1.25
    assert out["measured"] == 1.75


def test_approx_toward_point(doc, capsys):
    code, out = invoke(
        capsys, "approx", "--measure", doc("m.json", IDEMPOTENT),
        "--epsilon", "0.25", "--point", "b",
    )
    assert code == 0
    assert out["weights"]["a"] == 0
    assert out["weights"]["b"] == pytest.approx(-1.0, abs=1e-9)


def test_approx_toward_second_measure(doc, capsys):
    other = {"space": ["a", "b"], "kind": "idempotent", "weights": {"a": "-inf", "b": 0}}
    code, out = invoke(
        capsys, "approx", "--measure", doc("m.json", IDEMPOTENT),
        "--epsilon", "1.0", "--measure2", doc("n.json", other),
    )
    assert code == 0
    assert out["weights"] == {"a": "-inf", "b": 0}


def test_density_converge_refuses_a_grid_above_one_million(doc, capsys):
    code, out = invoke(
        capsys, "density-converge",
        "--density", doc("d.json", FLAT_DENSITY),
        "--function", doc("phi.json", RAMP),
        "--grid", "10", "--grid", "1000001",
    )
    assert code == 2
    assert out == {"error": "the grid size must be at most 1000000, got 1000001"}


def test_verify_counterexample_document(capsys):
    code, out = invoke(capsys, "verify-counterexample")
    assert code == 0
    assert out["classical_injective"] is True
    assert out["naturality_gap"] == 0.69314718056
    witness = out["idempotent_witness"]
    assert witness["mu"]["weights"] == {"a": -1, "b": 0, "c": 0}
    assert witness["nu"]["weights"] == {"a": -2, "b": 0, "c": 0}
    assert witness["image"]["under_f"]["weights"] == {"a": 0, "b": 0}
    assert witness["image"]["under_g"]["weights"] == {"a": 0, "c": 0}


def test_density_converge_table(doc, capsys):
    code, out = invoke(
        capsys, "density-converge",
        "--density", doc("d.json", FLAT_DENSITY),
        "--function", doc("phi.json", RAMP),
        "--grid", "10", "--grid", "100",
    )
    assert code == 0
    assert out["reference"] == 1
    assert out["within_bound"] is True
    assert out["non_increasing"] is True
    assert out["rows"] == [
        {"bound": 0.1, "error": 0, "n": 10},
        {"bound": 0.01, "error": 0, "n": 100},
    ]


def test_output_is_byte_stable(doc, capsys):
    argv = ["dist", "--epsilon", "0.37"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_main_reads_argv_and_exits_with_the_run_code(doc):
    # A bad subcommand must exit 2 with a JSON error on stdout.
    result = subprocess.run(
        [
            sys.executable, "-c",
            "from maxplusprob.cli import main; main()",
            "bogus-subcommand",
        ],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert "error" in json.loads(result.stdout)


def test_console_script_runs(doc, tmp_path):
    # The console script is declared as the function ``__main__`` runs, and
    # ``python -m maxplusprob`` runs it in a real process, installed or not.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["maxplusprob"] == "maxplusprob.cli:main"

    m = tmp_path / "m.json"
    m.write_text(json.dumps(IDEMPOTENT))
    f = tmp_path / "f.json"
    f.write_text(json.dumps(FUNCTION))
    result = subprocess.run(
        [
            sys.executable, "-m", "maxplusprob",
            "eval", "--measure", str(m), "--function", str(f),
        ],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"value": 3}


def test_only_density_sampling_loads_numpy(doc):
    # numpy costs more than the rest of a cold start; importing the package
    # and running any subcommand that samples no density must not load it.
    # Nor may the import load fractions, and decimal with it, or the
    # dataclasses machinery and the inspect module it pulls in.
    data = Path(__file__).resolve().parent / "data"
    bare = subprocess.run(
        [
            sys.executable, "-c",
            "import maxplusprob, maxplusprob.cli, sys;"
            " print(sorted({'numpy', 'fractions', 'decimal', 'dataclasses', 'inspect'}"
            " & set(sys.modules)))",
        ],
        capture_output=True, text=True,
    )
    assert bare.returncode == 0, bare.stderr
    assert bare.stdout == "[]\n"
    evaluated = subprocess.run(
        [
            sys.executable, "-X", "importtime", "-m", "maxplusprob", "eval",
            "--measure", str(data / "m.json"), "--function", str(data / "f.json"),
        ],
        capture_output=True, text=True,
    )
    assert evaluated.returncode == 0, evaluated.stderr
    assert "maxplusprob.cli" in evaluated.stderr
    assert [line for line in evaluated.stderr.splitlines() if "numpy" in line] == []
    converged = subprocess.run(
        [
            sys.executable, "-m", "maxplusprob", "density-converge",
            "--density", doc("d.json", FLAT_DENSITY),
            "--function", doc("phi.json", RAMP),
            "--grid", "10",
        ],
        capture_output=True, text=True,
    )
    assert converged.returncode == 0, converged.stderr
    assert json.loads(converged.stdout)["within_bound"] is True


def test_every_subcommand_runs_without_numpy(doc):
    # numpy is no runtime dependency: with it unimportable, every
    # subcommand still runs, and density-converge prints what it prints
    # in a normal process.
    block_numpy = (
        "import sys; sys.modules['numpy'] = None;"
        " from maxplusprob.cli import main; main()"
    )
    measure = doc("m.json", IDEMPOTENT)
    density_args = [
        "density-converge",
        "--density", doc("d.json", {"breakpoints": [[0, -1], [0.3, 0], [1, -2]],
                                    "lipschitz": 3.34}),
        "--function", doc("phi.json", {"breakpoints": [[0, 0.5], [0.71, -0.2], [1, 1]],
                                       "lipschitz": 4.14}),
        "--grid", "10", "--grid", "100", "--grid", "1000",
    ]
    subcommands = [
        ["eval", "--measure", measure, "--function", doc("f.json", FUNCTION)],
        ["push", "--measure", doc("w.json", WIDE), "--map", doc("map.json", MERGE_MAP)],
        ["product", "--measure", measure, "--measure2", measure],
        ["convert", "--measure", measure, "--to", "classical"],
        ["dist", "--epsilon", "0.25"],
        ["approx", "--measure", measure, "--epsilon", "0.25", "--point", "b"],
        ["verify-counterexample"],
        density_args,
    ]
    for argv in subcommands:
        blocked = subprocess.run(
            [sys.executable, "-c", block_numpy, *argv], capture_output=True, text=True
        )
        assert blocked.returncode == 0, (argv[0], blocked.stdout, blocked.stderr)
    normal = subprocess.run(
        [sys.executable, "-m", "maxplusprob", *density_args], capture_output=True, text=True
    )
    assert normal.returncode == 0, normal.stderr
    assert blocked.stdout == normal.stdout


# -- error handling -------------------------------------------------------------


def test_missing_subcommand(capsys):
    code, out = invoke(capsys)
    assert code == 2
    assert "subcommand" in out["error"]


def test_unknown_flag(doc, capsys):
    code, out = invoke(capsys, "dist", "--epsilon", "0.5", "--bogus")
    assert code == 2
    assert "error" in out


def test_unreadable_file(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    code, out = invoke(capsys, "eval", "--measure", missing, "--function", missing)
    assert code == 2
    assert "cannot read" in out["error"]


def test_invalid_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = invoke(capsys, "eval", "--measure", str(path), "--function", str(path))
    assert code == 2
    assert "not valid JSON" in out["error"]


def test_schema_violation_reports_path(doc, capsys):
    bad = {"space": ["a"], "kind": "idempotent", "weights": {"a": "zero"}}
    code, out = invoke(
        capsys, "eval", "--measure", doc("bad.json", bad),
        "--function", doc("f.json", {"space": ["a"], "values": {"a": 1}}),
    )
    assert code == 2
    assert out["error"].startswith("weights.a:")


def test_huge_integer_literal_is_a_schema_error(doc, tmp_path, capsys):
    # 401 digits: beyond the float range, so ``float`` would overflow.
    path = tmp_path / "huge.json"
    path.write_text(
        '{"space": ["a"], "kind": "classical", "weights": {"a": 1%s}}' % ("0" * 400)
    )
    code, out = invoke(
        capsys, "eval", "--measure", str(path),
        "--function", doc("f.json", {"space": ["a"], "values": {"a": 1}}),
    )
    assert code == 2
    assert out == {"error": "weights.a: expected a finite number"}


def test_invariant_violation_exits_two(doc, capsys):
    bad = {"space": ["a", "b"], "kind": "classical", "weights": {"a": 0.5, "b": 0.6}}
    code, out = invoke(
        capsys, "eval", "--measure", doc("bad.json", bad),
        "--function", doc("f.json", FUNCTION),
    )
    assert code == 2
    assert "renormalize" in out["error"]


def test_classical_masses_summing_beyond_the_float_range_exit_two(doc, capsys):
    # fsum of these masses overflows; the constructor reads that as an
    # infinite sum instead of letting an internal error escape.
    huge = {"space": ["a", "b"], "kind": "classical", "weights": {"a": 1e308, "b": 1e308}}
    code, out = invoke(
        capsys, "eval", "--measure", doc("huge.json", huge),
        "--function", doc("f.json", FUNCTION),
    )
    assert code == 2
    assert out == {
        "error": "weights: weights sum to inf, not 1; pass renormalize=True to rescale"
    }


def test_bad_epsilon_exits_two(capsys):
    code, out = invoke(capsys, "dist", "--epsilon", "0")
    assert code == 2
    assert "epsilon" in out["error"]
    code, out = invoke(capsys, "dist", "--epsilon", "abc")
    assert code == 2


def test_product_requires_matching_kinds(doc, capsys):
    code, out = invoke(
        capsys, "product", "--measure", doc("m.json", IDEMPOTENT),
        "--measure2", doc("n.json", CLASSICAL),
    )
    assert code == 2
    assert "same kind" in out["error"]


def test_product_whose_weight_sum_overflows_names_the_pair(doc, capsys):
    low = {"space": ["a", "b"], "kind": "idempotent", "weights": {"a": 0, "b": -1e308}}
    path = doc("m.json", low)
    code, out = invoke(capsys, "product", "--measure", path, "--measure2", path)
    assert code == 2
    assert out["error"].startswith("atom (b,b) of the product: the weight sum")
    assert "overflows" in out["error"]


def test_product_of_labels_that_spell_the_pair_syntax(doc, capsys):
    left = {"space": ["a,b", "a"], "kind": "idempotent", "weights": {"a,b": 0, "a": -1}}
    right = {"space": ["c", "b,c"], "kind": "idempotent", "weights": {"c": -2, "b,c": 0}}
    code, out = invoke(
        capsys, "product", "--measure", doc("l.json", left), "--measure2", doc("r.json", right)
    )
    assert code == 0
    assert out == {
        "space": ["(a\\,b,c)", "(a\\,b,b\\,c)", "(a,c)", "(a,b\\,c)"],
        "kind": "idempotent",
        "weights": {"(a\\,b,c)": -2, "(a\\,b,b\\,c)": 0, "(a,c)": -3, "(a,b\\,c)": -1},
    }


def test_convert_rejects_no_op_directions(doc, capsys):
    code, out = invoke(
        capsys, "convert", "--measure", doc("m.json", CLASSICAL), "--to", "classical"
    )
    assert code == 2
    assert "already classical" in out["error"]
    code, out = invoke(
        capsys, "convert", "--measure", doc("m.json", IDEMPOTENT), "--to", "idempotent"
    )
    assert code == 2
    assert "already idempotent" in out["error"]


def test_approx_needs_exactly_one_target(doc, capsys):
    m = doc("m.json", IDEMPOTENT)
    code, out = invoke(capsys, "approx", "--measure", m, "--epsilon", "0.5")
    assert code == 2
    assert "exactly one" in out["error"]
    code, out = invoke(
        capsys, "approx", "--measure", m, "--epsilon", "0.5",
        "--point", "a", "--measure2", m,
    )
    assert code == 2
    assert "exactly one" in out["error"]


def test_approx_rejects_classical_measures(doc, capsys):
    code, out = invoke(
        capsys, "approx", "--measure", doc("m.json", CLASSICAL),
        "--epsilon", "0.5", "--point", "a",
    )
    assert code == 2
    assert "idempotent" in out["error"]
    code, out = invoke(
        capsys, "approx", "--measure", doc("m.json", IDEMPOTENT),
        "--epsilon", "0.5", "--measure2", doc("m2.json", CLASSICAL),
    )
    assert code == 2
    assert "idempotent second measure" in out["error"]


def test_help_exits_zero():
    assert run(["--help"]) == 0
