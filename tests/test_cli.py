"""Command-line front end: spec parsing, reports, exit codes, determinism."""
import importlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kstab.cli import main
from kstab.specio import SpecError, parse_jobspec

REPO = Path(__file__).resolve().parent.parent

SU2_SPEC = {
    "schema": "kstab/1",
    "root_system": {"series": "A", "rank": 1},
    "polytope": {"vertices": [["1"], ["2"]]},
    "pl_function": {"pieces": [{"a": ["1"], "b": "0"}]},
    "R": "3",
}


SU3_SPEC = {
    "schema": "kstab/1",
    "root_system": {"series": "A", "rank": 2},
    "polytope": {"vertices": [["1", "1"], ["2", "1"], ["1", "2"], ["2", "2"]]},
    "pl_function": {"pieces": [{"a": ["1", "0"], "b": "0"}, {"a": ["0", "1"], "b": "0"}]},
    "R": "3",
}


def _pick_h(nvars, exp):
    return dict(SU3_SPEC, options={"pick_h": {"nvars": nvars, "terms": [{"exp": exp, "coef": "1"}]}})


# A vertex too large for a float: the exact layer takes it, the walks and the
# float pipeline must refuse it up front.
HUGE_SPEC = dict(SU2_SPEC, polytope={"vertices": [["1"], ["1e400"]]})


@pytest.fixture
def su2_spec(tmp_path):
    path = tmp_path / "su2_12.json"
    path.write_text(json.dumps(SU2_SPEC))
    return str(path)


def test_futaki_oracle_agreement(su2_spec, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["futaki", "--spec", su2_spec, "--oracle", "--kmax", "8", "--no-meta", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["F1_closed"] == "-2/27"
    assert report["F1_oracle"] == "-2/27"
    assert report["agreement"] is True
    assert report["convention"]["qn1_pfg_ratio"] == "1/2"
    assert "meta" not in report
    # exact values are strings, never floats
    assert isinstance(report["vol_W"], str)
    captured = capsys.readouterr()
    assert "-2/27" in captured.out


def test_report_determinism(su2_spec, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert (
            main(["futaki", "--spec", su2_spec, "--oracle", "--no-meta", "--out", str(out)])
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_futaki_without_oracle(su2_spec, tmp_path):
    out = tmp_path / "plain.json"
    assert main(["futaki", "--spec", su2_spec, "--no-meta", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["F1_closed"] == "-2/27"
    assert report["F1_oracle"] is None
    assert report["agreement"] is None


def test_dims_command(capsys):
    assert main(["dims", "--series", "A", "--rank", "2", "--lambda", "1,1"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert main(["dims", "--cartan", "[[2,-1],[-3,2]]", "--lambda", "0,1"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_positivity_error_exits_2(tmp_path, capsys):
    bad = dict(SU2_SPEC, polytope={"vertices": [["0"], ["1"]]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["futaki", "--spec", str(path)]) == 2
    assert "positive chamber" in capsys.readouterr().err


def test_oracle_refuses_an_oversized_walk(tmp_path, capsys):
    """A rational kink drives the admissible modulus to 9,246 on this triangle."""
    spec = {
        "schema": "kstab/1",
        "root_system": {"series": "A", "rank": 2},
        "polytope": {"vertices": [["1", "1"], ["3", "4"], ["4", "4"]]},
        "pl_function": {
            "pieces": [
                {"a": ["1", "3/2"], "b": "-17/6"},
                {"a": ["2/3", "-2"], "b": "4/3"},
                {"a": ["-1", "-4/3"], "b": "4/3"},
            ]
        },
        "R": "3",
    }
    path = tmp_path / "kinked_triangle.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    assert main(["futaki", "--spec", str(path), "--oracle", "--no-meta"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "3.4e+10 bounding-box lattice points over 7 dilates" in err
    assert "modulus 9246" in err


@pytest.mark.parametrize("command", ["mabuchi", "scalar"])
def test_graded_commands_refuse_an_oversized_rule(command, tmp_path, capsys):
    """An A3 cube at the CLI defaults would take ~8.6e8 nodes per level."""
    spec = {
        "schema": "kstab/1",
        "root_system": {"series": "A", "rank": 3},
        "polytope": {"vertices": [[str(1 + (i >> b & 1)) for b in range(3)] for i in range(8)]},
    }
    path = tmp_path / "a3_cube.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    assert main([command, "--spec", str(path), "--no-meta"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "~8.6e+08 nodes" in err
    assert "limit is 2e+06" in err


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad option values itself
        return exc.code


@pytest.mark.parametrize(
    "spec, argv, message",
    [
        pytest.param("{not json", ["futaki"], "line 1", id="broken-json"),
        pytest.param(dict(SU2_SPEC, R=3.5), ["futaki", "--oracle"], "rationals", id="float-R"),
        pytest.param(
            dict(SU2_SPEC, pl_function={"pieces": 5}),
            ["futaki"],
            "pl_function.pieces",
            id="pieces-not-a-list",
        ),
        pytest.param(
            dict(SU2_SPEC, root_system={"cartan": [2]}),
            ["futaki"],
            "root_system.cartan",
            id="spec-cartan-not-a-matrix",
        ),
        pytest.param(SU2_SPEC, ["dims", "--cartan", "5", "--lambda", "1"], "Cartan", id="cartan-scalar"),
        pytest.param(SU2_SPEC, ["dims", "--cartan", "[2]", "--lambda", "1"], "Cartan", id="cartan-flat-list"),
        pytest.param(SU2_SPEC, ["dims", "--cartan", "[[2.9]]", "--lambda", "1"], "Cartan", id="cartan-float"),
        pytest.param(SU2_SPEC, ["dims", "--cartan", "[[null]]", "--lambda", "1"], "Cartan", id="cartan-null"),
        pytest.param(
            dict(SU2_SPEC, root_system={"cartan": [[True]]}),
            ["futaki"],
            "root_system.cartan",
            id="spec-cartan-bool",
        ),
        pytest.param(
            SU2_SPEC,
            ["dims", "--cartan", "[[2, false], [false, 2]]", "--lambda", "1,1"],
            "Cartan",
            id="cartan-false-as-zero",
        ),
        pytest.param(
            dict(SU2_SPEC, potential=[1, 2]),
            ["scalar"],
            "spec.potential: expected an object",
            id="potential-not-an-object",
        ),
        pytest.param(
            SU2_SPEC, ["scalar", "--potential", "spec.json"], "unrecognized arguments: --potential spec.json",
            id="scalar-potential-option",
        ),
        pytest.param(
            SU2_SPEC, ["mabuchi", "--potential", "spec.json"], "unrecognized arguments: --potential spec.json",
            id="mabuchi-potential-option",
        ),
        pytest.param(SU2_SPEC, ["mabuchi", "--A", "nope"], "error: --A: unknown A preset 'nope'",
                     id="A-unknown-preset"),
        pytest.param(SU2_SPEC, ["scalar", "--grid", "0"], "--grid", id="grid-0"),
        pytest.param(
            SU2_SPEC,
            ["scalar", "--grid", "100001"],
            "--grid: 100001 grid points exceed the limit of 100000",
            id="grid-over-limit",
        ),
        pytest.param(
            SU2_SPEC,
            ["mabuchi", "--residuals", "r.csv", "--grid", "20000000"],
            "--grid: 20000000 grid points exceed the limit of 100000",
            id="residual-grid-over-limit",
        ),
        pytest.param(
            dict(SU2_SPEC, root_system={"series": "A", "rank": "1"}),
            ["futaki"],
            "root_system.rank",
            id="rank-string",
        ),
        pytest.param(
            dict(SU2_SPEC, root_system={"series": "A", "rank": 17}),
            ["futaki"],
            "root_system: rank 17 exceeds the limit of 16",
            id="rank-over-limit",
        ),
        pytest.param(
            SU2_SPEC,
            ["dims", "--series", "B", "--rank", "17", "--lambda", "1"],
            "rank 17 exceeds the limit of 16",
            id="dims-rank-over-limit",
        ),
        pytest.param(
            # nonnegative vectors holding the basis, but no root system: dimension (1, 0) = 8/3
            dict(SU3_SPEC, root_system={"m_vectors": [[1, 0], [0, 1], [1, 2]]}),
            ["futaki"],
            "root_system: unknown key 'm_vectors'",
            id="m-vectors-key",
        ),
        pytest.param(
            dict(SU2_SPEC, root_system={"cartan": []}),
            ["futaki"],
            "root_system.cartan: Cartan matrix is empty",
            id="spec-cartan-empty",
        ),
        pytest.param(
            SU2_SPEC, ["dims", "--cartan", "[]", "--lambda", "1"], "error: --cartan: Cartan matrix is empty",
            id="dims-cartan-empty",
        ),
        pytest.param(
            SU2_SPEC, ["dims", "--cartan", "nope", "--lambda", "1"], "error: --cartan: Expecting value",
            id="dims-cartan-not-json",
        ),
        pytest.param(
            _pick_h(2, [1.5, 0]),
            ["pick"],
            "spec.options.pick_h.terms[0].exp[0]: expected an integer, got 1.5",
            id="pick-h-float-exp",
        ),
        pytest.param(
            _pick_h("2", [2, 0]),
            ["pick"],
            "spec.options.pick_h.nvars: expected an integer, got '2'",
            id="pick-h-string-nvars",
        ),
        pytest.param(
            _pick_h(3, [2, 0, 0]),
            ["pick"],
            "spec.options.pick_h.nvars: expected 2, the polytope dimension, got 3",
            id="pick-h-nvars-mismatch",
        ),
        *(
            pytest.param(
                dict(SU3_SPEC, options={"pick_h": {"nvars": 5, "terms": "junk"}}),
                [command],
                "spec.options.pick_h.nvars: expected 2, the polytope dimension, got 5",
                id="pick-h-junk-" + command,
            )
            for command in ("futaki", "pick", "scalar", "mabuchi")  # each parses pick_h at load
        ),
        pytest.param(
            dict(SU2_SPEC, potential={"canonical": True}),
            ["scalar"],
            "spec.potential: unknown key 'canonical'",
            id="canonical-key",
        ),
        pytest.param(
            dict(SU3_SPEC, root_system={"series": "B", "rank": 2, "cartan": [[2, -1], [-1, 2]]}),
            ["futaki"],
            "root_system: give either 'series'/'rank' or 'cartan', not both",
            id="root-system-two-routes",
        ),
        pytest.param(
            dict(SU2_SPEC, polytope={"vertices": [["1"], ["2"]], "halfspaces": [{"normal": ["1"], "offset": "5"}]}),
            ["futaki"],
            "polytope: give either 'vertices' or 'halfspaces', not both",
            id="polytope-two-routes",
        ),
        pytest.param(
            SU2_SPEC,
            ["dims", "--series", "B", "--rank", "2", "--cartan", "[[2,-1],[-1,2]]", "--lambda", "1,0"],
            "dims: give either --series/--rank or --cartan, not both",
            id="dims-two-routes",
        ),
        pytest.param(
            dict(SU2_SPEC, potentail={"canonical": False}),
            ["pick"],
            "spec: unknown key 'potentail'",
            id="unknown-key-top-level",
        ),
        pytest.param(
            dict(SU2_SPEC, potential={"perturbaton": {"nvars": 1, "terms": []}}),
            ["scalar"],
            "spec.potential: unknown key 'perturbaton'",
            id="unknown-key-potential",
        ),
        pytest.param(
            dict(SU3_SPEC, options={"pick_g": {}}),
            ["pick"],
            "spec.options: unknown key 'pick_g'",
            id="unknown-key-options",
        ),
        pytest.param(
            dict(SU2_SPEC, root_system={"series": "A", "rank": 1, "rnak": 2}),
            ["futaki"],
            "root_system: unknown key 'rnak'",
            id="unknown-key-root-system",
        ),
        pytest.param(
            dict(SU2_SPEC, polytope={"vertices": [["1"], ["2"]], "vertexes": []}),
            ["futaki"],
            "polytope: unknown key 'vertexes'",
            id="unknown-key-polytope",
        ),
        pytest.param(
            dict(SU2_SPEC, polytope={"halfspaces": [
                {"normal": ["1"], "offset": "-1"},
                {"normal": ["-1"], "offset": "2", "ofset": "3"},
            ]}),
            ["futaki"],
            "polytope.halfspaces[1]: unknown key 'ofset'",
            id="unknown-key-halfspace",
        ),
        pytest.param(
            dict(SU2_SPEC, pl_function={"pieces": [{"a": ["1"], "b": "0"}], "piece": []}),
            ["futaki"],
            "pl_function: unknown key 'piece'",
            id="unknown-key-pl-function",
        ),
        pytest.param(
            dict(SU2_SPEC, pl_function={"pieces": [{"a": ["1"], "b": "0", "c": "1"}]}),
            ["futaki"],
            "pl_function.pieces[0]: unknown key 'c'",
            id="unknown-key-piece",
        ),
        pytest.param(
            dict(SU3_SPEC, options={"pick_h": {"nvars": 2, "terms": [], "degree": 2}}),
            ["pick"],
            "spec.options.pick_h: unknown key 'degree'",
            id="unknown-key-polynomial",
        ),
        pytest.param(
            dict(SU3_SPEC, options={"pick_h": {"nvars": 2, "terms": [{"exp": [2, 0], "coeff": "1"}]}}),
            ["pick"],
            "spec.options.pick_h.terms[0]: unknown key 'coeff'",
            id="unknown-key-term",
        ),
        pytest.param(
            SU2_SPEC,
            ["dims", "--series", "A", "--rank", "2", "--lambda", "1.5,1"],
            "argument --lambda: expected comma-separated integers, got '1.5,1'",
            id="lambda-float",
        ),
        pytest.param(
            SU2_SPEC,
            ["dims", "--series", "A", "--rank", "2", "--lambda", "1,,1"],
            "argument --lambda: expected comma-separated integers",
            id="lambda-empty-entry",
        ),
        pytest.param(
            SU2_SPEC,
            ["dims", "--series", "A", "--rank", "2", "--lambda", "1"],
            "--lambda: expected 2 entries, the rank, got 1",
            id="lambda-rank-mismatch",
        ),
        pytest.param(
            SU2_SPEC,
            ["dims", "--series", "A", "--rank", "2", "--lambda", "1,-1"],
            "--lambda: dominant integral weights have nonnegative entries",
            id="lambda-negative",
        ),
        pytest.param(SU2_SPEC, ["pick", "--kset", "0,4"], "argument --kset: dilations must be >= 1",
                     id="kset-zero"),
        pytest.param(SU2_SPEC, ["pick", "--kset", "1.5,4"], "argument --kset: expected comma-separated",
                     id="kset-float"),
        pytest.param(SU2_SPEC, ["pick", "--kset", "4,,8"], "argument --kset: expected comma-separated",
                     id="kset-empty-entry"),
        pytest.param(SU3_SPEC, ["futaki", "--R", "2"], "unrecognized arguments: --R 2", id="R-option"),
        pytest.param(
            SU3_SPEC, ["futaki", "--out", "missing/dir/r.json"], "missing/dir/r.json",
            id="futaki-out-unwritable",
        ),
        pytest.param(
            SU2_SPEC, ["mabuchi", "--quad-depth", "2", "--residuals", "missing/r.csv"], "missing/r.csv",
            id="mabuchi-residuals-unwritable",
        ),
        pytest.param(SU2_SPEC, ["mabuchi", "--quad-depth", "0"], "argument --quad-depth: must be >= 1",
                     id="quad-depth-0"),
        pytest.param(SU2_SPEC, ["mabuchi", "--quad-nodes", "1"],
                     "argument --quad-nodes: need at least two nodes per cell", id="quad-nodes-1"),
        pytest.param(SU2_SPEC, ["mabuchi", "--tol", "nan"], "argument --tol: must be finite and >= 0, got nan",
                     id="tol-nan"),
        pytest.param(SU2_SPEC, ["scalar", "--tol", "nan"], "argument --tol: must be finite and >= 0, got nan",
                     id="scalar-tol-nan"),
        pytest.param(SU2_SPEC, ["mabuchi", "--tol=-1e-6"], "argument --tol: must be finite and >= 0, got -1e-06",
                     id="tol-negative"),
        pytest.param(SU2_SPEC, ["mabuchi", "--tol", "-1"], "argument --tol: must be finite and >= 0, got -1.0",
                     id="tol-minus-1"),
        pytest.param(SU2_SPEC, ["mabuchi", "--tol", "inf"], "argument --tol: must be finite and >= 0, got inf",
                     id="tol-inf"),
        pytest.param(SU2_SPEC, ["scalar", "--tol", "1e-6x"], "argument --tol: expected a number, got '1e-6x'",
                     id="tol-not-a-number"),
        pytest.param(SU3_SPEC, ["futaki", "--oracle", "--kmax", "0"], "--kmax: must be >= 1", id="kmax-0"),
        pytest.param(SU3_SPEC, ["futaki", "--oracle", "--kmax", "-5"], "--kmax: must be >= 1", id="kmax-neg"),
        pytest.param(
            HUGE_SPEC, ["futaki", "--oracle"], "~6.0e+400 bounding-box lattice points over 4 dilates",
            id="huge-oracle",
        ),
        pytest.param(
            SU3_SPEC, ["futaki", "--oracle", "--kmax", "1000000"],
            "would walk ~3.3e+17 bounding-box lattice points over 1000000 dilates",
            id="kmax-million",
        ),
        pytest.param(HUGE_SPEC, ["mabuchi"], "polytope: a facet", id="huge-mabuchi"),
        pytest.param(HUGE_SPEC, ["pick"], "pick would walk ~", id="huge-pick"),
        pytest.param(
            dict(SU3_SPEC, polytope={"vertices": [["1/2", "1"], ["2", "1"], ["1/2", "2"], ["2", "2"]]}),
            ["pick", "--kset", "3"],
            "dilation k=3 is not a multiple of m=2",
            id="pick-kset-off-modulus",
        ),
    ],
)
def test_malformed_spec_exits_2(spec, argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(spec if isinstance(spec, str) else json.dumps(spec))
    if argv[0] != "dims":
        argv = argv[:1] + ["--spec", "spec.json"] + argv[1:]
    start = time.perf_counter()
    assert _exit_code(argv) == 2
    assert time.perf_counter() - start < 1
    assert message in capsys.readouterr().err


def _must_not_run(*args, **kwargs):
    raise AssertionError("the job ran before its output path was checked")


@pytest.mark.parametrize(
    "argv, pipeline, missing",
    [
        pytest.param(
            ["futaki", "--spec", str(REPO / "specs/gate/a4_cube.json"), "--oracle", "--out", "missing/r.json"],
            "kstab.cli.futaki_cross_check", "missing/r.json", id="a4-oracle-out",
        ),
        pytest.param(
            ["mabuchi", "--spec", "spec.json", "--out", "r.json", "--residuals", "missing/r.csv"],
            "kstab.mabuchi.mabuchi_eval", "missing/r.csv", id="mabuchi-residuals",
        ),
        pytest.param(
            ["mabuchi", "--spec", "spec.json", "--out", "same.txt", "--residuals", "./same.txt"],
            "kstab.mabuchi.mabuchi_eval", "--out and --residuals name the same file same.txt",
            id="out-equals-residuals",
        ),
        pytest.param(
            ["futaki", "--spec", "spec.json", "--out", "spec.json", "--no-meta"],
            "kstab.cli.closed_form_report", "--spec and --out name the same file spec.json",
            id="out-equals-spec",
        ),
        pytest.param(
            ["mabuchi", "--spec", "spec.json", "--out", "r.json", "--residuals", "./spec.json"],
            "kstab.mabuchi.mabuchi_eval", "--spec and --residuals name the same file spec.json",
            id="residuals-equals-spec",
        ),
    ],
)
def test_unwritable_output_is_refused_before_the_job(argv, pipeline, missing, tmp_path, monkeypatch, capsys):
    """An unwritable --out or --residuals, or one file named twice by --spec,
    --out and --residuals, exits 2 before the pipeline is called, and a
    refused run leaves no file behind, not even a writable --out checked
    first, and the spec file as it was."""
    monkeypatch.chdir(tmp_path)
    spec_text = json.dumps(SU2_SPEC)
    (tmp_path / "spec.json").write_text(spec_text)
    monkeypatch.setattr(pipeline, _must_not_run)
    start = time.perf_counter()
    assert _exit_code(argv) == 2
    assert time.perf_counter() - start < 1
    assert missing in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]
    assert (tmp_path / "spec.json").read_text() == spec_text


# Runs kstab.cli.main in a child whose address space is capped at 1 GiB, and
# prints the exit code and the seconds main took.
_CAPPED_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from kstab.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(code, time.perf_counter() - start)
"""


def _huge_cartan_spec(rank):
    cartan = [[2 if i == j else -(abs(i - j) == 1) for j in range(rank)] for i in range(rank)]
    return dict(SU2_SPEC, root_system={"cartan": cartan})


@pytest.mark.parametrize(
    "argv, spec",
    [
        pytest.param(["dims", "--series", "A", "--rank", "1000000", "--lambda", "1"], None,
                     id="dims-series-A"),
        pytest.param(["dims", "--series", "D", "--rank", "1000000", "--lambda", "1"], None,
                     id="dims-series-D"),
        pytest.param(["futaki", "--spec", "spec.json"],
                     dict(SU2_SPEC, root_system={"series": "C", "rank": 1000000}), id="spec-series-C"),
        pytest.param(["futaki", "--spec", "spec.json"], _huge_cartan_spec(300), id="spec-cartan-300"),
    ],
)
def test_huge_rank_is_refused_in_bounded_memory(argv, spec, tmp_path):
    """A huge rank exits 2 within a second, in a child capped at 1 GiB."""
    if spec is not None:
        (tmp_path / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD] + argv,
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    code, seconds = proc.stdout.split()
    assert int(code) == 2
    assert float(seconds) < 1
    assert "exceeds the limit of 16" in proc.stderr


def test_missing_pl_function_exits_2(tmp_path):
    spec = {k: v for k, v in SU2_SPEC.items() if k != "pl_function"}
    path = tmp_path / "nopl.json"
    path.write_text(json.dumps(spec))
    assert main(["futaki", "--spec", str(path)]) == 2


# Every shipped spec, so that a new spec without golden reports fails.
SHIPPED = sorted(path.stem for path in (REPO / "specs").glob("*.json"))


def _golden(name: str) -> Path:
    golden = REPO / "tests" / "golden" / name
    assert golden.is_file(), "no golden report tests/golden/%s" % name
    return golden


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_reports_match_golden(name, tmp_path):
    """The shipped specs' oracle reports, rationals and booleans, byte for byte."""
    out = tmp_path / "report.json"
    spec = str(REPO / "specs" / ("%s.json" % name))
    assert main(["futaki", "--spec", spec, "--oracle", "--no-meta", "--out", str(out)]) == 0
    assert out.read_bytes() == _golden("futaki_oracle_%s.json" % name).read_bytes()


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_pick_reports_match_golden(name, tmp_path):
    """The shipped specs' exact pick reports, byte for byte."""
    out = tmp_path / "report.json"
    spec = str(REPO / "specs" / ("%s.json" % name))
    assert main(["pick", "--spec", spec, "--no-meta", "--out", str(out)]) == 0
    assert out.read_bytes() == _golden("pick_%s.json" % name).read_bytes()


def test_pick_report_at_large_dilates_matches_golden(tmp_path):
    """pick on su3_square with the held-out dilates k = 16, 32, byte for byte."""
    out = tmp_path / "report.json"
    spec = str(REPO / "specs" / "su3_square.json")
    assert main(["pick", "--spec", spec, "--kset", "16,32", "--no-meta", "--out", str(out)]) == 0
    assert out.read_bytes() == _golden("pick_su3_square_kset.json").read_bytes()


# Blocks numpy in a fresh interpreter, so that any import of it raises, then
# runs kstab.cli.main on each argv list given as JSON and prints the exit
# codes, dims' stdout and the kstab modules loaded.
_NO_NUMPY_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import kstab, kstab.futaki, kstab.pick
from kstab import cli
try:
    kstab.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("kstab.no_such_name resolved")
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append((code, out.getvalue() if argv[0] == "dims" else None))
print(json.dumps({"runs": runs, "modules": sorted(m for m in sys.modules if m.startswith("kstab"))}))
"""

# Weyl dimensions: the CI step's non-simply-laced fundamentals, and A2's adjoint.
DIMS = [("G2", "2", "1,0", "14"), ("G2", "2", "0,1", "7"), ("F4", "4", "0,0,0,1", "26"),
        ("F4", "4", "1,0,0,0", "52"), ("B", "3", "0,0,1", "8"), ("A", "2", "1,1", "8")]


# The float names that ``kstab`` exports lazily, by defining module.
LAZY_NAMES = {
    "graded": ["graded_boundary_integral", "graded_integral_array", "graded_rule"],
    "mabuchi": ["MabuchiResult", "PotentialError", "SymplecticPotential", "el_residual",
                "mabuchi_eval", "make_a_preset", "scalar_curvature"],
}


def test_exact_commands_import_no_numpy(tmp_path):
    """With numpy blocked, ``import kstab`` and the exact commands work:
    futaki --oracle and pick reproduce every shipped golden byte for byte,
    dims prints the Weyl dimensions, and no float module is loaded. With
    numpy available, every lazily exported float name resolves to its
    module's object."""
    jobs, expected = [], []
    specs = sorted((REPO / "specs").glob("*.json")) + sorted((REPO / "specs" / "rational").glob("*.json"))
    for spec in specs:
        where = "rational/" if spec.parent.name == "rational" else ""
        for argv, prefix in ((["futaki", "--oracle"], "futaki_oracle_"), (["pick"], "pick_")):
            out = tmp_path / (where.replace("/", "_") + prefix + spec.name)
            jobs.append(argv + ["--spec", str(spec), "--no-meta", "--out", str(out)])
            expected.append((out, _golden(where + prefix + spec.name)))
    for series, rank, lam, _ in DIMS:
        jobs.append(["dims", "--series", series, "--rank", rank, "--lambda", lam])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_CHILD, json.dumps(jobs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not {"kstab.graded", "kstab.mabuchi"} & set(result["modules"])
    codes, dims = zip(*result["runs"])
    assert codes == (0,) * len(jobs)
    assert list(dims[len(expected):]) == [value + "\n" for *_, value in DIMS]
    for out, golden in expected:
        assert out.read_bytes() == golden.read_bytes(), out.name
    import kstab

    for module, names in LAZY_NAMES.items():
        for name in names:
            assert getattr(kstab, name) is getattr(importlib.import_module("kstab." + module), name)


@pytest.mark.parametrize(
    "argv, golden",
    [
        pytest.param(["futaki", "--oracle"], "futaki_oracle_b2_box.json", id="futaki-oracle"),
        pytest.param(["pick"], "pick_b2_box.json", id="pick"),
    ],
)
def test_rational_reports_match_golden(argv, golden, tmp_path):
    """The rational B2 box [1/2, 2] x [1, 2]: the oracle samples k = 2, 4, ...
    and agrees with the closed form, and pick passes, byte for byte."""
    out = tmp_path / "report.json"
    spec = str(REPO / "specs" / "rational" / "b2_box.json")
    assert main(argv + ["--spec", spec, "--no-meta", "--out", str(out)]) == 0
    assert out.read_bytes() == _golden("rational/" + golden).read_bytes()


def test_pick_command(su2_spec, tmp_path):
    out = tmp_path / "pick.json"
    assert main(["pick", "--spec", su2_spec, "--kset", "4,8,16,32", "--no-meta", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True


@pytest.mark.parametrize(
    "kset, ks",
    [
        pytest.param("9", [1, 2, 3, 4, 5, 6, 9], id="kset-one-dilation"),
        pytest.param("4,4", [1, 2, 3, 4, 5, 6], id="kset-repeated-dilation"),
    ],
)
def test_pick_kset_held_out(kset, ks, su2_spec, tmp_path):
    """One extra dilation is a valid --kset: it joins the walked samples k = 1..n+d+3."""
    out = tmp_path / "pick.json"
    assert main(["pick", "--spec", su2_spec, "--kset", kset, "--no-meta", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["fit"]["k"] == ks


def test_mabuchi_command(su2_spec, tmp_path):
    out = tmp_path / "mab.json"
    csv = tmp_path / "residuals.csv"
    code = main(
        [
            "mabuchi",
            "--spec",
            su2_spec,
            "--A",
            "zero",
            "--quad-depth",
            "10",
            "--tol",
            "1e-4",
            "--out",
            str(out),
            "--no-meta",
            "--residuals",
            str(csv),
            "--grid",
            "12",
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    import math

    assert abs(float(report["value"]) - (1.5 * math.log(2) - 3)) < 1e-5
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x1,residual"
    assert len(lines) == 13


# A2 on a rational quadrilateral. Its slanted facet -21x + 2y >= -48 puts
# graded boundary nodes a few ulps outside P in floats, where mabuchi once
# exited 2 at every depth.
QUAD_SPEC = {
    "schema": "kstab/1",
    "root_system": {"series": "A", "rank": 2},
    "polytope": {"vertices": [["1/3", "1/2"], ["7/3", "1/2"], ["5/2", "9/4"], ["1/3", "3"]]},
}


@pytest.mark.parametrize("A", ["zero", "csc"])
def test_mabuchi_on_a_rational_quadrilateral(A, tmp_path):
    path = tmp_path / "a2_quadrilateral.json"
    path.write_text(json.dumps(QUAD_SPEC))
    argv = ["mabuchi", "--spec", str(path), "--A", A, "--quad-depth", "2", "--quad-nodes", "3"]
    assert main(argv + ["--no-meta", "--out", str(tmp_path / "r.json")]) in (0, 1)
    report = json.loads((tmp_path / "r.json").read_text())
    assert all(math.isfinite(float(report[k])) for k in ("value", "error_estimate"))


def test_mabuchi_spec_potential_perturbation(su2_spec, tmp_path):
    # the spec's potential key carries the perturbation x/5
    pert_spec = tmp_path / "su2_pert.json"
    perturbation = {"nvars": 1, "terms": [{"exp": [1], "coef": "1/5"}]}
    pert_spec.write_text(json.dumps(dict(SU2_SPEC, potential={"perturbation": perturbation})))
    out_base = tmp_path / "base.json"
    out_pert = tmp_path / "pert.json"
    for spec, target in ((su2_spec, out_base), (pert_spec, out_pert)):
        code = main(
            ["mabuchi", "--spec", str(spec), "--quad-depth", "10", "--tol", "1e-4",
             "--no-meta", "--out", str(target)]
        )
        assert code == 0
    base = float(json.loads(out_base.read_text())["value"])
    pert = float(json.loads(out_pert.read_text())["value"])
    # adding x/5 shifts the energy by 2 int_bd (x/5) x dsigma = 2
    assert abs((pert - base) - 2.0) < 1e-6


def test_scalar_command(su2_spec, tmp_path):
    out = tmp_path / "scalar.json"
    assert (
        main(
            [
                "scalar",
                "--spec",
                su2_spec,
                "--grid",
                "20",
                "--quad-depth",
                "10",
                "--no-meta",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    report = json.loads(out.read_text())
    assert report["average_identity_ok"] is True
    assert report["a_times_vol"] == "5"


def test_jobspec_dimension_mismatch():
    bad = dict(SU2_SPEC, root_system={"series": "A", "rank": 2})
    with pytest.raises(SpecError):
        parse_jobspec(bad)


def test_halfspace_polytope_spec():
    spec = parse_jobspec(
        {
            "schema": "kstab/1",
            "root_system": {"series": "A", "rank": 1},
            "polytope": {
                "halfspaces": [
                    {"normal": [1], "offset": "1"},
                    {"normal": [-1], "offset": "-2"},
                ]
            },
        }
    )
    assert spec.polytope.vertices == ((Fraction(1),), (Fraction(2),))
