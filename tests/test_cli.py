"""Command-line front end: spec parsing, reports, exit codes, determinism."""
import json
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
    assert "1.6e+11 bounding-box lattice points" in err
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
            SU2_SPEC,
            ["scalar", "--potential", "potential.json"],
            "potential.json",
            id="potential-not-an-object",
        ),
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
            dict(SU3_SPEC, root_system={"m_vectors": [[1, 0], [0, 1], [1.5, 1]]}),
            ["futaki", "--oracle"],
            "root_system.m_vectors[2][0]: expected an integer, got 1.5",
            id="m-vectors-float",
        ),
        pytest.param(
            dict(SU2_SPEC, root_system={"m_vectors": [["1"]]}),
            ["futaki"],
            "root_system.m_vectors[0][0]: expected an integer, got '1'",
            id="m-vectors-string",
        ),
        pytest.param(
            dict(SU2_SPEC, root_system={"m_vectors": [[True]]}),
            ["futaki"],
            "root_system.m_vectors[0][0]: expected an integer, got True",
            id="m-vectors-bool",
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
        pytest.param(
            dict(SU2_SPEC, potential={"canonical": "false"}),
            ["scalar"],
            "spec.potential.canonical: expected true or false, got 'false'",
            id="canonical-string",
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
            SU2_SPEC,
            ["scalar", "--potential", "spec.json"],
            "spec.json: unknown key 'schema'",
            id="unknown-key-potential-file",
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
        pytest.param(SU3_SPEC, ["futaki", "--R", "1/0"], "--R: cannot parse rational '1/0'", id="R-div0"),
        pytest.param(SU3_SPEC, ["futaki", "--oracle", "--R", "1/0"], "--R: cannot", id="oracle-R-div0"),
        pytest.param(SU3_SPEC, ["futaki", "--R", "abc"], "--R: cannot parse rational 'abc'", id="R-abc"),
        pytest.param(SU2_SPEC, ["mabuchi", "--quad-ratio", "1/0"], "--quad-ratio: cannot", id="ratio-div0"),
        pytest.param(SU2_SPEC, ["scalar", "--quad-ratio", "1/0"], "--quad-ratio: cannot", id="scalar-div0"),
        pytest.param(SU2_SPEC, ["mabuchi", "--quad-depth", "0"], "argument --quad-depth: must be >= 1",
                     id="quad-depth-0"),
        pytest.param(SU2_SPEC, ["mabuchi", "--quad-nodes", "1"],
                     "argument --quad-nodes: need at least two nodes per cell", id="quad-nodes-1"),
        pytest.param(SU2_SPEC, ["scalar", "--quad-ratio", "3/2"],
                     "argument --quad-ratio: grading ratio must lie in (0, 1)", id="quad-ratio-above-1"),
        pytest.param(SU2_SPEC, ["mabuchi", "--tol", "nan"], "tol must be >= 0, got nan", id="tol-nan"),
        pytest.param(SU2_SPEC, ["scalar", "--tol", "nan"], "tol must be >= 0, got nan", id="scalar-tol-nan"),
        pytest.param(SU2_SPEC, ["mabuchi", "--tol=-1e-6"], "tol must be >= 0, got -1e-06", id="tol-negative"),
        pytest.param(SU3_SPEC, ["futaki", "--oracle", "--kmax", "0"], "--kmax: must be >= 1", id="kmax-0"),
        pytest.param(SU3_SPEC, ["futaki", "--oracle", "--kmax", "-5"], "--kmax: must be >= 1", id="kmax-neg"),
        pytest.param(
            HUGE_SPEC, ["futaki", "--oracle"], "~1.5e+401 bounding-box lattice points", id="huge-oracle"
        ),
        pytest.param(
            SU3_SPEC, ["futaki", "--oracle", "--kmax", "1000000"],
            "would walk ~3.3e+17 bounding-box lattice points over 1000000 dilates",
            id="kmax-million",
        ),
        pytest.param(HUGE_SPEC, ["mabuchi"], "polytope: a facet", id="huge-mabuchi"),
        pytest.param(HUGE_SPEC, ["pick"], "pick would walk ~", id="huge-pick"),
    ],
)
def test_malformed_spec_exits_2(spec, argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(spec if isinstance(spec, str) else json.dumps(spec))
    (tmp_path / "potential.json").write_text("[1, 2]")
    if argv[0] != "dims":
        argv = argv[:1] + ["--spec", "spec.json"] + argv[1:]
    start = time.perf_counter()
    assert _exit_code(argv) == 2
    assert time.perf_counter() - start < 1
    assert message in capsys.readouterr().err


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


def test_mabuchi_potential_override(su2_spec, tmp_path):
    # a separate potential file wins over whatever the spec carries
    pot = tmp_path / "u.json"
    pot.write_text(
        json.dumps(
            {"canonical": True, "perturbation": {"nvars": 1, "terms": [{"exp": [1], "coef": "1/5"}]}}
        )
    )
    out_base = tmp_path / "base.json"
    out_pert = tmp_path / "pert.json"
    for target, extra in ((out_base, []), (out_pert, ["--potential", str(pot)])):
        code = main(
            ["mabuchi", "--spec", su2_spec, "--quad-depth", "10", "--tol", "1e-4",
             "--no-meta", "--out", str(target)] + extra
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
