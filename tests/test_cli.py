"""CLI behaviour: exit codes, deterministic reports, schema diagnostics."""

import json
from pathlib import Path

import pytest

from bishopdiscs import specio
from bishopdiscs.cli import main, parse_x_grid


def read(path):
    return Path(path).read_bytes()


def test_verify_quadric_exits_zero(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--spec", "builtin:quadric", "--out", str(out),
                 "--r-list", "0.05,0.1"])
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["allPassed"]
    assert all(s["normU"] < 1e-10 for s in report["slices"])
    trivial = [c for c in report["checks"] if c["name"].startswith("trivial_")]
    assert trivial and all(c["passed"] for c in trivial)


def test_sweep_order7_reports_rate(tmp_path):
    out = tmp_path / "s"
    code = main(["sweep", "--spec", "builtin:order7", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "sweep_report.json").read_text())
    fit = report["report"]["rate_fits"][0]
    assert 4.5 <= fit["slope_norm_u"] <= 5.5
    csv_text = (out / "sweep.csv").read_text().splitlines()
    assert csv_text[0].split(",") == [
        "x2", "y2", "r", "iterations", "normU", "residual", "slopeU",
        "slopeDrU", "minDisjointDistance", "jacobianDefect"]
    assert len(csv_text) == 1 + 5
    # each row carries its own disc's least pair bound; the family's least
    # one is the report's min_distance
    column = csv_text[0].split(",").index("minDisjointDistance")
    bounds = [float(line.split(",")[column]) for line in csv_text[1:]]
    assert min(bounds) == report["report"]["disjointness"]["min_distance"]
    assert bounds[-1] > bounds[0]


def test_sweep_honours_tolerance(tmp_path):
    args = ["sweep", "--spec", "builtin:order7", "--r-list", "0.05,0.1"]
    iterations = {}
    for tol in ("1e-12", "1e-4"):
        out = tmp_path / tol
        assert main(args + ["--tol", tol, "--out", str(out)]) == 0
        report = json.loads((out / "sweep_report.json").read_text())
        iterations[tol] = [s["iterations"] for s in report["report"]["slices"]]
    assert all(loose < tight for loose, tight in zip(iterations["1e-4"],
                                                     iterations["1e-12"]))


def test_verify_accepts_tolerance_below_noise_floor(tmp_path):
    # at --tol 1e-22 both slices stop at the solver's 4e-16 floor; the
    # fixed-point check must compare against that floor, not solve_tol * r^2
    out = tmp_path / "v"
    code = main(["verify", "--spec", "builtin:perturbed", "--r-list", "0.05,0.1",
                 "--tol", "1e-22", "--out", str(out)])
    assert code == 0
    assert json.loads((out / "verify_report.json").read_text())["allPassed"]


@pytest.mark.parametrize("args, report", [
    (["disc", "--spec", "builtin:order7", "--r-list", "0.05,0.1", "--seed", "3"],
     "disc_report.json"),
    (["sweep", "--spec", "builtin:perturbed", "--r-list", "0.03,0.05,0.1"],
     "sweep_report.json"),
    (["normalize", "--spec", "builtin:raw_example"], "normalize_report.json"),
], ids=["disc", "sweep", "normalize"])
def test_reports_are_byte_identical(tmp_path, args, report):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    ra = json.loads((out_a / report).read_text())
    rb = json.loads((out_b / report).read_text())
    ra["config"].pop("out")
    rb["config"].pop("out")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_malformed_spec_fails_with_schema_message(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "N": 2, "l": 7, "validityRadius": 0.2,
        "lambda": [[[0, 0], 0.2]],
        "P": [],
        "K": [[5, 0, [[[0, 0], 0.01]], []], [0, 5, [[[0, 0], 0.01]], []]],
    }))
    code = main(["verify", "--spec", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "K coefficient" in err and "(0,5)" in err or "(5,0)" in err


def test_curve_command_with_figures(tmp_path):
    out = tmp_path / "c"
    code = main(["curve", "--spec", "builtin:perturbed", "--out", str(out),
                 "--r-list", "0.05,0.1", "--figures"])
    assert code == 0
    report = json.loads((out / "curve_report.json").read_text())
    assert all(s["derivAtZero"] > 0 for s in report["slices"])
    assert (out / "curves_0.svg").exists()
    assert (out / "mapped_grid.svg").exists()
    svg = (out / "curves_0.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_normalize_command(tmp_path):
    out = tmp_path / "n"
    code = main(["normalize", "--spec", "builtin:raw_example", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "normalize_report.json").read_text())
    assert report["maxLowOrderImagCoeff"] < 1e-10
    assert all(r["roundTripResidual"] < 1e-10 for r in report["records"].values())
    normalized = out / "normalized_spec.json"
    assert normalized.exists()
    reloaded = specio.load(normalized)
    assert reloaded.l == 7


def raw_example_with_order(tmp_path, l):
    obj = json.loads(Path(specio.resolve_spec_path("builtin:raw_example")).read_text())
    obj["l"] = l
    path = tmp_path / f"raw_l{l}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_normalize_reduces_through_the_file_order(tmp_path):
    out = tmp_path / "n9"
    code = main(["normalize", "--spec", raw_example_with_order(tmp_path, 9),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "normalize_report.json").read_text())
    assert report["order"] == 9
    assert set(report["changeFits"]["tailStages"]) == {str(m) for m in range(3, 10)}
    assert specio.load(out / "normalized_spec.json").l == 9


@pytest.mark.parametrize("l", [3, 12])
def test_raw_order_outside_range_is_rejected(tmp_path, capsys, l):
    code = main(["normalize", "--spec", raw_example_with_order(tmp_path, l),
                 "--out", str(tmp_path / "bad")])
    assert code == 2
    assert f"order parameter l must lie in [7, maxDegree = 10], got {l}" in capsys.readouterr().err


def test_invalid_run_config(tmp_path, capsys):
    code = main(["sweep", "--spec", "builtin:quadric", "--out", str(tmp_path / "x"),
                 "--ntheta", "100"])
    assert code == 2
    assert "power of two" in capsys.readouterr().err
    # NaN passes every '<= 0' test; each value is rejected before any solve
    for option, value, message in [("--tol", "nan", "tolerance must be positive and finite"),
                                   ("--tol", "inf", "tolerance must be positive and finite"),
                                   ("--r-list", "nan", "radii must be positive and finite"),
                                   ("--r-list", "0.05,nan", "radii must be positive and finite")]:
        code = main(["disc", "--spec", "builtin:perturbed", "--out", str(tmp_path / "x"),
                     option, value])
        assert code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("args", [["curve", "--figures"], ["verify"], ["sweep"]])
def test_empty_tensor_grid_is_rejected(tmp_path, capsys, args):
    code = main([args[0], "--spec", "builtin:perturbed", "--out", str(tmp_path / "e"),
                 "--r-list", "0.05", "--x-grid", "0:1:0"] + args[1:])
    assert code == 2
    assert "error: grid count must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("descriptor", ["0:1", "0:1:2:3", "1,2;", "nan,0", "0:inf:2"])
def test_malformed_x_grid_names_the_option(tmp_path, capsys, descriptor):
    code = main(["curve", "--spec", "builtin:perturbed", "--out", str(tmp_path / "g"),
                 "--r-list", "0.05", "--x-grid", descriptor])
    assert code == 2
    err = capsys.readouterr().err
    assert f"--x-grid {descriptor!r} must be '0', 'a:b:n'" in err


def test_x_grid_parsing():
    assert parse_x_grid("0", 2) == [(0.0, 0.0)]
    grid = parse_x_grid("-0.05:0.05:3", 2)
    assert len(grid) == 9
    pts = parse_x_grid("0.1,0.2;0.3,0.4", 2)
    assert pts == [(0.1, 0.2), (0.3, 0.4)]
    with pytest.raises(ValueError):
        parse_x_grid("0.1;0.2,0.3,0.4", 2)


@pytest.mark.parametrize("command", ["curve", "disc", "verify", "sweep"])
def test_raw_spec_needs_normalize_first(tmp_path, capsys, command):
    code = main([command, "--spec", "builtin:raw_example", "--out", str(tmp_path / "r"),
                 "--r-list", "0.05"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {command} needs a normal-form manifold" in err
    assert "run normalize first" in err


@pytest.mark.parametrize("command, spec", [
    ("disc", "builtin:perturbed"), ("verify", "builtin:perturbed"),
    ("sweep", "builtin:perturbed"), ("normalize", "builtin:raw_example")])
def test_figures_belong_to_curve(tmp_path, capsys, command, spec):
    code = main([command, "--spec", spec, "--out", str(tmp_path / "f"),
                 "--r-list", "0.05", "--figures"])
    assert code == 2
    assert "'curve --figures'" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_parameter_point_outside_validity_ball(tmp_path, capsys):
    code = main(["curve", "--spec", "builtin:perturbed", "--out", str(tmp_path / "b"),
                 "--r-list", "0.05", "--x-grid", "0.3,0.0"])
    assert code == 2
    assert "outside the validity ball 0.2" in capsys.readouterr().err
