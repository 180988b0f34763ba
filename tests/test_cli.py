import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import gaplab
from gaplab.cli import SWEEP_CSV_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_zero_free_gap(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--potential", '{"type":"zero"}', "--length", "3.14159265",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gap"] == pytest.approx(1.0, abs=1e-6)
    assert payload["lambda0"] == pytest.approx(0.0, abs=1e-9)


def test_solve_constant_shift(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--potential", '{"type":"constant","value":2}', "--length", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda0"] == pytest.approx(2.0, abs=1e-9)
    assert payload["gap"] == pytest.approx(math.pi**2, rel=1e-8)


def test_solve_potential_from_file(capsys, tmp_path):
    pot = tmp_path / "step.json"
    pot.write_text('{"type": "step", "height": 1.0, "support": [-0.5, 0.5]}')
    code, out, _ = run_cli(
        capsys, "solve", "--potential", str(pot), "--length", "10",
        "--cells", "640",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda0"] == pytest.approx(0.056780444081603515, rel=1e-6)
    assert payload["lambda1"] == pytest.approx(0.1002024993472969, rel=1e-6)


@pytest.mark.parametrize(
    "potential, needle",
    [
        ('{"type":"step","height":1.0}', "support"),
        ('{"type":"boxcar"}', "type"),
        ('{"type":"step", broken', "malformed"),
        ("no_such_file.json", "cannot read"),
    ],
)
def test_solve_bad_potential_exits_2(capsys, potential, needle):
    code, _, err = run_cli(capsys, "solve", "--potential", potential, "--length", "1")
    assert code == 2
    assert needle in err


def test_solve_bad_length_exits_2(capsys):
    code, _, _ = run_cli(capsys, "solve", "--potential", '{"type":"zero"}', "--length", "-3")
    assert code == 2


def test_verify_zero_exit_zero_sharp(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--potential", '{"type":"zero"}', "--length", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_hold"] is True
    gap_check = next(c for c in payload["checks"] if c["name"] == "gap_ge_exp_bound")
    assert abs(gap_check["slack"]) < 1e-9 * gap_check["bound"]


def test_verify_with_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--potential",
        '{"type": "step", "height": 1.0, "support": [-0.5, 0.5]}',
        "--length", "10", "--cells", "640", "--oracle",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]["mode"] == "eigenvalues"
    assert payload["oracle"]["rel_dev"] < 1e-6


def test_verify_oracle_flags_coarse_solve(capsys):
    # deliberately under-resolved: the oracle cross-check must fail -> exit 1
    # (relative deviation 1.3e-5 against the 1e-6 tolerance)
    code, out, _ = run_cli(
        capsys, "verify", "--potential",
        '{"type": "step", "height": 10.0, "support": [-0.5, 0.5]}',
        "--length", "10", "--cells", "70", "--levels", "2", "--oracle",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["oracle"]["ok"] is False


def test_verify_with_oracle_counts_for_capped(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--potential",
        '{"type": "inverse_square_capped", "decay": 1.0, "cap": 4.0}',
        "--length", "8", "--oracle",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]["mode"] == "count"
    assert payload["oracle"]["ok"] is True


def test_verify_oracle_through_opaque_barrier(capsys):
    # the barrier is 80 wide at height 100: cosh(sqrt(100 - lam) * 80) is
    # past the double range, which once made the oracle raise OverflowError
    # (so did Step(1e4, (2, 10)) at L = 20, whose phase counts take seconds)
    code, out, _ = run_cli(
        capsys, "verify", "--potential",
        '{"type": "step", "height": 100, "support": [-35, 45]}',
        "--length", "90", "--oracle",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]["mode"] == "eigenvalues"
    assert payload["oracle"]["rel_dev"] <= 1e-6


ZERO_SWEEP = {
    "potential": {"type": "zero"},
    "L_values": [1.0, 2.0, 4.0, 8.0],
    "min_cells": 256,
    "levels": 3,
}


def test_sweep_zero_gap_column(capsys, tmp_path):
    out_csv = tmp_path / "zero.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--config", json.dumps(ZERO_SWEEP), "--output", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    gaps = [float(line.split(",")[3]) for line in lines[1:]]
    for g, expect in zip(gaps, (9.8696, 2.4674, 0.61685, 0.15421)):
        assert g == pytest.approx(expect, abs=1e-4)
    assert all(line.endswith(",ok") for line in lines[1:])


def test_sweep_csv_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = json.dumps(ZERO_SWEEP)
    assert run_cli(capsys, "sweep", "--config", cfg, "--output", str(a))[0] == 0
    assert run_cli(capsys, "sweep", "--config", cfg, "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


# Unit-step sweep whose CSV bytes are pinned in tests/golden/step_sweep.csv
# (`gaplab sweep --config '<this JSON>'`): a change to the solver's arithmetic
# that moves any digit of the CSV fails here.
GOLDEN_SWEEP = {
    "potential": {"type": "step", "height": 1.0, "support": [-0.5, 0.5]},
    "L_values": [10, 20, 40],
    "cells_per_unit": 8,
    "levels": 3,
}


def test_sweep_matches_golden_csv_bytes(capsys, tmp_path):
    out_csv = tmp_path / "step.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--config", json.dumps(GOLDEN_SWEEP), "--output", str(out_csv),
    )
    assert code == 0
    golden = pathlib.Path(__file__).parent / "golden" / "step_sweep.csv"
    assert out_csv.read_bytes() == golden.read_bytes()


# Potentials whose `gaplab solve` and `gaplab verify --oracle` stdout at
# L = 10 (default cells) is pinned in tests/golden/{solve,verify}_<name>_L10.json.
# Unlike the sweep CSV these also run the oracle's phase and profile kernels.
GOLDEN_POTENTIALS = {
    "step": {"type": "step", "height": 1.0, "support": [-0.5, 0.5]},
    "multistep": {"type": "multistep", "pieces": [
        {"height": 2.0, "support": [-3.0, -1.0]},
        {"height": 0.5, "support": [1.5, 4.0]},
    ]},
    "capped": {"type": "inverse_square_capped", "decay": 1.0, "cap": 4.0},
}


@pytest.mark.parametrize("command", [("solve",), ("verify", "--oracle")])
@pytest.mark.parametrize("name", sorted(GOLDEN_POTENTIALS))
def test_cli_json_matches_golden_bytes(capsys, name, command):
    code, out, _ = run_cli(
        capsys, command[0], "--potential", json.dumps(GOLDEN_POTENTIALS[name]),
        "--length", "10", *command[1:],
    )
    assert code == 0
    golden = pathlib.Path(__file__).parent / "golden" / f"{command[0]}_{name}_L10.json"
    assert out.encode() == golden.read_bytes()


def test_sweep_constant_matches_zero_rows(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg_c = dict(ZERO_SWEEP, potential={"type": "constant", "value": 1.0},
                 L_values=[1.0, 2.0])
    cfg_z = dict(ZERO_SWEEP, L_values=[1.0, 2.0])
    run_cli(capsys, "sweep", "--config", json.dumps(cfg_z), "--output", str(a))
    run_cli(capsys, "sweep", "--config", json.dumps(cfg_c), "--output", str(b))
    for za, zb in zip(a.read_text().splitlines()[1:], b.read_text().splitlines()[1:]):
        gap_a = float(za.split(",")[3])
        gap_b = float(zb.split(",")[3])
        assert gap_b == pytest.approx(gap_a, rel=1e-9)


def test_sweep_emits_plot_script(capsys, tmp_path):
    out_csv = tmp_path / "zero.csv"
    plot = tmp_path / "zero.gp"
    code, _, _ = run_cli(
        capsys, "sweep", "--config", json.dumps(ZERO_SWEEP),
        "--output", str(out_csv), "--plot", str(plot),
    )
    assert code == 0
    text = plot.read_text()
    assert str(out_csv) in text
    assert "logscale" in text


def test_sweep_geomspace_config(capsys, tmp_path):
    cfg = {
        "potential": {"type": "zero"},
        "L_min": 1.0, "L_max": 4.0, "count": 3,
        "output": str(tmp_path / "g.csv"),
    }
    code, _, _ = run_cli(capsys, "sweep", "--config", json.dumps(cfg))
    assert code == 0
    lines = (tmp_path / "g.csv").read_text().splitlines()
    ls = [float(line.split(",")[0]) for line in lines[1:]]
    assert ls == pytest.approx([1.0, 2.0, 4.0])


@pytest.mark.parametrize(
    "cfg, needle",
    [
        ({"L_values": [1.0]}, "potential"),
        ({"potential": {"type": "zero"}}, "L_values"),
        ({"potential": {"type": "zero"}, "L_values": [2.0, 1.0]}, "increasing"),
        ({"potential": {"type": "zero"}, "L_values": [-1.0, 1.0]}, "positive"),
        ({"potential": {"type": "zero"}, "L_min": 4.0, "L_max": 1.0, "count": 3}, "L_min"),
        ({"potential": {"type": "zero"}, "L_min": 1.0, "L_max": 4.0, "count": 1}, "count"),
        ({"potential": {"type": "zero"}, "L_values": [1.0], "levels": 7}, "levels"),
        ({"potential": {"type": "zero"}, "L_values": [1.0], "cell_per_unit": 8},
         "unknown sweep config field 'cell_per_unit'"),
        ({"potential": {"type": "zero"}, "L_values": [1.0], "L": 2.0},
         "unknown sweep config field 'L'"),
    ],
)
def test_sweep_bad_config_exits_2(capsys, tmp_path, cfg, needle):
    code, _, err = run_cli(
        capsys, "sweep", "--config", json.dumps(cfg), "--output", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert needle in err


@pytest.mark.parametrize(
    "fields, needle",
    [
        ({"L_values": [1.0], "output": 2}, "'output' must be a path"),
        ({"L_values": [1.0], "plot_script": 7}, "'plot_script' must be a path"),
        ({"L_values": [1.0, None]}, "'L_values' must be a non-empty list of numbers"),
        ({"L_values": [True]}, "'L_values' must be a non-empty list of numbers"),
        ({"L_min": 1.0, "L_max": None, "count": 3}, "'L_max' must be a number"),
        ({"L_min": 1.0, "L_max": 4.0, "count": 2.5}, "'count' must be an integer"),
        ({"L_values": [1.0], "levels": None}, "'levels' must be an integer"),
        ({"L_values": [1.0], "cells_per_unit": 8.9}, "'cells_per_unit' must be an integer"),
        ({"L_values": [1.0], "min_cells": "300"}, "'min_cells' must be an integer"),
    ],
)
def test_sweep_config_field_types_exit_2(capsys, tmp_path, fields, needle):
    # a JSON value of the wrong type is an input error, before any solve or write
    out_csv = tmp_path / "x.csv"
    cfg = {"potential": {"type": "zero"}, "output": str(out_csv), **fields}
    code, out, err = run_cli(capsys, "sweep", "--config", json.dumps(cfg))
    assert code == 2
    assert out == ""
    assert needle in err
    assert not out_csv.exists()


def test_sweep_requires_output(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--config", json.dumps({"potential": {"type": "zero"}, "L_values": [1.0]}),
    )
    assert code == 2
    assert "output" in err


def _write_zero_sweep(capsys, tmp_path):
    out_csv = tmp_path / "zero.csv"
    run_cli(capsys, "sweep", "--config", json.dumps(ZERO_SWEEP), "--output", str(out_csv))
    return out_csv


def test_fit_zero_gap_slope(capsys, tmp_path):
    csv_path = _write_zero_sweep(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "fit", str(csv_path), "--column", "gap")
    assert code == 0
    payload = json.loads(out)
    assert payload["slope"] == pytest.approx(-2.0, abs=1e-3)
    assert payload["power_law"] is True
    assert payload["points"] == 4


def test_fit_detects_non_power_law(capsys, tmp_path):
    cfg = {
        "potential": {"type": "step", "height": 1.0, "support": [-0.5, 0.5]},
        "L_min": 1.0, "L_max": 8.0, "count": 6,
        "min_cells": 256, "levels": 2,
    }
    out_csv = tmp_path / "step.csv"
    run_cli(capsys, "sweep", "--config", json.dumps(cfg), "--output", str(out_csv))
    code, out, _ = run_cli(capsys, "fit", str(out_csv), "--column", "theorem_bound")
    assert code == 0
    payload = json.loads(out)
    assert payload["rms_residual"] > 0.05
    assert payload["power_law"] is False


def test_fit_l_range_filter(capsys, tmp_path):
    csv_path = _write_zero_sweep(capsys, tmp_path)
    code, out, _ = run_cli(
        capsys, "fit", str(csv_path), "--column", "gap", "--lmin", "2", "--lmax", "8",
    )
    assert code == 0
    assert json.loads(out)["points"] == 3


@pytest.mark.parametrize(
    "args, needle",
    [
        (("--column", "no_such_column"), "no_such_column"),
        (("--column", "gap", "--lmin", "7"), "3 rows"),
        (("--column", "lambda0"), "non-positive"),  # zero potential: lambda0 = 0
    ],
)
def test_fit_input_errors_exit_2(capsys, tmp_path, args, needle):
    csv_path = _write_zero_sweep(capsys, tmp_path)
    code, _, err = run_cli(capsys, "fit", str(csv_path), *args)
    assert code == 2
    assert needle in err


@pytest.mark.parametrize("bad_l, bad_gap, column", [
    ("0.0", "0.5", "L"), ("-1.0", "0.5", "L"), ("nan", "0.5", "L"), ("inf", "0.5", "L"),
    ("4.0", "inf", "gap"),
])
def test_fit_rejects_bad_entries_before_the_log(capsys, tmp_path, bad_l, bad_gap, column):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(f"L,gap\n1.0,2.0\n2.0,1.0\n{bad_l},{bad_gap}\n")
    code, out, err = run_cli(capsys, "fit", str(csv_path), "--column", "gap")
    assert code == 2
    assert out == ""
    assert f"column '{column}' has non-positive or non-finite entries" in err


def test_fit_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "fit", "missing.csv", "--column", "gap")
    assert code == 2
    assert "cannot read" in err


def test_usage_errors_exit_2(capsys):
    assert main(["solve"]) == 2  # missing required flags
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_module_entry_point_subprocess():
    # the child imports the gaplab this process imported, whether it came
    # from PYTHONPATH or from pytest's `pythonpath` setting
    src = str(pathlib.Path(gaplab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "gaplab", "solve", "--potential", '{"type":"zero"}',
         "--length", "2"],
        capture_output=True, text=True, timeout=600, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gap"] == pytest.approx(math.pi**2 / 4, rel=1e-8)


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("length, needle", [
    ("inf", "finite"), ("1e-300", "1/h^2"), ("1e-150", "1/h^4"),
    ("1e200", "L = 1e+200"), ("1e307", "L = 1e+307"),
])
def test_impossible_length_exits_2(capsys, command, length, needle):
    # inf has no cell count; at 1e-300 h^2 underflows and 1/h^2 overflows;
    # at 1e-150 1/h^2 is finite but the squared off-diagonal 1/h^4 is not;
    # 1e200 asks for more cells than numpy can index, and at 1e307 the cell
    # count 64 L overflows to inf
    code, _, err = run_cli(
        capsys, command, "--potential", '{"type":"zero"}', "--length", length,
    )
    assert code == 2
    assert needle in err


@pytest.mark.parametrize("flag", ["--oracle-tol", "--eps-rel"])
@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "-inf"])
def test_impossible_tolerance_exits_2(capsys, monkeypatch, flag, value):
    # an --oracle-tol of inf passes any deviation and one of nan, 0 or below
    # fails every comparison (nan also prints invalid JSON); an --eps-rel of
    # inf passes every bound check.  Each is refused as an input error
    # before the solve, never reported as a result of the verification.
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the tolerances were checked")

    monkeypatch.setattr(gaplab.cli, "solve_extrapolated", no_solve)
    code, out, err = run_cli(
        capsys, "verify", "--oracle", "--potential", '{"type":"zero"}',
        "--length", "1", f"{flag}={value}",
    )
    assert code == 2
    assert out == ""
    assert f"{flag} must be finite and > 0" in err


@pytest.mark.parametrize("length, needle", [
    (1e-300, "1/h^2"), (math.inf, "finite"), (1e307, "L = 1e+307"),
])
def test_sweep_impossible_length_exits_2(capsys, tmp_path, length, needle):
    cfg = {"potential": {"type": "zero"}, "L_values": sorted([length, 1.0])}
    out_csv = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys, "sweep", "--config", json.dumps(cfg), "--output", str(out_csv),
    )
    assert code == 2
    assert needle in err
    assert not out_csv.exists()
