"""Command-line interface: dispatch, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from difint.cli import main

EXPECTED_MATRIX_TEXT = (
    "method  i  ii  iii\n"
    "1       ✓  ✓   ✓\n"
    "2       ✓  ✓   ✓\n"
    "3       ✓  ✓   ✓\n"
    "4       ✓  ✓   ✓\n"
    "5       ×  ×   ×\n"
    "6       ×  ×   ×\n"
    "7       ×  ✓   ×\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDesignCommand:
    def test_text_output_shows_anchored_corners(self, capsys):
        code, out, err = run_cli(
            capsys, "design", "--method", "2", "--alpha", "0.4",
            "--wl", "1e-3", "--wh", "1e3", "--n", "10", "--k", "2", "--kind", "int",
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "method=2 kind=integrator branch=low"
        first = [l for l in lines if l.startswith("1,")][0]
        assert first.split(",")[2] == "0.001"
        last = [l for l in lines if l.startswith("10,")][0]
        assert last.split(",")[1] == "1000"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "design", "--method", "1", "--alpha", "0.7", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "integrator"
        assert doc["branch"] == "high"
        assert doc["s_exponent"] == -1
        assert len(doc["zeros"]) == 10

    def test_differentiator_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "design", "--method", "1", "--alpha", "0.3",
            "--kind", "diff", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["s_exponent"] == 0
        assert doc["kind"] == "differentiator"

    def test_bad_order_is_invalid_arguments(self, capsys):
        code, _, err = run_cli(capsys, "design", "--method", "1", "--alpha", "1.5")
        assert code == 2
        assert "error:" in err

    def test_offset_on_wrong_method_is_invalid(self, capsys):
        code, _, err = run_cli(
            capsys, "design", "--method", "1", "--alpha", "0.4", "--eps", "1.9",
        )
        assert code == 2

    def test_missing_offset_for_method3(self, capsys):
        code, _, err = run_cli(capsys, "design", "--method", "3", "--alpha", "0.4")
        assert code == 2
        assert "--eps" in err

    def test_out_of_range_offset_reports_interval_with_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "design", "--method", "3", "--alpha", "0.4", "--eps", "9.9",
        )
        assert code == 3
        assert "admissible interval" in err

    @pytest.mark.parametrize("eps", ("nan", "inf"))
    def test_non_finite_offset_exits_3(self, capsys, eps):
        code, out, err = run_cli(
            capsys, "design", "--method", "3", "--alpha", "0.4", "--eps", eps,
        )
        assert code == 3 and out == ""
        assert "admissible interval" in err

    @pytest.mark.parametrize("method", ("1", "3", "7"))
    def test_band_with_overflowing_ratio_exits_2(self, capsys, method):
        code, out, err = run_cli(
            capsys, "design", "--method", method, "--alpha", "0.3",
            "--wl", "1e-160", "--wh", "1e160",
            *(("--eps-special",) if method == "3" else ()),
        )
        assert code == 2 and out == ""
        assert "band ratio" in err

    def test_special_offset_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "design", "--method", "4", "--alpha", "0.4",
            "--eps-special", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["epsilon"] == pytest.approx(2.08695652, rel=1e-6)


class TestTableCommand:
    def test_matrix_table(self, capsys):
        code, out, err = run_cli(capsys, "table", "--which", "1")
        assert code == 0 and err == ""
        assert out == EXPECTED_MATRIX_TEXT

    def test_band_error_table_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--which", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "method,mag_inf_db,mag_two_db,phase_inf_deg,phase_two_deg"
        assert len(lines) == 8
        row2 = lines[2].split(",")
        assert float(row2[1]) == pytest.approx(0.4533, rel=1e-3)

    def test_time_domain_table_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--which", "4", "--T", "2.0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "method,x_inf,x_two,y_inf,y_two,z_inf,z_two"
        assert len(lines) == 8
        row7 = lines[7].split(",")
        assert float(row7[5]) == pytest.approx(1.0, abs=1e-3)

    def test_custom_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--which", "1", "--alphas", "0.25,0.75",
        )
        assert code == 0
        assert out == EXPECTED_MATRIX_TEXT


class TestCheckCommand:
    def test_all_conditions_json(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--method", "1", "--alpha", "0.4")
        assert code == 0
        doc = json.loads(out)
        assert [v["condition"] for v in doc] == ["i", "ii", "iii"]
        assert all(v["structural_pass"] for v in doc)
        assert doc[0]["simplified"]["s_exponent"] == -1

    def test_single_condition_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--method", "5", "--alpha", "0.4", "--condition", "i",
        )
        doc = json.loads(out)
        assert doc["structural_pass"] is False
        assert doc["simplified"] is None
        assert doc["numeric_max_deviation"] > 1e-2

    def test_offset_methods_default_to_special_value(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--method", "3", "--alpha", "0.4")
        assert code == 0
        assert all(v["structural_pass"] for v in json.loads(out))

    def test_simulate_accepts_offset_method_without_eps(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--method", "4", "--alpha", "0.3",
            "--h", "0.01", "--T", "0.2", "--experiment", "y",
        )
        assert code == 0
        assert len(out.splitlines()) == 22


class TestBodeCommand:
    def test_csv_shape_and_center_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "bode", "--method", "1", "--alpha", "0.4", "--points", "101",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",") == [
            "omega", "mag_db_model", "mag_db_exact", "phase_deg_model",
            "phase_deg_exact", "mag_error_db", "phase_error_deg",
        ]
        assert len(lines) == 102
        center = lines[51].split(",")
        assert float(center[0]) == pytest.approx(1.0, rel=1e-9)
        assert abs(float(center[5])) < 1e-9  # matched gain at the band center


class TestSimulateCommand:
    def test_single_experiment_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--method", "1", "--alpha", "0.4",
            "--h", "0.01", "--T", "1.0", "--experiment", "x",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,u,exact,approx,error"
        assert len(lines) == 102

    def test_all_experiments_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--method", "7", "--alpha", "0.3",
            "--h", "0.01", "--T", "0.5",
        )
        lines = out.splitlines()
        assert lines[0] == "experiment,t,u,exact,approx,error"
        assert len(lines) == 1 + 3 * 51


class TestPfeCommand:
    def test_json_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "pfe", "--method", "2", "--alpha", "0.7", "--k", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["direct"] == 0.0
        assert doc["origin_residue"] > 0.0
        assert len(doc["terms"]) == 10
        assert all(len(term["residues"]) == 1 for term in doc["terms"])

    def test_bare_s_differentiator_is_invalid(self, capsys):
        code, _, err = run_cli(
            capsys, "pfe", "--method", "1", "--alpha", "0.7", "--kind", "diff",
        )
        assert code == 2

    def test_non_finite_expansion_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "pfe", "-m", "2", "-a", "0.7", "--n", "40", "--k", "4",
        )
        assert code == 2
        assert out == ""
        assert "not finite" in err


class TestCircuitCommand:
    def test_spice_netlist(self, capsys):
        code, out, _ = run_cli(
            capsys, "circuit", "--method", "1", "--alpha", "0.3", "--k", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("*")
        assert lines[-1].startswith("* design: method=1")
        assert sum(1 for l in lines if not l.startswith("*")) == 21

    def test_json_netlist(self, capsys):
        code, out, _ = run_cli(
            capsys, "circuit", "--method", "1", "--alpha", "0.3", "--k", "1",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["meta"]["method"] == 1
        assert len(doc["elements"]) == 11

    def test_multiplicity_two_exits_4(self, capsys):
        code, _, err = run_cli(
            capsys, "circuit", "--method", "1", "--alpha", "0.3", "--k", "2",
        )
        assert code == 4
        assert "not synthesizable" in err

    def test_multiplicity_four_exits_4_although_its_expansion_overflows(self, capsys):
        code, out, err = run_cli(
            capsys, "circuit", "-m", "2", "-a", "0.7", "--n", "40", "--k", "4",
        )
        assert code == 4
        assert out == ""
        assert "not synthesizable" in err


class TestCliBehavior:
    def test_byte_identical_reruns(self, capsys):
        argv = ("table", "--which", "2", "--points", "500")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_output_to_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run_cli(
            capsys, "--output", str(target), "bode",
            "--method", "1", "--alpha", "0.4", "--points", "11",
        )
        assert code == 0 and out == ""
        assert len(target.read_text().splitlines()) == 12

    def test_unknown_command_is_invalid(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_precision_flag_controls_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "--precision", "3", "design",
            "--method", "1", "--alpha", "0.4", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["gain"] == pytest.approx(0.0631, abs=5e-5)

    def test_round_trip_norms_stable_at_default_precision(self, capsys):
        # Norms recomputed from the printed error columns agree with the
        # full-precision norms to the last printed digit.
        import math

        from difint import INTEGRATOR, design_integrator, error_series, make_grid
        from difint.design import DesignSpec

        code, out, _ = run_cli(
            capsys, "bode", "--method", "1", "--alpha", "0.4", "--points", "501",
        )
        rows = [line.split(",") for line in out.splitlines()[1:]]
        printed_em = np.array([float(r[5]) for r in rows])
        printed_ep = np.array([float(r[6]) for r in rows])
        model = design_integrator(DesignSpec(1, 0.4))
        report = error_series(model, 0.4, INTEGRATOR, make_grid(1e-3, 1e3, 501))
        for printed, exact in (
            (np.max(np.abs(printed_em)), report.mag_norm_inf),
            (np.sqrt(np.sum(printed_em**2)), report.mag_norm_two),
            (np.max(np.abs(printed_ep)), report.phase_norm_inf),
            (np.sqrt(np.sum(printed_ep**2)), report.phase_norm_two),
        ):
            ulp_at_9 = 10.0 ** (math.floor(math.log10(abs(exact))) - 8)
            assert abs(printed - exact) <= ulp_at_9


# Runs in a fresh interpreter: design, analysis and realization commands must
# not load scipy, and simulate must still work there and load it.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import difint, difint.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

codes = []
for argv in [
    ["design", "-m", "2", "-a", "0.4"],
    ["bode", "-m", "1", "-a", "0.4", "--points", "50"],
    ["check", "-m", "7", "-a", "0.3"],
    ["pfe", "-m", "2", "-a", "0.7", "--k", "1"],
    ["circuit", "-m", "1", "-a", "0.3", "--k", "1"],
    ["table", "--which", "1"],
]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(difint.cli.main(argv))
before = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes.append(difint.cli.main(["simulate", "-m", "1", "-a", "0.4", "--T", "0.01"]))
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules(),
                  "rows": len(out.getvalue().splitlines())}))
"""


class TestImportCost:
    def test_only_simulation_loads_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        report = json.loads(proc.stdout)
        assert report["codes"] == [0] * 7
        assert report["before"] == []
        assert "scipy.signal" in report["after"]
        assert report["rows"] == 1 + 3 * 11
