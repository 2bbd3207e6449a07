"""Command-line interface: dispatch, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from difint import identity_experiment
from difint.cli import _BLOCK_ROWS, _csv, _fmt, main
from test_cli_digest import NUMBER

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

    @pytest.mark.parametrize("command", ("design", "check", "simulate"))
    @pytest.mark.parametrize("offset", (("--eps", "1.9"), ("--eps-special",)))
    def test_offset_on_wrong_method_is_invalid(self, capsys, command, offset):
        code, out, err = run_cli(capsys, command, "--method", "1", "--alpha", "0.4", *offset)
        assert (code, out) == (2, "")
        assert err == "error: method 1 does not take a ripple offset\n"

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

    @pytest.mark.parametrize("command", ("design", "check"))
    def test_subnormal_band_edge_exits_2(self, capsys, command):
        code, out, err = run_cli(
            capsys, command, "-m", "5" if command == "check" else "1", "-a", "0.3",
            "--wl", "1e-320", "--wh", "1e-310",
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: band edge omega_l must be at least")

    @pytest.mark.parametrize("command", ("design", "bode", "pfe", "circuit", "check"))
    @pytest.mark.parametrize("alpha", ("0.3", "0.7"))
    def test_unrepresentable_matched_gain_exits_2(self, capsys, command, alpha):
        code, out, err = run_cli(
            capsys, command, "--method", "2", "--alpha", alpha,
            "--wl", "1e-154", "--wh", "1e154", "--n", "1", "--k", "8",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: matched gain cannot be represented")

    # At few digits the band edge 1.7976931348623157e308 rounds to 2e308 or
    # 1.8e308, which reads back as inf, and in JSON would print as Infinity.
    @pytest.mark.parametrize("call", (
        "--precision 0 design -m 2 -a 0.1 --wl 1 --wh {top} --n 9 --k 5 --kind diff",
        "--precision 2 design -m 2 -a 0.5 --wl 1 --wh {top} --n 4 --k 1 --format json",
        "--precision 3 bode -m 1 -a 0.3 --wl 1e300 --wh {top} --points 3",
        "--precision 0 circuit -m 1 -a 0.3 --k 1 --wl 1e300 --wh {top}",
    ))
    def test_number_rounded_past_the_float_maximum_keeps_17_digits(self, capsys, call):
        code, out, err = run_cli(capsys, *call.format(top=repr(sys.float_info.max)).split())
        assert (code, err) == (0, "")
        numbers = [float(number) for number in NUMBER.findall(out)]
        assert all(math.isfinite(number) for number in numbers)
        assert sys.float_info.max in numbers

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

    @pytest.mark.parametrize("which, band", (("4", ("1e200", "1e210")),
                                             ("5", ("1e-250", "1e-240"))))
    def test_time_domain_tables_far_from_the_simulated_band_are_finite(self, capsys, which,
                                                                        band):
        # Errors of ~1e198..1e238, whose squares overflow; their 2-norms fit.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "table", "--which", which, "--wl", band[0],
                                     "--wh", band[1], "--T", "0.05")
        assert code == 0 and err == "" and caught == []
        rows = [line.split(",")[1:] for line in out.splitlines()[1:]]
        assert len(rows) == 7
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)
        assert max(float(cell) for row in rows for cell in row) > 1e198

    @pytest.mark.parametrize("which", ("1", "2", "3"))
    def test_explicit_empty_sweep_exits_2(self, capsys, which):
        code, out, err = run_cli(capsys, "table", "--which", which, "--alphas", "")
        assert (code, out, err) == (2, "", "error: order sweep must not be empty\n")

    @pytest.mark.parametrize("which", ("1", "2", "3"))
    def test_band_with_overflowing_ratio_exits_2(self, capsys, which):
        code, out, err = run_cli(capsys, "table", "--which", which,
                                 "--wl", "1e-300", "--wh", "1e300")
        assert code == 2 and out == ""
        assert err == ("error: band ratio omega_h / omega_l must be finite, "
                       "got [1e-300, 1e+300]\n")


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

    @pytest.mark.parametrize("argv", (
        ("check", "-m", "4", "-a", "1e-20"),
        ("check", "-m", "4", "-a", "1e-20", "--condition", "i"),
        ("simulate", "-m", "4", "-a", "1e-20", "--T", "0.05"),
        ("table", "--which", "1", "--alphas", "1e-20"),
        ("table", "--which", "4", "--alpha", "1e-20", "--T", "0.05"),
    ))
    def test_laws_reading_the_complement_of_a_tiny_order_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: order 1e-20 has no complement order: 1 - alpha rounds to 1.0\n"

    @pytest.mark.parametrize("method", ("2", "4"))
    def test_law_product_gain_out_of_float_range_exits_2(self, capsys, method):
        # Each law product's gain is 1e-308 * 1e-308 or 1e308 * 1e308 here.
        code, out, err = run_cli(
            capsys, "check", "-m", method, "-a", "0.5", "--wl", "1e-154", "--wh", "1e154",
            "--n", "1", "--k", "2", *(("--eps-special",) if method == "4" else ()),
        )
        assert (code, out) == (2, "")
        assert err == "error: the product's gain 1e-308 * 1e-308 cannot be represented\n"

    @pytest.mark.parametrize("method", ("2", "4"))
    def test_simulate_cascades_a_law_whose_product_gain_is_out_of_float_range(
            self, capsys, method):
        # The laws of the call above run as the operand cascade instead.
        code, out, err = run_cli(
            capsys, "simulate", "-m", method, "-a", "0.5", "--wl", "1e-154", "--wh", "1e154",
            "--n", "1", "--k", "2", *(("--eps-special",) if method == "4" else ()),
        )
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert {row[0] for row in rows} == {"x", "y", "z"}
        assert all(math.isfinite(float(value)) for row in rows for value in row[1:])

    def test_inverse_law_at_a_tiny_order_needs_no_complement(self, capsys):
        code, out, _ = run_cli(capsys, "check", "-m", "4", "-a", "1e-20", "--condition", "ii")
        assert code == 0 and json.loads(out)["structural_pass"] is True

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


class TestShiftedBands:
    """Ordinary bands placed where the product of the edges, or squared
    frequencies and corners, leave the float range: each call runs in a
    fresh process and must exit 0 with nothing on stderr."""

    @staticmethod
    def run(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        return subprocess.run([sys.executable, "-m", "difint.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)

    def test_design_below_the_underflowing_center(self):
        proc = self.run("design", "-m", "1", "-a", "0.3", "--wl", "1e-200", "--wh", "1e-190",
                        "--n", "4", "--k", "1")
        assert (proc.returncode, proc.stderr) == (0, "")
        gain = next(line for line in proc.stdout.splitlines() if line.startswith("gain="))
        assert 0.0 < float(gain.split()[0].split("=")[1]) < math.inf

    @pytest.mark.parametrize("band", (
        ("--wl", "1e-154", "--wh", "1e154", "-m", "2", "--n", "1", "--k", "1"),
        ("--wl", "1e-170", "--wh", "1e-160", "-m", "1"),
    ))
    def test_bode_cells_are_finite(self, band):
        proc = self.run("bode", "-a", "0.3", *band)
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = proc.stdout.splitlines()[1:]
        assert len(rows) == 1000
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))

    @pytest.mark.parametrize("band", (
        ("-m", "5", "-a", "0.3", "--wl", "1e-200", "--wh", "1e-190"),
        ("-m", "5", "-a", "0.496", "--wl", "3.13e-217", "--wh", "3.13e-216", "--n", "14",
         "--k", "4"),
        ("-m", "2", "-a", "0.3", "--wl", "1e-300", "--wh", "1e7", "--n", "1", "--k", "1"),
    ))
    def test_check_deviations_are_finite(self, band):
        # The operands' complex product overflows on these bands; the
        # deviation, formed in log form, must not.
        proc = self.run("check", *band)
        assert (proc.returncode, proc.stderr) == (0, "")

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        for verdict in json.loads(proc.stdout, parse_constant=reject):
            assert math.isfinite(verdict["numeric_max_deviation"])
            if verdict["structural_pass"]:
                assert verdict["numeric_max_deviation"] < 1e-12


class TestTopOfTheFloatRange:
    """Bands up to the float maximum, on which two hypot terms of a
    frequency and a corner would overflow unless log_response scales them."""

    @pytest.mark.parametrize("call", (
        "bode -m 1 -a 0.3 --wl 1e306 --wh 1.7e308 --points 3",
        "bode -m 2 -a 0.9 --wl 1e300 --wh 1.5e308 --n 3 --k 2 --kind diff --points 3",
        "check -m 1 -a 0.5 --wl 1e297 --wh 1.5e308 --n 17 --k 1 --condition ii",
        "table --which 1 --wl 1e265 --wh 1.5e308 --n 2 --k 1",
        "table --which 2 --wl 1e300 --wh 1.7e308 --points 5",
    ))
    def test_output_is_finite_with_no_warning(self, capsys, call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *call.split())
        assert (code, err, caught) == (0, "", [])
        if call.startswith("check"):

            def reject(constant):
                raise ValueError(f"non-finite JSON constant {constant}")

            assert math.isfinite(json.loads(out, parse_constant=reject)["numeric_max_deviation"])
        elif call.startswith("table --which 1"):
            assert out.splitlines()[0] == "method  i  ii  iii"
        else:
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)


def one_shot_csv(header, columns, precision):
    """CSV text built as one string, as ``_csv`` did before it wrote blocks:
    the reference its chunks must join to."""
    template, cells = [], []
    for column in columns:
        if len(column) and isinstance(column[0], str):
            template.append("%s")
            cells.append(column)
        else:
            template.append(f"%.{precision}g")
            cells.append((np.asarray(column, dtype=float) + 0.0).tolist())
    row = ",".join(template)
    lines = [",".join(header), *(row % values for values in zip(*cells))]
    return "\n".join(lines) + "\n"


class TestCsv:
    @pytest.mark.parametrize("precision", [0, 3, 9, 17])
    def test_cells_print_as_fmt(self, precision):
        values = [-0.0, 1.0 / 3.0, -2.5e-300, 1e300, float("inf"), float("nan"), 5e-324]
        text = "".join(_csv(["name", "value", "index"],
                            [[f"r{i}" for i in range(len(values))], np.array(values),
                             range(len(values))],
                            precision))
        expected = ["name,value,index"] + [
            f"r{i},{_fmt(v, precision)},{_fmt(i, precision)}" for i, v in enumerate(values)
        ]
        assert text == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("precision", [0, 3, 9, 17])
    def test_blocks_below_and_past_1e308_print_as_fmt(self, precision):
        # The first block holds no value of 1e308 or more and is printed by
        # the row template, the second holds some and is printed cell by cell.
        values = np.full(_BLOCK_ROWS + 4, 1.5)
        values[:6] = [-0.0, 1.0 / 3.0, -2.5e-300, 1e300, float("nan"), 5e-324]
        values[-4:] = [sys.float_info.max, -1.75e308, float("inf"), 0.25]
        text = "".join(_csv(["value"], [values], precision))
        assert text == "value\n" + "".join(f"{_fmt(v, precision)}\n" for v in values)

    def test_no_rows_prints_the_header(self):
        assert "".join(_csv(["a", "b"], [[], np.array([])], 9)) == "a,b\n"

    @pytest.mark.parametrize("rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                      2 * _BLOCK_ROWS + 1])
    def test_blocks_join_to_the_one_shot_text(self, rows):
        rng = np.random.default_rng(rows)
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        values[::7] = -0.0
        header = ["name", "value", "index"]
        columns = [[f"r{i}" for i in range(rows)], values, range(rows)]
        for precision in (9, 17):
            chunks = list(_csv(header, columns, precision))
            assert "".join(chunks) == one_shot_csv(header, columns, precision)
            assert chunks[0] == "name,value,index\n"
            sizes = [chunk.count("\n") for chunk in chunks[1:]]
            assert max(sizes) <= _BLOCK_ROWS
            assert sizes == [_BLOCK_ROWS] * (rows // _BLOCK_ROWS) + (
                [rows % _BLOCK_ROWS] if rows % _BLOCK_ROWS else [])


class TestSimulateCommand:
    @pytest.mark.parametrize("argv", (
        ("simulate", "--method", "1", "--alpha", "0.3", "--T", "inf"),
        ("simulate", "--method", "1", "--alpha", "0.3", "--h", "inf"),
        ("table", "--which", "4", "--T", "inf"),
        ("table", "--which", "5", "--h", "inf"),
    ))
    def test_non_finite_horizon_or_sample_period_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: sample period and duration must be finite")

    @pytest.mark.parametrize("argv", (
        ("simulate", "--method", "1", "--alpha", "0.3", "--T", "1e14"),
        ("table", "--which", "4", "--T", "1e14"),
    ))
    def test_a_horizon_too_long_to_allocate_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: a horizon of 100000000000000001 samples is too long to allocate\n"

    def test_all_experiments_in_a_fresh_process(self):
        # The laws' two lanes make the first two filter calls of the process
        # at about the same time, so both load the compiled kernel at once.
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "difint.cli", "simulate", "-m", "2", "-a", "0.4",
             "--T", "1", "--experiment", "all"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(proc.stdout.splitlines()) == 1 + 3 * 1001

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

    def test_all_experiments_csv_is_the_one_shot_text(self, capsys):
        code, out, _ = run_cli(capsys, "--precision", "17", "simulate", "-m", "2", "-a", "0.4")
        assert code == 0
        results = identity_experiment(2, 0.4, 1e-3, 1e3, 10, 2,
                                      sample_period=0.001, duration=10.0)
        runs = [results[name] for name in ("x", "y", "z")]
        labels = [name for name, res in zip("xyz", runs) for _ in res.time]
        columns = [np.concatenate(series) for series in zip(
            *([res.time, res.input_signal, res.exact, res.approx, res.error] for res in runs))]
        assert len(labels) > 2 * _BLOCK_ROWS + 1
        assert out == one_shot_csv(["experiment", "t", "u", "exact", "approx", "error"],
                                   [labels, *columns], 17)


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

    def test_repeated_pole_expansion_is_finite(self, capsys):
        # the unscaled local series of this spec overflowed
        code, out, err = run_cli(
            capsys, "pfe", "-m", "2", "-a", "0.7", "--n", "40", "--k", "4",
        )
        assert code == 0 and err == ""
        doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in output"))
        assert len(doc["terms"]) == 40
        assert all(len(term["residues"]) == 4 for term in doc["terms"])

    def test_non_finite_expansion_exits_2(self, capsys):
        # poles over 180 decades: the true residues reach ~2e350
        code, out, err = run_cli(
            capsys, "pfe", "-m", "1", "-a", "0.1", "--wl", "1e-100", "--wh", "1e100",
            "--n", "10", "--k", "4",
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

    def test_multiplicity_four_exits_4_before_expanding(self, capsys):
        # the expansion of this spec overflows (exit 2 from pfe)
        code, out, err = run_cli(
            capsys, "circuit", "-m", "1", "-a", "0.1", "--wl", "1e-100", "--wh", "1e100",
            "--n", "10", "--k", "4",
        )
        assert code == 4
        assert out == ""
        assert "not synthesizable" in err


class TestCliBehavior:
    # numpy refuses both counts outright: the first needs about 711 PiB,
    # the second is past its own size limit.
    @pytest.mark.parametrize("count", ("100000000000000000", "100000000000000000000"))
    @pytest.mark.parametrize("command", ("bode -m 1 -a 0.3", "table --which 2"))
    def test_a_grid_too_long_to_allocate_exits_2(self, capsys, command, count):
        code, out, err = run_cli(capsys, *command.split(), "--points", count)
        assert (code, out) == (2, "")
        assert err == f"error: a grid of {count} points is too long to allocate\n"

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

    @pytest.mark.parametrize("argv, expected", [
        (("bode", "-m", "9", "-a", "0.4"), 2),
        (("design", "-m", "1", "-a", "1.2"), 2),
        (("simulate", "-m", "1", "-a", "0.3", "--T", "inf"), 2),
        (("table", "--which", "1", "--alphas", "0.3,x"), 2),
        (("table", "--which", "2", "--alphas", "abc"), 2),
        (("design", "-m", "3", "-a", "0.3", "--eps", "5"), 3),
        (("circuit", "-m", "1", "-a", "0.3", "--k", "2"), 4),
    ])
    def test_failing_call_creates_no_output_file(self, capsys, tmp_path, argv, expected):
        target = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, "--output", str(target), *argv)
        assert code == expected and out == "" and err
        assert not target.exists()

    @pytest.mark.parametrize("name", ["", "missing/out.csv"], ids=["directory", "no-parent"])
    def test_unwritable_output_path_exits_2(self, capsys, tmp_path, name):
        target = tmp_path / name
        code, out, err = run_cli(capsys, "--output", str(target), "design", "-m", "1", "-a", "0.3")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_output_file_holds_the_printed_bytes(self, capsys, tmp_path):
        argv = ("simulate", "-m", "2", "-a", "0.4", "--experiment", "all")
        _, printed, _ = run_cli(capsys, *argv)
        target = tmp_path / "simulate.csv"
        code, out, _ = run_cli(capsys, "--output", str(target), *argv)
        assert code == 0 and out == ""
        assert printed.count("\n") > 2 * _BLOCK_ROWS + 1
        assert target.read_bytes() == printed.encode("utf-8")

    def test_reader_closing_the_pipe_early_is_not_an_error(self):
        # Many blocks, far more than a pipe holds: the writer meets the
        # closed pipe while blocks remain.
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "difint.cli", "simulate", "-m", "2", "-a", "0.4"],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"experiment,t,u,exact,approx,error\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0 and err == b""

    def test_unknown_command_is_invalid(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_negative_precision_is_invalid(self, capsys):
        code, out, err = run_cli(capsys, "--precision", "-1", "bode", "-m", "1", "-a", "0.4")
        assert code == 2 and out == ""
        assert "--precision: must be >= 0" in err

    PRECISION_CALLS = ("bode -m 1 -a 0.3 --points 3", "simulate -m 1 -a 0.3 --T 0.01",
                       "table --which 2 --points 3")

    @pytest.mark.parametrize("call", PRECISION_CALLS)
    @pytest.mark.parametrize("to_file", (False, True), ids=("stdout", "file"))
    def test_precision_past_the_digits_of_a_double_is_invalid(self, capsys, tmp_path, call,
                                                              to_file):
        target = tmp_path / "out.csv"
        output = ("--output", str(target)) if to_file else ()
        code, out, err = run_cli(capsys, *output, "--precision", str(10**10), *call.split())
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --precision: must be <= 767, got 10000000000\n")
        assert not target.exists()

    @pytest.mark.parametrize("call", PRECISION_CALLS)
    def test_precision_767_prints_every_digit(self, capsys, call):
        code, out, err = run_cli(capsys, "--precision", "767", *call.split())
        assert (code, err) == (0, "")
        _, full, _ = run_cli(capsys, "--precision", "17", *call.split())
        # Every number reads back as the one printed at 17 digits.
        assert [float(x) for x in NUMBER.findall(out)] == [float(x) for x in NUMBER.findall(full)]

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
        em, ep = error_series(model, 0.4, INTEGRATOR, make_grid(1e-3, 1e3, 501))
        for printed, exact in (
            (np.max(np.abs(printed_em)), np.max(np.abs(em))),
            (np.sqrt(np.sum(printed_em**2)), np.sqrt(np.sum(em**2))),
            (np.max(np.abs(printed_ep)), np.max(np.abs(ep))),
            (np.sqrt(np.sum(printed_ep**2)), np.sqrt(np.sum(ep**2))),
        ):
            ulp_at_9 = 10.0 ** (math.floor(math.log10(abs(exact))) - 8)
            assert abs(printed - exact) <= ulp_at_9


class _DiscardingSink:
    """Standard-output stand-in that counts the characters it is given and
    keeps none of them."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)

    def flush(self):
        pass


class TestOutputMemory:
    def test_simulate_peak_stays_below_its_output_size(self, monkeypatch):
        # Text formatted as one string costs several times its own size in
        # Python objects; written in blocks, the traced peak is the result
        # arrays plus one block.
        argv = ["simulate", "-m", "2", "-a", "0.4", "--experiment", "all"]
        sink = _DiscardingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main([*argv, "--T", "0.01"]) == 0  # imports the filter kernel untraced
        sink.written = 0
        tracemalloc.start()
        try:
            code = main([*argv, "--T", "40"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.written > 7_000_000
        assert peak < sink.written


# Runs in a fresh interpreter: design, analysis and realization commands must
# not load scipy, and the simulating command given on the probe's command line
# must still work there and load only scipy's compiled sosfilt extension.
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
    codes.append(difint.cli.main(sys.argv[1:]))
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules(),
                  "rows": len(out.getvalue().splitlines())}))
"""


class TestImportCost:
    def test_only_simulation_loads_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        for argv, rows in [
            (["simulate", "-m", "1", "-a", "0.4", "--T", "0.01"], 1 + 3 * 11),
            (["table", "--which", "4", "--T", "0.01"], 1 + 7),
        ]:
            proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            report = json.loads(proc.stdout)
            assert report["codes"] == [0] * 7
            assert report["before"] == []
            assert "scipy.signal._sosfilt" in report["after"], argv
            assert "scipy.signal" not in report["after"], argv
            assert report["rows"] == rows


# Runs the ``difint`` command line as ``python -m difint.cli`` does, under
# ``-X importtime``, and reports its exit code and the difint modules loaded.
_MODULE_PROBE = """
import json, runpy, sys
try:
    runpy.run_module("difint.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "difint")]),
      file=sys.stderr)
"""
_BASE = ("design", "errors", "factored")  # what the parser and every command load


def _difint_modules(*argv, code=_MODULE_PROBE):
    """Exit code, stdout, sys.modules' difint modules and the difint modules
    that ``-X importtime`` reports, of ``code`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"),
                          capture_output=True, text=True, timeout=120)
    *timings, report = proc.stderr.splitlines()
    imported = sorted(line.rpartition("|")[2].strip() for line in timings
                      if line.rpartition("|")[2].strip().split(".")[0] == "difint")
    exit_code, loaded = json.loads(report)
    return exit_code, proc.stdout, loaded, imported


class TestModulesLoaded:
    """Each command loads only the difint modules it uses."""

    @pytest.mark.parametrize("argv, code, extra", [
        (["design", "-m", "1", "-a", "0.3"], 0, ()),
        (["bode", "-m", "9", "-a", "0.3"], 2, ()),
        (["bode", "-m", "1", "-a", "0.3", "--points", "10"], 0, ("frequency",)),
        (["check", "-m", "1", "-a", "0.3"], 0, ("frequency", "identities")),
        (["table", "--which", "1", "--alphas", "0.3"], 0, ("frequency", "identities")),
        (["pfe", "-m", "1", "-a", "0.3"], 0, ("realization",)),
        (["simulate", "-m", "1", "-a", "0.3", "--T", "0.01"], 0, ("discrete",)),
        (["table", "--which", "4", "--T", "0.01"], 0, ("discrete",)),
    ], ids=["design", "rejected", "bode", "check", "table-1", "pfe", "simulate", "table-4"])
    def test_command_loads_only_its_modules(self, argv, code, extra):
        exit_code, _, loaded, imported = _difint_modules(*argv)
        expected = sorted(["difint", *(f"difint.{name}" for name in (*_BASE, *extra))])
        assert exit_code == code
        assert loaded == imported == expected

    def test_help_loads_only_the_parser_modules_and_keeps_its_text(self, monkeypatch):
        from difint.cli import build_parser

        exit_code, out, loaded, imported = _difint_modules("-h")
        monkeypatch.setenv("COLUMNS", "80")
        assert exit_code == 0 and out == build_parser().format_help()
        assert loaded == imported == ["difint", *(f"difint.{name}" for name in _BASE)]

    @pytest.mark.parametrize("statement, expected", [
        ("import difint", ["difint"]),
        ("from difint import design", ["difint", *(f"difint.{name}" for name in _BASE)]),
    ])
    def test_importing_the_package_loads_no_other_module(self, statement, expected):
        probe = (f"import json, sys\n{statement}\nprint(json.dumps([0, sorted("
                 "m for m in sys.modules if m.split('.')[0] == 'difint')]), file=sys.stderr)")
        _, _, loaded, imported = _difint_modules(code=probe)
        assert loaded == imported == expected
