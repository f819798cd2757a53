"""Command-line surface: subcommands, files, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from beatnote import (
    DshiParams,
    extrema_spacing,
    measure_envelope_contrast,
    read_report,
    read_trace,
)
from beatnote.cli import main


def run_cli(*args):
    return main(list(args))


class TestSimulate:
    def test_analytic_trace_peaked_at_carrier(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert run_cli("simulate", "--mode", "analytic", "--linewidth-hz", "100",
                       "--fiber-km", "5", "--eom-mhz", "7", "--out", str(out)) == 0
        trace = read_trace(out)
        peak_freq = trace.grid.points()[int(np.argmax(trace.values))]
        assert peak_freq == pytest.approx(7e6, abs=trace.grid.step)
        # envelope extrema spacing ~ 20.4 kHz: troughs at even multiples
        params = DshiParams(eom_frequency=7e6, laser_fwhm=100.0)
        assert extrema_spacing(params) == pytest.approx(20421.8, abs=1.0)
        _, x_p, x_t = measure_envelope_contrast(trace, params, 1, 2)
        assert x_t - x_p == pytest.approx(extrema_spacing(params), rel=0.05)

    def test_linewidth_sweep_contrast_decreasing(self, tmp_path):
        prefix = tmp_path / "sweep"
        assert run_cli("simulate", "--mode", "analytic",
                       "--sweep-param", "linewidth-hz",
                       "--sweep-values", "10,100,1000",
                       "--out-prefix", str(prefix)) == 0
        contrasts = []
        for value in (10, 100, 1000):
            trace = read_trace(f"{prefix}_linewidth-hz_{value}.csv")
            params = DshiParams(eom_frequency=7e6, laser_fwhm=float(value))
            ds, _, _ = measure_envelope_contrast(trace, params, 1, 2)
            contrasts.append(ds)
        assert contrasts[0] > contrasts[1] > contrasts[2]

    def test_montecarlo_same_seed_identical(self, tmp_path):
        args = ("simulate", "--mode", "montecarlo", "--eom-mhz", "1",
                "--linewidth-hz", "5000", "--duration-s", "0.04",
                "--segments", "16", "--seed", "42")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFit:
    def synth(self, tmp_path, **overrides):
        out = tmp_path / "beat.csv"
        args = {
            "--linewidth-hz": "320", "--flicker-gaussian-hz": "640",
            "--span-hz": "120000", "--points": "12001",
        }
        args.update(overrides)
        flat = [x for kv in args.items() for x in kv]
        assert run_cli("simulate", "--mode", "analytic", *flat,
                       "--out", str(out)) == 0
        return out

    def test_voigt_fit_reports_halved_width(self, tmp_path):
        trace = self.synth(tmp_path)
        report = tmp_path / "report.json"
        assert run_cli("fit", "--input", str(trace), "--method", "voigt",
                       "--out", str(report)) == 0
        doc = read_report(report)
        assert doc["result"]["single_laser_fwhm_hz"] == pytest.approx(160.0, abs=15.0)
        assert doc["result"]["lorentzian_fwhm_hz"] == pytest.approx(320.0, abs=30.0)

    def test_both_methods_agree_in_overlap_regime(self, tmp_path):
        trace = self.synth(tmp_path, **{
            "--linewidth-hz": "50000", "--flicker-gaussian-hz": "0",
            "--span-hz": "1000000", "--points": "10001",
        })
        report = tmp_path / "report.json"
        assert run_cli("fit", "--input", str(trace), "--method", "both",
                       "--linewidth-hz", "0",
                       "--out", str(report)) == 0
        voigt = read_report(tmp_path / "report_voigt.json")["result"]
        env = read_report(tmp_path / "report_envelope.json")["result"]
        ratio = voigt["lorentzian_fwhm_hz"] / env["lorentzian_fwhm_hz"]
        assert abs(ratio - 1.0) < 0.10

    def test_envelope_flags_servo_band(self, tmp_path):
        trace = self.synth(tmp_path, **{"--flicker-gaussian-hz": "0"})
        report = tmp_path / "report.json"
        assert run_cli("fit", "--input", str(trace), "--method", "envelope",
                       "--linewidth-hz", "0", "--out", str(report)) == 0
        doc = read_report(report)
        assert "servo-contaminated" in doc["result"]["flags"]

    def test_fitted_profile_overlay(self, tmp_path):
        trace = self.synth(tmp_path)
        report = tmp_path / "report.json"
        overlay = tmp_path / "overlay.csv"
        assert run_cli("fit", "--input", str(trace), "--method", "voigt",
                       "--fitted-trace", str(overlay), "--out", str(report)) == 0
        fitted = read_trace(overlay)
        measured = read_trace(trace)
        assert fitted.values.max() == pytest.approx(measured.values.max(), rel=1e-9)


class TestIonsim:
    def test_spectrum_mode(self, tmp_path):
        curve, report = tmp_path / "c.csv", tmp_path / "r.json"
        assert run_cli("ionsim", "--mode", "spectrum", "--rabi-hz", "125",
                       "--pulse-ms", "4", "--laser-fwhm-hz", "156",
                       "--shots", "50", "--out-curve", str(curve),
                       "--out", str(report)) == 0
        doc = read_report(report)
        assert doc["fit"]["converged"]
        assert doc["fit"]["parameters"][1] > 0
        rows = curve.read_text().strip().splitlines()
        assert rows[0] == "detuning_hz,excitation_probability"
        assert len(rows) > 10

    def test_rabi_mode_recovers_frequency(self, tmp_path):
        curve, report = tmp_path / "c.csv", tmp_path / "r.json"
        assert run_cli("ionsim", "--mode", "rabi", "--rabi-hz", "40000",
                       "--t-max-ms", "0.3", "--t-points", "300",
                       "--shots", "60", "--rin", "0.01",
                       "--out-curve", str(curve), "--out", str(report)) == 0
        doc = read_report(report)
        assert doc["fit"]["parameters"][0] == pytest.approx(40e3, rel=0.01)

    def test_sweep_duration_inverse_power(self, tmp_path):
        curve, report = tmp_path / "c.csv", tmp_path / "r.json"
        assert run_cli("ionsim", "--mode", "sweep-T", "--laser-fwhm-hz", "0",
                       "--durations-ms", "1,2,4,8", "--shots", "1",
                       "--free-exponent", "--out-curve", str(curve),
                       "--out", str(report)) == 0
        doc = read_report(report)
        assert 0.9 <= doc["fit"]["parameters"][1] <= 1.1

    def test_sweep_omega_fixed_inverse_square(self, tmp_path):
        curve, report = tmp_path / "c.csv", tmp_path / "r.json"
        assert run_cli("ionsim", "--mode", "sweep-omega",
                       "--rabi-values-hz", "10000,20000,40000",
                       "--rin", "0.015", "--shots", "60",
                       "--out-curve", str(curve), "--out", str(report)) == 0
        doc = read_report(report)
        assert doc["fit"]["parameters"][1] == 2.0
        assert doc["fit"]["parameters"][0] > 0


class TestBumps:
    def test_self_division_unity(self, tmp_path):
        trace = tmp_path / "t.csv"
        run_cli("simulate", "--mode", "analytic", "--out", str(trace))
        out = tmp_path / "ratio.csv"
        assert run_cli("bumps", "--measured", str(trace), "--model", str(trace),
                       "--out", str(out)) == 0
        ratio = read_trace(out)
        assert np.array_equal(ratio.values, np.ones(ratio.grid.count))

    def test_inject_then_extract_recovers_bump(self, tmp_path):
        trace = tmp_path / "t.csv"
        run_cli("simulate", "--mode", "analytic", "--out", str(trace))
        out = tmp_path / "ratio.csv"
        assert run_cli("bumps", "--measured", str(trace), "--model", str(trace),
                       "--inject-height-db", "10", "--inject-offset-hz", "50000",
                       "--inject-width-hz", "15000", "--out", str(out)) == 0
        ratio = read_trace(out)
        peak_db = 10 * math.log10(ratio.values.max())
        assert peak_db == pytest.approx(10.0, abs=0.2)

    def test_grid_mismatch_exit_code(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--mode", "analytic", "--points", "1001", "--out", str(a))
        run_cli("simulate", "--mode", "analytic", "--points", "2001", "--out", str(b))
        assert run_cli("bumps", "--measured", str(a), "--model", str(b),
                       "--out", str(tmp_path / "r.csv")) == 2


class TestExitCodes:
    def test_validation_error(self, tmp_path):
        assert run_cli("simulate", "--mode", "analytic", "--linewidth-hz", "-5",
                       "--out", str(tmp_path / "x.csv")) == 2

    def test_estimation_error(self, tmp_path):
        # A flat synthetic trace has no measurable widths.
        path = tmp_path / "flat.csv"
        rows = ["frequency_hz,psd"] + [f"{6e6 + i},1.0" for i in range(64)]
        path.write_text("\n".join(rows) + "\n")
        assert run_cli("fit", "--input", str(path), "--method", "voigt",
                       "--out", str(tmp_path / "r.json")) == 3

    def test_io_error(self, tmp_path):
        assert run_cli("fit", "--input", str(tmp_path / "missing.csv"),
                       "--out", str(tmp_path / "r.json")) == 4

    @pytest.mark.parametrize("bad", ["abc", "nan"])
    def test_bad_trace_metadata_is_io_error(self, tmp_path, bad):
        path = tmp_path / "t.csv"
        rows = [f"# rbw_hz={bad}", "frequency_hz,psd"]
        path.write_text("\n".join(rows + [f"{6e6 + i},1.0" for i in range(64)]) + "\n")
        assert run_cli("fit", "--input", str(path), "--method", "voigt",
                       "--out", str(tmp_path / "r.json")) == 4

    def test_argparse_usage_error_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "beatnote.cli", "simulate", "--mode", "bogus"],
            capture_output=True,
        )
        assert proc.returncode == 2


class TestStartup:
    def test_import_does_not_load_scipy_signal(self):
        # scipy.signal alone costs about a second of start-up per CLI call.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, beatnote.cli; print('scipy.signal' in sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "False"


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"linewidth-hz": 640.0, "points": 2001}))
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert run_cli("--config", str(cfg), "simulate", "--mode", "analytic",
                       "--out", str(a)) == 0
        assert run_cli("simulate", "--mode", "analytic", "--linewidth-hz", "640",
                       "--points", "2001", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        # explicit flag beats the config value
        assert run_cli("--config", str(cfg), "simulate", "--mode", "analytic",
                       "--linewidth-hz", "100", "--out", str(c)) == 0
        assert c.read_bytes() != a.read_bytes()
