"""Command-line surface: subcommands, files, exit codes, determinism."""

import json
import math
import re
import subprocess
import sys
from fnmatch import fnmatch

import numpy as np
import pytest

from beatnote import (
    DshiParams,
    extrema_spacing,
    measure_envelope_contrast,
    read_report,
    read_trace,
)
from beatnote import cli, errors
from beatnote.cli import build_parser, main


def run_cli(*args):
    return main(list(args))


def exit_code(*args):
    """The exit code of a run, returned by main or raised by argparse."""
    try:
        return run_cli(*args)
    except SystemExit as exc:
        return exc.code


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

    def test_sweep_refuses_values_that_share_a_file_name(self, tmp_path, capsys):
        # Both values print as 1e+06 under {:g}: the second trace would
        # overwrite the first.
        assert run_cli("simulate", "--sweep-param", "linewidth-hz",
                       "--sweep-values", "1000000,1000001",
                       "--out-prefix", str(tmp_path / "sw")) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "1000000.0 and 1000001.0" in err
        assert "sw_linewidth-hz_1e+06.csv" in err
        assert list(tmp_path.iterdir()) == []


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
                       "--out", str(report)) == 0
        voigt = read_report(tmp_path / "report_voigt.json")["result"]
        env = read_report(tmp_path / "report_envelope.json")["result"]
        ratio = voigt["lorentzian_fwhm_hz"] / env["lorentzian_fwhm_hz"]
        assert abs(ratio - 1.0) < 0.10

    def test_envelope_flags_servo_band(self, tmp_path):
        trace = self.synth(tmp_path, **{"--flicker-gaussian-hz": "0"})
        report = tmp_path / "report.json"
        assert run_cli("fit", "--input", str(trace), "--method", "envelope",
                       "--out", str(report)) == 0
        doc = read_report(report)
        assert "servo-contaminated" in doc["result"]["flags"]

    def test_both_methods_replace_only_a_trailing_json(self, tmp_path):
        trace = self.synth(tmp_path, **{"--flicker-gaussian-hz": "0"})
        out_dir = tmp_path / "x.json.d"
        out_dir.mkdir()
        assert run_cli("fit", "--input", str(trace), "--method", "both",
                       "--out", str(out_dir / "r.json")) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "r_envelope.json", "r_voigt.json"]

    def test_both_methods_write_nothing_when_one_fails(self, tmp_path):
        # The Voigt estimate succeeds and the envelope one fails (exit 3):
        # neither the overlay nor a report may be left behind.
        trace = self.synth(tmp_path)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert run_cli("fit", "--input", str(trace), "--method", "both",
                       "--fitted-trace", str(out_dir / "f.csv"),
                       "--out", str(out_dir / "r.json")) == 3
        assert not any(out_dir.iterdir())

    def test_nan_servo_band_is_usage_error(self, tmp_path):
        trace = self.synth(tmp_path, **{"--flicker-gaussian-hz": "0"})
        assert run_cli("fit", "--input", str(trace), "--method", "envelope",
                       "--servo-band-hz", "nan",
                       "--out", str(tmp_path / "r.json")) == 2

    def test_infinite_tol_is_usage_error(self, tmp_path):
        # Unchecked, tol=inf stops the bisection at its first probe.
        trace = self.synth(tmp_path)
        assert run_cli("fit", "--input", str(trace), "--method", "voigt",
                       "--tol", "inf", "--out", str(tmp_path / "r.json")) == 2

    def test_fitted_profile_overlay(self, tmp_path):
        trace = self.synth(tmp_path)
        report = tmp_path / "report.json"
        overlay = tmp_path / "overlay.csv"
        assert run_cli("fit", "--input", str(trace), "--method", "voigt",
                       "--fitted-trace", str(overlay), "--out", str(report)) == 0
        fitted = read_trace(overlay)
        measured = read_trace(trace)
        assert fitted.values.max() == pytest.approx(measured.values.max(), rel=1e-9)

    def test_fitted_profile_refused_for_envelope(self, tmp_path):
        # Refused before the input is read: the input does not exist.
        overlay, report = tmp_path / "overlay.csv", tmp_path / "report.json"
        assert run_cli("fit", "--input", str(tmp_path / "missing.csv"),
                       "--method", "envelope", "--fitted-trace", str(overlay),
                       "--out", str(report)) == 2
        assert not overlay.exists() and not report.exists()


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
        # enough shots that each fitted width follows the profile, not the
        # 0-or-1 draws of a single shot per point
        curve, report = tmp_path / "c.csv", tmp_path / "r.json"
        assert run_cli("ionsim", "--mode", "sweep-T", "--laser-fwhm-hz", "0",
                       "--durations-ms", "1,2,4,8", "--shots", "1000",
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

    @staticmethod
    def per_element_curve(header, x, y):
        """The curve text of the former CLI writer, one float() per element."""
        lines = [header]
        lines.extend(f"{float(a):.17g},{float(b):.17g}" for a, b in zip(x, y))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("argv", [
        ["--mode", "spectrum", "--shots", "7", "--points", "21"],
        ["--mode", "sweep-T", "--durations-ms", "1,2,4", "--shots", "3",
         "--points", "15"],
    ], ids=["spectrum", "sweep-T"])
    def test_curve_bytes_match_per_element_formatter(self, tmp_path, argv):
        curve, report = tmp_path / "c.csv", tmp_path / "r.json"
        assert run_cli("ionsim", *argv, "--out-curve", str(curve),
                       "--out", str(report)) == 0
        header, *rows = curve.read_text().splitlines()
        x, y = zip(*(map(float, row.split(",")) for row in rows))
        assert curve.read_text() == self.per_element_curve(header, x, y)

    @pytest.mark.parametrize("mode", ["spectrum", "rabi"])
    def test_defaults_make_a_working_run(self, tmp_path, mode):
        # A pi pulse at 250 Hz for the spectrum, four Rabi periods for rabi.
        curve, report = tmp_path / "c.csv", tmp_path / "r.json"
        assert run_cli("ionsim", "--mode", mode, "--seed", "3",
                       "--out-curve", str(curve), "--out", str(report)) == 0
        assert read_report(report)["fit"]["converged"]


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

    def test_rbw_wider_than_trace_is_validation_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--rbw-hz", "1e9", "--out", str(out)) == 2
        assert not out.exists()

    def test_segments_of_fewer_than_two_samples_is_validation_error(self, tmp_path,
                                                                   capsys):
        # 400 000 segments of 320 000 samples ended in a ZeroDivisionError.
        out = tmp_path / "t.csv"
        assert run_cli("simulate", "--mode", "montecarlo", "--eom-mhz", "1",
                       "--duration-s", "0.04", "--segments", "400000",
                       "--out", str(out)) == 2
        assert "320000 samples" in capsys.readouterr().err
        assert not out.exists()

    def test_estimation_error(self, tmp_path):
        # A flat synthetic trace has no measurable widths.
        path = tmp_path / "flat.csv"
        rows = ["frequency_hz,psd"] + [f"{6e6 + i},1.0" for i in range(64)]
        path.write_text("\n".join(rows) + "\n")
        assert run_cli("fit", "--input", str(path), "--method", "voigt",
                       "--out", str(tmp_path / "r.json")) == 3

    @pytest.mark.parametrize("bad", ["abc", "nan"])
    def test_bad_trace_metadata_is_io_error(self, tmp_path, bad):
        path = tmp_path / "t.csv"
        rows = [f"# rbw_hz={bad}", "frequency_hz,psd"]
        path.write_text("\n".join(rows + [f"{6e6 + i},1.0" for i in range(64)]) + "\n")
        assert run_cli("fit", "--input", str(path), "--method", "voigt",
                       "--out", str(tmp_path / "r.json")) == 4

    @pytest.mark.parametrize("unit, row", [("linear", "6000010.0,-1"),
                                           ("dbm", "6000010.0,4000")])
    def test_trace_value_without_finite_power_is_io_error(self, tmp_path, unit, row):
        path = tmp_path / "t.csv"
        rows = [f"{6e6 + i},1.0" for i in range(64)]
        rows[10] = row
        path.write_text("\n".join([f"# unit={unit}", "frequency_hz,psd"] + rows) + "\n")
        assert run_cli("fit", "--input", str(path), "--method", "voigt",
                       "--out", str(tmp_path / "r.json")) == 4
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv", [
        ("ionsim", "--mode", "sweep-T", "--durations-ms", "1,abc"),
        ("ionsim", "--mode", "sweep-T", "--durations-ms", "0"),
        ("ionsim", "--mode", "sweep-omega", "--rabi-values-hz", "0,1"),
        ("ionsim", "--mode", "sweep-omega", "--rabi-values-hz", "inf"),
        ("simulate", "--sweep-param", "power", "--sweep-values", "1,x"),
    ], ids=["duration_not_number", "zero_duration", "zero_rabi",
            "infinite_rabi", "sweep_value_not_number"])
    def test_bad_number_list_is_validation_error(self, tmp_path, argv):
        outputs = {"ionsim": ("--out-curve", str(tmp_path / "c.csv"),
                              "--out", str(tmp_path / "r.json")),
                   "simulate": ("--out-prefix", str(tmp_path / "t"))}
        assert run_cli(*argv, *outputs[argv[0]]) == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("width", ["-5", "nan"])
    def test_bad_flicker_gaussian_width_is_validation_error(self, tmp_path,
                                                            width):
        # Both used to exit 0 with the plain analytic trace.
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--mode", "analytic",
                       "--flicker-gaussian-hz", width, "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("ionsim", "--pulse-ms", "0"),
        ("ionsim", "--pulse-ms", "nan"),
        ("simulate", "--rbw-hz", "nan"),
        ("simulate", "--rbw-hz", "-1"),
        ("simulate", "--mode", "montecarlo", "--sample-rate-hz", "0"),
        ("simulate", "--span-hz", "nan"),
        ("ionsim", "--span-hz", "inf"),
        ("simulate", "--span-hz", "0"),
    ], ids=["zero_pulse", "nan_pulse", "nan_rbw", "negative_rbw",
            "zero_sample_rate", "nan_span", "inf_ion_span", "zero_span"])
    def test_flag_outside_its_range_is_refused(self, tmp_path, capsys, argv):
        # The zero pulse divided by zero, the NaN pulse and the spans were
        # refused without naming their flag, and the others ran without
        # smoothing or at 8 f_eom.
        assert exit_code(*argv, *self.outputs(argv[0], tmp_path)) == 2
        assert f"argument {argv[-2]}: must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["simulate", "ionsim"])
    def test_grid_of_two_points_is_refused(self, tmp_path, capsys, command):
        # The grid refused it before, without naming the flag.
        argv = (command, "--points", "2", *self.outputs(command, tmp_path))
        assert exit_code(*argv) == 2
        assert "argument --points: must be >= 3" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, named", [
        (("ionsim", "--points", "2.5"), "--points: must be an integer, got '2.5'"),
        (("ionsim", "--pulse-ms", "abc"), "--pulse-ms: must be a number, got 'abc'"),
        (("simulate", "--rbw-hz", "abc"), "--rbw-hz: must be a number, got 'abc'"),
    ], ids=["fractional_points", "word_pulse", "word_rbw"])
    def test_flag_that_does_not_parse_names_its_value(self, tmp_path, capsys,
                                                      argv, named):
        # argparse named the type function: "invalid _grid_points value".
        assert exit_code(*argv, *self.outputs(argv[0], tmp_path)) == 2
        err = capsys.readouterr().err
        assert named in err and "invalid" not in err
        assert not any(tmp_path.iterdir())

    @staticmethod
    def outputs(command, tmp_path):
        """The output flags `command` requires, into `tmp_path`."""
        return {"ionsim": ("--out-curve", str(tmp_path / "c.csv"),
                           "--out", str(tmp_path / "r.json")),
                "simulate": ("--out", str(tmp_path / "t.csv"))}[command]

    def test_zero_rbw_is_no_smoothing(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("simulate", "--points", "2001", "--out", str(a)) == 0
        assert run_cli("simulate", "--points", "2001", "--rbw-hz", "0",
                       "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    # Each way a file fails, as a command line over the test's directory.
    FILE_ERRORS = {
        "missing_trace": "fit --input {d}/missing.csv --out {d}/r.json",
        "missing_config": "--config {d}/missing.json simulate --out {d}/t.csv",
        "invalid_json": "--config {d}/bad.json simulate --out {d}/t.csv",
        "non_object_config": "--config {d}/list.json simulate --out {d}/t.csv",
        "non_ascii_config": "--config {d}/mu.json simulate --out {d}/t.csv",
        "non_ascii_trace": "fit --input {d}/mu.csv --out {d}/r.json",
        "unwritable_trace": "simulate --points 101 --out {d}/no/t.csv",
        "unwritable_report": "fit --input {d}/ok.csv --out {d}/no/r.json",
        "unwritable_curve": "ionsim --points 11 --shots 5 "
                            "--out-curve {d}/no/c.csv --out {d}/r.json",
    }

    @pytest.mark.parametrize("name", FILE_ERRORS)
    def test_file_error_exits_4_and_writes_nothing(self, tmp_path, capsys,
                                                   name):
        ok = tmp_path / "ok.csv"
        assert run_cli("simulate", "--points", "2001", "--out", str(ok)) == 0
        (tmp_path / "bad.json").write_text('{"points": 101,}\n')
        (tmp_path / "list.json").write_text('[["points", 101]]\n')
        (tmp_path / "mu.json").write_bytes(b'{\n"instrument": "\xb5"}\n')
        (tmp_path / "mu.csv").write_bytes(b"# instrument=\xc2\xb5-analyzer\n"
                                          + ok.read_bytes())
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        argv = [a.format(d=tmp_path) for a in self.FILE_ERRORS[name].split()]
        assert run_cli(*argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ")
        named = {"non_ascii_config": "line 2: non-ASCII byte 0xb5",
                 "non_ascii_trace": "line 1: non-ASCII byte 0xc2"}
        assert named.get(name, "") in err
        assert sorted(tmp_path.iterdir()) == before

    # Every error class of beatnote.errors, and the exit code the CLI gives it.
    EXIT_CODES = {
        "BeatnoteError": 2,
        "InvalidParameterError": 2,
        "ResolutionError": 2,
        "DomainError": 2,
        "GridMismatchError": 2,
        "EstimationError": 3,
        "WidthUndefinedError": 3,
        "AmbiguousPeakError": 3,
        "ExtremumNotFoundError": 3,
        "NoSolutionError": 3,
        "InitializationError": 3,
        "InsufficientDataError": 3,
        "FileError": 4,
        "TraceIOError": 4,
        "ParseError": 4,
        "SchemaError": 4,
    }

    def test_every_error_class_has_its_exit_code(self, tmp_path, monkeypatch):
        classes = {name: value for name, value in vars(errors).items()
                   if isinstance(value, type)
                   and issubclass(value, errors.BeatnoteError)}
        assert set(classes) == set(self.EXIT_CODES)
        for name, error in classes.items():
            def raising(args, error=error):
                raise error(f"raised {error.__name__}")

            monkeypatch.setattr(cli, "cmd_simulate", raising)
            assert run_cli("simulate", "--out", str(tmp_path / "t.csv")) == (
                self.EXIT_CODES[name]), name

    @pytest.mark.parametrize("config, argv", [
        ({"mode": "bogus"}, ["simulate", "--out", "t.csv"]),
        ({"sweep_param": "bogus", "sweep_values": "1,2"},
         ["simulate", "--out-prefix", "t"]),
        ({"method": "bogus"}, ["fit", "--input", "ok.csv", "--out", "r.json"]),
        ({"method": "bogus"}, ["fit", "--input", "ok.csv", "--fitted-trace",
                               "o.csv", "--out", "r.json"]),
        ({"mode": "bogus"}, ["ionsim", "--out-curve", "c.csv", "--out", "r.json"]),
    ], ids=["simulate_mode", "sweep_param", "fit_method",
            "fit_method_fitted_trace", "ionsim_mode"])
    def test_config_value_outside_choices_is_refused(self, tmp_path, capsys,
                                                     monkeypatch, config, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli("simulate", "--points", "2001", "--out", "ok.csv") == 0
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli("--config", "cfg.json", *argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        flag = "--" + next(iter(config)).replace("_", "-")
        usage = build_parser()[1][argv[0]].format_usage()
        choices = re.search(rf"{flag} {{([^}}]*)}}", usage).group(1)
        assert f"argument {flag}: invalid choice: " in err and "bogus" in err
        assert all(choice in err for choice in choices.split(","))
        assert sorted(tmp_path.iterdir()) == before

    def test_argparse_usage_error_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "beatnote.cli", "simulate", "--mode", "bogus"],
            capture_output=True,
        )
        assert proc.returncode == 2


def subcommand_flags(command):
    """The long flags of a subcommand, as namespace names, read from its
    usage line."""
    usage = build_parser()[1][command].format_usage()
    return {f.replace("-", "_") for f in re.findall(r"--([a-z][a-z0-9-]*)", usage)}


class TestReportConfig:
    """A report's config holds every flag of its subcommand but the output
    paths and --timestamp."""

    NOT_ECHOED = {"out", "out_curve", "fitted_trace", "timestamp"}

    def test_fit(self, tmp_path):
        trace, report = tmp_path / "t.csv", tmp_path / "r.json"
        assert run_cli("simulate", "--points", "4001", "--out", str(trace)) == 0
        assert run_cli("fit", "--input", str(trace), "--method", "envelope",
                       "--out", str(report)) == 0
        assert set(read_report(report)["config"]) == (
            subcommand_flags("fit") - self.NOT_ECHOED)

    def test_ionsim(self, tmp_path):
        curve, report = tmp_path / "c.csv", tmp_path / "r.json"
        assert run_cli("ionsim", "--points", "11", "--shots", "5",
                       "--out-curve", str(curve), "--out", str(report)) == 0
        config = read_report(report)["config"]
        assert set(config) == subcommand_flags("ionsim") - self.NOT_ECHOED
        assert config["rabi_periods"] == 12.0
        assert read_report(report)["input"] == {"path": "synthetic"}


class TestStartup:
    # Patterns of modules no process below may load.  The Voigt profile,
    # the exact ion mean and the fits are numpy only: scipy.special alone
    # cost about 0.3 s of start-up per CLI call and scipy.signal about a
    # second.  The oracle's second lane is a plain threading.Thread;
    # concurrent.futures would add about 7 ms to every CLI call.
    NEVER = ("scipy", "scipy.*", "concurrent.futures")
    # What each process runs, a statement or a CLI argv ("{d}" is the
    # test's directory), and the patterns it must also keep out: each
    # subcommand compiles only the modules it runs.
    ROWS = {
        "import-beatnote": ("import beatnote", ("beatnote.*",)),
        "import-cli": ("import beatnote.cli", ()),
        "import-ionsim": ("import beatnote.ionsim", ("beatnote.dshi",)),
        "simulate": (["simulate", "--mode", "montecarlo", "--eom-mhz", "1",
                      "--linewidth-hz", "5000", "--duration-s", "0.01",
                      "--segments", "16", "--seed", "1", "--out", "{d}/mc.csv"],
                     ("beatnote.estimate", "beatnote.ionsim", "json")),
        "fit": (["fit", "--input", "{d}/an.csv", "--method", "voigt",
                 "--fitted-trace", "{d}/fit.csv", "--out", "{d}/r.json"],
                ("beatnote.ionsim", "beatnote.dshi", "numpy.random")),
        "fit-both": (["fit", "--input", "{d}/an.csv", "--method", "both",
                      "--fitted-trace", "{d}/fit.csv", "--out", "{d}/r.json"],
                     ("beatnote.ionsim", "numpy.random")),
        "ionsim": (["ionsim", "--shots", "5", "--points", "11",
                    "--out-curve", "{d}/c.csv", "--out", "{d}/ion.json"], ()),
        "bumps": (["bumps", "--measured", "{d}/an.csv", "--model",
                   "{d}/an.csv", "--out", "{d}/ratio.csv"], ()),
    }

    @pytest.mark.parametrize("row", ROWS)
    def test_process_loads_only_what_it_runs(self, tmp_path, row):
        run, kept_out = self.ROWS[row]
        if isinstance(run, list):
            assert run_cli("simulate", "--mode", "analytic", "--linewidth-hz",
                           "50000", "--span-hz", "1000000", "--points", "2001",
                           "--out", str(tmp_path / "an.csv")) == 0
            argv = [arg.format(d=tmp_path) for arg in run]
            run = f"from beatnote.cli import main\nassert main({argv!r}) == 0"
        # The module list is taken before json is imported to print it.
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys\n{run}\nloaded = sorted(sys.modules)\n"
             f"import json\nprint(json.dumps(loaded))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        patterns = self.NEVER + kept_out
        assert [m for m in loaded if any(fnmatch(m, p) for p in patterns)] == []

    @staticmethod
    def loaded_by_import_cli(names):
        """Those of ``names`` in sys.modules after ``import beatnote.cli``."""
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, beatnote.cli; "
             f"print([m for m in {tuple(names)!r} if m in sys.modules])"],
            capture_output=True, text=True, check=True,
        )
        return proc.stdout.strip()

    def test_import_does_not_load_scipy(self):
        assert self.loaded_by_import_cli(["scipy", "scipy.special"]) == "[]"

    def test_import_does_not_load_concurrent_futures(self):
        assert self.loaded_by_import_cli(["concurrent.futures"]) == "[]"

    def test_import_does_not_load_scipy_signal(self):
        assert self.loaded_by_import_cli(["scipy.signal"]) == "[]"

    def test_import_does_not_load_scipy_linalg_or_optimize(self):
        assert self.loaded_by_import_cli(
            ["scipy.linalg", "scipy.optimize"]) == "[]"

    def test_every_subcommand_runs_with_scipy_blocked(self, tmp_path):
        # A None entry in sys.modules makes any scipy import raise.
        script = f"""
import sys
sys.modules["scipy"] = None
from beatnote.cli import main
d = {str(tmp_path)!r}
runs = [
    ["simulate", "--mode", "montecarlo", "--eom-mhz", "1",
     "--linewidth-hz", "5000", "--duration-s", "0.01", "--segments", "16",
     "--seed", "1", "--out", d + "/mc.csv"],
    ["simulate", "--mode", "analytic", "--linewidth-hz", "50000",
     "--flicker-gaussian-hz", "0", "--span-hz", "1000000",
     "--points", "10001", "--out", d + "/an.csv"],
    ["fit", "--input", d + "/an.csv", "--method", "both",
     "--fitted-trace", d + "/fit.csv",
     "--out", d + "/r.json"],
    ["ionsim", "--mode", "spectrum", "--rabi-hz", "125", "--pulse-ms", "4",
     "--laser-fwhm-hz", "156", "--shots", "5", "--out-curve", d + "/c.csv",
     "--out", d + "/ion.json"],
    ["bumps", "--measured", d + "/an.csv", "--model", d + "/an.csv",
     "--out", d + "/ratio.csv"],
]
print([main(argv) for argv in runs])
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0]"


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

    @staticmethod
    def run_both_ways(tmp_path, command, base, key, flag, value, outputs):
        """Run once with `key` in a config and once with `flag` on the command
        line; return the bytes each run wrote to `outputs`, file names whose
        stems name the output flags."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        written = []
        for name, pre, extra in (("c", ["--config", str(cfg)], []),
                                 ("f", [], [flag, str(value)])):
            paths = [tmp_path / f"{name}-{o}" for o in outputs]
            out_flags = [x for o, p in zip(outputs, paths)
                         for x in (f"--{o.split('.')[0]}", str(p))]
            assert run_cli(*pre, command, *base, *extra, *out_flags) == 0
            written.append([p.read_bytes() for p in paths])
        return written

    def test_simulate_config_matches_flag(self, tmp_path):
        a, b = self.run_both_ways(
            tmp_path, "simulate", ["--points", "2001"], "fiber-km",
            "--fiber-km", 2.5, ["out.csv"])
        assert a == b

    def test_fit_config_matches_flag(self, tmp_path):
        trace = tmp_path / "t.csv"
        assert run_cli("simulate", "--points", "4001", "--out", str(trace)) == 0
        a, b = self.run_both_ways(
            tmp_path, "fit", ["--input", str(trace), "--method", "envelope"],
            "servo_band_hz", "--servo-band-hz", 1000.0, ["out.json"])
        assert a == b

    def test_ionsim_config_matches_flag(self, tmp_path):
        a, b = self.run_both_ways(
            tmp_path, "ionsim", ["--points", "11", "--shots", "5"],
            "laser-fwhm-hz", "--laser-fwhm-hz", 300.0,
            ["out-curve.csv", "out.json"])
        assert a == b

    def test_bumps_config_matches_flag(self, tmp_path):
        trace = tmp_path / "t.csv"
        assert run_cli("simulate", "--points", "2001", "--out", str(trace)) == 0
        a, b = self.run_both_ways(
            tmp_path, "bumps", ["--measured", str(trace), "--model", str(trace)],
            "inject_height_db", "--inject-height-db", 6.0, ["out.csv"])
        assert a == b

    @pytest.mark.parametrize("config, code, named", [
        ({"span_hz": None}, 4, "span_hz"),
        ({"linewidth_hz": [1, 2]}, 4, "linewidth_hz"),
        ({"duration_s": {"a": 1}}, 4, "duration_s"),
        ({"fiber_km": True}, 2, "--fiber-km"),
        ({"fiber_km": False}, 2, "--fiber-km"),
        ({"seed": -1.5}, 2, "--seed"),
        ({"points": 2001.5}, 2, "--points"),
        ({"mode": "bogus"}, 2, "--mode"),
    ], ids=["null", "list", "object", "true_for_a_number", "false_for_a_number",
            "fractional_seed", "fractional_points", "outside_choices"])
    def test_config_value_is_parsed_as_its_flag(self, tmp_path, capsys, config,
                                                 code, named):
        # true ran a 1 km line, -1.5 was accepted as a seed, and the first
        # three ended in a traceback.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert exit_code("--config", str(cfg), "simulate",
                         "--out", str(tmp_path / "t.csv")) == code
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_sweep_config_matches_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep_param": "power", "sweep_values": 3}))
        assert run_cli("--config", str(cfg), "simulate", "--points", "2001",
                       "--out-prefix", str(tmp_path / "c")) == 0
        assert run_cli("simulate", "--points", "2001", "--sweep-param", "power",
                       "--sweep-values", "3",
                       "--out-prefix", str(tmp_path / "f")) == 0
        assert (tmp_path / "c_power_3.csv").read_bytes() == (
            tmp_path / "f_power_3.csv").read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "fit", "ionsim", "bumps"])
    def test_config_restating_the_defaults_changes_nothing(self, tmp_path,
                                                           command):
        trace = tmp_path / "t.csv"
        assert run_cli("simulate", "--points", "4001", "--out", str(trace)) == 0
        inputs = {"fit": ["--input", str(trace)],
                  "bumps": ["--measured", str(trace), "--model", str(trace)]}
        outputs = ["out-curve", "out"] if command == "ionsim" else ["out"]
        parser = build_parser()[1][command]
        defaults = {dest: parser.get_default(dest)
                    for dest in subcommand_flags(command)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {k: v for k, v in defaults.items() if v is not None}))
        written = []
        for name, pre in (("n", []), ("c", ["--config", str(cfg)])):
            paths = [tmp_path / f"{name}-{o}" for o in outputs]
            out_flags = [x for o, p in zip(outputs, paths)
                         for x in (f"--{o}", str(p))]
            assert run_cli(*pre, command, *inputs.get(command, []),
                           *out_flags) == 0
            written.append([p.read_bytes() for p in paths])
        assert written[0] == written[1]

    @pytest.mark.parametrize("key", [
        "linewdith_hz",  # misspelt
        "rabi_hz",       # a flag of ionsim, not of simulate
        "command",
        "func",
        "config",
    ])
    def test_unknown_config_key_is_refused(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 640.0}))
        out = tmp_path / "a.csv"
        assert run_cli("--config", str(cfg), "simulate", "--out", str(out)) == 4
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_fit_config_linewidth_is_refused(self, tmp_path, capsys):
        # fit reads no linewidth: the envelope model runs at zero width.
        trace, out = tmp_path / "t.csv", tmp_path / "r.json"
        assert run_cli("simulate", "--points", "4001", "--out", str(trace)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"linewidth_hz": 320.0}))
        assert run_cli("--config", str(cfg), "fit", "--input", str(trace),
                       "--out", str(out)) == 4
        assert "linewidth_hz" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_subprocess(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"linewdith-hz": 640.0}))
        proc = subprocess.run(
            [sys.executable, "-m", "beatnote.cli", "--config", str(cfg),
             "simulate", "--points", "101", "--out", str(tmp_path / "a.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 4
        assert "linewdith_hz" in proc.stderr
