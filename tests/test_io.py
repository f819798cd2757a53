"""Trace and report file formats."""

import json
import warnings

import numpy as np
import pytest

from beatnote import (
    AnalysisReport,
    DshiParams,
    FrequencyGrid,
    SpectrumTrace,
    estimate_voigt,
    read_report,
    read_trace,
    voigt_beat_note,
    write_report,
    write_trace,
)
from beatnote.errors import DomainError, ParseError, SchemaError, TraceIOError


def sample_trace():
    grid = FrequencyGrid(6.95e6, 12.5, 801)
    rng = np.random.default_rng(7)
    values = rng.uniform(1e-9, 1e-3, 801)
    return SpectrumTrace(grid, values, rbw=30.0)


class TestTraceFiles:
    def test_roundtrip_lossless(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        back = read_trace(path)
        assert np.array_equal(back.values, trace.values)
        assert np.array_equal(back.grid.points(), trace.grid.points())
        assert back.rbw == trace.rbw

    def test_dbm_unit_preserved(self, tmp_path):
        # A dBm file is read as linear power and re-written as linear.
        trace = sample_trace()
        dbm = 10.0 * np.log10(trace.values)
        rows = [f"{f:.17g},{v:.17g}" for f, v in zip(trace.grid.points(), dbm)]
        path = tmp_path / "dbm.csv"
        path.write_text("\n".join(["# unit=dbm-per-rbw", "# rbw_hz=30",
                                   "frequency_hz,psd"] + rows) + "\n")
        back = read_trace(path)
        assert np.array_equal(back.values, 10.0 ** (dbm / 10.0))
        assert back.rbw == 30.0
        write_trace(back, tmp_path / "linear.csv")
        assert (tmp_path / "linear.csv").read_text().startswith("# unit=linear\n")

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("frequency_hz,psd\n1,0.5\n2,0.25\n3,0.125\n")
        trace = read_trace(path)
        assert trace.grid.count == 3
        assert trace.values.tolist() == [0.5, 0.25, 0.125]

    def test_descending_frequency_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("frequency_hz,psd\n3,1\n2,1\n1,1\n")
        with pytest.raises(SchemaError):
            read_trace(path)

    def test_non_uniform_grid_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("frequency_hz,psd\n1,1\n2,1\n10,1\n")
        with pytest.raises(SchemaError):
            read_trace(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("frequency_hz,psd\n1,1\nbad,row,here\n")
        with pytest.raises(ParseError, match="line 3"):
            read_trace(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# unit=linear\nfrequency_hz,psd\n1,abc\n")
        with pytest.raises(ParseError, match="line 3"):
            read_trace(path)

    @pytest.mark.parametrize("row", ["2,nan", "2,inf", "nan,1", "inf,1"])
    def test_non_finite_row_reports_line(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(f"# unit=linear\nfrequency_hz,psd\n1,1\n{row}\n3,1\n")
        with pytest.raises(SchemaError, match="line 4"):
            read_trace(path)

    def test_negative_inf_dbm_row_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# unit=dbm\nfrequency_hz,psd\n1,-3\n2,-inf\n3,-3\n")
        assert read_trace(path).values.tolist() == [10.0 ** -0.3, 0.0, 10.0 ** -0.3]

    @pytest.mark.parametrize("unit, row", [("linear", "2,-1"), ("linear", "2,-inf"),
                                           ("dbm", "2,4000")])
    def test_value_without_finite_power_reports_line(self, tmp_path, unit, row):
        # A blank line before the bad row: the line named is the file's own.
        path = tmp_path / "t.csv"
        path.write_text(f"# unit={unit}\nfrequency_hz,psd\n1,1\n\n{row}\n3,-5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError, match="line 5"):
                read_trace(path)

    @pytest.mark.parametrize("key", ["rbw_hz", "grid_start_hz", "grid_step_hz"])
    @pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
    def test_bad_numeric_metadata_names_key(self, tmp_path, key, bad):
        meta = {"rbw_hz": "0", "grid_start_hz": "1", "grid_step_hz": "1", key: bad}
        header = "".join(f"# {k}={v}\n" for k, v in meta.items())
        path = tmp_path / "t.csv"
        path.write_text(header + "frequency_hz,psd\n1,1\n2,1\n")
        with pytest.raises(SchemaError, match=key):
            read_trace(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceIOError):
            read_trace(tmp_path / "nope.csv")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_lines_are_numbered_after_newline_translation(self, tmp_path,
                                                          newline):
        path = tmp_path / "t.csv"
        rows = ["# unit=linear", "frequency_hz,psd", "1,1", "2,nan", "3,1"]
        path.write_bytes(newline.join(rows).encode() + b"\n")
        with pytest.raises(SchemaError, match="line 4"):
            read_trace(path)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_non_ascii_byte_names_its_line(self, tmp_path, newline):
        path = tmp_path / "t.csv"
        rows = [b"# unit=linear", b"# instrument=\xc2\xb5-analyzer",
                b"frequency_hz,psd", b"1,1", b"2,1"]
        path.write_bytes(newline.join(rows) + newline)
        with pytest.raises(ParseError, match="line 2: non-ASCII byte 0xc2") as err:
            read_trace(path)
        assert err.value.line_number == 2

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("frequency_hz,psd\n1,1\n")
        with pytest.raises(SchemaError):
            read_trace(path)

    def test_write_is_byte_deterministic(self, tmp_path):
        trace = sample_trace()
        write_trace(trace, tmp_path / "a.csv")
        write_trace(trace, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestReports:
    def make_estimate(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        grid = FrequencyGrid(7e6 - 60e3, 10.0, 12001)
        return estimate_voigt(voigt_beat_note(params, 640.0, grid))

    def test_schema_fields(self, tmp_path):
        est = self.make_estimate()
        report = AnalysisReport(input={"path": "synthetic"}, method=est.method,
                                payload=est, config={"linewidth_hz": 320.0},
                                seed=1)
        path = tmp_path / "r.json"
        write_report(report, path)
        doc = read_report(path)
        assert doc["schema_version"] == 1
        assert doc["method"] == "voigt-iterative"
        result = doc["result"]
        for key in ("lorentzian_fwhm_hz", "gaussian_fwhm_hz", "voigt_fwhm_hz",
                    "single_laser_fwhm_hz", "flags", "iterations", "residual"):
            assert key in result
        assert result["single_laser_fwhm_hz"] * 2 == result["lorentzian_fwhm_hz"]

    def test_roundtrip_equal_payload(self, tmp_path):
        est = self.make_estimate()
        report = AnalysisReport(input={"path": "synthetic"}, method=est.method,
                                payload=est, seed=0)
        write_report(report, tmp_path / "r.json")
        doc = read_report(tmp_path / "r.json")
        assert doc["result"]["lorentzian_fwhm_hz"] == est.lorentzian_fwhm

    def test_byte_identical_without_timestamp(self, tmp_path):
        est = self.make_estimate()
        report = AnalysisReport(input={"path": "synthetic"}, method=est.method,
                                payload=est, config={"seed": 3}, seed=3)
        write_report(report, tmp_path / "a.json")
        write_report(report, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_timestamp_only_when_given(self, tmp_path):
        est = self.make_estimate()
        without = AnalysisReport(input={}, method=est.method, payload=est)
        with_ts = AnalysisReport(input={}, method=est.method, payload=est,
                                 timestamp="2024-01-01T00:00:00Z")
        write_report(without, tmp_path / "a.json")
        write_report(with_ts, tmp_path / "b.json")
        assert "timestamp" not in read_report(tmp_path / "a.json")
        assert read_report(tmp_path / "b.json")["timestamp"].startswith("2024")

    def test_keys_sorted(self, tmp_path):
        est = self.make_estimate()
        write_report(AnalysisReport(input={}, method=est.method, payload=est),
                     tmp_path / "r.json")
        text = (tmp_path / "r.json").read_text()
        doc = json.loads(text)
        assert list(doc.keys()) == sorted(doc.keys())

    def test_bytes_are_sorted_indented_json_and_a_newline(self, tmp_path):
        est = self.make_estimate()
        write_report(AnalysisReport(input={}, method=est.method, payload=est,
                                    seed=2), tmp_path / "r.json")
        text = (tmp_path / "r.json").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    def test_file_errors(self, tmp_path):
        est = self.make_estimate()
        report = AnalysisReport(input={}, method=est.method, payload=est)
        with pytest.raises(TraceIOError, match="cannot write report"):
            write_report(report, tmp_path)
        with pytest.raises(TraceIOError, match="cannot read report"):
            read_report(tmp_path / "nope.json")
        path = tmp_path / "r.json"
        path.write_text('{"a": 1,}\n')
        with pytest.raises(ParseError, match="invalid report JSON"):
            read_report(path)
        path.write_bytes(b'{\n  "instrument": "\xb5-analyzer"\n}\n')
        with pytest.raises(ParseError, match="line 2: non-ASCII byte 0xb5"):
            read_report(path)

    def test_unknown_payload_refused_without_a_file(self, tmp_path):
        report = AnalysisReport(input={}, method="x", payload=object())
        with pytest.raises(DomainError):
            write_report(report, tmp_path / "r.json")
        assert not (tmp_path / "r.json").exists()
