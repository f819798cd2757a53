"""Trace and report file formats."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from beatnote import (
    AnalysisReport,
    DshiParams,
    FitResult,
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

    def test_negative_rbw_names_key(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# rbw_hz=-3\nfrequency_hz,psd\n1,1\n2,1\n")
        with pytest.raises(SchemaError, match="rbw_hz='-3' is negative"):
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

    @pytest.mark.parametrize("text, error, match", [
        ("# unit=furlongs\nfrequency_hz,psd\n1,1\n2,1\n", SchemaError,
         "unknown unit 'furlongs'"),
        ("# unit=linear\nfreq,psd\n1,1\n2,1\n", ParseError,
         "line 2: expected header"),
        ("# unit=linear\n# rbw_hz=1\n", ParseError, "missing header row"),
        ("# unit=linear\nfrequency_hz,psd\n", SchemaError, "found 0"),
    ], ids=["unknown_unit", "wrong_header", "comments_only", "no_rows"])
    def test_malformed_file_refused(self, tmp_path, text, error, match):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(error, match=match):
            read_trace(path)

    @pytest.mark.parametrize("meta", ["# grid_start_hz=5\n# grid_step_hz=1\n",
                                      "# grid_start_hz=1\n# grid_step_hz=2\n"],
                             ids=["start", "step"])
    def test_grid_metadata_that_disagrees_with_the_rows_gives_way(self, tmp_path,
                                                                 meta):
        path = tmp_path / "t.csv"
        path.write_text(meta + "frequency_hz,psd\n1,1\n2,1\n3,1\n")
        grid = read_trace(path).grid
        assert (grid.start, grid.step, grid.count) == (1.0, 1.0, 3)

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

    def test_nan_covariance_is_written_as_null(self, tmp_path):
        # A failed pinv leaves the covariance NaN; JSON has no NaN.
        fit = FitResult(parameters=np.array([1.0, 2.0]),
                        covariance=np.array([[math.nan, 0.5], [0.5, 2.0]]),
                        residual_norm=0.5, converged=False, iterations=3)
        write_report(AnalysisReport(input={}, method="lm", payload=fit),
                     tmp_path / "r.json")
        doc = read_report(tmp_path / "r.json")
        assert doc["fit"]["covariance"] == [[None, 0.5], [0.5, 2.0]]
        assert doc["fit"]["parameters"] == [1.0, 2.0]

    def test_numpy_integers_and_frozensets_in_config(self, tmp_path):
        est = self.make_estimate()
        config = {"points": np.int64(401), "shots": np.uint16(7),
                  "modes": frozenset({"voigt", "envelope"})}
        write_report(AnalysisReport(input={}, method=est.method, payload=est,
                                    config=config), tmp_path / "r.json")
        text = (tmp_path / "r.json").read_text()
        assert read_report(tmp_path / "r.json")["config"] == {
            "points": 401, "shots": 7, "modes": ["envelope", "voigt"]}
        assert '"points": 401,' in text

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


# ---------------------------------------------------------------------------
# Properties of trace files
# ---------------------------------------------------------------------------

def per_element_trace_text(trace):
    """The trace text of the former writer, one numpy scalar per format."""
    grid = trace.grid
    lines = ["# unit=linear", f"# rbw_hz={trace.rbw:.17g}",
             f"# grid_start_hz={grid.start:.17g}",
             f"# grid_step_hz={grid.step:.17g}", "frequency_hz,psd"]
    freqs = grid.points()
    lines.extend(f"{freqs[i]:.17g},{trace.values[i]:.17g}"
                 for i in range(grid.count))
    return "\n".join(lines) + "\n"


def line_by_line_row_error(text):
    """The error of the first bad data row of a trace text, found as the
    former reader did, one row at a time; None when every row is good."""
    header_seen = False
    for lineno, line in enumerate(text.split("\n"), start=1):
        row = line.strip()
        if not row or row.startswith("#"):
            continue
        if not header_seen:  # the texts below hold a valid header
            header_seen = True
            continue
        parts = row.split(",")
        if len(parts) != 2:
            return ParseError(f"expected 2 columns, got {len(parts)}", lineno)
        try:
            freq, value = float(parts[0]), float(parts[1])
        except ValueError:
            return ParseError(f"non-numeric row {row!r}", lineno)
        if not math.isfinite(freq) or not value < math.inf:
            return SchemaError(f"line {lineno}: non-finite row {row!r}")
    return None


@st.composite
def traces(draw):
    """A linear trace of any finite float64 values >= 0."""
    values = draw(st.lists(st.floats(min_value=0.0, allow_infinity=False),
                           min_size=2, max_size=40))
    grid = FrequencyGrid(float(draw(st.integers(-10**6, 10**6))),
                         draw(st.floats(0.5, 1e4)), len(values))
    return SpectrumTrace(grid, np.array(values), draw(st.floats(0.0, 1e6)))


# How a corruption rewrites a row's two cells (frequency, value).
CORRUPTIONS = {
    "three-columns": lambda f, v: (f, v, v),
    "one-column": lambda f, v: (f,),
    "non-numeric-frequency": lambda f, v: (f + "x", v),
    "non-numeric-value": lambda f, v: (f, "psd"),
    "nan-frequency": lambda f, v: ("nan", v),
    "nan-value": lambda f, v: (f, "NaN"),
    "inf-frequency": lambda f, v: ("inf", v),
    "inf-value": lambda f, v: (f, "+inf"),
}
HEAD_LINES = 5  # four metadata comments and the header row


@st.composite
def corrupted_trace_texts(draw):
    """The text of a written trace with one to three rows corrupted, and
    blank or comment lines put between the rows."""
    lines = per_element_trace_text(draw(traces())).split("\n")
    rows = len(lines) - HEAD_LINES - 1
    bad = draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                  st.sampled_from(sorted(CORRUPTIONS))),
                        min_size=1, max_size=3, unique_by=lambda c: c[0]))
    for row, kind in bad:
        i = HEAD_LINES + row
        lines[i] = ",".join(CORRUPTIONS[kind](*lines[i].split(",")))
    inserts = draw(st.lists(st.tuples(st.integers(HEAD_LINES, len(lines) - 1),
                                      st.sampled_from(["", "   ", "# note=1"])),
                            max_size=3))
    for i, extra in sorted(inserts, reverse=True):
        lines.insert(i, extra)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("trace-properties")


class TestTraceProperties:
    @given(trace=traces())
    def test_roundtrip_is_bit_exact_and_bytes_match_per_element_writer(
            self, trace_dir, trace):
        path = trace_dir / "t.csv"
        write_trace(trace, path)
        assert path.read_text() == per_element_trace_text(trace)
        back = read_trace(path)
        assert back.values.tobytes() == trace.values.tobytes()
        assert back.rbw == trace.rbw

    @given(text=corrupted_trace_texts())
    @example(text="# unit=linear\nfrequency_hz,psd\n1,1\n2,inf\n3,abc\n4,1\n")
    @example(text="frequency_hz,psd\n1,1\n\n# x=1\n2,1,1\n3,nan\n")
    def test_bad_row_is_named_as_by_line_by_line_reader(self, trace_dir, text):
        path = trace_dir / "bad.csv"
        path.write_text(text)
        expected = line_by_line_row_error(text)
        assert expected is not None
        with pytest.raises(type(expected)) as raised:
            read_trace(path)
        assert type(raised.value) is type(expected)
        assert str(raised.value) == str(expected)
