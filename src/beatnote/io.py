"""Trace and report file formats.

Trace CSV schema: optional '#' comment lines carrying key=value metadata
(unit, rbw_hz, instrument, grid_start_hz, grid_step_hz), then the header row
``frequency_hz,psd`` followed by two numeric columns.  Frequencies must be
ascending and uniform.  The unit is ``linear`` (power per Hz; the default,
also spelled ``linear-power-per-hz``) or ``dbm`` (dBm per resolution
bandwidth, also ``dbm-per-rbw``).  A dBm file is converted to linear power
once, on reading; written files are always linear.  Values are written with
17 significant digits so float64 roundtrips are lossless.

Reports are JSON with sorted keys and an explicit schema_version; the
timestamp field is optional and omitted by default so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

import numpy as np

from . import __version__ as _tool_version
from .errors import DomainError, ParseError, SchemaError, TraceIOError
from .lineshape import FrequencyGrid, SpectrumTrace, _whole_number

if TYPE_CHECKING:  # at run time, imported where a report is written
    from .estimate import FitResult, LinewidthEstimate

__all__ = [
    "SCHEMA_VERSION",
    "AnalysisReport",
    "read_trace",
    "write_trace",
    "write_report",
    "read_report",
]

SCHEMA_VERSION = 1

_HEADER_ROW = "frequency_hz,psd"
_DBM_UNITS = ("dbm", "dbm-per-rbw")
_UNITS = ("linear", "linear-power-per-hz") + _DBM_UNITS


# Every file of the package is opened here: a filesystem failure becomes a
# TraceIOError and a non-ASCII byte a ParseError, whatever the file holds.

def _read_text(path, what: str) -> str:
    """The ASCII text of a file, with newlines translated as in text mode."""
    try:
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            text = fh.read()
    except OSError as exc:
        raise TraceIOError(f"cannot read {what} from {path}: {exc}") from exc
    if not text.isascii():
        # surrogateescape holds byte b as the character U+DC00 + b.
        i = next(i for i, c in enumerate(text) if not c.isascii())
        raise ParseError(f"non-ASCII byte 0x{ord(text[i]) - 0xDC00:02x} in "
                         f"{what} {path}", text.count("\n", 0, i) + 1)
    return text


def _write_text(path, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise TraceIOError(f"cannot write {what} to {path}: {exc}") from exc


def _read_json(path, what: str):
    import json  # here and in write_report: simulate runs without JSON

    try:
        return json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid {what} JSON in {path}: {exc}") from exc


def _write_rows(path, head, x, y, what: str) -> None:
    """Write the `head` lines, then one row "x,y" per point.  Every number is
    written as a float64 with 17 significant digits, so it roundtrips."""
    rows = map("{:.17g},{:.17g}".format, np.asarray(x, dtype=float).tolist(),
               np.asarray(y, dtype=float).tolist())
    _write_text(path, "\n".join(chain(head, rows)) + "\n", what)


def write_trace(trace: SpectrumTrace, path) -> None:
    """Write a trace in the CSV schema: unit linear, 17 significant digits."""
    grid = trace.grid
    head = (
        "# unit=linear",
        f"# rbw_hz={trace.rbw:.17g}",
        f"# grid_start_hz={grid.start:.17g}",
        f"# grid_step_hz={grid.step:.17g}",
        _HEADER_ROW,
    )
    _write_rows(path, head, grid.points(), trace.values, "trace")


def _meta_number(meta: Dict[str, str], key: str, default: float) -> float:
    """Finite float value of metadata `key`, or `default` when absent."""
    if key not in meta:
        return default
    try:
        value = float(meta[key])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SchemaError(f"metadata {key}={meta[key]!r} is not a finite number")
    return value


def _check_row(lineno: int, text: str) -> None:
    """Raise the error of a bad data row; a good row passes."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected 2 columns, got {len(parts)}", lineno)
    try:
        freq, value = float(parts[0]), float(parts[1])
    except ValueError:
        raise ParseError(f"non-numeric row {text!r}", lineno) from None
    if not math.isfinite(freq) or not value < math.inf:
        raise SchemaError(f"line {lineno}: non-finite row {text!r}")


def _columns(rows, data):
    """The frequency and value columns of the data rows (their line numbers
    and stripped texts), all cells converted in one pass.  A bad row sends
    the rows through _check_row in file order, so the first one is named."""
    # Two cells a row: the joined cells then alternate frequency, value.
    if set(map(str.count, data, repeat(","))) == {1}:
        try:
            cells = np.array(list(map(float, ",".join(data).split(","))))
        except ValueError:
            pass
        else:
            freqs, values = cells.reshape(-1, 2).T.copy()
            if np.isfinite(freqs).all() and (values < math.inf).all():
                return freqs, values
    for lineno, text in zip(rows, data):
        _check_row(lineno, text)
    return np.empty(0), np.empty(0)  # reached only with no data rows


def read_trace(path) -> SpectrumTrace:
    """Parse a trace CSV, rejecting non-monotone or non-uniform grids, rows
    holding a non-finite frequency or a NaN or +inf value, numeric metadata
    that is not a finite number, a negative rbw_hz, and values that are not
    a finite linear power >= 0 (a negative linear value, or a dBm value
    whose power overflows), naming the first such line.  Values of a dBm
    file come back as linear power 10**(v/10), so a -inf row reads as 0."""
    meta: Dict[str, str] = {}
    rows = []  # line number of each data row
    data = []  # its stripped text
    header_seen = False
    for lineno, line in enumerate(_read_text(path, "trace").split("\n"), start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = val.strip()
        elif header_seen:
            rows.append(lineno)
            data.append(text)
        elif text == _HEADER_ROW:
            header_seen = True
        else:
            raise ParseError(f"expected header {_HEADER_ROW!r}, got {text!r}",
                             lineno)

    f, raw = _columns(rows, data)
    if not header_seen:
        raise ParseError("missing header row")
    if len(f) < 2:
        raise SchemaError(f"trace needs >= 2 rows, found {len(f)}")

    if np.any(np.diff(f) <= 0):
        raise SchemaError("frequencies must be strictly ascending")
    step = (f[-1] - f[0]) / (len(f) - 1)
    # A declared grid within 1e-9 of a step of the inferred one replaces it.
    start = _meta_number(meta, "grid_start_hz", f[0])
    declared_step = _meta_number(meta, "grid_step_hz", step)
    if abs(start - f[0]) > 1e-9 * step or abs(declared_step - step) > 1e-9 * step:
        start, declared_step = f[0], step
    grid = FrequencyGrid(start, declared_step, len(f))
    if np.max(np.abs(f - grid.points())) > 1e-6 * step:
        raise SchemaError("frequency grid is not uniform")

    unit = meta.get("unit", "linear").lower()
    if unit not in _UNITS:
        raise SchemaError(f"unknown unit {unit!r}")
    if unit in _DBM_UNITS:
        with np.errstate(over="ignore"):
            values = 10.0 ** (raw / 10.0)
    else:
        values = raw
    bad = np.flatnonzero(~((values >= 0.0) & (values < math.inf)))
    if bad.size:
        i = bad[0]
        raise SchemaError(f"line {rows[i]}: value {raw[i]:g} (unit {unit}) is "
                          "not a finite power density >= 0")
    rbw = _meta_number(meta, "rbw_hz", 0.0)
    if rbw < 0:
        raise SchemaError(f"metadata rbw_hz={meta['rbw_hz']!r} is negative")
    return SpectrumTrace(grid, values, rbw)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisReport:
    """Self-describing record of one estimation/fit run."""

    input: Dict[str, Any]
    method: str
    payload: Union[LinewidthEstimate, FitResult]
    config: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    tool_version: str = _tool_version
    timestamp: Optional[str] = None

    def __post_init__(self):
        if self.seed is not None:
            object.__setattr__(self, "seed", _whole_number(self.seed, "seed"))


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if math.isnan(value):
            return None
        return value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


def _payload_dict(payload) -> Dict[str, Any]:
    from .estimate import FitResult, LinewidthEstimate

    if isinstance(payload, LinewidthEstimate):
        return {
            "result": {
                "lorentzian_fwhm_hz": payload.lorentzian_fwhm,
                "gaussian_fwhm_hz": payload.gaussian_fwhm,
                "voigt_fwhm_hz": payload.voigt_fwhm,
                "single_laser_fwhm_hz": payload.single_laser_fwhm,
                "flags": sorted(payload.flags),
                "iterations": payload.iterations,
                "residual": payload.residual,
            }
        }
    if isinstance(payload, FitResult):
        return {
            "fit": {
                "parameters": payload.parameters,
                "covariance": payload.covariance,
                "converged": payload.converged,
                "iterations": payload.iterations,
                "residual_norm": payload.residual_norm,
            }
        }
    raise DomainError(f"cannot serialize payload of type {type(payload).__name__}")


def write_report(report: AnalysisReport, path) -> None:
    """Serialize a report as sorted-key JSON (diff-stable)."""
    import json

    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": report.tool_version,
        "input": report.input,
        "method": report.method,
        "config": report.config,
        "seed": report.seed,
    }
    if report.timestamp is not None:
        doc["timestamp"] = report.timestamp
    doc.update(_payload_dict(report.payload))
    _write_text(path, json.dumps(_sanitize(doc), sort_keys=True, indent=2)
                + "\n", "report")


def read_report(path) -> Dict[str, Any]:
    """Load a report back as a plain dictionary."""
    return _read_json(path, "report")
