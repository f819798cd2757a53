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

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

import numpy as np

from . import __version__ as _tool_version
from .errors import DomainError, ParseError, SchemaError, TraceIOError
from .estimate import FitResult, LinewidthEstimate
from .lineshape import FrequencyGrid, SpectrumTrace, _whole_number

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


def write_trace(trace: SpectrumTrace, path) -> None:
    """Write a trace in the CSV schema: unit linear, 17 significant digits."""
    grid = trace.grid
    lines = [
        "# unit=linear",
        f"# rbw_hz={trace.rbw:.17g}",
        f"# grid_start_hz={grid.start:.17g}",
        f"# grid_step_hz={grid.step:.17g}",
        _HEADER_ROW,
    ]
    freqs = grid.points()
    lines.extend(
        f"{freqs[i]:.17g},{trace.values[i]:.17g}" for i in range(grid.count)
    )
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise TraceIOError(f"cannot write trace to {path}: {exc}") from exc


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


def read_trace(path) -> SpectrumTrace:
    """Parse a trace CSV, rejecting non-monotone or non-uniform grids, rows
    holding a non-finite frequency or a NaN or +inf value, numeric metadata
    that is not a finite number, and values that are not a finite linear
    power >= 0 (a negative linear value, or a dBm value whose power
    overflows), naming the first such line.  Values of a dBm file come back
    as linear power 10**(v/10), so a -inf row reads as 0."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise TraceIOError(f"cannot read trace from {path}: {exc}") from exc

    meta: Dict[str, str] = {}
    freqs = []
    values = []
    rows = []
    header_seen = False
    for lineno, line in enumerate(raw_lines, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = val.strip()
            continue
        if not header_seen:
            if text != _HEADER_ROW:
                raise ParseError(f"expected header {_HEADER_ROW!r}, got {text!r}",
                                 lineno)
            header_seen = True
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 columns, got {len(parts)}", lineno)
        try:
            freq, value = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric row {text!r}", lineno) from None
        if not math.isfinite(freq) or not value < math.inf:
            raise SchemaError(f"line {lineno}: non-finite row {text!r}")
        freqs.append(freq)
        values.append(value)
        rows.append(lineno)

    if not header_seen:
        raise ParseError("missing header row")
    if len(freqs) < 2:
        raise SchemaError(f"trace needs >= 2 rows, found {len(freqs)}")

    f = np.asarray(freqs)
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
    raw = np.asarray(values)
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
    try:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(_sanitize(doc), fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise TraceIOError(f"cannot write report to {path}: {exc}") from exc


def read_report(path) -> Dict[str, Any]:
    """Load a report back as a plain dictionary."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh)
    except OSError as exc:
        raise TraceIOError(f"cannot read report from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid report JSON in {path}: {exc}") from exc
