"""Spectral lineshapes: Gaussian, Lorentzian, their Voigt convolution, and
width measurements at arbitrary dB levels.

All shapes are normalized to unit integral and expressed through their full
width at half maximum (FWHM), the natural parameter for linewidth work.
Widths are measured on power quantities, so "x dB below peak" always means
a factor 10**(-x/10) in value.  The Voigt profile is the exact Faddeeva
closed form (scipy.special.voigt_profile).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.special import voigt_profile

from .errors import (
    AmbiguousPeakError,
    InvalidParameterError,
    WidthUndefinedError,
)

__all__ = [
    "HALF_POWER_DB",
    "LORENTZIAN_20DB_FACTOR",
    "GAUSSIAN_20DB_FACTOR",
    "UNIT_LINEAR",
    "UNIT_DBM",
    "FrequencyGrid",
    "LineshapeParams",
    "SpectrumTrace",
    "eval_gaussian",
    "eval_lorentzian",
    "eval_voigt_numeric",
    "voigt_fwhm_approx",
    "voigt_grid",
    "voigt_width_numeric",
    "width_at_level",
]

# Exact half-power level in dB; using a rounded "3 dB" would bias widths by 0.34%.
HALF_POWER_DB = 10.0 * math.log10(2.0)

# Full width of a Lorentzian at 1/100 of its peak, in units of its FWHM.
LORENTZIAN_20DB_FACTOR = math.sqrt(99.0)

# Same for a Gaussian: sqrt(log2(100)).
GAUSSIAN_20DB_FACTOR = math.sqrt(math.log2(100.0))

# Voigt-width approximation constants (accurate to ~0.02% over all mixing ratios).
VOIGT_WIDTH_CL = 1.0692
VOIGT_WIDTH_CQ = 0.866639

UNIT_LINEAR = "linear"  # linear power per Hz
UNIT_DBM = "dbm"        # dBm per resolution bandwidth


def _whole_number(value, name: str) -> int:
    """`value` as an int; an integral float or numpy number passes, anything
    fractional, non-finite or non-numeric is refused."""
    if isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer()):
        return int(value)
    raise InvalidParameterError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency axis: point(i) = start + i*step, i in [0, count)."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.step)):
            raise InvalidParameterError(
                f"grid start and step must be finite, got {self.start}, {self.step}"
            )
        if not self.step > 0:
            raise InvalidParameterError(f"grid step must be > 0, got {self.step}")
        object.__setattr__(self, "count", _whole_number(self.count, "grid count"))
        if self.count < 2:
            raise InvalidParameterError(f"grid needs >= 2 points, got {self.count}")

    @property
    def stop(self) -> float:
        """Last grid point (inclusive)."""
        return self.start + (self.count - 1) * self.step

    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    def index_of(self, frequency: float) -> int:
        """Index of the grid point nearest to `frequency`."""
        return int(round((frequency - self.start) / self.step))

    def covers(self, frequency: float) -> bool:
        return self.start <= frequency <= self.stop


@dataclass(frozen=True)
class LineshapeParams:
    """Center frequency plus Gaussian/Lorentzian FWHM of a Voigt profile."""

    center: float
    fwhm_gaussian: float = 0.0
    fwhm_lorentzian: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.center, self.fwhm_gaussian,
                                       self.fwhm_lorentzian))):
            raise InvalidParameterError("center and linewidths must be finite")
        if self.fwhm_gaussian < 0 or self.fwhm_lorentzian < 0:
            raise InvalidParameterError("linewidths must be >= 0")
        if self.fwhm_gaussian == 0 and self.fwhm_lorentzian == 0:
            raise InvalidParameterError("at least one linewidth must be > 0")


@dataclass(frozen=True)
class SpectrumTrace:
    """Spectral density samples on a uniform grid, in linear or dBm units.

    NaN and +inf are refused; -inf is a legal dBm value (a zero-power bin).
    """

    grid: FrequencyGrid
    values: np.ndarray
    unit: Literal["linear", "dbm"] = UNIT_LINEAR
    rbw: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.count,):
            raise InvalidParameterError(
                f"values shape {values.shape} does not match grid count {self.grid.count}"
            )
        if self.unit not in (UNIT_LINEAR, UNIT_DBM):
            raise InvalidParameterError(f"unknown unit {self.unit!r}")
        if not np.all(values < np.inf):  # false for NaN and +inf alike
            raise InvalidParameterError("trace values must not be NaN or +inf")
        if self.unit == UNIT_LINEAR and np.any(values < 0):
            raise InvalidParameterError("linear PSD values must be >= 0")
        if not math.isfinite(self.rbw):
            raise InvalidParameterError(f"rbw must be finite, got {self.rbw}")
        object.__setattr__(self, "values", values)

    def linear_values(self) -> np.ndarray:
        if self.unit == UNIT_LINEAR:
            return self.values
        return 10.0 ** (self.values / 10.0)

    def dbm_values(self) -> np.ndarray:
        if self.unit == UNIT_DBM:
            return self.values
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.values)

    def to_linear(self) -> "SpectrumTrace":
        if self.unit == UNIT_LINEAR:
            return self
        return SpectrumTrace(self.grid, self.linear_values(), UNIT_LINEAR, self.rbw)

    def to_dbm(self) -> "SpectrumTrace":
        if self.unit == UNIT_DBM:
            return self
        return SpectrumTrace(self.grid, self.dbm_values(), UNIT_DBM, self.rbw)

    def integral(self) -> float:
        """Trapezoidal integral of the linear values over the grid."""
        return float(np.trapezoid(self.linear_values(), dx=self.grid.step))


def eval_gaussian(grid: FrequencyGrid, f0: float, fwhm: float) -> SpectrumTrace:
    """Unit-integral Gaussian of the given FWHM centered at f0."""
    if not fwhm > 0:
        raise InvalidParameterError(f"gaussian fwhm must be > 0, got {fwhm}")
    x = grid.points() - f0
    peak = 2.0 * math.sqrt(math.log(2.0)) / (math.sqrt(math.pi) * fwhm)
    values = peak * np.exp(-4.0 * math.log(2.0) * (x / fwhm) ** 2)
    return SpectrumTrace(grid, values)


def eval_lorentzian(grid: FrequencyGrid, f0: float, fwhm: float) -> SpectrumTrace:
    """Unit-integral Lorentzian of the given FWHM centered at f0."""
    if not fwhm > 0:
        raise InvalidParameterError(f"lorentzian fwhm must be > 0, got {fwhm}")
    x = grid.points() - f0
    values = (fwhm / (2.0 * math.pi)) / (x * x + fwhm * fwhm / 4.0)
    return SpectrumTrace(grid, values)


def voigt_fwhm_approx(fwhm_lorentzian: float, fwhm_gaussian: float) -> float:
    """Closed-form Voigt FWHM from its Lorentzian and Gaussian components."""
    if fwhm_lorentzian < 0 or fwhm_gaussian < 0:
        raise InvalidParameterError("linewidths must be >= 0")
    return 0.5 * (
        VOIGT_WIDTH_CL * fwhm_lorentzian
        + math.sqrt(VOIGT_WIDTH_CQ * fwhm_lorentzian**2 + 4.0 * fwhm_gaussian**2)
    )


def _voigt_density(x, params: LineshapeParams):
    """Exact unit-integral Voigt density at offsets x from the center:
    sigma = FWHM_G / (2 sqrt(2 ln 2)), gamma = FWHM_L / 2."""
    sigma = params.fwhm_gaussian / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return voigt_profile(x, sigma, params.fwhm_lorentzian / 2.0)


def eval_voigt_numeric(grid: FrequencyGrid, params: LineshapeParams) -> SpectrumTrace:
    """Voigt profile sampled on the grid, renormalized to unit trapezoidal
    integral.

    The samples come from the Faddeeva closed form, so any grid step and
    span is exact up to that one normalization constant.  A component
    narrower than step/100 is treated as a delta and the other pure shape is
    returned directly.
    """
    fg, fl, f0 = params.fwhm_gaussian, params.fwhm_lorentzian, params.center
    step = grid.step
    if fg < step / 100.0:
        if fl <= 0:
            raise InvalidParameterError("both linewidths are degenerate on this grid")
        return eval_lorentzian(grid, f0, fl)
    if fl < step / 100.0:
        return eval_gaussian(grid, f0, fg)
    values = _voigt_density(grid.points() - f0, params)
    values /= np.trapezoid(values, dx=step)
    return SpectrumTrace(grid, values)


def voigt_grid(params: LineshapeParams, extent_factor: float = 20.0) -> FrequencyGrid:
    """Grid centered on the profile: +-extent_factor*(sum of widths) span,
    40 samples across the Voigt FWHM."""
    fg, fl = params.fwhm_gaussian, params.fwhm_lorentzian
    step = voigt_fwhm_approx(fl, fg) / 40.0
    half_count = int(math.ceil(extent_factor * (fg + fl) / step))
    return FrequencyGrid(params.center - half_count * step, step, 2 * half_count + 1)


def voigt_width_numeric(fwhm_lorentzian: float, fwhm_gaussian: float,
                        level_db: float = HALF_POWER_DB) -> float:
    """Full width of the exact Voigt profile at `level_db` below its peak.

    Bisects on the half width where the profile falls to
    peak * 10**(-level_db/10), inside a bracket doubled from the summed
    component widths until it holds the crossing.
    """
    if not level_db > 0:
        raise InvalidParameterError(f"level must be > 0 dB, got {level_db}")
    params = LineshapeParams(0.0, fwhm_gaussian, fwhm_lorentzian)
    target = _voigt_density(0.0, params) * 10.0 ** (-level_db / 10.0)
    lo, hi = 0.0, fwhm_lorentzian + fwhm_gaussian
    while _voigt_density(hi, params) > target:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if _voigt_density(mid, params) > target:
            lo = mid
        else:
            hi = mid
    return float(lo + hi)  # full width: twice the bracket midpoint


def _interpolated_peak(values: np.ndarray, i: int) -> float:
    """Parabolic refinement of the peak height through its three samples."""
    if 0 < i < len(values) - 1:
        a, b, c = values[i - 1], values[i], values[i + 1]
        denom = a - 2.0 * b + c
        if denom < 0:
            delta = 0.5 * (a - c) / denom
            if abs(delta) <= 1.0:
                return b - 0.25 * (a - c) * delta
    return float(values[i])


def width_at_level(trace: SpectrumTrace, level_db: float,
                   allow_ties: bool = False) -> float:
    """Full width of the trace's peak at `level_db` (power dB) below the peak.

    The two crossings nearest the peak are located by linear interpolation
    between adjacent samples.  Raises WidthUndefinedError when the level is
    not crossed inside the grid (or the peak sits on a grid edge) and
    AmbiguousPeakError when several separated samples tie for the maximum
    (with allow_ties the lowest-frequency one wins).
    """
    if not level_db > 0:
        raise InvalidParameterError(f"level must be > 0 dB, got {level_db}")
    values = trace.linear_values()
    grid = trace.grid
    vmax = values.max()
    peaks = np.flatnonzero(values == vmax)
    if len(peaks) > 1 and np.any(np.diff(peaks) > 1) and not allow_ties:
        raise AmbiguousPeakError(
            f"{len(peaks)} samples tie for the maximum; peak is ambiguous"
        )
    ipk = int(peaks[0])
    if ipk == 0 or ipk == grid.count - 1:
        raise WidthUndefinedError("global maximum sits on a grid edge")

    threshold = _interpolated_peak(values, ipk) * 10.0 ** (-level_db / 10.0)

    below_left = np.flatnonzero(values[:ipk] < threshold)
    if len(below_left) == 0:
        raise WidthUndefinedError(
            f"{level_db:g} dB level not crossed on the low-frequency side"
        )
    i = int(below_left[-1])
    f_left = grid.start + grid.step * (
        i + (threshold - values[i]) / (values[i + 1] - values[i])
    )

    below_right = np.flatnonzero(values[ipk + 1:] < threshold)
    if len(below_right) == 0:
        raise WidthUndefinedError(
            f"{level_db:g} dB level not crossed on the high-frequency side"
        )
    j = ipk + 1 + int(below_right[0])
    f_right = grid.start + grid.step * (
        j - (threshold - values[j]) / (values[j - 1] - values[j])
    )
    return float(f_right - f_left)
