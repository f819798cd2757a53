"""Spectral lineshapes: Gaussian, Lorentzian, their Voigt convolution, and
width measurements at arbitrary dB levels.

All shapes are normalized to unit integral and expressed through their full
width at half maximum (FWHM), the natural parameter for linewidth work.
Widths are measured on power quantities, so "x dB below peak" always means
a factor 10**(-x/10) in value.  The Voigt profile is the Faddeeva closed
form, with the Faddeeva function w(z) from Weideman's rational approximation
in numpy (SIAM J. Numer. Anal. 31, 1497, 1994): its real part is within
about 1e-13 relative wherever the profile is within 30 dB of its peak.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
import numpy as np

from .errors import (
    AmbiguousPeakError,
    InvalidParameterError,
    WidthUndefinedError,
)

__all__ = [
    "HALF_POWER_DB",
    "LORENTZIAN_20DB_FACTOR",
    "GAUSSIAN_20DB_FACTOR",
    "FrequencyGrid",
    "LineshapeParams",
    "SpectrumTrace",
    "eval_gaussian",
    "eval_lorentzian",
    "eval_voigt_numeric",
    "voigt_fwhm_approx",
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
    """Linear power spectral density samples on a uniform grid.

    Values must be finite and >= 0; `rbw` is the resolution bandwidth in Hz
    (0 when unknown).  io.read_trace converts a file in logarithmic units.
    """

    grid: FrequencyGrid
    values: np.ndarray
    rbw: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.count,):
            raise InvalidParameterError(
                f"values shape {values.shape} does not match grid count {self.grid.count}"
            )
        if not np.all((values >= 0) & (values < np.inf)):  # false for NaN
            raise InvalidParameterError("trace values must be finite and >= 0")
        if not math.isfinite(self.rbw):
            raise InvalidParameterError(f"rbw must be finite, got {self.rbw}")
        object.__setattr__(self, "values", values)

    def linear_values(self) -> np.ndarray:
        """The values, which are always linear power density."""
        return self.values

    def integral(self) -> float:
        """Trapezoidal integral of the values over the grid."""
        return float(np.trapezoid(self.values, dx=self.grid.step))


def eval_gaussian(grid: FrequencyGrid, f0: float, fwhm: float) -> SpectrumTrace:
    """Unit-integral Gaussian of the given FWHM centered at f0."""
    if not (math.isfinite(f0) and 0 < fwhm < math.inf):
        raise InvalidParameterError(f"gaussian needs a finite f0 and fwhm > 0")
    x = grid.points() - f0
    peak = 2.0 * math.sqrt(math.log(2.0)) / (math.sqrt(math.pi) * fwhm)
    values = peak * np.exp(-4.0 * math.log(2.0) * (x / fwhm) ** 2)
    return SpectrumTrace(grid, values)


def eval_lorentzian(grid: FrequencyGrid, f0: float, fwhm: float) -> SpectrumTrace:
    """Unit-integral Lorentzian of the given FWHM centered at f0."""
    if not (math.isfinite(f0) and 0 < fwhm < math.inf):
        raise InvalidParameterError(f"lorentzian needs a finite f0 and fwhm > 0")
    x = grid.points() - f0
    values = (fwhm / (2.0 * math.pi)) / (x * x + fwhm * fwhm / 4.0)
    return SpectrumTrace(grid, values)


def voigt_fwhm_approx(fwhm_lorentzian: float, fwhm_gaussian: float) -> float:
    """Closed-form Voigt FWHM from its Lorentzian and Gaussian components."""
    if not (0 <= fwhm_lorentzian < math.inf and 0 <= fwhm_gaussian < math.inf):
        raise InvalidParameterError("linewidths must be finite and >= 0")
    return 0.5 * (
        VOIGT_WIDTH_CL * fwhm_lorentzian
        + math.sqrt(VOIGT_WIDTH_CQ * fwhm_lorentzian**2 + 4.0 * fwhm_gaussian**2)
    )


def _gaussian_from_measured_fwhm(w3: float, lorentzian: float) -> tuple[float, bool]:
    """Invert voigt_fwhm_approx for the Gaussian part at fixed total FWHM
    w3; returns (gaussian_fwhm, clamped) with clamped=True when the
    Lorentzian alone already exceeds what w3 allows."""
    rest = 2.0 * w3 - VOIGT_WIDTH_CL * lorentzian
    if rest <= 0:
        return 0.0, True
    disc = rest * rest - VOIGT_WIDTH_CQ * lorentzian * lorentzian
    if disc <= 0:
        return 0.0, True
    return 0.5 * math.sqrt(disc), False


def _weideman_coefficients(n: int):
    """Scale L and the n coefficients (highest degree first) of Weideman's
    approximation w(z) = 2 p(Z) / (L - iz)**2 + 1 / (sqrt(pi) (L - iz)),
    Z = (L + iz) / (L - iz), from a 4n-point FFT."""
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(np.arange(1 - m, m) * (math.pi / (2 * m)))
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return scale, tuple(float(c) for c in a[n:0:-1])


# 40 terms: 32 leave errors of ~3e-11 in the real part.
_WEIDEMAN_L, _WEIDEMAN_COEFFS = _weideman_coefficients(40)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _faddeeva(z):
    """Faddeeva function w(z) for Im z >= 0, on a Python complex or a complex
    array (the array path works in place on its temporaries).

    1/(L - iz) is formed once and never squared, so no intermediate
    overflows at large |z|.
    """
    inv = 1.0 / (_WEIDEMAN_L - 1j * z)
    big_z = 2.0 * _WEIDEMAN_L * inv - 1.0
    p = _WEIDEMAN_COEFFS[0] * big_z
    p += _WEIDEMAN_COEFFS[1]
    for c in _WEIDEMAN_COEFFS[2:]:
        p *= big_z
        p += c
    p *= inv
    p *= 2.0
    p += _INV_SQRT_PI
    p *= inv
    return p


# sigma * sqrt(2) of a Gaussian, in units of its FWHM.
_SIGMA_ROOT2_PER_FWHM = 1.0 / (2.0 * math.sqrt(math.log(2.0)))


def _voigt_density(x: np.ndarray, params: LineshapeParams) -> np.ndarray:
    """Exact unit-integral Voigt density at offsets x from the center, for
    two non-zero widths: Re w((x + i gamma) / (sigma sqrt 2)) / (sigma
    sqrt(2 pi)), gamma = FWHM_L / 2."""
    s = params.fwhm_gaussian * _SIGMA_ROOT2_PER_FWHM
    w = _faddeeva((x + 0.5j * params.fwhm_lorentzian) / s)
    return w.real * (_INV_SQRT_PI / s)


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


# Beyond this gamma / (sigma sqrt 2) the Voigt width equals the Lorentzian's
# to double precision (the relative difference falls as its inverse square).
_LORENTZIAN_LIMIT = 1e8


def voigt_width_numeric(fwhm_lorentzian: float, fwhm_gaussian: float,
                        level_db: float = HALF_POWER_DB) -> float:
    """Full width of the exact Voigt profile at `level_db` below its peak.

    A pure shape, or a Gaussian part too small to move the Lorentzian width,
    gives the closed form.  Otherwise a safeguarded Newton iteration finds
    the half width u (in units of sigma sqrt 2) where Re w(u + iy) falls to
    Re w(iy) * 10**(-level_db/10), with the slope from w'(z) = -2z w(z) +
    2i/sqrt(pi).  The bracket starts at the summed component widths, doubled
    until it holds the crossing; a Newton step that leaves the bracket, does
    not halve the last step, or rests on a slope lost to rounding bisects
    instead.  The stop is a step or bracket within 1e-12 relative.
    """
    if not 0 < level_db < math.inf:
        raise InvalidParameterError(f"level must be finite and > 0 dB, got {level_db}")
    LineshapeParams(0.0, fwhm_gaussian, fwhm_lorentzian)  # validates the widths
    fwhm_lorentzian, fwhm_gaussian = float(fwhm_lorentzian), float(fwhm_gaussian)
    ratio = 10.0 ** (level_db / 10.0)
    pure_l = math.sqrt(ratio - 1.0)   # width per FWHM of a Lorentzian
    pure_g = math.sqrt(math.log2(ratio))  # same for a Gaussian
    if fwhm_lorentzian == 0:
        return fwhm_gaussian * pure_g
    # Scaled by the larger width, every finite input stays finite below.
    scale = max(fwhm_lorentzian, fwhm_gaussian)
    fl, fg = fwhm_lorentzian / scale, fwhm_gaussian / scale
    s = fg * _SIGMA_ROOT2_PER_FWHM
    if not 0.5 * fl <= _LORENTZIAN_LIMIT * s:
        return fwhm_lorentzian * pure_l
    y = 0.5 * fl / s
    target = _faddeeva(complex(0.0, y)).real / ratio
    lo, hi = 0.0, (fl + fg) / s
    while _faddeeva(complex(hi, y)).real > target:
        lo, hi = hi, 2.0 * hi
    u = 0.5 * voigt_fwhm_approx(fl * pure_l, fg * pure_g) / s
    if not lo < u < hi:
        u = 0.5 * (lo + hi)
    last_step = hi - lo
    while True:
        w = _faddeeva(complex(u, y))
        excess = w.real - target
        if excess > 0:
            lo = u
        else:
            hi = u
        # Re w'(u + iy) = -2 (u Re w - y Im w).  The two terms cancel as |z|
        # grows; a slope under 1e-12 of their size is rounding, not trusted.
        slope = -2.0 * (u * w.real - y * w.imag)
        if slope < -1e-12 * (abs(u * w.real) + abs(y * w.imag)):
            step = excess / slope
            if abs(step) <= 1e-12 * u:
                return 2.0 * (u - step) * s * scale
            if lo < u - step < hi and abs(step) < 0.5 * last_step:
                u -= step
                last_step = abs(step)
                continue
        if hi - lo <= 1e-12 * hi:
            return (lo + hi) * s * scale  # full width: twice the midpoint
        u = 0.5 * (lo + hi)
        last_step = hi - lo


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
    if not 0 < level_db < math.inf:
        raise InvalidParameterError(f"level must be finite and > 0 dB, got {level_db}")
    values = trace.values
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
