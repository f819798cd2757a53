"""Spectral lineshapes: Gaussian, Lorentzian, their Voigt convolution, and
width measurements at arbitrary dB levels.

All shapes are normalized to unit integral and expressed through their full
width at half maximum (FWHM), the natural parameter for linewidth work.
Widths are measured on power quantities, so "x dB below peak" always means
a factor 10**(-x/10) in value.  The Voigt profile is the Faddeeva closed
form, with the Faddeeva function w(z) in numpy from two regions: Weideman's
rational approximation (SIAM J. Numer. Anal. 31, 1497, 1994) for |z| < 12,
and the asymptotic series of Poppe & Wijers (ACM TOMS 16, 38, 1990), ten
terms, for |z| >= 12.  Its real part is within about 1e-13 relative
wherever the profile is within 30 dB of its peak.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
import numpy as np

from .errors import (
    AmbiguousPeakError,
    DomainError,
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
    if type(value) is int:  # the common case, without the ABC checks
        return value
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
        try:
            stop = self.stop
        except OverflowError:  # a count beyond the float range
            stop = math.inf
        if not math.isfinite(stop):
            raise InvalidParameterError(
                f"the last point of a grid from {self.start:g} Hz by "
                f"{self.step:g} Hz overflows")

    @property
    def stop(self) -> float:
        """Last grid point (inclusive)."""
        return self.start + (self.count - 1) * self.step

    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    def index_of(self, frequency: float) -> int:
        """Index of the grid point nearest to `frequency`, which must be
        finite and no more steps from the start than a float can count."""
        if not math.isfinite(frequency):
            raise InvalidParameterError(f"frequency must be finite, got {frequency}")
        steps = (frequency - self.start) / self.step
        if not math.isfinite(steps):
            raise DomainError(f"the index of {frequency:g} Hz on a grid from "
                              f"{self.start:g} Hz by {self.step:g} Hz overflows")
        return int(round(steps))

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
        if not 0 <= self.rbw < math.inf:
            raise InvalidParameterError(f"rbw must be finite and >= 0, got {self.rbw}")
        object.__setattr__(self, "values", values)

    def linear_values(self) -> np.ndarray:
        """The values, which are always linear power density."""
        return self.values

    def integral(self) -> float:
        """Trapezoidal integral of the values over the grid."""
        return float(np.trapezoid(self.values, dx=self.grid.step))


def _unit_gaussian(x: np.ndarray, fwhm: float) -> np.ndarray:
    """exp(-4 ln 2 (x / fwhm)**2), the unit-peak Gaussian of FWHM `fwhm` at
    offsets x.  |x| is clamped at 40 FWHM, where the value is already 0.0,
    so no square overflows however narrow the Gaussian."""
    x = np.minimum(np.abs(x), 40.0 * float(fwhm))
    return np.exp(-4.0 * math.log(2.0) * (x / fwhm) ** 2)


def _about_center(grid: FrequencyGrid, f0: float, side) -> np.ndarray:
    """A profile even about f0 on the grid from side(offset, count), the
    profile at the offsets (k + offset) steps, k < count, whose k-th value
    does not depend on count.  With c the bin nearest f0 and delta = c +
    (start - f0) / step (never differences of rounded points), bins c + k
    take side(delta, n - c) and bins c - k side(-delta, c + 1); with delta
    = 0 one side(0, max(n - c, c + 1)) serves both, so the profile is a
    bitwise palindrome about f0 and estimate_voigt's masked plateau exactly
    flat.  A centre more steps away than a float can count raises
    DomainError, as index_of does."""
    n = grid.count
    u0 = (grid.start - f0) / grid.step
    if not math.isfinite(u0):
        raise DomainError(f"the offset of {f0:g} Hz from a grid at {grid.start:g} Hz "
                          f"by {grid.step:g} Hz overflows")
    c = min(max(round(-u0), 0), n - 1)
    delta = c + u0
    if delta == 0:
        upper = lower = side(0.0, max(n - c, c + 1))
    else:
        upper, lower = side(delta, n - c), side(-delta, c + 1)
    values = np.empty(n)
    values[c:] = upper[:n - c]
    values[:c] = lower[c:0:-1]
    return values


def eval_gaussian(grid: FrequencyGrid, f0: float, fwhm: float) -> SpectrumTrace:
    """Unit-integral Gaussian of the given FWHM centered at f0."""
    if not (math.isfinite(f0) and 0 < fwhm < math.inf):
        raise InvalidParameterError(
            f"gaussian needs a finite f0 and fwhm > 0, got f0={f0}, fwhm={fwhm}")
    peak = 2.0 * math.sqrt(math.log(2.0)) / (math.sqrt(math.pi) * fwhm)

    def side(offset, count):
        return peak * _unit_gaussian((np.arange(count) + offset) * grid.step, fwhm)

    return SpectrumTrace(grid, _about_center(grid, f0, side))


def eval_lorentzian(grid: FrequencyGrid, f0: float, fwhm: float) -> SpectrumTrace:
    """Unit-integral Lorentzian of the given FWHM centered at f0."""
    if not (math.isfinite(f0) and 0 < fwhm < math.inf):
        raise InvalidParameterError(
            f"lorentzian needs a finite f0 and fwhm > 0, got f0={f0}, fwhm={fwhm}")

    def side(offset, count):
        x = (np.arange(count) + offset) * grid.step
        return (fwhm / (2.0 * math.pi)) / (x * x + fwhm * fwhm / 4.0)

    # A width whose square underflows divides by 0 at the center, which the
    # trace refuses; an offset whose square overflows reads 0.
    with np.errstate(divide="ignore", over="ignore"):
        return SpectrumTrace(grid, _about_center(grid, f0, side))


def voigt_fwhm_approx(fwhm_lorentzian: float, fwhm_gaussian: float) -> float:
    """Closed-form Voigt FWHM from its Lorentzian and Gaussian components;
    widths whose FWHM overflows are refused."""
    if not (0 <= fwhm_lorentzian < math.inf and 0 <= fwhm_gaussian < math.inf):
        raise InvalidParameterError("linewidths must be finite and >= 0")
    fl, fg = float(fwhm_lorentzian), float(fwhm_gaussian)
    try:
        width = 0.5 * (VOIGT_WIDTH_CL * fl
                       + math.sqrt(VOIGT_WIDTH_CQ * fl**2 + 4.0 * fg**2))
    except OverflowError:  # from a square
        width = math.inf
    if width == math.inf:
        raise InvalidParameterError(f"the Voigt FWHM of Lorentzian {fl:g} Hz and "
                                    f"Gaussian {fg:g} Hz widths overflows")
    return width


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
# From this |z| on, ten terms of the asymptotic series are exact to double
# precision: the first omitted one, 19!! / (2 |z|^2)^10, is 1.7e-16 at 12.
_FAR_FIELD = 12.0
# (2k - 1)!! for k = 9 down to 0, the series' coefficients in 1 / (2 z^2).
_ASYMPTOTIC_COEFFS = tuple(float(math.prod(range(2 * k - 1, 0, -2)))
                           for k in range(9, -1, -1))


def _weideman(z):
    """Weideman's w(z) for Im z >= 0, on a Python complex or a complex array
    (the array path works in place on its temporaries).

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


def _asymptotic(z):
    """w(z) = i / (sqrt(pi) z) sum_{k=0}^{9} (2k - 1)!! / (2 z^2)^k for
    Im z >= 0 and |z| >= _FAR_FIELD, on a Python complex or a complex array.

    Only 1/z is squared, so nothing overflows; at huge |z| the square
    underflows harmlessly to 0.  The omitted exp(-z^2) of the real axis is
    below 1e-60 of |w| there.
    """
    inv = 1.0 / z
    u = inv * inv
    u *= 0.5
    p = _ASYMPTOTIC_COEFFS[0] * u
    p += _ASYMPTOTIC_COEFFS[1]
    for c in _ASYMPTOTIC_COEFFS[2:]:
        p *= u
        p += c
    p *= inv
    p *= 1j * _INV_SQRT_PI
    return p


def _faddeeva(z):
    """Faddeeva function w(z) for Im z >= 0, on a Python complex or a complex
    array: the asymptotic series where |z| >= _FAR_FIELD, Weideman's
    approximation elsewhere."""
    if isinstance(z, complex):
        return _asymptotic(z) if abs(z) >= _FAR_FIELD else _weideman(z)
    z = np.asarray(z, dtype=complex)
    far = np.abs(z) >= _FAR_FIELD
    w = np.empty_like(z)
    w[far] = _asymptotic(z[far])
    w[~far] = _weideman(z[~far])
    return w


# sigma * sqrt(2) of a Gaussian, in units of its FWHM.
_SIGMA_ROOT2_PER_FWHM = 1.0 / (2.0 * math.sqrt(math.log(2.0)))
# Offsets per block of _voigt_density's Faddeeva work: the complex
# temporaries of one block, 32 KB each, stay in cache.
_FADDEEVA_BLOCK = 2048


def _voigt_density(x: np.ndarray, params: LineshapeParams) -> np.ndarray:
    """Exact unit-integral Voigt density at non-negative ascending offsets x
    from the center, for two non-zero widths: Re w((x + i gamma) / (sigma
    sqrt 2)) / (sigma sqrt(2 pi)), gamma = FWHM_L / 2.

    With y = gamma / (sigma sqrt 2), |z| < _FAR_FIELD exactly where x <
    sigma sqrt 2 sqrt(_FAR_FIELD^2 - y^2), so Weideman's approximation runs
    on the slice below that bound, found by searchsorted, and the
    asymptotic series on the slice from it on.

    Each slice goes through its form in blocks of _FADDEEVA_BLOCK offsets,
    the last block taking the remainder (so no block is shorter than
    _FADDEEVA_BLOCK unless its whole slice is).  The forms work element by
    element, so the blocks give the bits of one pass over the slice, while
    their temporaries stay in cache: a whole far-field slice of some 6 000
    offsets made three 100 KB complex temporaries a call, whose release
    shrank the heap so that the next call faulted their pages back in.
    """
    s = params.fwhm_gaussian * _SIGMA_ROOT2_PER_FWHM
    y = 0.5 * params.fwhm_lorentzian / s
    bound = s * math.sqrt(_FAR_FIELD * _FAR_FIELD - y * y) if y < _FAR_FIELD else 0.0
    near = int(np.searchsorted(x, bound, side="left"))
    density = np.empty(x.shape)
    for start, stop, form in ((0, near, _weideman), (near, x.size, _asymptotic)):
        while start < stop:
            end = stop if stop - start < 2 * _FADDEEVA_BLOCK else start + _FADDEEVA_BLOCK
            z = np.empty(end - start, complex)
            np.divide(x[start:end], s, out=z.real)
            z.imag = y
            np.multiply(form(z).real, _INV_SQRT_PI / s, out=density[start:end])
            start = end
    return density


def _delta_width(grid: FrequencyGrid) -> float:
    """Widths below this are a delta on `grid`: a hundredth of its step."""
    return grid.step / 100.0


def eval_voigt_numeric(grid: FrequencyGrid, params: LineshapeParams) -> SpectrumTrace:
    """Voigt profile sampled on the grid, renormalized to unit trapezoidal
    integral.

    The samples come from the Faddeeva closed form, so any grid step and
    span is exact up to that one normalization constant (an area too small
    to divide by raises DomainError).  A component narrower than step/100
    is treated as a delta and the other pure shape is returned directly.
    """
    fg, fl, f0 = params.fwhm_gaussian, params.fwhm_lorentzian, params.center
    if fg < _delta_width(grid):
        if fl <= 0:
            raise InvalidParameterError("both linewidths are degenerate on this grid")
        return eval_lorentzian(grid, f0, fl)
    if fl < _delta_width(grid):
        return eval_gaussian(grid, f0, fg)

    def side(offset, count):
        return _voigt_density(np.abs(np.arange(count) + offset) * grid.step, params)

    values = _about_center(grid, f0, side)
    area = float(np.trapezoid(values, dx=grid.step))
    if not (area > 0 and float(values.max()) / area < math.inf):
        raise DomainError(f"the Voigt profile's area of {area:g} on this grid "
                          "cannot be normalized to 1")
    values /= area
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
    until it holds the crossing, and the first iterate is voigt_fwhm_approx
    of the pure shapes' widths at the level; a Newton step that leaves the
    bracket, does not halve the last step, or rests on a slope lost to
    rounding bisects instead.  The stop is a step or bracket within 1e-12
    relative.
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
    # Scaled by the larger width, so every finite input stays finite.
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
    a, b = fl * pure_l, fg * pure_g
    u = 0.25 * (VOIGT_WIDTH_CL * a + (VOIGT_WIDTH_CQ * a * a + 4.0 * b * b) ** 0.5) / s
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
            newton = u - step
            if abs(step) <= 1e-12 * u:
                return 2.0 * newton * s * scale
            if lo < newton < hi and abs(step) < 0.5 * last_step:
                u, last_step = newton, abs(step)
                continue
        if hi - lo <= 1e-12 * hi:
            return (lo + hi) * s * scale  # twice the midpoint
        u, last_step = 0.5 * (lo + hi), hi - lo


# Nodes of the shape fit and the degrees of its two Chebyshev series (48
# nodes and degrees 36 and 30 leave 2e-11), and the ratio's mid-range and
# half-range, which map it onto [-1, 1].
_FIT_NODES, _X_DEGREE, _W3_DEGREE = 56, 40, 32
_Q_MID, _Q_HALF = (0.5 * (LORENTZIAN_20DB_FACTOR + GAUSSIAN_20DB_FACTOR),
                   0.5 * (LORENTZIAN_20DB_FACTOR - GAUSSIAN_20DB_FACTOR))


@functools.cache
def _shape_fit():
    """Chebyshev coefficients of x(q) and w3(q), in t = (q - _Q_MID) /
    _Q_HALF, for the Voigt profiles (L, G) = (x, sqrt(1 - x)), x in [0, 1]:
    q = w20 / w3 is their 20 dB to half-power width ratio.  Two lists of
    floats, fitted once per process (a few ms) by least squares on the
    three-term recurrence's basis to exact widths at _FIT_NODES Chebyshev
    points of x, both pure shapes included.  q rises from
    GAUSSIAN_20DB_FACTOR at x = 0 with slope 3.5 to LORENTZIAN_20DB_FACTOR
    at x = 1 with slope 7.0, so both series are smooth: within 2e-12 in x
    and 6e-12 in w3."""
    x = 0.5 - 0.5 * np.cos(np.linspace(0.0, math.pi, _FIT_NODES))
    w3, w20 = (np.array([voigt_width_numeric(v, math.sqrt(1.0 - v), level) for v in x])
               for level in (HALF_POWER_DB, 20.0))
    t = (w20 / w3 - _Q_MID) / _Q_HALF
    basis = np.empty((_FIT_NODES, _X_DEGREE + 1))
    basis[:, 0], basis[:, 1] = 1.0, t
    for k in range(2, _X_DEGREE + 1):
        basis[:, k] = 2.0 * t * basis[:, k - 1] - basis[:, k - 2]
    return tuple(np.linalg.lstsq(basis[:, :degree + 1], values, rcond=None)[0].tolist()
                 for values, degree in ((x, _X_DEGREE), (w3, _W3_DEGREE)))


def _clenshaw(coeffs, t: float) -> float:
    """The Chebyshev series with coefficients `coeffs` at t, by Clenshaw's
    recurrence on Python floats."""
    b1 = b2 = 0.0
    twice = 2.0 * t
    for c in reversed(coeffs[1:]):
        b1, b2 = c + twice * b1 - b2, b1
    return coeffs[0] + t * b1 - b2


def _voigt_shape(ratio: float):
    """The Voigt profile (L, G) = (x, sqrt(1 - x)) whose 20 dB to half-power
    width ratio is `ratio`, strictly between GAUSSIAN_20DB_FACTOR and
    LORENTZIAN_20DB_FACTOR: (L, G, w3), its Lorentzian and Gaussian widths
    and its half-power width, from the two series of _shape_fit, with x
    clamped to [0, 1].  No Faddeeva evaluation once the fit exists."""
    x_coeffs, w3_coeffs = _shape_fit()
    t = (ratio - _Q_MID) / _Q_HALF
    x = min(max(_clenshaw(x_coeffs, t), 0.0), 1.0)
    return x, math.sqrt(1.0 - x), _clenshaw(w3_coeffs, t)


def _interpolated_peak(values: np.ndarray, i: int) -> float:
    """Parabolic refinement of the height of the maximum at interior index
    `i` through its three samples."""
    a, b, c = values[i - 1], values[i], values[i + 1]
    denom = a - 2.0 * b + c
    if denom < 0:
        delta = 0.5 * (a - c) / denom  # |delta| <= 1/2 at a maximum
        return b - 0.25 * (a - c) * delta
    return float(b)


# Bins searched next to the peak for a level crossing; each further block
# searched outward is twice as long, so a crossing k bins out costs O(k).
_FIRST_BLOCK = 64


def _peak_index(values: np.ndarray, allow_ties: bool) -> tuple[int, bool]:
    """(index, tied): the interior maximum that widths are measured about,
    and whether separated samples tie for it (the lowest-index one wins).
    The samples equal to the maximum are read from one comparison's
    nonzero(), in ascending order.

    Raises AmbiguousPeakError on a tie unless allow_ties, then
    WidthUndefinedError when the maximum sits on a grid edge.
    """
    peaks = (values == values.max()).nonzero()[0]
    # The tied indices are ascending, so they are adjacent exactly when they
    # span as many bins as there are ties.
    tied = bool(peaks[-1] - peaks[0] >= len(peaks))
    if tied and not allow_ties:
        raise AmbiguousPeakError(
            f"{len(peaks)} samples tie for the maximum; peak is ambiguous"
        )
    ipk = int(peaks[0])
    if ipk == 0 or ipk == len(values) - 1:
        raise WidthUndefinedError("global maximum sits on a grid edge")
    return ipk, tied


def _nearest_below(values: np.ndarray, ipk: int, threshold: float,
                   outward: int):
    """Index of the sample nearest `ipk` on the side `outward` (-1 below it,
    1 above it) whose value is below `threshold`, or None.  The side is read
    as one view, nearest sample first, in blocks of 64, 128, 256, ... bins;
    argmax of a block's boolean test is its first sample below, or 0 when
    there is none, which that sample's own test tells apart."""
    side = values[ipk + outward::outward]
    near, size = 0, _FIRST_BLOCK
    while near < len(side):
        below = side[near:near + size] < threshold
        first = int(below.argmax())
        if below[first]:
            return ipk + outward * (near + 1 + first)
        near, size = near + size, 2 * size
    return None


def _width_about(values: np.ndarray, grid: FrequencyGrid, ipk: int,
                 level_db: float) -> float:
    """Full width at `level_db` below the interior maximum at `ipk`, between
    the two crossings nearest it, each interpolated linearly from the first
    sample below the level towards the peak.  A level above the top sample,
    which the parabolic peak can exceed by up to 0.51 dB, leaves no sample
    pair about either crossing and raises WidthUndefinedError."""
    threshold = _interpolated_peak(values, ipk) * 10.0 ** (-level_db / 10.0)
    if threshold > values[ipk]:
        end = ipk
        while end + 1 < len(values) and values[end + 1] == values[ipk]:
            end += 1
        top = (f"flat top at bins {ipk}-{end}; its high-frequency crossing is"
               if end > ipk else f"top sample at bin {ipk}; its crossings are")
        raise WidthUndefinedError(f"{level_db:g} dB level lies above the {top} undefined")
    edges = []
    for outward, side in ((-1, "low"), (1, "high")):
        i = _nearest_below(values, ipk, threshold, outward)
        if i is None:
            raise WidthUndefinedError(
                f"{level_db:g} dB level not crossed on the {side}-frequency side"
            )
        edges.append(grid.start + grid.step * (
            i - outward * (threshold - values[i]) / (values[i - outward] - values[i])
        ))
    return float(edges[1] - edges[0])


def width_at_level(trace: SpectrumTrace, level_db: float,
                   allow_ties: bool = False) -> float:
    """Full width of the trace's peak at `level_db` (power dB) below the peak.

    The two crossings nearest the peak are located by linear interpolation
    between adjacent samples.  Raises WidthUndefinedError when the level is
    not crossed inside the grid (or the peak sits on a grid edge, or the
    level lies above the top sample, as one under 0.51 dB can) and
    AmbiguousPeakError when several separated samples tie for the maximum
    (with allow_ties the lowest-frequency one wins).

    Finding the peak reads every bin; each crossing is then searched outward
    from the peak in blocks of 64, 128, 256, ... bins, so it costs the
    distance to the crossing, not the trace length.
    """
    if not 0 < level_db < math.inf:
        raise InvalidParameterError(f"level must be finite and > 0 dB, got {level_db}")
    ipk, _ = _peak_index(trace.values, allow_ties)
    return _width_about(trace.values, trace.grid, ipk, level_db)
