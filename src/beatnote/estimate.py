"""Linewidth estimators and the shared least-squares engine.

Two complementary estimators extract the combined beat-note linewidth from a
spectrum trace:

* estimate_voigt: inverts the ratio of the measured 20 dB and half-power
  widths of the central peak, which fixes the Voigt's shape, through a
  Chebyshev fit to exact Voigt widths made once per process; the
  half-power width then fixes the scale.  Ratios beyond either pure shape
  give that shape, flagged grid-limited.  Uses only the central peak.
* estimate_envelope_contrast: reads the dB contrast between an adjacent
  peak/trough pair of the coherence envelope and inverts the analytic
  contrast model.  Sensitive to anything that distorts the extrema.

Both report the combined two-arm Lorentzian FWHM; the single-laser width is
exactly half of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DomainError,
    ExtremumNotFoundError,
    InitializationError,
    InsufficientDataError,
    InvalidParameterError,
    NoSolutionError,
)
from .lineshape import (
    GAUSSIAN_20DB_FACTOR,
    HALF_POWER_DB,
    LORENTZIAN_20DB_FACTOR,
    SpectrumTrace,
    _peak_index,
    _voigt_shape,
    _whole_number,
    _width_about,
    voigt_fwhm_approx,
)

if TYPE_CHECKING:  # at run time, dshi is imported by the envelope estimator
    from .dshi import DshiParams

__all__ = [
    "FLAG_SERVO_CONTAMINATED",
    "FLAG_GRID_LIMITED",
    "FitResult",
    "LinewidthEstimate",
    "fit_least_squares",
    "lorentzian_peak_model",
    "estimate_voigt",
    "estimate_envelope_contrast",
    "measure_envelope_contrast",
    "solve_contrast",
    "mask_central_bins",
]

FLAG_SERVO_CONTAMINATED = "servo-contaminated"
FLAG_GRID_LIMITED = "grid-limited"

METHOD_VOIGT = "voigt-iterative"
METHOD_ENVELOPE = "envelope-contrast"


@dataclass(frozen=True)
class FitResult:
    """Outcome of a damped least-squares fit."""

    parameters: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int

    def __post_init__(self):
        # A NaN covariance is what a failed pinv leaves; it is kept.
        finite = np.all(np.isfinite(self.parameters)) and math.isfinite(self.residual_norm)
        if not finite or np.any(np.isinf(self.covariance)):
            raise InvalidParameterError("fit parameters and residual must be finite")
        object.__setattr__(self, "iterations",
                           _whole_number(self.iterations, "iterations"))


@dataclass(frozen=True)
class LinewidthEstimate:
    """Estimator output; all widths in Hz, Lorentzian widths are combined
    two-arm values and single_laser_fwhm is exactly half the combined one."""

    lorentzian_fwhm: float
    gaussian_fwhm: float
    voigt_fwhm: float
    single_laser_fwhm: float
    method: str
    iterations: int
    residual: float
    flags: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lorentzian_fwhm, self.gaussian_fwhm,
                                       self.voigt_fwhm, self.residual))):
            raise InvalidParameterError("widths and residual must be finite")
        object.__setattr__(self, "iterations",
                           _whole_number(self.iterations, "iterations"))
        if self.single_laser_fwhm * 2.0 != self.lorentzian_fwhm:
            raise InvalidParameterError(
                "single_laser_fwhm must be exactly half the combined width"
            )


def _make_estimate(lorentzian, gaussian, method, iterations, residual,
                   flags=()) -> LinewidthEstimate:
    return LinewidthEstimate(
        lorentzian_fwhm=lorentzian,
        gaussian_fwhm=gaussian,
        voigt_fwhm=voigt_fwhm_approx(lorentzian, gaussian),
        single_laser_fwhm=lorentzian / 2.0,
        method=method,
        iterations=iterations,
        residual=residual,
        flags=frozenset(flags),
    )


# ---------------------------------------------------------------------------
# Damped least squares
# ---------------------------------------------------------------------------

_LM_MAX_ITER = 200
_LM_COST_TOL = 1e-10
_LM_GRAD_TOL = 1e-12
_TINY = np.finfo(float).tiny


def fit_least_squares(
    model: Callable[..., np.ndarray],
    xdata: Sequence[float],
    ydata: Sequence[float],
    init: Sequence[float],
    bounds: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
    jacobian: Optional[Callable[..., np.ndarray]] = None,
) -> FitResult:
    """Levenberg-Marquardt minimization of sum((y - model(x, *p))^2).

    xdata and ydata are 1-D arrays of one length, init is 1-D, each bound
    has init's length, and model(xdata, *p) returns an array of ydata's
    shape; anything else raises InvalidParameterError.  jacobian(xdata, *p),
    if given, returns d model / d p as an (m, n) array, m points by n
    parameters; any other shape raises InvalidParameterError.  Without it
    the Jacobian comes from forward differences with step
    max(1e-6*|p|, 1e-12), which cost n model calls.  Convergence:
    relative cost decrease below 1e-10, gradient infinity-norm below 1e-12,
    or the cap of 200 iterations (which leaves converged=False).  `bounds`
    is an optional (lower, upper) box; trial steps are clipped into it.
    """
    x = np.asarray(xdata, dtype=float)
    y = np.asarray(ydata, dtype=float)
    p = np.array(init, dtype=float)
    n = p.size
    if y.ndim != 1 or x.shape != y.shape:
        raise InvalidParameterError(
            f"xdata and ydata must be 1-D arrays of one length, got shapes "
            f"{x.shape} and {y.shape}")
    if p.ndim != 1:
        raise InvalidParameterError(f"init must be 1-D, got shape {p.shape}")
    if y.size < n + 1:
        raise InsufficientDataError(
            f"{y.size} points cannot constrain {n} parameters"
        )
    if not all(np.all(np.isfinite(a)) for a in (x, y, p)):
        raise InvalidParameterError("xdata, ydata and init must be finite")
    if bounds is None:
        lo = np.full(n, -np.inf)
        hi = np.full(n, np.inf)
    else:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
        if lo.shape != p.shape or hi.shape != p.shape:
            raise InvalidParameterError(
                f"bounds must each hold {n} values, got shapes {lo.shape} and {hi.shape}")
        if not np.all((lo <= p) & (p <= hi)):  # false for a NaN bound
            raise InvalidParameterError("initial values lie outside the bounds")

    if jacobian is None:
        def jacobian(x, *values):
            # Called only at the current p, so y - r is the model there.
            # (m, n) in C order: the layout sets the summation order of
            # J.T @ J, and so the last bits of every fit.
            f_now = y - r
            out = np.empty((y.size, n))
            for j, value in enumerate(values):
                h = max(1e-6 * abs(value), 1e-12)
                shifted = list(values)
                shifted[j] = value + h
                out[:, j] = (model(x, *shifted) - f_now) / h
            return out

    f_now = model(x, *p.tolist())
    if np.shape(f_now) != y.shape:
        raise InvalidParameterError(
            f"model returned shape {np.shape(f_now)}, ydata has shape {y.shape}")
    r = y - f_now
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    iterations = 0
    J = jacobian(x, *p.tolist())
    if np.shape(J) != (y.size, n):
        raise InvalidParameterError(
            f"jacobian returned shape {np.shape(J)}, expected {(y.size, n)}")

    for it in range(_LM_MAX_ITER):
        iterations = it + 1
        g = J.T @ r
        if np.abs(g).max() < _LM_GRAD_TOL:
            converged = True
            break
        jtj = J.T @ J
        jtj_diag = np.diag(jtj)
        accepted = False
        for _ in range(30):
            try:
                step = np.linalg.solve(jtj + np.diag(lam * jtj_diag), g)
            except np.linalg.LinAlgError:
                step = np.full(n, np.nan)  # singular: refused below
            if not np.isfinite(step).all():
                if it == 0:
                    raise InitializationError(
                        "singular normal equations at the initial point"
                    )
                lam *= 10.0
                continue
            p_try = np.minimum(np.maximum(p + step, lo), hi)
            r_try = y - model(x, *p_try.tolist())
            cost_try = float(r_try @ r_try)
            if cost_try < cost:
                rel_drop = (cost - cost_try) / max(cost, _TINY)
                p, r, cost = p_try, r_try, cost_try
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if rel_drop < _LM_COST_TOL:
                    converged = True
                break
            lam *= 10.0
        if not accepted:
            converged = True  # no descent direction left: stationary point
            break
        J = jacobian(x, *p.tolist())
        if converged:
            break

    try:
        cov = cost / (y.size - n) * np.linalg.pinv(J.T @ J)
    except np.linalg.LinAlgError:
        cov = np.full((n, n), np.nan)
    cov = 0.5 * (cov + cov.T)
    return FitResult(
        parameters=p,
        covariance=cov,
        residual_norm=math.sqrt(cost),
        converged=converged,
        iterations=iterations,
    )


def lorentzian_peak_model(x, center, fwhm, amplitude, offset):
    """amplitude * (fwhm/2)^2 / ((x-center)^2 + (fwhm/2)^2) + offset."""
    half = fwhm / 2.0
    return amplitude * half * half / ((x - center) ** 2 + half * half) + offset


def _lorentzian_peak_jacobian(x, center, fwhm, amplitude, offset):
    """d lorentzian_peak_model / d (center, fwhm, amplitude, offset), (m, 4)."""
    half = fwhm / 2.0
    d = x - center
    inv = 1.0 / (d * d + half * half)
    profile = half * half * inv
    out = np.empty((x.size, 4))
    out[:, 0] = 2.0 * amplitude * profile * d * inv
    out[:, 1] = amplitude * half * d * d * inv * inv
    out[:, 2] = profile
    out[:, 3] = 1.0
    return out


# ---------------------------------------------------------------------------
# Voigt estimator
# ---------------------------------------------------------------------------

def _masked_values(values: np.ndarray, count) -> np.ndarray:
    """A copy of `values` with the `count` bins nearest their maximum
    replaced by linear interpolation; `values` itself when count is 0.  The
    masked bins are centred on the maximum where the grid allows, and
    shifted inward next to an edge.  A count that is negative, or would
    leave no interior bin unmasked (at least len(values) - 2), raises
    InvalidParameterError."""
    count = _whole_number(count, "masked bin count")
    if count < 0:
        raise InvalidParameterError(f"masked bin count must be >= 0, got {count}")
    if count == 0:
        return values
    n = len(values)
    if count >= n - 2:
        raise InvalidParameterError(
            f"masked bin count {count} must be below {n - 2} on a {n}-bin "
            f"trace: it would mask every interior bin")
    values = values.copy()
    center = int(np.argmax(values))
    hi = min(max(center - count // 2, 1) + count - 1, n - 2)
    lo = hi - count + 1
    span = hi - lo + 2
    values[lo:hi + 1] = values[lo - 1] + (values[hi + 1] - values[lo - 1]) * (
        np.arange(1, hi - lo + 2) / span
    )
    return values


def mask_central_bins(trace: SpectrumTrace, count: int) -> SpectrumTrace:
    """Replace the `count` bins nearest the trace maximum by linear
    interpolation.

    Removes the coherent-residue spike before width measurements; on a
    smooth peak the interpolation is a no-op to within the local curvature.
    A count of at least grid.count - 2, which would mask every interior
    bin, raises InvalidParameterError.
    """
    values = _masked_values(trace.values, count)
    if values is trace.values:  # nothing masked
        return trace
    return SpectrumTrace(trace.grid, values, trace.rbw)


def estimate_voigt(trace: SpectrumTrace,
                   exclude_central_bins: int = 3) -> LinewidthEstimate:
    """Combined Lorentzian/Gaussian widths from the central beat-note peak.

    Measures the half-power width w3 and the 20 dB width w20 (width_at_level's,
    about one peak search, tied maxima flagged grid-limited) once the
    `exclude_central_bins` bins nearest the maximum are masked as
    mask_central_bins does.  Their ratio q = w20 / w3 fixes the Voigt's
    shape: it rises strictly from sqrt(log2(100)) for a pure Gaussian to
    sqrt(99) for a pure Lorentzian.  So one inversion of q gives the shape,
    and w3 then the scale.  Three paths:

    * q >= sqrt(99), wings higher than any Voigt's: the pure Lorentzian of
      the measured 20 dB width, L = w20 / sqrt(99) and G = 0, flagged
      grid-limited.
    * a Lorentzian part under w20 / 20, which includes q <= sqrt(log2(100)):
      the pure Gaussian L = 0, G = w3, flagged grid-limited.
    * otherwise the inverted L and G, which reproduce both measured widths
      to better than 1e-8.

    The inversion sums two Chebyshev series in q, fitted once per process
    to exact Voigt widths on the first estimate that needs them (a few ms):
    no Faddeeva evaluation and no iteration per estimate.  The residual is
    the measured ratio's relative distance from the returned shape's, |q(L,
    G) - q| / q: 0 on the inverted path, whose shape reproduces q to about
    1e-12.  iterations is 1.
    """
    values = _masked_values(trace.values, exclude_central_bins)
    ipk, tied = _peak_index(values, allow_ties=True)
    flags = {FLAG_GRID_LIMITED} if tied else set()
    w20 = _width_about(values, trace.grid, ipk, 20.0)
    w3 = _width_about(values, trace.grid, ipk, HALF_POWER_DB)
    ratio = w20 / w3
    if ratio >= LORENTZIAN_20DB_FACTOR:
        flags.add(FLAG_GRID_LIMITED)
        return _make_estimate(w20 / LORENTZIAN_20DB_FACTOR, 0.0, METHOD_VOIGT, 1,
                              (ratio - LORENTZIAN_20DB_FACTOR) / ratio, flags)
    if ratio > GAUSSIAN_20DB_FACTOR:
        lorentzian, gaussian, unit_w3 = _voigt_shape(ratio)
        scale = w3 / unit_w3
        if lorentzian * scale >= w20 / 20.0:
            return _make_estimate(lorentzian * scale, gaussian * scale,
                                  METHOD_VOIGT, 1, 0.0, flags)
    # The wings fall as fast as a Gaussian's at this resolution.
    flags.add(FLAG_GRID_LIMITED)
    return _make_estimate(0.0, w3, METHOD_VOIGT, 1,
                          abs(GAUSSIAN_20DB_FACTOR * w3 - w20) / w20, flags)


# ---------------------------------------------------------------------------
# Envelope-contrast estimator
# ---------------------------------------------------------------------------

def _check_orders(peak_order: int, trough_order: int) -> Tuple[int, int]:
    """The two orders as ints, refused unless whole, >= 1, adjacent, and a
    peak (odd) then a trough (so even)."""
    peak_order = _whole_number(peak_order, "peak order")
    trough_order = _whole_number(trough_order, "trough order")
    if peak_order < 1 or trough_order < 1:
        raise InvalidParameterError("extremum orders must be >= 1")
    if abs(peak_order - trough_order) != 1:
        raise InvalidParameterError("peak and trough orders must be adjacent")
    if peak_order % 2 == 0:
        raise InvalidParameterError(f"order {peak_order} is a trough, not a peak")
    return peak_order, trough_order


def _contrast_model(params: DshiParams, peak_order: int,
                    trough_order: int) -> Callable[[float], float]:
    """Analytic peak/trough contrast (dB) of the coherence envelope as a
    function of the combined linewidth fwhm > 0: the wing-times-envelope
    model evaluated at the two extremum positions.  The coherence decay
    rate -2 pi delay and the squared extremum offsets are computed once
    here.  The orders must already be checked."""
    from .dshi import extrema_spacing

    spacing = extrema_spacing(params)
    decay = -2.0 * math.pi * params.delay
    x_p = peak_order * spacing
    x_t = trough_order * spacing
    x_p2, x_t2 = x_p * x_p, x_t * x_t
    exp, log10 = math.exp, math.log10

    def contrast_db(fwhm: float) -> float:
        gamma = fwhm / 2.0
        coh = exp(decay * gamma)
        ratio = ((gamma * gamma + x_t2) / (gamma * gamma + x_p2)) \
            * ((1.0 + coh) / (1.0 - coh))
        return 10.0 * log10(ratio)

    return contrast_db


_CONTRAST_BRACKET_HZ = (0.1, 1e6)


def solve_contrast(params: DshiParams, peak_order: int, trough_order: int,
                   contrast_db: float) -> Tuple[float, int]:
    """Invert the contrast model for the combined linewidth by bisection.

    The contrast is monotone decreasing in linewidth over the [0.1 Hz, 1 MHz]
    bracket; contrasts outside the attainable [model(hi), model(lo)] range
    raise NoSolutionError.  Returns (linewidth, iterations).
    """
    model = _contrast_model(params, *_check_orders(peak_order, trough_order))
    return _bisect_contrast(model, contrast_db)


def _bisect_contrast(model: Callable[[float], float],
                     contrast_db: float) -> Tuple[float, int]:
    """solve_contrast's bisection on a built contrast model; a non-finite
    contrast raises InvalidParameterError."""
    if not math.isfinite(contrast_db):
        raise InvalidParameterError(f"contrast must be finite, got {contrast_db}")
    lo, hi = _CONTRAST_BRACKET_HZ
    ds_lo = model(lo)
    ds_hi = model(hi)
    if contrast_db > ds_lo:
        raise NoSolutionError(
            f"contrast {contrast_db:.3f} dB exceeds the model maximum "
            f"{ds_lo:.3f} dB at the {lo:g} Hz bracket"
        )
    if contrast_db < ds_hi:
        raise NoSolutionError(
            f"contrast {contrast_db:.3f} dB below the model minimum "
            f"{ds_hi:.3f} dB at the {hi:g} Hz bracket; linewidth beyond range"
        )
    iterations = 0
    for iterations in range(1, 200):
        mid = math.sqrt(lo * hi)
        if model(mid) > contrast_db:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= 1e-12 * hi:
            break
    return math.sqrt(lo * hi), iterations


def _predicted_extrema(grid, params, peak_order, trough_order):
    """Prologue of both envelope readers: the checked orders, the extrema
    spacing, and the predicted peak and trough positions carrier + order *
    spacing, the contrast model's convention.  A position off the grid is
    refused, naming it: its contrast would otherwise be read from an
    extrapolated parabola.  So is a grid of fewer than the three bins that
    parabola needs."""
    from .dshi import extrema_spacing

    orders = _check_orders(peak_order, trough_order)
    spacing = extrema_spacing(params)
    positions = tuple(params.eom_frequency + order * spacing for order in orders)
    for order, kind, position in zip(orders, ("peak", "trough"), positions):
        if not grid.covers(position):
            raise DomainError(
                f"the order-{order} {kind} at {position:.0f} Hz lies outside "
                f"the grid [{grid.start:.0f}, {grid.stop:.0f}] Hz"
            )
    if grid.count < 3:
        raise ExtremumNotFoundError(
            f"the {grid.count}-bin grid [{grid.start:.0f}, {grid.stop:.0f}] Hz "
            f"has fewer than the 3 bins a quadratic reading needs"
        )
    return orders, spacing, positions


def _quadratic_value_at(grid, values, position):
    """Value at `position` from the parabola through the three nearest
    samples.  Grid points are start + step * i, as grid.points() rounds
    them, and the spacing is the difference of the first two."""
    start = grid.start
    step = (start + grid.step) - start
    idx = min(max(round((position - start) / step), 1), grid.count - 2)
    delta = (position - (start + grid.step * idx)) / step
    vs = values[idx - 1:idx + 2]
    return float(vs[1] + 0.5 * (vs[2] - vs[0]) * delta
                 + 0.5 * (vs[2] - 2.0 * vs[1] + vs[0]) * delta * delta)


def _locate_extremum(grid, values, carrier, position, window, kind,
                     gamma) -> float:
    """Validated position of one envelope extremum near its prediction.

    The existence search runs on the wing-detrended series
    v*((f-carrier)^2 + gamma^2), whose extrema track the envelope's: on the
    raw trace the 1/x^2 wing falloff swallows low-order peaks outright.  The
    position is the parabolic vertex of the detrended samples.

    The candidates are the bins whose index lies within window / step of the
    prediction, plus one on each side for rounding.  A bin's frequency,
    start + step * i, rises with i, so the bins within `window` of the
    prediction are one run of candidates: the test |start + step * i -
    position| <= window, in the float operations a full frequency array
    takes, trims the run's ends in Python floats, and the run is read as one
    slice.
    """
    start, step = grid.start, grid.step
    i0 = max(math.ceil((position - window - start) / step) - 1, 0)
    i1 = min(math.floor((position + window - start) / step) + 2, grid.count)
    while i0 < i1 and abs(start + step * i0 - position) > window:
        i0 += 1
    while i0 < i1 and abs(start + step * (i1 - 1) - position) > window:
        i1 -= 1
    if i1 - i0 < 5:
        raise ExtremumNotFoundError(
            f"grid too coarse: fewer than 5 samples within {window:.0f} Hz of "
            f"the predicted extremum at {position:.0f} Hz"
        )
    sub_f = start + step * np.arange(i0, i1)
    detrended = values[i0:i1] * ((sub_f - carrier) ** 2 + gamma * gamma)
    idx = int(np.argmax(detrended) if kind == "peak" else np.argmin(detrended))
    if idx == 0 or idx == len(detrended) - 1:
        raise ExtremumNotFoundError(
            f"no {kind} inside the search window around {position:.0f} Hz"
        )
    qs = detrended[idx - 1:idx + 2]
    denom = qs[0] - 2.0 * qs[1] + qs[2]
    # |delta| <= 1/2: qs[1] is the extreme of the three.
    delta = 0.5 * (qs[0] - qs[2]) / denom if denom != 0 else 0.0
    return float(sub_f[idx] + delta * step)


def _locate_extrema(grid, values, params, spacing, positions,
                    gamma) -> Tuple[float, float]:
    """Peak then trough position, each searched within a quarter spacing of
    its predicted position."""
    return tuple(
        _locate_extremum(grid, values, params.eom_frequency,
                         position, spacing / 4.0, kind, gamma)
        for position, kind in zip(positions, ("peak", "trough")))


def _predicted_contrast(grid, values, positions) -> float:
    """Contrast (dB) of the trace quadratically interpolated at the
    *predicted* extremum positions, the convention of the contrast model
    (which evaluates the spectrum exactly at multiples of the spacing)."""
    s_p, s_t = (_quadratic_value_at(grid, values, x) for x in positions)
    if s_p <= 0 or s_t <= 0:
        raise ExtremumNotFoundError("non-positive PSD at a predicted extremum")
    return 10.0 * math.log10(s_p / s_t)


def measure_envelope_contrast(trace: SpectrumTrace, params: DshiParams,
                              peak_order: int, trough_order: int):
    """Measured contrast between an adjacent envelope peak/trough pair.

    Returns (contrast_db, peak_position, trough_position); the locator's
    wing detrend assumes no linewidth.
    """
    _, spacing, positions = _predicted_extrema(trace.grid, params,
                                               peak_order, trough_order)
    grid, values = trace.grid, trace.values
    x_p, x_t = _locate_extrema(grid, values, params, spacing, positions, 0.0)
    return _predicted_contrast(grid, values, positions), x_p, x_t


def estimate_envelope_contrast(trace: SpectrumTrace, params: DshiParams,
                               peak_order: int = 1, trough_order: int = 2,
                               servo_band_hz: float = 100e3) -> LinewidthEstimate:
    """Combined linewidth from the coherence-envelope peak/trough contrast.

    Extrema within servo_band_hz of the carrier get the servo-contaminated
    flag, since that is where cavity-lock servo bumps live.
    """
    if not 0 <= servo_band_hz < math.inf:
        raise InvalidParameterError(
            f"servo band must be finite and >= 0, got {servo_band_hz}")
    (peak_order, trough_order), spacing, positions = _predicted_extrema(
        trace.grid, params, peak_order, trough_order)
    grid, values = trace.grid, trace.values
    # One reading at the predicted positions gives both the linewidth and the
    # locator's wing-detrend hint.  An unsolvable contrast waits until both
    # extrema are validated, so a missing extremum is reported first.
    ds = _predicted_contrast(grid, values, positions)
    model = _contrast_model(params, peak_order, trough_order)
    unsolved = None
    try:
        fwhm, iterations = _bisect_contrast(model, ds)
    except NoSolutionError as exc:
        unsolved, fwhm = exc, 0.0
    x_p, x_t = _locate_extrema(grid, values, params, spacing, positions,
                               fwhm / 2.0)
    if unsolved is not None:
        raise unsolved

    flags = set()
    carrier = params.eom_frequency
    if min(abs(x_p - carrier), abs(x_t - carrier)) < servo_band_hz:
        flags.add(FLAG_SERVO_CONTAMINATED)
    residual = abs(model(fwhm) - ds) / max(abs(ds), 1e-12)
    return _make_estimate(fwhm, 0.0, METHOD_ENVELOPE, iterations, residual, flags)
