"""Linewidth estimators and the shared least-squares engine.

Two complementary estimators extract the combined beat-note linewidth from a
spectrum trace:

* estimate_voigt: iterative scheme matching the 20 dB width of a constructed
  Voigt profile to the measured one, with the Gaussian part pinned by the
  measured half-power width at every step.  Uses only the central peak.
* estimate_envelope_contrast: reads the dB contrast between an adjacent
  peak/trough pair of the coherence envelope and inverts the analytic
  contrast model.  Sensitive to anything that distorts the extrema.

Both report the combined two-arm Lorentzian FWHM; the single-laser width is
exactly half of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from .dshi import DshiParams, extrema_spacing
from .errors import (
    AmbiguousPeakError,
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
    _gaussian_from_measured_fwhm,
    _whole_number,
    voigt_fwhm_approx,
    voigt_width_numeric,
    width_at_level,
)

__all__ = [
    "FLAG_SERVO_CONTAMINATED",
    "FLAG_GRID_LIMITED",
    "FLAG_NON_CONVERGED",
    "FitResult",
    "LinewidthEstimate",
    "VoigtOptions",
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
FLAG_NON_CONVERGED = "non-converged"

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


def fit_least_squares(
    model: Callable[..., np.ndarray],
    xdata: Sequence[float],
    ydata: Sequence[float],
    init: Sequence[float],
    bounds: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
) -> FitResult:
    """Levenberg-Marquardt minimization of sum((y - model(x, *p))^2).

    The Jacobian comes from forward differences with step max(1e-6*|p|,
    1e-12).  Convergence: relative cost decrease below 1e-10, gradient
    infinity-norm below 1e-12, or the cap of 200 iterations (which leaves
    converged=False).  `bounds` is an optional (lower, upper) box; trial
    steps are clipped into it.
    """
    x = np.asarray(xdata, dtype=float)
    y = np.asarray(ydata, dtype=float)
    p = np.array(init, dtype=float)
    n = p.size
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
        if not np.all((lo <= p) & (p <= hi)):  # false for a NaN bound
            raise InvalidParameterError("initial values lie outside the bounds")

    def residuals(params):
        return y - model(x, *params)

    def jac(params, f_now):
        out = np.empty((y.size, n))
        for j in range(n):
            h = max(1e-6 * abs(params[j]), 1e-12)
            shifted = params.copy()
            shifted[j] += h
            out[:, j] = (model(x, *shifted) - f_now) / h
        return out

    r = residuals(p)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    iterations = 0
    J = jac(p, y - r)

    for it in range(_LM_MAX_ITER):
        iterations = it + 1
        g = J.T @ r
        if np.max(np.abs(g)) < _LM_GRAD_TOL:
            converged = True
            break
        jtj = J.T @ J
        damping = np.diag(np.diag(jtj))
        accepted = False
        for _ in range(30):
            try:
                step = np.linalg.solve(jtj + lam * damping, g)
            except np.linalg.LinAlgError:
                step = np.full(n, np.nan)  # singular: refused below
            if not np.all(np.isfinite(step)):
                if it == 0:
                    raise InitializationError(
                        "singular normal equations at the initial point"
                    )
                lam *= 10.0
                continue
            p_try = np.clip(p + step, lo, hi)
            r_try = residuals(p_try)
            cost_try = float(r_try @ r_try)
            if cost_try < cost:
                rel_drop = (cost - cost_try) / max(cost, np.finfo(float).tiny)
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
        J = jac(p, y - r)
        if converged:
            break

    dof = max(y.size - n, 1)
    scale = cost / dof if y.size > n else 0.0
    try:
        cov = scale * np.linalg.pinv(J.T @ J)
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


# ---------------------------------------------------------------------------
# Iterative Voigt estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VoigtOptions:
    """Knobs for estimate_voigt."""

    tol: float = 1e-3
    max_iter: int = 60
    exclude_central_bins: int = 3

    def __post_init__(self):
        for name in ("max_iter", "exclude_central_bins"):
            object.__setattr__(self, name, _whole_number(getattr(self, name), name))
        if not 0 < self.tol < math.inf:
            raise InvalidParameterError(
                f"tol must be finite and > 0, got {self.tol}")
        if self.max_iter < 1 or self.exclude_central_bins < 0:
            raise InvalidParameterError("invalid Voigt estimator options")


def mask_central_bins(trace: SpectrumTrace, count: int) -> SpectrumTrace:
    """Replace the `count` bins nearest the trace maximum by linear
    interpolation.

    Removes the coherent-residue spike before width measurements; on a
    smooth peak the interpolation is a no-op to within the local curvature.
    """
    grid = trace.grid
    count = _whole_number(count, "masked bin count")
    if count < 0:
        raise InvalidParameterError(f"masked bin count must be >= 0, got {count}")
    if count == 0:
        return trace
    values = trace.values.copy()
    center = int(np.argmax(values))
    lo = max(center - count // 2, 1)
    hi = min(lo + count - 1, grid.count - 2)
    lo = max(min(lo, hi), 1)
    span = hi - lo + 2
    values[lo:hi + 1] = values[lo - 1] + (values[hi + 1] - values[lo - 1]) * (
        np.arange(1, hi - lo + 2) / span
    )
    return SpectrumTrace(grid, values, trace.rbw)


def estimate_voigt(trace: SpectrumTrace,
                   opts: Optional[VoigtOptions] = None) -> LinewidthEstimate:
    """Combined Lorentzian/Gaussian widths from the central beat-note peak.

    Measures the half-power and 20 dB widths, then bisects on the Lorentzian
    width over [W20/20, W20/2]: at each step the Gaussian width is chosen so
    the constructed Voigt keeps the measured half-power width, and the
    candidate is scored by how well its 20 dB width matches the measured one.
    The initial guess W20/sqrt(99) is the exact 20 dB width of a pure
    Lorentzian.  A bisection pinned at the lower bracket returns a zero
    Lorentzian width with the grid-limited flag.
    """
    if opts is None:
        opts = VoigtOptions()
    work = mask_central_bins(trace, opts.exclude_central_bins)
    tied = False
    try:
        w20 = width_at_level(work, 20.0)
        w3 = width_at_level(work, HALF_POWER_DB)
    except AmbiguousPeakError:
        # Equal-height peaks: the lowest-frequency one wins, flagged.
        tied = True
        w20 = width_at_level(work, 20.0, allow_ties=True)
        w3 = width_at_level(work, HALF_POWER_DB, allow_ties=True)

    def model_w20(lorentzian: float) -> float:
        gaussian, _ = _gaussian_from_measured_fwhm(w3, lorentzian)
        return voigt_width_numeric(lorentzian, gaussian, 20.0)

    lo = w20 / 20.0
    hi = w20 / 2.0
    flags = {FLAG_GRID_LIMITED} if tied else set()

    if model_w20(lo) >= w20:
        # Even the narrowest bracketed Lorentzian over-widens the wings: the
        # trace is effectively pure Gaussian at this resolution.
        flags.add(FLAG_GRID_LIMITED)
        gaussian, _ = _gaussian_from_measured_fwhm(w3, 0.0)
        residual = abs(GAUSSIAN_20DB_FACTOR * gaussian - w20) / w20
        return _make_estimate(0.0, gaussian, METHOD_VOIGT, 1, residual, flags)

    # The upper bracket always over-widens: a Voigt's 20 dB width is at
    # least its Lorentzian's, sqrt(99) * w20 / 2 at hi.  The first probe is
    # the exact 20 dB width of a pure Lorentzian; the bracket then shrinks
    # around it by plain bisection.
    first_guess = min(max(w20 / LORENTZIAN_20DB_FACTOR, lo), hi)
    for iterations in range(1, opts.max_iter + 1):
        mid = first_guess if iterations == 1 else 0.5 * (lo + hi)
        width = model_w20(mid)
        mismatch = (width - w20) / w20
        if abs(mismatch) < opts.tol:
            break
        if width > w20:
            hi = mid
        else:
            lo = mid
    else:
        flags.add(FLAG_NON_CONVERGED)

    gaussian, clamped = _gaussian_from_measured_fwhm(w3, mid)
    if clamped:
        flags.add(FLAG_GRID_LIMITED)
    return _make_estimate(mid, gaussian, METHOD_VOIGT, iterations,
                          abs(mismatch), flags)


# ---------------------------------------------------------------------------
# Envelope-contrast estimator
# ---------------------------------------------------------------------------

def _check_orders(peak_order: int, trough_order: int) -> Tuple[int, int]:
    """The two orders as ints, refused unless whole, >= 1, adjacent, and a
    peak (odd) then a trough (even)."""
    peak_order = _whole_number(peak_order, "peak order")
    trough_order = _whole_number(trough_order, "trough order")
    if peak_order < 1 or trough_order < 1:
        raise InvalidParameterError("extremum orders must be >= 1")
    if abs(peak_order - trough_order) != 1:
        raise InvalidParameterError("peak and trough orders must be adjacent")
    if peak_order % 2 == 0:
        raise InvalidParameterError(f"order {peak_order} is a trough, not a peak")
    if trough_order % 2 == 1:
        raise InvalidParameterError(f"order {trough_order} is a peak, not a trough")
    return peak_order, trough_order


def _contrast_db(params: DshiParams, peak_order: int, trough_order: int,
                 fwhm: float) -> float:
    """Analytic peak/trough contrast (dB) of the coherence envelope at
    combined linewidth fwhm: the wing-times-envelope model evaluated at the
    two extremum positions.  The orders must already be checked."""
    if not fwhm > 0:
        raise InvalidParameterError("contrast model needs a positive linewidth")
    gamma = fwhm / 2.0
    spacing = extrema_spacing(params)
    coh = math.exp(-2.0 * math.pi * params.delay * gamma)
    x_p = peak_order * spacing
    x_t = trough_order * spacing
    ratio = ((gamma * gamma + x_t * x_t) / (gamma * gamma + x_p * x_p)) \
        * ((1.0 + coh) / (1.0 - coh))
    return 10.0 * math.log10(ratio)


_CONTRAST_BRACKET_HZ = (0.1, 1e6)


def solve_contrast(params: DshiParams, peak_order: int, trough_order: int,
                   contrast_db: float) -> Tuple[float, int]:
    """Invert the contrast model for the combined linewidth by bisection.

    The contrast is monotone decreasing in linewidth over the [0.1 Hz, 1 MHz]
    bracket; contrasts outside the attainable [model(hi), model(lo)] range
    raise NoSolutionError.  Returns (linewidth, iterations).
    """
    if not math.isfinite(contrast_db):
        raise InvalidParameterError(f"contrast must be finite, got {contrast_db}")
    peak_order, trough_order = _check_orders(peak_order, trough_order)
    lo, hi = _CONTRAST_BRACKET_HZ
    ds_lo = _contrast_db(params, peak_order, trough_order, lo)
    ds_hi = _contrast_db(params, peak_order, trough_order, hi)
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
        if _contrast_db(params, peak_order, trough_order, mid) > contrast_db:
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
    extrapolated parabola."""
    orders = _check_orders(peak_order, trough_order)
    spacing = extrema_spacing(params)
    positions = tuple(params.eom_frequency + order * spacing for order in orders)
    for order, kind, position in zip(orders, ("peak", "trough"), positions):
        if not grid.covers(position):
            raise DomainError(
                f"the order-{order} {kind} at {position:.0f} Hz lies outside "
                f"the grid [{grid.start:.0f}, {grid.stop:.0f}] Hz"
            )
    return orders, spacing, positions


def _quadratic_value_at(freqs, values, position):
    """Value at `position` from the parabola through the three nearest samples."""
    step = freqs[1] - freqs[0]
    idx = int(np.clip(round((position - freqs[0]) / step), 1, len(freqs) - 2))
    delta = (position - freqs[idx]) / step
    vs = values[idx - 1:idx + 2]
    return float(vs[1] + 0.5 * (vs[2] - vs[0]) * delta
                 + 0.5 * (vs[2] - 2.0 * vs[1] + vs[0]) * delta * delta)


def _locate_extremum(freqs, values, step, carrier, position, window, kind,
                     gamma) -> float:
    """Validated position of one envelope extremum near its prediction.

    The existence search runs on the wing-detrended series
    v*((f-carrier)^2 + gamma^2), whose extrema track the envelope's: on the
    raw trace the 1/x^2 wing falloff swallows low-order peaks outright.  The
    position is the parabolic vertex of the detrended samples.
    """
    mask = np.abs(freqs - position) <= window
    if np.count_nonzero(mask) < 5:
        raise ExtremumNotFoundError(
            f"grid too coarse: fewer than 5 samples within {window:.0f} Hz of "
            f"the predicted extremum at {position:.0f} Hz"
        )
    sub_f = freqs[mask]
    detrended = values[mask] * ((sub_f - carrier) ** 2 + gamma * gamma)
    idx = int(np.argmax(detrended) if kind == "peak" else np.argmin(detrended))
    if idx == 0 or idx == len(detrended) - 1:
        raise ExtremumNotFoundError(
            f"no {kind} inside the search window around {position:.0f} Hz"
        )
    qs = detrended[idx - 1:idx + 2]
    denom = qs[0] - 2.0 * qs[1] + qs[2]
    delta = 0.5 * (qs[0] - qs[2]) / denom if denom != 0 else 0.0
    return float(sub_f[idx] + np.clip(delta, -1.0, 1.0) * step)


def _locate_extrema(freqs, values, step, params, spacing, positions,
                    gamma) -> Tuple[float, float]:
    """Peak then trough position, each searched within a quarter spacing of
    its predicted position."""
    return tuple(
        _locate_extremum(freqs, values, step, params.eom_frequency,
                         position, spacing / 4.0, kind, gamma)
        for position, kind in zip(positions, ("peak", "trough")))


def _predicted_contrast(freqs, values, positions) -> float:
    """Contrast (dB) of the trace quadratically interpolated at the
    *predicted* extremum positions, the convention of the contrast model
    (which evaluates the spectrum exactly at multiples of the spacing)."""
    s_p, s_t = (_quadratic_value_at(freqs, values, x) for x in positions)
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
    values = trace.values
    freqs = trace.grid.points()
    x_p, x_t = _locate_extrema(freqs, values, trace.grid.step, params,
                               spacing, positions, 0.0)
    return _predicted_contrast(freqs, values, positions), x_p, x_t


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
    values = trace.values
    freqs = trace.grid.points()
    # One reading at the predicted positions gives both the linewidth and the
    # locator's wing-detrend hint.  An unsolvable contrast waits until both
    # extrema are validated, so a missing extremum is reported first.
    ds = _predicted_contrast(freqs, values, positions)
    unsolved = None
    try:
        fwhm, iterations = solve_contrast(params, peak_order, trough_order, ds)
    except NoSolutionError as exc:
        unsolved, fwhm = exc, 0.0
    x_p, x_t = _locate_extrema(freqs, values, trace.grid.step, params,
                               spacing, positions, fwhm / 2.0)
    if unsolved is not None:
        raise unsolved

    flags = set()
    carrier = params.eom_frequency
    if min(abs(x_p - carrier), abs(x_t - carrier)) < servo_band_hz:
        flags.add(FLAG_SERVO_CONTAMINATED)
    residual = abs(
        _contrast_db(params, peak_order, trough_order, fwhm) - ds
    ) / max(abs(ds), 1e-12)
    return _make_estimate(fwhm, 0.0, METHOD_ENVELOPE, iterations, residual, flags)
