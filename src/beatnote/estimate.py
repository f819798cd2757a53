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
    VOIGT_WIDTH_CL,
    VOIGT_WIDTH_CQ,
    SpectrumTrace,
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
    "estimate_direct_lorentzian",
    "measure_envelope_contrast",
    "model_contrast_db",
    "solve_contrast",
    "halve_combined",
    "mask_central_bins",
]

FLAG_SERVO_CONTAMINATED = "servo-contaminated"
FLAG_GRID_LIMITED = "grid-limited"
FLAG_NON_CONVERGED = "non-converged"

METHOD_VOIGT = "voigt-iterative"
METHOD_ENVELOPE = "envelope-contrast"
METHOD_DIRECT = "direct-lorentzian"


@dataclass(frozen=True)
class FitResult:
    """Outcome of a damped least-squares fit."""

    parameters: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int


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


def halve_combined(combined_fwhm: float) -> float:
    """Single-laser width from the combined two-arm width (identical arms)."""
    if combined_fwhm < 0:
        raise InvalidParameterError("combined width must be >= 0")
    return combined_fwhm / 2.0


# ---------------------------------------------------------------------------
# Damped least squares
# ---------------------------------------------------------------------------

def fit_least_squares(
    model: Callable[..., np.ndarray],
    xdata: Sequence[float],
    ydata: Sequence[float],
    init: Sequence[float],
    bounds: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
    jacobian: Optional[Callable[..., np.ndarray]] = None,
    max_iter: int = 200,
    cost_tol: float = 1e-10,
    grad_tol: float = 1e-12,
) -> FitResult:
    """Levenberg-Marquardt minimization of sum((y - model(x, *p))^2).

    The Jacobian comes from forward differences with step max(1e-6*|p|,
    1e-12) unless `jacobian(x, *p)` is supplied.  Convergence: relative cost
    decrease below cost_tol, gradient infinity-norm below grad_tol, or the
    iteration cap (which leaves converged=False).  `bounds` is an optional
    (lower, upper) box; trial steps are clipped into it.
    """
    x = np.asarray(xdata, dtype=float)
    y = np.asarray(ydata, dtype=float)
    p = np.array(init, dtype=float)
    n = p.size
    if y.size < n + 1:
        raise InsufficientDataError(
            f"{y.size} points cannot constrain {n} parameters"
        )
    if bounds is None:
        lo = np.full(n, -np.inf)
        hi = np.full(n, np.inf)
    else:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
        if np.any(p < lo) or np.any(p > hi):
            raise InvalidParameterError("initial values lie outside the bounds")

    def residuals(params):
        return y - model(x, *params)

    def jac(params, f_now):
        if jacobian is not None:
            return np.asarray(jacobian(x, *params), dtype=float)
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

    for it in range(max_iter):
        iterations = it + 1
        g = J.T @ r
        if np.max(np.abs(g)) < grad_tol:
            converged = True
            break
        jtj = J.T @ J
        damping = np.diag(np.diag(jtj))
        accepted = False
        for _ in range(30):
            try:
                step = np.linalg.solve(jtj + lam * damping, g)
            except np.linalg.LinAlgError:
                if it == 0:
                    raise InitializationError(
                        "singular normal equations at the initial point"
                    ) from None
                lam *= 10.0
                continue
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
                if rel_drop < cost_tol:
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
        if not self.tol > 0 or self.max_iter < 1 or self.exclude_central_bins < 0:
            raise InvalidParameterError("invalid Voigt estimator options")


def mask_central_bins(trace: SpectrumTrace, count: int,
                      carrier_hz: Optional[float] = None) -> SpectrumTrace:
    """Replace the `count` bins nearest the carrier by linear interpolation.

    Removes the coherent-residue spike before width measurements; on a
    smooth peak the interpolation is a no-op to within the local curvature.
    """
    if count <= 0:
        return trace.to_linear()
    values = trace.linear_values().copy()
    grid = trace.grid
    center = grid.index_of(carrier_hz) if carrier_hz is not None else int(np.argmax(values))
    lo = max(center - count // 2, 1)
    hi = min(lo + count - 1, grid.count - 2)
    lo = max(min(lo, hi), 1)
    span = hi - lo + 2
    values[lo:hi + 1] = values[lo - 1] + (values[hi + 1] - values[lo - 1]) * (
        np.arange(1, hi - lo + 2) / span
    )
    return SpectrumTrace(grid, values, "linear", trace.rbw)


def _gaussian_from_measured_fwhm(w3: float, lorentzian: float) -> Tuple[float, bool]:
    """Invert the Voigt-width formula for the Gaussian part at fixed total
    FWHM w3; returns (gaussian_fwhm, clamped) with clamped=True when the
    Lorentzian alone already exceeds what w3 allows."""
    rest = 2.0 * w3 - VOIGT_WIDTH_CL * lorentzian
    if rest <= 0:
        return 0.0, True
    disc = rest * rest - VOIGT_WIDTH_CQ * lorentzian * lorentzian
    if disc <= 0:
        return 0.0, True
    return 0.5 * math.sqrt(disc), False


def estimate_voigt(trace: SpectrumTrace, opts: Optional[VoigtOptions] = None,
                   carrier_hz: Optional[float] = None) -> LinewidthEstimate:
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
    work = mask_central_bins(trace, opts.exclude_central_bins, carrier_hz)
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
    iterations = 0

    if model_w20(lo) >= w20:
        # Even the narrowest bracketed Lorentzian over-widens the wings: the
        # trace is effectively pure Gaussian at this resolution.
        flags.add(FLAG_GRID_LIMITED)
        gaussian, _ = _gaussian_from_measured_fwhm(w3, 0.0)
        residual = abs(GAUSSIAN_20DB_FACTOR * gaussian - w20) / w20
        return _make_estimate(0.0, gaussian, METHOD_VOIGT, 1, residual, flags)

    mid = 0.5 * (lo + hi)
    mismatch = math.inf
    if model_w20(hi) <= w20:
        mid = hi
        flags.add(FLAG_NON_CONVERGED)
        mismatch = (model_w20(hi) - w20) / w20
    else:
        # First probe at the exact 20 dB width of a pure Lorentzian; the
        # bracket then shrinks around it by plain bisection.
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

def _check_orders(peak_order: int, trough_order: int):
    if peak_order < 1 or trough_order < 1:
        raise InvalidParameterError("extremum orders must be >= 1")
    if abs(peak_order - trough_order) != 1:
        raise InvalidParameterError("peak and trough orders must be adjacent")
    if peak_order % 2 == 0:
        raise InvalidParameterError(f"order {peak_order} is a trough, not a peak")
    if trough_order % 2 == 1:
        raise InvalidParameterError(f"order {trough_order} is a peak, not a trough")


def model_contrast_db(params: DshiParams, peak_order: int, trough_order: int,
                      laser_fwhm: Optional[float] = None) -> float:
    """Analytic peak/trough contrast (dB) of the coherence envelope.

    Evaluates the wing-times-envelope model at the two extremum positions;
    laser_fwhm overrides params.laser_fwhm so the solver can scan candidates.
    """
    _check_orders(peak_order, trough_order)
    fwhm = params.laser_fwhm if laser_fwhm is None else laser_fwhm
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


def solve_contrast(params: DshiParams, peak_order: int, trough_order: int,
                   contrast_db: float,
                   bracket: Tuple[float, float] = (0.1, 1e6)) -> Tuple[float, int]:
    """Invert the contrast model for the combined linewidth by bisection.

    The contrast is monotone decreasing in linewidth over the bracket;
    contrasts outside the attainable [model(hi), model(lo)] range raise
    NoSolutionError.  Returns (linewidth, iterations).
    """
    lo, hi = bracket
    ds_lo = model_contrast_db(params, peak_order, trough_order, lo)
    ds_hi = model_contrast_db(params, peak_order, trough_order, hi)
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
        if model_contrast_db(params, peak_order, trough_order, mid) > contrast_db:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= 1e-12 * hi:
            break
    return math.sqrt(lo * hi), iterations


def _quadratic_value_at(freqs, values, position):
    """Value at `position` from the parabola through the three nearest samples."""
    step = freqs[1] - freqs[0]
    idx = int(np.clip(round((position - freqs[0]) / step), 1, len(freqs) - 2))
    delta = (position - freqs[idx]) / step
    vs = values[idx - 1:idx + 2]
    return float(vs[1] + 0.5 * (vs[2] - vs[0]) * delta
                 + 0.5 * (vs[2] - 2.0 * vs[1] + vs[0]) * delta * delta)


def _locate_extremum(trace_values, grid, carrier, position, window, kind, gamma):
    """Validate and read one envelope extremum near its predicted position.

    The existence search runs on the wing-detrended series
    v*((f-carrier)^2 + gamma^2), whose extrema track the envelope's: on the
    raw trace the 1/x^2 wing falloff swallows low-order peaks outright.  The
    reported position is the parabolic vertex of the detrended samples; the
    contrast value is the raw trace quadratically interpolated at the
    *predicted* position, matching the convention of the contrast model
    (which evaluates the spectrum exactly at multiples of the spacing).
    """
    freqs = grid.points()
    mask = np.abs(freqs - position) <= window
    if np.count_nonzero(mask) < 5:
        raise ExtremumNotFoundError(
            f"grid too coarse: fewer than 5 samples within {window:.0f} Hz of "
            f"the predicted extremum at {position:.0f} Hz"
        )
    sub_f = freqs[mask]
    sub_v = trace_values[mask]
    detrended = sub_v * ((sub_f - carrier) ** 2 + gamma * gamma)
    idx = int(np.argmax(detrended) if kind == "peak" else np.argmin(detrended))
    if idx == 0 or idx == len(detrended) - 1:
        raise ExtremumNotFoundError(
            f"no {kind} inside the search window around {position:.0f} Hz"
        )
    qs = detrended[idx - 1:idx + 2]
    denom = qs[0] - 2.0 * qs[1] + qs[2]
    delta = 0.5 * (qs[0] - qs[2]) / denom if denom != 0 else 0.0
    refined = float(sub_f[idx] + np.clip(delta, -1.0, 1.0) * grid.step)
    return refined, _quadratic_value_at(freqs, trace_values, position)


def _contrast_at_predictions(trace, params, peak_order, trough_order) -> float:
    """Contrast read at the predicted positions without extremum validation."""
    values = trace.linear_values()
    freqs = trace.grid.points()
    spacing = extrema_spacing(params)
    s_p = _quadratic_value_at(freqs, values,
                              params.eom_frequency + peak_order * spacing)
    s_t = _quadratic_value_at(freqs, values,
                              params.eom_frequency + trough_order * spacing)
    if s_p <= 0 or s_t <= 0:
        raise ExtremumNotFoundError("non-positive PSD at a predicted extremum")
    return 10.0 * math.log10(s_p / s_t)


def measure_envelope_contrast(trace: SpectrumTrace, params: DshiParams,
                              peak_order: int, trough_order: int,
                              gamma_hint: float = 0.0):
    """Measured contrast between an adjacent envelope peak/trough pair.

    Returns (contrast_db, peak_position, trough_position).  gamma_hint (the
    per-arm half width) sharpens the wing detrend used by the locator.
    """
    _check_orders(peak_order, trough_order)
    values = trace.linear_values()
    carrier = params.eom_frequency
    spacing = extrema_spacing(params)
    window = spacing / 4.0
    x_p, s_p = _locate_extremum(values, trace.grid, carrier,
                                carrier + peak_order * spacing, window,
                                "peak", gamma_hint)
    x_t, s_t = _locate_extremum(values, trace.grid, carrier,
                                carrier + trough_order * spacing, window,
                                "trough", gamma_hint)
    if s_t <= 0 or s_p <= 0:
        raise ExtremumNotFoundError("non-positive PSD at a located extremum")
    return 10.0 * math.log10(s_p / s_t), x_p, x_t


def estimate_envelope_contrast(trace: SpectrumTrace, params: DshiParams,
                               peak_order: int = 1, trough_order: int = 2,
                               servo_band_hz: float = 100e3) -> LinewidthEstimate:
    """Combined linewidth from the coherence-envelope peak/trough contrast.

    Extrema within servo_band_hz of the carrier get the servo-contaminated
    flag, since that is where cavity-lock servo bumps live.
    """
    # Provisional pass: contrast read straight off the predicted positions
    # gives the wing-detrend hint; the real pass then validates that the
    # extrema actually exist near those positions.
    hint = 0.0
    try:
        ds0 = _contrast_at_predictions(trace, params, peak_order, trough_order)
        hint = solve_contrast(params, peak_order, trough_order, ds0)[0] / 2.0
    except NoSolutionError:
        pass
    ds, x_p, x_t = measure_envelope_contrast(trace, params, peak_order,
                                             trough_order, gamma_hint=hint)
    fwhm, iterations = solve_contrast(params, peak_order, trough_order, ds)

    flags = set()
    carrier = params.eom_frequency
    if min(abs(x_p - carrier), abs(x_t - carrier)) < servo_band_hz:
        flags.add(FLAG_SERVO_CONTAMINATED)
    residual = abs(
        model_contrast_db(params, peak_order, trough_order, fwhm) - ds
    ) / max(abs(ds), 1e-12)
    return _make_estimate(fwhm, 0.0, METHOD_ENVELOPE, iterations, residual, flags)


def estimate_direct_lorentzian(trace: SpectrumTrace,
                               exclude_central_bins: int = 0) -> LinewidthEstimate:
    """Plain Lorentzian least-squares fit of the central peak.

    Adequate when the delay is much longer than the coherence time and the
    trace is a clean Lorentzian; no Gaussian component is extracted.
    """
    work = mask_central_bins(trace, exclude_central_bins)
    values = work.linear_values()
    freqs = work.grid.points()
    w3 = width_at_level(work, HALF_POWER_DB)
    i_pk = int(np.argmax(values))
    init = [freqs[i_pk], w3, float(values[i_pk]), float(np.min(values))]
    result = fit_least_squares(lorentzian_peak_model, freqs, values, init)
    fwhm = abs(float(result.parameters[1]))
    residual = result.residual_norm / max(float(values[i_pk]), 1e-300)
    flags = () if result.converged else (FLAG_NON_CONVERGED,)
    return _make_estimate(fwhm, 0.0, METHOD_DIRECT, result.iterations,
                          residual, flags)
