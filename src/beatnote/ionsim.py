"""Two-level quadrupole spectroscopy of a single trapped ion.

A qubit driven by a laser with Wiener phase noise and per-shot intensity
spread, read out as in the experiment: each shot is a 0 or a 1, so the count
at a scan point or record time is Binomial(shots, p), with p the exact
noise-averaged excitation from the optical Bloch equations.  Plus the fits
used to reduce the resulting spectra and Rabi flops to numbers.

Rabi-frequency convention: omega is in Hz with a resonant pi-pulse at
t = 1/(2*omega), so the noiseless resonant flopping is sin^2(pi*omega*t) and
the generalized flopping probability is
    P(delta, t) = omega^2/(omega^2+delta^2) * sin^2(pi*sqrt(omega^2+delta^2)*t).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    InitializationError,
    InsufficientDataError,
    InvalidParameterError,
    ResolutionError,
)
from .estimate import FitResult, fit_least_squares, lorentzian_peak_model
from .lineshape import FrequencyGrid, _whole_number

__all__ = [
    "IonProbeParams",
    "LaserNoise",
    "ExcitationCurve",
    "expected_excitation",
    "simulate_carrier_spectrum",
    "simulate_rabi",
    "fit_lorentzian_peak",
    "fit_damped_sine",
    "fit_inverse_power",
    "damped_sine_model",
]

# Steps per generalized Rabi period, or per 1/(4 fwhm) when that is shorter,
# of the shot-by-shot propagator in tests/oracles.py, whose shot means the
# tests hold to expected_excitation inside the shot-noise chi^2 bound;
# perfbench/workloads.py reads it too.  Each step is exact for a
# piecewise-constant Hamiltonian, so the steps only resolve the phase noise:
# the exact mean of the discrete kicks differs from expected_excitation by a
# bias falling as dt^2, within 2e-4 on the acceptance scans and flop at 12.5.
_STEPS_PER_PERIOD = 12.5
# Gauss-Hermite nodes of the exact mean's average over the per-shot Rabi scale.
_RIN_NODES = 32


@dataclass(frozen=True)
class IonProbeParams:
    """Probe-pulse configuration for one spectroscopy scan."""

    rabi_frequency: float
    pulse_duration: float
    detuning_grid: FrequencyGrid
    shots_per_point: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.rabi_frequency < math.inf:
            raise InvalidParameterError("rabi_frequency must be finite and > 0")
        if not 0 < self.pulse_duration < math.inf:
            raise InvalidParameterError("pulse_duration must be finite and > 0")
        object.__setattr__(self, "shots_per_point",
                           _whole_number(self.shots_per_point, "shots_per_point"))
        object.__setattr__(self, "rng_seed", _whole_number(self.rng_seed, "rng_seed"))
        if self.shots_per_point < 1:
            raise InvalidParameterError("shots_per_point must be >= 1")
        if self.rng_seed < 0:
            raise InvalidParameterError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class LaserNoise:
    """Single-laser Lorentzian FWHM (Wiener phase noise) and fractional
    per-shot Rabi-scale spread."""

    fwhm: float = 0.0
    rin_sigma: float = 0.0

    def __post_init__(self):
        if not (0 <= self.fwhm < math.inf and 0 <= self.rin_sigma < math.inf):
            raise InvalidParameterError("noise levels must be finite and >= 0")


@dataclass(frozen=True)
class ExcitationCurve:
    """Excited-state probability vs detuning or time, on a strictly
    ascending 1-D abscissa: at each point, the fraction of its shot_count
    shots read as excited."""

    abscissa: np.ndarray
    probability: np.ndarray
    shot_count: int

    def __post_init__(self):
        abscissa = np.asarray(self.abscissa, dtype=float)
        probability = np.asarray(self.probability, dtype=float)
        if abscissa.ndim != 1 or abscissa.shape != probability.shape:
            raise InvalidParameterError(
                "abscissa and probability must be 1-D arrays of one length")
        if not (np.all(np.isfinite(abscissa)) and np.all(np.isfinite(probability))):
            raise InvalidParameterError("abscissa and probability must be finite")
        shot_count = _whole_number(self.shot_count, "shot_count")
        if shot_count < 1:
            raise InvalidParameterError("shot_count must be >= 1")
        if np.any(probability < -1e-12) or np.any(probability > 1.0 + 1e-12):
            raise InvalidParameterError("probabilities must lie in [0, 1]")
        if np.any(abscissa[1:] <= abscissa[:-1]):
            raise InvalidParameterError("abscissa must be strictly ascending")
        object.__setattr__(self, "abscissa", abscissa)
        object.__setattr__(self, "probability", np.clip(probability, 0.0, 1.0))
        object.__setattr__(self, "shot_count", shot_count)


def _expm(m: np.ndarray) -> np.ndarray:
    """exp of a stack of 3x3 matrices (..., 3, 3): a degree-16 Taylor series
    of m / 2^s, with |m / 2^s| <= 1/2 in the infinity norm, squared s times."""
    norm = float(np.max(np.sum(np.abs(m), axis=-1), initial=0.0))
    squarings = max(math.ceil(math.log2(norm / 0.5)), 0) if norm > 0.5 else 0
    m = m / 2.0 ** squarings
    term = np.broadcast_to(np.eye(3), m.shape)
    result = term.copy()
    for k in range(1, 17):
        term = (term @ m) / k
        result += term
    for _ in range(squarings):
        result = result @ result
    return result


@functools.cache
def _rin_nodes():
    """The _RIN_NODES Gauss-Hermite nodes and their weights, normalised to
    sum 1, made once per process (about 0.8 ms) and read-only, since every
    caller shares them."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(_RIN_NODES)
    weights = weights / np.sum(weights)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _bloch_rates(omega: float, deltas: np.ndarray, noise: LaserNoise):
    """Rate matrices A (Omega nodes, deltas, 3, 3) of the mean Bloch vector,
    and the weights of the Gauss-Hermite nodes over the per-shot Rabi scale
    (one node of weight 1 without rin_sigma)."""
    if noise.rin_sigma > 0:
        nodes, weights = _rin_nodes()
        omegas = omega * (1.0 + noise.rin_sigma * nodes)
    else:
        omegas, weights = np.array([omega]), np.ones(1)
    rate = np.zeros((omegas.size, deltas.size, 3, 3))
    rate[..., 0, 0] = rate[..., 1, 1] = -math.pi * noise.fwhm
    rate[..., 1, 0] = 2.0 * math.pi * deltas
    rate[..., 0, 1] = -rate[..., 1, 0]
    rate[..., 2, 1] = 2.0 * math.pi * omegas[:, None]
    rate[..., 1, 2] = -rate[..., 2, 1]
    return rate, weights


def expected_excitation(params: IonProbeParams, noise: LaserNoise,
                        times=None) -> np.ndarray:
    """Exact excitation probability of one shot, averaged over the laser
    noise, from the optical Bloch equations.

    Wiener phase noise of FWHM f is exactly Lindblad dephasing of the qubit
    coherence at gamma2 = pi*f, so the mean Bloch vector obeys
    d(u, v, w)/dt = A (u, v, w) with
        A = [[-gamma2, -2 pi delta, 0], [2 pi delta, -gamma2, -2 pi Omega],
             [0, 2 pi Omega, 0]],
    from w = -1, and P = (1 + w)/2.  The per-shot Rabi spread (rin_sigma) is
    a Gauss-Hermite average over Omega.

    Without `times`, returns P after params.pulse_duration at each point of
    params.detuning_grid, the p of simulate_carrier_spectrum's binomial
    draws.  With `times`, returns P of the resonant drive at those times, the
    p of simulate_rabi's draws at its record times.
    """
    if times is None:
        deltas = params.detuning_grid.points()
        t = np.array([params.pulse_duration])
    else:
        deltas = np.zeros(1)
        t = np.asarray(times, dtype=float)
        if t.ndim != 1 or not np.all(np.isfinite(t) & (t >= 0)):
            raise InvalidParameterError("times must be a 1-D array of finite values >= 0")
    rate, weights = _bloch_rates(params.rabi_frequency, deltas, noise)
    w = -_expm(rate[:, :, None] * t[:, None, None])[..., 2, 2]  # (Omega, delta, t)
    prob = 0.5 * (1.0 + np.tensordot(weights, w, axes=1))
    return prob[:, 0] if times is None else prob[0]


def _read_out(mean: np.ndarray, params: IonProbeParams) -> np.ndarray:
    """Fraction of params.shots_per_point shots read as excited at each
    point: one Binomial(shots, p) count per point of the exact mean p, all
    drawn in point order from np.random.default_rng(params.rng_seed)."""
    rng = np.random.default_rng(params.rng_seed)
    shots = params.shots_per_point
    return rng.binomial(shots, np.clip(mean, 0.0, 1.0)) / shots


def simulate_carrier_spectrum(params: IonProbeParams,
                              noise: LaserNoise) -> ExcitationCurve:
    """Excitation probability vs detuning for one probe-pulse setting.

    Each point reads params.shots_per_point independent shots, each a 0 or
    a 1, so its count is exactly Binomial(shots, p) on the exact mean p of
    expected_excitation; the curve holds count/shots at each detuning."""
    deltas = params.detuning_grid.points()
    fourier_halfwidth = 4.0 / params.pulse_duration
    if deltas[0] > -fourier_halfwidth or deltas[-1] < fourier_halfwidth:
        raise ResolutionError(
            f"detuning grid must span at least +-{fourier_halfwidth:.1f} Hz "
            "(four Fourier widths of the pulse)"
        )
    prob = _read_out(expected_excitation(params, noise), params)
    return ExcitationCurve(deltas, prob, params.shots_per_point)


def _flop_mean(params: IonProbeParams, noise: LaserNoise, t_max: float,
               t_points: int) -> np.ndarray:
    """Exact mean of the resonant flop at t_max*k/t_points, k = 1..t_points:
    the Bloch vector stepped by one exp(A dt) per Rabi node, dt =
    t_max/t_points.  Equals expected_excitation(params, noise, times) at
    those times to rounding, with one matrix exponential per node instead
    of one per time and node."""
    rate, weights = _bloch_rates(params.rabi_frequency, np.zeros(1), noise)
    step = _expm(rate[:, 0] * (t_max / t_points))  # (Omega, 3, 3)
    bloch = np.zeros((weights.size, 3, 1))
    bloch[:, 2] = -1.0
    w = np.empty((t_points, weights.size))
    for k in range(t_points):
        bloch = step @ bloch
        w[k] = bloch[:, 2, 0]
    return 0.5 * (1.0 + w @ weights)


def simulate_rabi(params: IonProbeParams, noise: LaserNoise, t_max: float,
                  t_points: int) -> ExcitationCurve:
    """Resonant excitation probability vs pulse length (Rabi flopping).

    Records at t_max*k/t_points, k = 1..t_points; each record time reads its
    own params.shots_per_point shots, a Binomial(shots, p) count on the
    exact mean p of the flop at that time."""
    if not 0 < t_max < math.inf:
        raise InvalidParameterError("t_max must be finite and > 0")
    t_points = _whole_number(t_points, "t_points")
    periods = params.rabi_frequency * t_max
    if t_points < 20.0 * periods:
        raise ResolutionError(
            f"{t_points} samples under-resolve {periods:.1f} Rabi periods; "
            "need >= 20 per period"
        )
    prob = _read_out(_flop_mean(params, noise, t_max, t_points), params)
    times = t_max * np.arange(1, t_points + 1) / t_points
    return ExcitationCurve(times, prob, params.shots_per_point)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def fit_lorentzian_peak(curve: ExcitationCurve) -> FitResult:
    """Lorentzian fit of a spectrum: parameters (center, fwhm, amplitude, offset)."""
    x = curve.abscissa
    y = curve.probability
    if x.size < 5:
        raise InsufficientDataError(
            f"need at least 5 points to fit a Lorentzian peak, got {x.size}")
    offset0 = float(np.median(np.concatenate((y[:3], y[-3:]))))
    i_pk = int(np.argmax(y))
    amp0 = float(y[i_pk] - offset0)
    spread = float(np.max(y) - np.min(y))
    if spread <= 0 or amp0 <= 0.05 * max(spread, 1e-12) or amp0 <= 1e-9:
        raise InitializationError("no resolvable peak to fit")
    step = x[1] - x[0]
    above = np.count_nonzero(y > offset0 + 0.5 * amp0)
    fwhm0 = max(above, 2) * step
    span = x[-1] - x[0]
    bounds = ([x[0], step / 10.0, 0.0, -1.0], [x[-1], 10.0 * span, 2.0, 1.0])
    return fit_least_squares(lorentzian_peak_model, x, y,
                             [x[i_pk], fwhm0, amp0, offset0], bounds)


def damped_sine_model(t, omega, tau, contrast, phase, offset):
    """offset - contrast*exp(-t/tau)*cos(2 pi omega t + phase)/2."""
    return offset - 0.5 * contrast * np.exp(-t / tau) * np.cos(
        2.0 * math.pi * omega * t + phase
    )


def fit_damped_sine(curve: ExcitationCurve) -> FitResult:
    """Decaying-oscillation fit of a Rabi flop:
    parameters (omega, tau, contrast, phase, offset)."""
    t = curve.abscissa
    y = curve.probability
    if t.size < 2:
        raise InsufficientDataError(
            f"need at least 2 samples to fit a Rabi flop, got {t.size}")
    span = t[-1] - t[0]
    centered = y - np.mean(y)
    spectrum = np.abs(np.fft.rfft(centered))
    freqs = np.fft.rfftfreq(len(t), d=(t[1] - t[0]))
    i0 = 1 + int(np.argmax(spectrum[1:]))
    omega0 = float(freqs[i0])
    if omega0 <= 0 or span * omega0 < 3.0:
        raise InsufficientDataError(
            "need at least 3 visible oscillation periods to fit"
        )
    init = [omega0, span / 2.0, 2.0 * float(np.std(centered)) * math.sqrt(2.0),
            0.0, float(np.mean(y))]
    bounds = ([freqs[1] / 2.0, span / 100.0, 0.0, -math.pi, -1.0],
              [float(freqs[-1]), 100.0 * span, 2.0, math.pi, 2.0])
    return fit_least_squares(damped_sine_model, t, y, init, bounds)


def fit_inverse_power(points: Sequence[Sequence[float]],
                      fixed_exponent: Optional[float] = None) -> FitResult:
    """Fit y = A / x^p to (x, y) pairs in log-log space.

    log y = log A - p log x is linear, so one least-squares solve gives the
    fit: the design matrix is [1, -log x], or [1] with fixed_exponent, whose
    returned parameters are still (A, p).  The covariance of (A, p) is that
    of the log-space solve, scaled by dA/d(log A) = A.  Raises DomainError on
    data that is not finite and strictly positive.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise InvalidParameterError("need at least 3 (x, y) pairs")
    if not np.all((pts > 0) & (pts < math.inf)):
        raise DomainError("inverse-power fit requires finite, strictly positive data")
    if not (fixed_exponent is None or math.isfinite(fixed_exponent)):
        raise InvalidParameterError(f"fixed exponent must be finite, got {fixed_exponent}")
    log_x, log_y = np.log(pts).T
    k = 2 if fixed_exponent is None else 1  # free parameters
    p = 0.0 if k == 2 else float(fixed_exponent)
    design = np.stack((np.ones_like(log_x), -log_x), axis=1)[:, :k]
    coef, cost, rank, _ = np.linalg.lstsq(design, log_y + p * log_x)
    if rank < k:
        raise InsufficientDataError("the pairs need at least two distinct x")
    amp = math.exp(coef[0])
    gain = np.array([amp, 1.0])[:k]  # d(A, p) / d(log A, p)
    cov = np.zeros((2, 2))
    cov[:k, :k] = (cost[0] / (len(pts) - k) * np.linalg.pinv(design.T @ design)
                   * np.outer(gain, gain))
    return FitResult(parameters=np.array([amp, coef[1] if k == 2 else p]),
                     covariance=0.5 * (cov + cov.T),
                     residual_norm=math.sqrt(cost[0]), converged=True, iterations=1)
