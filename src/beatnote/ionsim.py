"""Two-level quadrupole spectroscopy of a single trapped ion.

Monte-Carlo integration of the Schrodinger equation for a qubit driven by a
laser with Wiener phase noise and per-shot intensity spread, plus the fits
used to reduce the resulting spectra and Rabi flops to numbers.

Rabi-frequency convention: omega is in Hz with a resonant pi-pulse at
t = 1/(2*omega), so the noiseless resonant flopping is sin^2(pi*omega*t) and
the generalized flopping probability is
    P(delta, t) = omega^2/(omega^2+delta^2) * sin^2(pi*sqrt(omega^2+delta^2)*t).
"""

from __future__ import annotations

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
    "rabi_probability",
    "simulate_carrier_spectrum",
    "simulate_rabi",
    "fit_lorentzian_peak",
    "fit_damped_sine",
    "fit_inverse_power",
    "damped_sine_model",
]

# Integration steps per generalized Rabi period (precondition: >= 50).
_STEPS_PER_PERIOD = 50.0


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
    """Shot-averaged excited-state probability vs detuning or time."""

    abscissa: np.ndarray
    probability: np.ndarray
    shot_count: int

    def __post_init__(self):
        abscissa = np.asarray(self.abscissa, dtype=float)
        probability = np.asarray(self.probability, dtype=float)
        if abscissa.shape != probability.shape:
            raise InvalidParameterError("abscissa and probability shapes differ")
        if np.any(probability < -1e-12) or np.any(probability > 1.0 + 1e-12):
            raise InvalidParameterError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "abscissa", abscissa)
        object.__setattr__(self, "probability", np.clip(probability, 0.0, 1.0))


def rabi_probability(omega: float, delta, t):
    """Closed-form noiseless excitation probability (oracle for the integrator)."""
    delta = np.asarray(delta, dtype=float)
    gen = np.sqrt(omega * omega + delta * delta)
    weight = np.where(gen > 0, (omega / np.where(gen > 0, gen, 1.0)) ** 2, 1.0)
    return weight * np.sin(math.pi * gen * t) ** 2


def _shot_noise_tables(seed: int, n_points: int, n_shots: int, n_steps: int,
                       phase_step_sigma: float, rin_sigma: float):
    """Per-point noise streams keyed by (seed, point).

    Point ip draws from child ip of SeedSequence(seed): first its whole
    (shots, steps) block of phase kicks, then its shots' Rabi scales.  Child
    ip does not depend on how many points there are, so each point's noise,
    and the averaged result, is independent of evaluation order or any
    future parallel split over points.
    """
    kicks = np.zeros((n_points, n_shots, n_steps))
    scales = np.ones((n_points, n_shots))
    for ip, child in enumerate(np.random.SeedSequence(seed).spawn(n_points)):
        rng = np.random.default_rng(child)
        if phase_step_sigma > 0:
            kicks[ip] = rng.normal(0.0, phase_step_sigma, (n_shots, n_steps))
        if rin_sigma > 0:
            scales[ip] = 1.0 + rng.normal(0.0, rin_sigma, n_shots)
    return kicks, scales


def _evolve(deltas: np.ndarray, omega: float, duration: float,
            noise: LaserNoise, shots: int, seed: int,
            record_times: Optional[int] = None):
    """Piecewise-constant-Hamiltonian evolution from the ground state.

    deltas has shape (n_points,).  Without record_times, returns the mean
    excitation after `duration` per detuning; with it, returns the mean
    excitation at `record_times` equally spaced times (resonant drive only
    uses deltas of length 1).
    """
    n_points = deltas.size
    rate = _STEPS_PER_PERIOD * math.sqrt(
        omega * omega + float(np.max(np.abs(deltas))) ** 2
    )
    if record_times is None:
        n_steps = max(int(math.ceil(duration * rate)), 32)
        block = n_steps
        n_blocks = 1
    else:
        n_blocks = record_times
        block = max(int(math.ceil(duration * rate / n_blocks)), 1)
        n_steps = block * n_blocks
    dt = duration / n_steps

    phase_sigma = math.sqrt(2.0 * math.pi * noise.fwhm * dt) if noise.fwhm > 0 else 0.0
    kicks, scales = _shot_noise_tables(seed, n_points, shots, n_steps,
                                       phase_sigma, noise.rin_sigma)

    omega_s = omega * scales  # (n_points, shots)
    delta_c = deltas[:, None]
    norm = np.sqrt(omega_s * omega_s + delta_c * delta_c)
    theta = math.pi * dt * norm
    cos_t = np.cos(theta)
    sin_ratio = np.where(norm > 0, np.sin(theta) / np.where(norm > 0, norm, 1.0), 0.0)

    g = np.ones((n_points, shots), dtype=complex)
    e = np.zeros((n_points, shots), dtype=complex)
    phase = np.zeros((n_points, shots))
    recorded = np.empty((n_blocks, n_points)) if record_times is not None else None

    for step in range(n_steps):
        phase += kicks[:, :, step]
        drive = omega_s * np.exp(1j * phase)
        # U = cos(theta) I - i sin(theta) (v.sigma)/|v|, v = (Re d, Im d, -delta)
        u_gg = cos_t + 1j * sin_ratio * delta_c
        u_ge = -1j * sin_ratio * np.conj(drive)
        u_eg = -1j * sin_ratio * drive
        u_ee = cos_t - 1j * sin_ratio * delta_c
        g, e = u_gg * g + u_ge * e, u_eg * g + u_ee * e
        if recorded is not None and (step + 1) % block == 0:
            recorded[(step + 1) // block - 1] = np.mean(np.abs(e) ** 2, axis=1)

    if recorded is not None:
        return recorded
    return np.mean(np.abs(e) ** 2, axis=1)


def simulate_carrier_spectrum(params: IonProbeParams,
                              noise: LaserNoise) -> ExcitationCurve:
    """Excitation probability vs detuning for one probe-pulse setting."""
    deltas = params.detuning_grid.points()
    fourier_halfwidth = 4.0 / params.pulse_duration
    if deltas[0] > -fourier_halfwidth or deltas[-1] < fourier_halfwidth:
        raise ResolutionError(
            f"detuning grid must span at least +-{fourier_halfwidth:.1f} Hz "
            "(four Fourier widths of the pulse)"
        )
    prob = _evolve(deltas, params.rabi_frequency, params.pulse_duration,
                   noise, params.shots_per_point, params.rng_seed)
    return ExcitationCurve(deltas, prob, params.shots_per_point)


def simulate_rabi(params: IonProbeParams, noise: LaserNoise, t_max: float,
                  t_points: int) -> ExcitationCurve:
    """Resonant excitation probability vs pulse length (Rabi flopping)."""
    if not t_max > 0:
        raise InvalidParameterError("t_max must be > 0")
    periods = params.rabi_frequency * t_max
    if t_points < 20.0 * periods:
        raise ResolutionError(
            f"{t_points} samples under-resolve {periods:.1f} Rabi periods; "
            "need >= 20 per period"
        )
    recorded = _evolve(np.zeros(1), params.rabi_frequency, t_max, noise,
                       params.shots_per_point, params.rng_seed,
                       record_times=t_points)
    times = t_max * np.arange(1, t_points + 1) / t_points
    return ExcitationCurve(times, recorded[:, 0], params.shots_per_point)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def fit_lorentzian_peak(curve: ExcitationCurve) -> FitResult:
    """Lorentzian fit of a spectrum: parameters (center, fwhm, amplitude, offset)."""
    x = curve.abscissa
    y = curve.probability
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

    With fixed_exponent, only A is free but the returned parameters are
    still (A, p).  Raises DomainError on non-positive data.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise InvalidParameterError("need at least 3 (x, y) pairs")
    if np.any(pts <= 0):
        raise DomainError("inverse-power fit requires strictly positive data")
    log_x = np.log(pts[:, 0])
    log_y = np.log(pts[:, 1])

    if fixed_exponent is None:
        def model(lx, log_a, p):
            return log_a - p * lx
        slope = (log_y[-1] - log_y[0]) / (log_x[-1] - log_x[0])
        init = [float(log_y[0] + slope * (0.0 - log_x[0])), -slope]
        result = fit_least_squares(model, log_x, log_y, init)
        log_a, p = result.parameters
        amp = math.exp(log_a)
        jac = np.array([[amp, 0.0], [0.0, 1.0]])
        cov = jac @ result.covariance @ jac.T
        parameters = np.array([amp, p])
    else:
        p = float(fixed_exponent)

        def model(lx, log_a):
            return log_a - p * lx
        init = [float(np.mean(log_y + p * log_x))]
        result = fit_least_squares(model, log_x, log_y, init)
        amp = math.exp(result.parameters[0])
        cov = np.zeros((2, 2))
        cov[0, 0] = (amp ** 2) * result.covariance[0, 0]
        parameters = np.array([amp, p])
    return FitResult(parameters=parameters, covariance=0.5 * (cov + cov.T),
                     residual_norm=result.residual_norm,
                     converged=result.converged, iterations=result.iterations)
