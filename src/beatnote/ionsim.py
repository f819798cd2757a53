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

from .dshi import _in_two_lanes
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
    "expected_excitation",
    "simulate_carrier_spectrum",
    "simulate_rabi",
    "fit_lorentzian_peak",
    "fit_damped_sine",
    "fit_inverse_power",
    "damped_sine_model",
]

# Integration steps per generalized Rabi period, or per 1/(4 fwhm) when that
# is shorter.  The propagator is exact for a piecewise-constant Hamiltonian,
# so the steps only resolve the phase noise: the shot mean of the discrete
# kicks differs from the exact Bloch mean (expected_excitation) by a bias
# falling as dt^2, below 1e-4 on the acceptance scans and flop at 12.5.
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
    """Shot-averaged excited-state probability vs detuning or time."""

    abscissa: np.ndarray
    probability: np.ndarray
    shot_count: int

    def __post_init__(self):
        abscissa = np.asarray(self.abscissa, dtype=float)
        probability = np.asarray(self.probability, dtype=float)
        if abscissa.shape != probability.shape:
            raise InvalidParameterError("abscissa and probability shapes differ")
        if not (np.all(np.isfinite(abscissa)) and np.all(np.isfinite(probability))):
            raise InvalidParameterError("abscissa and probability must be finite")
        shot_count = _whole_number(self.shot_count, "shot_count")
        if shot_count < 1:
            raise InvalidParameterError("shot_count must be >= 1")
        if np.any(probability < -1e-12) or np.any(probability > 1.0 + 1e-12):
            raise InvalidParameterError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "abscissa", abscissa)
        object.__setattr__(self, "probability", np.clip(probability, 0.0, 1.0))
        object.__setattr__(self, "shot_count", shot_count)


def rabi_probability(omega: float, delta, t):
    """Closed-form noiseless excitation probability (oracle for the integrator)."""
    delta = np.asarray(delta, dtype=float)
    gen = np.sqrt(omega * omega + delta * delta)
    weight = np.where(gen > 0, (omega / np.where(gen > 0, gen, 1.0)) ** 2, 1.0)
    return weight * np.sin(math.pi * gen * t) ** 2


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


def expected_excitation(params: IonProbeParams, noise: LaserNoise,
                        times=None) -> np.ndarray:
    """Exact shot mean of the simulator, from the optical Bloch equations.

    Wiener phase noise of FWHM f is exactly Lindblad dephasing of the qubit
    coherence at gamma2 = pi*f, so the mean Bloch vector obeys
    d(u, v, w)/dt = A (u, v, w) with
        A = [[-gamma2, -2 pi delta, 0], [2 pi delta, -gamma2, -2 pi Omega],
             [0, 2 pi Omega, 0]],
    from w = -1, and P = (1 + w)/2.  The per-shot Rabi spread (rin_sigma) is
    a Gauss-Hermite average over Omega.

    Without `times`, returns P after params.pulse_duration at each point of
    params.detuning_grid, the mean simulate_carrier_spectrum samples.  With
    `times`, returns P of the resonant drive at those times, the mean
    simulate_rabi samples at its record times.
    """
    if times is None:
        deltas = params.detuning_grid.points()
        t = np.array([params.pulse_duration])
    else:
        deltas = np.zeros(1)
        t = np.asarray(times, dtype=float)
        if t.ndim != 1 or not np.all(np.isfinite(t) & (t >= 0)):
            raise InvalidParameterError("times must be a 1-D array of finite values >= 0")
    if noise.rin_sigma > 0:
        nodes, weights = np.polynomial.hermite_e.hermegauss(_RIN_NODES)
        omegas = params.rabi_frequency * (1.0 + noise.rin_sigma * nodes)
        weights = weights / np.sum(weights)
    else:
        omegas, weights = np.array([params.rabi_frequency]), np.ones(1)
    rate = np.zeros((omegas.size, deltas.size, 3, 3))
    rate[..., 0, 0] = rate[..., 1, 1] = -math.pi * noise.fwhm
    rate[..., 1, 0] = 2.0 * math.pi * deltas
    rate[..., 0, 1] = -rate[..., 1, 0]
    rate[..., 2, 1] = 2.0 * math.pi * omegas[:, None]
    rate[..., 1, 2] = -rate[..., 2, 1]
    w = -_expm(rate[:, :, None] * t[:, None, None])[..., 2, 2]  # (Omega, delta, t)
    prob = 0.5 * (1.0 + np.tensordot(weights, w, axes=1))
    return prob[:, 0] if times is None else prob[0]


def _shot_noise_tables(seed: int, n_points: int, n_shots: int, n_steps: int,
                       phase_step_sigma: float, rin_sigma: float, first: int = 0):
    """Per-point noise streams keyed by (seed, point).

    The tables hold points first, ..., first + n_points - 1 of a scan.  Point
    ip draws from SeedSequence(seed, spawn_key=(ip,)), which is child ip of
    SeedSequence(seed).spawn(n): first its whole (shots, steps) block of
    phase kicks, then its shots' Rabi scales.  A point's noise therefore
    depends neither on how many points there are nor on which lane of
    _evolve draws it; kicks are step-major (steps, points, shots).
    """
    kicks = np.zeros((n_steps, n_points, n_shots))
    scales = np.ones((n_points, n_shots))
    for ip in range(n_points):
        key = np.random.SeedSequence(seed, spawn_key=(first + ip,))
        rng = np.random.default_rng(key)
        if phase_step_sigma > 0:
            kicks[:, ip] = rng.normal(0.0, phase_step_sigma, (n_shots, n_steps)).T
        if rin_sigma > 0:
            scales[ip] = 1.0 + rng.normal(0.0, rin_sigma, n_shots)
    return kicks, scales


def _step_plan(omega: float, deltas: np.ndarray, duration: float, fwhm: float,
               record_times: Optional[int] = None):
    """(n_steps, block, dt) of the propagator: _STEPS_PER_PERIOD steps per
    generalized Rabi period or per 1/(4 fwhm), whichever is shorter; at
    least 32 steps for one pulse, or `block` whole steps per record."""
    rate = _STEPS_PER_PERIOD * max(
        math.hypot(omega, float(np.max(np.abs(deltas)))), 4.0 * fwhm)
    if record_times is None:
        n_steps = max(int(math.ceil(duration * rate)), 32)
        block = n_steps
    else:
        block = max(int(math.ceil(duration * rate / record_times)), 1)
        n_steps = block * record_times
    return n_steps, block, duration / n_steps


def _propagate(deltas: np.ndarray, first: int, omega: float, dt: float,
               n_steps: int, block: int, noise: LaserNoise, shots: int,
               seed: int) -> np.ndarray:
    """Mean excitation (records, points) of points first, ... of a scan,
    recorded every `block` of the n_steps steps: one lane of _evolve.

    A step at laser phase phi is U(phi) = P(phi) U0 P(phi)^dagger with
    P = diag(1, e^{i phi}), so in the laser's frame a step is the kick
    e <- e^{-i kick} e followed by the constant U0; the frame change leaves
    |e|^2 as it is.  The step's products go into preallocated buffers, and
    |e| is kept per record and shot, squared and averaged once at the end.
    """
    phase_sigma = math.sqrt(2.0 * math.pi * noise.fwhm * dt) if noise.fwhm > 0 else 0.0
    # A noiseless laser kicks nothing: no kick table, and no turn per step.
    kicked = phase_sigma > 0
    kicks, scales = _shot_noise_tables(seed, deltas.size, shots,
                                       n_steps if kicked else 0, phase_sigma,
                                       noise.rin_sigma, first)
    np.negative(kicks, out=kicks)

    omega_s = omega * scales  # (points, shots)
    delta_c = deltas[:, None]
    norm = np.sqrt(omega_s * omega_s + delta_c * delta_c)
    theta = math.pi * dt * norm
    sin_ratio = np.where(norm > 0, np.sin(theta) / np.where(norm > 0, norm, 1.0), 0.0)
    # U0 = cos(theta) I - i sin(theta) (v.sigma)/|v|, v = (omega_s, 0, -delta)
    u_gg = np.cos(theta) + 1j * sin_ratio * delta_c
    u_ee = np.conj(u_gg)
    u_off = -1j * sin_ratio * omega_s

    g = np.ones(omega_s.shape, dtype=complex)
    e = np.zeros(omega_s.shape, dtype=complex)
    g_next = np.empty(omega_s.shape, dtype=complex)
    turn = np.empty(omega_s.shape, dtype=complex)  # the kick, then scratch
    magnitude = np.empty((n_steps // block,) + omega_s.shape)

    for step in range(n_steps):
        if kicked:
            np.cos(kicks[step], out=turn.real)
            np.sin(kicks[step], out=turn.imag)
            np.multiply(e, turn, out=e)
        # g, e = u_gg g + u_off e, u_off g + u_ee e, each product with its
        # operands in this order: swapped, a complex product can change bits.
        np.multiply(u_gg, g, out=g_next)
        np.multiply(u_off, e, out=turn)
        np.add(g_next, turn, out=g_next)
        np.multiply(u_off, g, out=turn)
        np.multiply(u_ee, e, out=e)
        np.add(turn, e, out=e)
        g, g_next = g_next, g
        if (step + 1) % block == 0:
            np.abs(e, out=magnitude[(step + 1) // block - 1])

    np.square(magnitude, out=magnitude)
    return magnitude.mean(axis=2)


def _evolve(deltas: np.ndarray, omega: float, duration: float,
            noise: LaserNoise, shots: int, seed: int,
            record_times: Optional[int] = None):
    """Piecewise-constant-Hamiltonian evolution from the ground state.

    deltas has shape (n_points,).  Without record_times, returns the mean
    excitation after `duration` per detuning; with it, returns the mean
    excitation at `record_times` equally spaced times (resonant drive only
    uses deltas of length 1).

    The step plan is made once, for the whole scan.  The points then split
    into two contiguous halves, each propagated with its own noise tables by
    one lane of dshi._in_two_lanes; both lanes are joined before this
    returns or raises.  A single point runs on the calling thread.
    """
    n_points = deltas.size
    n_steps, block, dt = _step_plan(omega, deltas, duration, noise.fwhm,
                                    record_times)
    recorded = np.empty((n_steps // block, n_points))
    bounds = (0, (n_points + 1) // 2, n_points)

    def lane(half):
        lo, hi = bounds[half], bounds[half + 1]
        recorded[:, lo:hi] = _propagate(deltas[lo:hi], lo, omega, dt, n_steps,
                                        block, noise, shots, seed)

    if n_points > 1:
        _in_two_lanes(lane)
    else:
        lane(0)
    return recorded if record_times is not None else recorded[0]


def simulate_carrier_spectrum(params: IonProbeParams,
                              noise: LaserNoise) -> ExcitationCurve:
    """Excitation probability vs detuning for one probe-pulse setting.

    The detuning points are propagated in two lanes, split by point, each
    with its point's own keyed noise (_evolve); both lanes are joined before
    this returns, and the result does not depend on the split."""
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
    if not 0 < t_max < math.inf:
        raise InvalidParameterError("t_max must be finite and > 0")
    t_points = _whole_number(t_points, "t_points")
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
