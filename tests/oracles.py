"""Closed forms, grids and a propagator the tests hold the package to.

None is part of the package: `rabi_probability` is the noiseless limit of
`beatnote.expected_excitation`, `evolve` is the shot-by-shot Monte-Carlo
propagator that checks it, `voigt_grid` is the grid on which the Voigt width
solvers are compared, and `grid_about` is the symmetric grid most spectrum
tests sample on.
"""

import math
from typing import Optional

import numpy as np

from beatnote import FrequencyGrid, LaserNoise, LineshapeParams, voigt_fwhm_approx
from beatnote.ionsim import _STEPS_PER_PERIOD


def rabi_probability(omega: float, delta, t):
    """Closed-form noiseless excitation probability (oracle for the integrator)."""
    delta = np.asarray(delta, dtype=float)
    gen = np.sqrt(omega * omega + delta * delta)
    weight = np.where(gen > 0, (omega / np.where(gen > 0, gen, 1.0)) ** 2, 1.0)
    return weight * np.sin(math.pi * gen * t) ** 2


def voigt_grid(params: LineshapeParams) -> FrequencyGrid:
    """Grid centered on the profile: +-20*(sum of widths) span, 40 samples
    across the Voigt FWHM."""
    fg, fl = params.fwhm_gaussian, params.fwhm_lorentzian
    step = voigt_fwhm_approx(fl, fg) / 40.0
    half_count = int(math.ceil(20.0 * (fg + fl) / step))
    return FrequencyGrid(params.center - half_count * step, step, 2 * half_count + 1)


def grid_about(center, half_span, step):
    """Grid of the given step with a point at `center`, reaching as far out
    to either side as whole steps within `half_span` allow."""
    n = int(half_span / step)
    return FrequencyGrid(center - n * step, step, 2 * n + 1)


# ---------------------------------------------------------------------------
# Shot-by-shot propagator: the Monte-Carlo check of expected_excitation
# ---------------------------------------------------------------------------

def shot_noise_tables(seed: int, n_points: int, n_shots: int, n_steps: int,
                      phase_step_sigma: float, rin_sigma: float, first: int = 0):
    """Per-point noise streams keyed by (seed, point).

    The tables hold points first, ..., first + n_points - 1 of a scan.  Point
    ip draws from SeedSequence(seed, spawn_key=(ip,)), which is child ip of
    SeedSequence(seed).spawn(n): first its whole (shots, steps) block of
    phase kicks, then its shots' Rabi scales.  A point's noise therefore
    depends neither on how many points there are nor on which call of
    propagate draws it; kicks are step-major (steps, points, shots).
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


def step_plan(omega: float, deltas: np.ndarray, duration: float, fwhm: float,
              record_times: Optional[int] = None):
    """(n_steps, block, dt) of the propagator: ionsim._STEPS_PER_PERIOD steps
    per generalized Rabi period or per 1/(4 fwhm), whichever is shorter; at
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


def propagate(deltas: np.ndarray, first: int, omega: float, dt: float,
              n_steps: int, block: int, noise: LaserNoise, shots: int,
              seed: int) -> np.ndarray:
    """Mean excitation (records, points) of points first, ... of a scan,
    recorded every `block` of the n_steps steps.

    A step at laser phase phi is U(phi) = P(phi) U0 P(phi)^dagger with
    P = diag(1, e^{i phi}), so in the laser's frame a step is the kick
    e <- e^{-i kick} e followed by the constant U0; the frame change leaves
    |e|^2 as it is.  The step's products go into preallocated buffers, and
    |e| is kept per record and shot, squared and averaged once at the end.
    """
    phase_sigma = math.sqrt(2.0 * math.pi * noise.fwhm * dt) if noise.fwhm > 0 else 0.0
    # A noiseless laser kicks nothing: no kick table, and no turn per step.
    kicked = phase_sigma > 0
    kicks, scales = shot_noise_tables(seed, deltas.size, shots,
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


def evolve(deltas: np.ndarray, omega: float, duration: float,
           noise: LaserNoise, shots: int, seed: int,
           record_times: Optional[int] = None):
    """Piecewise-constant-Hamiltonian evolution of `shots` noisy shots from
    the ground state, the mean of |e|^2 over the shots.

    deltas has shape (n_points,).  Without record_times, returns the mean
    excitation after `duration` per detuning; with it, returns the mean
    excitation at `record_times` equally spaced times (resonant drive only
    uses deltas of length 1).  The step plan is made once, for the whole
    scan, and every point is propagated in one serial loop.
    """
    n_steps, block, dt = step_plan(omega, deltas, duration, noise.fwhm,
                                   record_times)
    recorded = propagate(deltas, 0, omega, dt, n_steps, block, noise, shots, seed)
    return recorded if record_times is not None else recorded[0]
