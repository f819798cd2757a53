"""Closed forms, grids and a propagator the tests hold the package to.

None is part of the package.  `rabi_probability` is the noiseless limit of
`beatnote.expected_excitation`.  `evolve` propagates shots one by one, with
the laser's phase kicks and Rabi scales drawn per shot; its shot means are
held to `expected_excitation` inside the shot-noise chi^2 bound.
`step_plan` is its step rule, on which the exact mean of the discrete kicks
(`discrete_kick_mean` in test_ionsim) agrees with `expected_excitation` to
2e-4.  `voigt_grid` is the grid on which the Voigt width solvers are
compared, and `grid_about` is the grid with a point at a centre that most
spectrum tests sample on.  The package evaluates every profile about its
centre once per side, so where (start - centre) / step is a whole number
the two sides are bitwise equal; no test here evaluates a second way.
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


def evolve(deltas: np.ndarray, omega: float, duration: float,
           noise: LaserNoise, shots: int, seed: int,
           record_times: Optional[int] = None):
    """Mean |e|^2 over `shots` noisy shots from the ground state, each
    propagated step by step with a piecewise-constant Hamiltonian.

    deltas has shape (n_points,).  Without record_times, returns the mean
    after `duration` per detuning; with it, returns the mean at
    `record_times` equally spaced times, shape (record_times, n_points).
    One np.random.default_rng(seed) draws the (steps, points, shots) phase
    kicks of variance 2 pi fwhm dt, then the (points, shots) Rabi scales
    1 + N(0, rin_sigma).  A step at laser phase phi is P(phi) U0 P(phi)^+
    with P = diag(1, e^{i phi}), so in the laser's frame a step is the kick
    e <- e^{-i kick} e followed by the constant U0; the frame change leaves
    |e|^2 as it is.
    """
    n_steps, block, dt = step_plan(omega, deltas, duration, noise.fwhm,
                                   record_times)
    rng = np.random.default_rng(seed)
    kicks = rng.normal(0.0, math.sqrt(2.0 * math.pi * noise.fwhm * dt),
                       (n_steps, deltas.size, shots))
    omega_s = omega * (1.0 + rng.normal(0.0, noise.rin_sigma, (deltas.size, shots)))
    delta_c = deltas[:, None]
    norm = np.hypot(omega_s, delta_c)
    theta = math.pi * dt * norm
    sin_ratio = np.sin(theta) / np.where(norm > 0, norm, 1.0)
    # U0 = cos(theta) I - i sin(theta) (v.sigma)/|v|, v = (omega_s, 0, -delta)
    u_gg = np.cos(theta) + 1j * sin_ratio * delta_c
    u_ee = np.conj(u_gg)
    u_off = -1j * sin_ratio * omega_s
    g = np.ones(omega_s.shape, dtype=complex)
    e = np.zeros(omega_s.shape, dtype=complex)
    recorded = []
    for step in range(n_steps):
        e = e * np.exp(-1j * kicks[step])
        g, e = u_gg * g + u_off * e, u_off * g + u_ee * e
        if (step + 1) % block == 0:
            recorded.append(np.mean(np.abs(e) ** 2, axis=1))
    return np.array(recorded) if record_times is not None else recorded[0]
