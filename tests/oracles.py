"""Closed forms and grids the tests hold the package to.

None is part of the package: `rabi_probability` is the noiseless limit of
`beatnote.expected_excitation`, `voigt_grid` is the grid on which the Voigt
width solvers are compared, and `grid_about` is the symmetric grid most
spectrum tests sample on.
"""

import math

import numpy as np

from beatnote import FrequencyGrid, LineshapeParams, voigt_fwhm_approx


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
