"""Analytic beat-note model, Monte-Carlo oracle, and servo bumps."""

import math
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve, welch
from scipy.stats import chi2

from beatnote import (
    SPEED_OF_LIGHT,
    DshiParams,
    FrequencyGrid,
    LineshapeParams,
    NoiseModel,
    ServoBumpModel,
    SimConfig,
    SpectrumTrace,
    analytic_psd,
    apply_rbw,
    extract_servo_bumps,
    extrema_spacing,
    inject_servo_bumps,
    simulate_time_domain,
    voigt_beat_note,
    width_at_level,
)
from beatnote import dshi, lineshape
from beatnote.dshi import (
    _bump_multiplier,
    _fft_length,
    _flicker_increments,
    _flicker_sigma,
    _hann,
    _one_sided_density,
    _periodogram_rows,
    _wing_and_envelope,
)
from beatnote.errors import (
    DomainError,
    GridMismatchError,
    InvalidParameterError,
    ResolutionError,
)
from beatnote.estimate import mask_central_bins
from oracles import grid_about, two_sided_density

P5KM = dict(eom_frequency=7e6, laser_fwhm=100.0, fiber_length=5e3, fiber_index=1.468)


# A single-threaded oracle that draws every noise block from its key in
# order, as the bit-identity reference: block k of stream s (0 white FM,
# 1 the 1/f spectrum, 2 RIN) is 2**18 standard normals from
# SeedSequence(seed, spawn_key=(s, k)).

KEY_BLOCK = 1 << 18


def keyed_normals(seed: int, stream: int, size: int) -> np.ndarray:
    """size standard normals of one stream, its blocks drawn in order."""
    blocks = []
    for k in range(-(-size // KEY_BLOCK)):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(stream, k)))
        blocks.append(rng.standard_normal(min(KEY_BLOCK, size - k * KEY_BLOCK)))
    return np.concatenate(blocks)


def smooth_length(n: int) -> int:
    """Smallest even 2^a 3^b 5^c >= n, by search."""
    m = max(2, n + n % 2)
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 2


def serial_flicker_increments(level: float, n: int, dt: float,
                              seed: int) -> np.ndarray:
    """Phase increments (rad) over n samples of step dt of 1/f frequency
    noise with a one-sided PSD of level/f.

    Spectral synthesis (Timmer & Koenig 1995, A&A 300, 707): Gaussian
    Fourier amplitudes on the smallest even 5-smooth length m >= n,
    inverted and truncated to n samples.  E|X_k|^2 = S(f_k) m / (2 dt)
    makes the one-sided periodogram S(f_k); with f_k = k / (m dt) and
    2 pi dt rad per Hz, each part of bin 0 < k < m/2 has the variance
    (m pi dt)^2 level / k.  DC carries nothing, and Nyquist, a real bin,
    the variance of its whole bin.  The real and imaginary parts interleave
    in one keyed stream.
    """
    m = smooth_length(n)
    k = np.arange(m // 2 + 1, dtype=float)
    var = np.zeros(k.size)
    var[1:] = (m * math.pi * dt) ** 2 * level / k[1:]
    var[-1] *= 2.0
    parts = keyed_normals(seed, 1, 2 * k.size)
    re, im = parts[0::2], parts[1::2]
    return np.fft.irfft(np.sqrt(var) * (re + 1j * im), m)[:n]


def serial_phase(noise: NoiseModel, n: int, dt: float, seed: int,
                 hold: int) -> np.ndarray:
    """The phase (rad) over n samples: the Wiener phase of white FM, whose
    increment variance pi * fwhm * dt gives the per-arm autocorrelation
    exp(-pi (fwhm/2) |tau|), plus, with flicker, 1/f increments drawn on a
    grid hold samples coarser, each spread evenly over its hold samples."""
    increments = (math.sqrt(math.pi * noise.white_fm_fwhm * dt)
                  * keyed_normals(seed, 0, n))
    if noise.flicker_level > 0:
        coarse = serial_flicker_increments(
            noise.flicker_level, -(-n // hold), hold * dt, seed)
        increments += np.repeat(coarse / hold, hold)[:n]
    return np.cumsum(increments)


def serial_welch_density(x: np.ndarray, fs: float, nperseg: int) -> np.ndarray:
    """One-sided Welch PSD of x over non-overlapping segments of nperseg.

    Each segment loses its mean and takes a periodic Hann window; the
    scaling and the one-sided doubling (not of DC, nor of the Nyquist bin of
    an even nperseg) are those of scipy.signal.welch with scaling="density".
    len(x) must be a multiple of nperseg.
    """
    segments = x.reshape(-1, nperseg)
    segments = segments - segments.mean(axis=1, keepdims=True)
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(nperseg) / nperseg)
    segments *= window
    spectra = np.fft.rfft(segments, axis=1)
    psd = (spectra.real ** 2 + spectra.imag ** 2).mean(axis=0)
    psd /= fs * np.sum(window ** 2)
    psd[1:(nperseg + 1) // 2] *= 2.0
    return psd


def serial_simulate_time_domain(params: DshiParams, noise: NoiseModel,
                                cfg: SimConfig) -> SpectrumTrace:
    """Monte-Carlo beat-note PSD from explicit time-domain phase noise.

    Synthesizes one field's Wiener phase (per-arm autocorrelation
    exp(-pi (fwhm/2) |tau|), so the two arms beat to a Lorentzian of FWHM
    white_fm_fwhm), plus optional 1/f frequency and intensity noise.  One
    copy is delayed by the fiber transit time and shifted by the EOM
    frequency; the detected power, a real cosine of the arms' phase
    difference, is Welch-averaged over non-overlapping Hann segments and
    halved to the two-sided density convention of analytic_psd.
    """
    fs = cfg.sample_rate
    if fs < 8.0 * params.eom_frequency:
        raise ResolutionError(
            f"sample rate {fs:g} Hz undersamples the beat; need >= 8 * f_eom"
        )
    t_d = params.delay
    if cfg.duration < 50.0 * t_d:
        raise ResolutionError(
            f"duration {cfg.duration:g} s too short; need >= 50 * delay ({50 * t_d:g} s)"
        )
    delay_n = int(round(t_d * fs))
    if delay_n < 1:
        raise ResolutionError("delay shorter than one sample at this rate")

    nperseg = int(fs * cfg.duration) // cfg.segments
    n_total = nperseg * cfg.segments
    n_field = n_total + delay_n
    dt = 1.0 / fs

    # 1/f noise held over a 32nd of the delay.
    phase = serial_phase(noise, n_field, dt, cfg.seed, max(1, delay_n // 32))

    # Arms sqrt(I) e^{i phi}: |direct|^2 + |delayed|^2 + 2 Re(conj(direct) delayed
    # e^{iwt}) = I_dir + I_del + 2 sqrt(I_dir I_del) cos(phi_del - phi_dir + wt).
    beat = np.arange(n_total) * (2.0 * math.pi * params.eom_frequency * dt)
    beat += phase[:n_total] - phase[delay_n:]
    np.cos(beat, out=beat)
    half = 0.5 * params.optical_power
    if noise.rin_sigma > 0:
        intensity = np.maximum(
            1.0 + noise.rin_sigma * keyed_normals(cfg.seed, 2, n_field), 0.0)
        beat *= 2.0 * half * np.sqrt(intensity[delay_n:] * intensity[:n_total])
        beat += half * (intensity[delay_n:] + intensity[:n_total])
    else:
        beat = 2.0 * half * (beat + 1.0)

    psd = serial_welch_density(beat, fs, nperseg)
    grid = FrequencyGrid(0.0, 1.0 / (nperseg * dt), psd.size)
    # Halve the one-sided Welch estimate: the analytic model is two-sided.
    return SpectrumTrace(grid, psd / 2.0, rbw=fs / nperseg)


def flicker_frequency_noise(level, n, dt, seed, hold):
    """The oracle's 1/f noise over n samples, read as a frequency (Hz): the
    package's keyed 1/f increments on a grid hold samples coarser, each
    held over its hold samples."""
    coarse = _flicker_increments(level, -(-n // hold), hold * dt, seed)
    return np.repeat(coarse, hold)[:n] / (2.0 * math.pi * hold * dt)


def assert_one_over_f(nu, level, fs, top):
    """The Welch PSD of nu times f reads level within 1 dB in every octave
    band from 50 Hz to top that holds at least three bins."""
    f, psd = welch(nu, fs=fs, nperseg=1 << 15, noverlap=0)
    edges = 10.0 ** np.arange(1.7, 5.4, 0.3)
    edges = edges[edges <= top * (1.0 + 1e-9)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        band = (f >= lo) & (f < hi)
        if np.count_nonzero(band) >= 3:
            dev_db = 10.0 * math.log10(np.mean(psd[band] * f[band]) / level)
            assert abs(dev_db) < 1.0, (lo, hi, dev_db)


def flicker_structure_function(level, tau_d, tau):
    """D_flicker: the variance of dphi(t + tau) - dphi(t), dphi(t) =
    phi(t) - phi(t - tau_d), of 1/f noise with a one-sided PSD of level/f:
    -2 level sum_j a_j c_j^2 ln c_j with a = (1, 1, -1/2, -1/2),
    c = 2 pi (tau_d, tau, tau_d + tau, |tau_d - tau|) and 0 ln 0 = 0."""
    total = 0.0
    for a, c in zip((1.0, 1.0, -0.5, -0.5),
                    (tau_d, tau, tau_d + tau, abs(tau_d - tau))):
        if c > 0:
            total += a * (2.0 * math.pi * c) ** 2 * math.log(2.0 * math.pi * c)
    return -2.0 * level * total


def held_structure_function(level, n, dt, delay_n, hold, lag):
    """The exact expected variance of dphi(t + lag) - dphi(t), dphi(t) =
    phi(t) - phi(t - delay_n) (lags in samples), of the oracle's 1/f phase
    over n samples held over hold, averaged over t's place within a hold.

    The phase is the coarse phase linearly interpolated, so a difference
    phi(b) - phi(a) weights coarse increment i by the share of coarse step
    i inside [a, b]: w_i = clip(b/hold - i, 0, 1) - clip(a/hold - i, 0, 1).
    The coarse increments are the inverse transform of independent parts
    of standard deviation sigma_j (_flicker_sigma), so sum_i w_i c_i has
    the variance (4 sum_{0<j<m/2} sigma_j^2 |W_j|^2 + sigma_{m/2}^2
    |W_{m/2}|^2) / m^2, W = rfft(w) on the m points of the transform.
    """
    m = _fft_length(-(-n // hold))
    weight = _flicker_sigma(level, m, hold * dt) ** 2
    weight[1:-1] *= 4.0
    i = np.arange(m)
    share = lambda u: np.clip(u / hold - i, 0.0, 1.0)
    total = 0.0
    for r in range(hold):
        w = (share(r + lag + delay_n) - share(r + lag)
             - share(r + delay_n) + share(r))
        spectrum = np.fft.rfft(w)
        total += np.sum(weight * (spectrum.real ** 2 + spectrum.imag ** 2))
    return total / (hold * m * m)


def oracle_hold(monkeypatch, params, sample_rate):
    """The hold simulate_time_domain gives the 1/f noise for params at
    sample_rate, read from its call of _noise_tracks."""
    holds = []
    tracks = dshi._noise_tracks

    def spy(noise, n, dt, seed, hold):
        holds.append(hold)
        return tracks(noise, n, dt, seed, hold)

    with monkeypatch.context() as patch:
        patch.setattr(dshi, "_noise_tracks", spy)
        simulate_time_domain(params, NoiseModel(0.0, 1e3), SimConfig(
            sample_rate=sample_rate, duration=60.0 * params.delay, seed=1))
    return holds[0]


def welch_density(x, fs, nperseg):
    """The package's Welch rows and scaling over all of x at once."""
    window = _hann(nperseg)
    power = np.empty((x.size // nperseg, nperseg // 2 + 1))
    _periodogram_rows(x.reshape(-1, nperseg).copy(), window,
                      np.empty(power.shape, complex), power)
    return _one_sided_density(power, fs, window)


def reference_simulate_time_domain(params, noise, cfg):
    """Independent beat: the same keyed draws as simulate_time_domain, but
    an explicit complex field sqrt(I) e^{i phi} and the photocurrent
    |direct|^2 + |delayed|^2 + 2 Re(conj(direct) delayed e^{iwt}).  Returns
    the halved Welch density."""
    fs = cfg.sample_rate
    delay_n = int(round(params.delay * fs))
    nperseg = int(fs * cfg.duration) // cfg.segments
    n_total = nperseg * cfg.segments
    n_field = n_total + delay_n
    dt = 1.0 / fs
    field = np.exp(1j * serial_phase(noise, n_field, dt, cfg.seed,
                                     max(1, delay_n // 32)))
    if noise.rin_sigma > 0:
        intensity = 1.0 + noise.rin_sigma * keyed_normals(cfg.seed, 2, n_field)
        field *= np.sqrt(np.maximum(intensity, 0.0))
    direct, delayed = field[delay_n:], field[:n_total]
    t = np.arange(n_total) * dt
    half = 0.5 * params.optical_power
    beat = half * (np.abs(direct) ** 2 + np.abs(delayed) ** 2)
    beat += 2.0 * half * np.real(
        np.conj(direct) * delayed
        * np.exp(1j * (2.0 * math.pi * params.eom_frequency) * t))
    return serial_welch_density(beat, fs, nperseg) / 2.0


class TestDshiParams:
    def test_delay_from_fiber(self):
        params = DshiParams(**P5KM)
        assert params.delay == 1.468 * 5e3 / SPEED_OF_LIGHT
        assert params.delay == pytest.approx(24.48e-6, rel=1e-3)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DshiParams(eom_frequency=0.0, laser_fwhm=100.0)
        with pytest.raises(InvalidParameterError):
            DshiParams(eom_frequency=7e6, laser_fwhm=-1.0)
        with pytest.raises(InvalidParameterError):
            DshiParams(eom_frequency=7e6, laser_fwhm=1.0, fiber_index=2.5)
        with pytest.raises(InvalidParameterError):
            DshiParams(eom_frequency=7e6, laser_fwhm=1.0, optical_power=0.0)

    @pytest.mark.parametrize("field", ["eom_frequency", "laser_fwhm",
                                       "fiber_length", "fiber_index",
                                       "optical_power"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, bad):
        with pytest.raises(InvalidParameterError):
            DshiParams(**{**P5KM, field: bad})


class TestModelValidation:
    @pytest.mark.parametrize("field", ["white_fm_fwhm", "flicker_level", "rin_sigma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_noise_model_rejects_non_finite(self, field, bad):
        with pytest.raises(InvalidParameterError):
            NoiseModel(**{"white_fm_fwhm": 100.0, field: bad})

    @pytest.mark.parametrize("field", ["offset", "width", "height_db"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_servo_bump_rejects_non_finite(self, field, bad):
        with pytest.raises(InvalidParameterError):
            ServoBumpModel(**{"offset": 1e3, "width": 50.0, "height_db": 3.0,
                              field: bad})

    @pytest.mark.parametrize("field", ["offset", "width"])
    @pytest.mark.parametrize("bad", [0.0, -50.0])
    def test_servo_bump_rejects_offset_or_width_not_above_zero(self, field, bad):
        with pytest.raises(InvalidParameterError, match=f"bump {field} must be > 0"):
            ServoBumpModel(**{"offset": 1e3, "width": 50.0, "height_db": 3.0,
                              field: bad})

    @pytest.mark.parametrize("field", ["sample_rate", "duration"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_sim_config_rejects_non_finite_rates(self, field, bad):
        with pytest.raises(InvalidParameterError):
            SimConfig(**{"sample_rate": 8e6, "duration": 0.1, field: bad})

    @pytest.mark.parametrize("segments", [16.5, math.nan, "16"])
    def test_sim_config_rejects_non_integral_segments(self, segments):
        with pytest.raises(InvalidParameterError):
            SimConfig(sample_rate=8e6, duration=0.1, segments=segments)

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_sim_config_rejects_bad_seed(self, seed):
        with pytest.raises(InvalidParameterError):
            SimConfig(sample_rate=8e6, duration=0.1, seed=seed)

    @pytest.mark.parametrize("segments", [400_000, 200_000])
    def test_sim_config_refuses_segments_of_fewer_than_two_samples(self, segments):
        # 0.04 s at 8 MS/s is 320 000 samples: 400 000 segments divided by
        # zero, and 200 000 left one sample each, which the grid refused
        # without naming the cause.
        with pytest.raises(InvalidParameterError,
                           match=f"320000 samples .* {segments} segments"):
            SimConfig(sample_rate=8e6, duration=0.04, segments=segments)
        assert SimConfig(sample_rate=8e6, duration=0.04, segments=160_000)

    def test_sim_config_integral_floats_become_int(self):
        cfg = SimConfig(sample_rate=8e6, duration=0.1, segments=32.0, seed=np.int64(3))
        assert (cfg.segments, cfg.seed) == (32, 3)
        assert type(cfg.segments) is int and type(cfg.seed) is int


class TestSpectrumTrace:
    def test_linear_values_non_negative(self):
        grid = FrequencyGrid(0.0, 1.0, 4)
        with pytest.raises(InvalidParameterError):
            SpectrumTrace(grid, np.array([1.0, -1.0, 0.0, 2.0]))


class TestAnalyticPsd:
    def test_carrier_limit_value(self):
        # Removable singularity: envelope(0) = 1 - exp(-2 pi t_d g)(1 + 2 pi t_d g)
        # with g the per-arm half width laser_fwhm/2.
        params = DshiParams(**P5KM)
        grid = grid_about(7e6, 100e3, 25.0)
        trace = analytic_psd(params, grid)
        gamma = 50.0
        coh = math.exp(-2.0 * math.pi * params.delay * gamma)
        env0 = 1.0 - coh * (1.0 + 2.0 * math.pi * params.delay * gamma)
        wing0 = (1.0 / (4.0 * math.pi)) / gamma
        spike = 0.5 * math.pi * coh / grid.step
        i0 = grid.index_of(7e6)
        assert trace.values[i0] == pytest.approx(wing0 * env0 + spike, rel=1e-12)

    def test_zero_linewidth_envelope_is_one_minus_cos(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=0.0)
        x = np.linspace(-50e3, 50e3, 101)
        grid = FrequencyGrid(params.eom_frequency - 50e3, 1e3, 101)
        wing, envelope = _wing_and_envelope(params, grid)
        assert np.allclose(envelope, 1.0 - np.cos(2.0 * math.pi * params.delay * x),
                           atol=1e-12)
        assert np.all(wing == 0.0)

    def test_power_scaling_pure_gain(self):
        # Doubling P0 scales every continuous value by exactly 4 (+6.02 dB)
        grid = grid_about(7e6, 100e3, 25.0)
        base = analytic_psd(DshiParams(**P5KM), grid)
        boosted = analytic_psd(DshiParams(**{**P5KM, "optical_power": 2.0}), grid)
        assert np.array_equal(boosted.values, base.values * 4.0)
        assert width_at_level(mask_central_bins(base, 3), 20.0) == \
            width_at_level(mask_central_bins(boosted, 3), 20.0)

    def test_eom_shift_is_pure_translation(self):
        step = 25.0
        a = analytic_psd(DshiParams(**P5KM), grid_about(7e6, 100e3, step))
        b = analytic_psd(DshiParams(**{**P5KM, "eom_frequency": 9e6}),
                         grid_about(9e6, 100e3, step))
        assert np.array_equal(a.values, b.values)

    def test_grid_must_cover_carrier(self):
        with pytest.raises(DomainError):
            analytic_psd(DshiParams(**P5KM), FrequencyGrid(0.0, 1.0, 100))

    def test_lorentzian_limit_20db_width(self):
        # Long delay-linewidth product: 20 dB width of the (spike-masked)
        # trace approaches that of a pure Lorentzian of the combined width.
        params = DshiParams(eom_frequency=7e6, laser_fwhm=3.2 / DshiParams(**P5KM).delay)
        grid = grid_about(7e6, 1.5e6, 100.0)
        masked = mask_central_bins(analytic_psd(params, grid), 3)
        w20 = width_at_level(masked, 20.0)
        assert w20 == pytest.approx(math.sqrt(99.0) * params.laser_fwhm, rel=2e-2)

    def test_values_non_negative(self):
        trace = analytic_psd(DshiParams(**P5KM), grid_about(7e6, 200e3, 20.0))
        assert np.all(trace.values >= 0.0)


def direct_envelope(params, grid):
    """1 - coh (cos theta + gamma 2 pi t_d sinc(2 t_d x)), clipped at 0, bin
    by bin from offsets x = start + i step - f0 taken in extended precision."""
    gamma = np.longdouble(params.laser_fwhm / 2.0)
    t_d = np.longdouble(params.delay)
    x = (np.longdouble(grid.start) - np.longdouble(params.eom_frequency)
         + np.longdouble(grid.step) * np.arange(grid.count))
    coh = np.exp(-2 * np.longdouble(np.pi) * t_d * gamma)
    theta = 2 * np.longdouble(np.pi) * t_d * x
    safe = np.where(x == 0, 1, x)
    ratio = np.where(x == 0, 2 * np.longdouble(np.pi) * t_d, np.sin(theta) / safe)
    return np.maximum(1 - coh * (np.cos(theta) + gamma * ratio), 0).astype(float)


class TestEnvelopeByAngleAddition:
    """_wing_and_envelope takes cos theta and sin theta by angle addition
    over rows and a column table, from the grid's own start and step."""

    @pytest.mark.parametrize("params,grid", [
        # A 7.3 Hz step whose nearest bin sits 3.1 Hz below the carrier.
        (DshiParams(**P5KM), FrequencyGrid(7e6 - 3.1 - 7.3 * 13000, 7.3, 26001)),
        # ... and 3.1 Hz above it, with an even count.
        (DshiParams(**P5KM), FrequencyGrid(7e6 + 3.1 - 7.3 * 9000, 7.3, 17322)),
        # Wholly above, and wholly below, the carrier.
        (DshiParams(**P5KM), FrequencyGrid(7e6 + 1234.5, 25.0, 8001)),
        (DshiParams(**P5KM), FrequencyGrid(7e6 - 3e5, 37.1, 7001)),
        # Two points, about and beside the carrier, and small odd grids.
        (DshiParams(**P5KM), FrequencyGrid(7e6 - 3.0, 7.3, 2)),
        (DshiParams(**P5KM), FrequencyGrid(7e6 + 5.0, 7.3, 2)),
        (DshiParams(**P5KM), FrequencyGrid(7e6 - 3 * 7.3, 7.3, 7)),
        (DshiParams(**P5KM), FrequencyGrid(7e6 - 50.0 * 9.7 - 1.3, 9.7, 101)),
        # theta up to 1.5e3 rad: a 200 km fiber over +-244 kHz.
        (DshiParams(eom_frequency=7e6, laser_fwhm=320.0, fiber_length=2e5),
         FrequencyGrid(7e6 - 3.1 - 7.3 * 33450, 7.3, 66901)),
        (DshiParams(eom_frequency=7e6, laser_fwhm=0.0, fiber_length=2e5),
         FrequencyGrid(7e6 - 2.44e5, 97.3, 5001)),
    ], ids=["offset_below", "offset_above_even", "above", "below", "two_about",
            "two_beside", "seven", "odd_101", "theta_1500", "theta_1500_zero_width"])
    def test_matches_direct_formula(self, params, grid):
        _, envelope = _wing_and_envelope(params, grid)
        reference = direct_envelope(params, grid)
        assert envelope.shape == (grid.count,)
        assert np.max(np.abs(envelope - reference)) <= 1e-12

    def test_carrier_bin_takes_the_limit(self):
        params = DshiParams(**P5KM)
        grid = grid_about(7e6, 10e3, 7.3)
        _, envelope = _wing_and_envelope(params, grid)
        i0 = grid.index_of(7e6)
        gamma, t_d = 50.0, params.delay
        coh = math.exp(-2.0 * math.pi * t_d * gamma)
        assert envelope[i0] == pytest.approx(
            1.0 - coh * (1.0 + 2.0 * math.pi * t_d * gamma), rel=1e-12)
        assert np.all(np.isfinite(envelope))


def one_sided_envelope(params, grid):
    """The envelope of _wing_and_envelope from two grids of the same count
    (so the same block) whose first bins lie delta steps above and below the
    carrier, with c the bin nearest it and delta = c + (start - f0) / step.
    Each starts at its own nearest bin, so each is one side(+-delta, n)
    call and never a mirror: bin c + k is bin k of the first and bin c - k
    bin k of the second.  Exact where f0 + delta * step is, as on the
    dyadic grids of carrier_grids."""
    f0, step, n = params.eom_frequency, grid.step, grid.count
    u0 = (grid.start - f0) / step
    c = min(max(round(-u0), 0), n - 1)
    delta = c + u0
    assert abs(delta) <= 0.5
    above = _wing_and_envelope(params, FrequencyGrid(f0 + delta * step, step, n))
    below = _wing_and_envelope(params, FrequencyGrid(f0 - delta * step, step, n))
    return np.concatenate((below[1][c:0:-1], above[1][:n - c]))


@contextmanager
def two_sided_models():
    """Within it, the models take their envelope from one_sided_envelope
    and their Voigt peak from two_sided_density: every bin evaluated at its
    own offset, with no mirror."""
    def wing_and_envelope(params, grid):
        return _wing_and_envelope(params, grid)[0], one_sided_envelope(params, grid)

    with mock.patch.object(dshi, "_wing_and_envelope", wing_and_envelope), \
            mock.patch.object(lineshape, "_voigt_density", two_sided_density):
        yield


@st.composite
def carrier_grids(draw):
    """(params, gaussian_fwhm, grid): 2 to 3000 bins of a step that is a
    multiple of 1/16 Hz, the carrier at 7 MHz a multiple of 1/16 step above
    the start, so every point, offset and f0 +- delta * step is exact.  The
    grid is centred on it (on a bin for an odd count, midway between two
    for an even one), or has it on any bin, or up to half a step off one,
    up to half a step outside the grid included: asymmetric spans and grids
    wholly on one side.  Widths from 0.1 to 3000 steps reach both Faddeeva
    regions and the asymptotic series alone (y > 12); one laser in eight
    has no width."""
    step = draw(st.integers(1, 4000)) / 16.0
    n = draw(st.integers(2, 3000))
    if draw(st.booleans()):
        steps_below = (n - 1) / 2
    else:
        steps_below = draw(st.integers(0, n - 1)) + draw(
            st.sampled_from([0.0, 0.5, -0.5, 0.25, -0.0625, 0.4375]))
    gaussian = step * 10.0 ** draw(st.floats(-1.0, 3.0))
    laser = step * 10.0 ** draw(st.floats(-1.0, 3.5)) if draw(
        st.integers(0, 7)) else 0.0
    params = DshiParams(eom_frequency=7e6, laser_fwhm=laser,
                        fiber_length=draw(st.floats(1e3, 2e4)))
    return params, gaussian, FrequencyGrid(7e6 - steps_below * step, step, n)


class TestEvenAboutTheCarrier:
    """On a grid centred on the carrier every model is a bitwise palindrome:
    estimate_voigt's masked plateau is then exactly flat, and its peak bin
    (the lowest of the flat maximum) does not move with a one-ulp difference
    between the two sides.  The package mirrors one side onto the other
    there, so the palindrome is asked of the two-sided evaluation, and the
    models are asked to equal it."""

    @pytest.mark.parametrize("laser,gaussian,step,half_span", [
        (320.0, 640.0, 10.0, 64e3),    # estimate-batch: both Faddeeva regions
        (320.0, 10.0, 2.5, 30e3),      # y > 12: the asymptotic series alone
        (2e3, 140.0, 0.5, 8e3),        # y = 11.9: a narrow Weideman slice
        (100.0, 5e3, 25.0, 2e5),       # Gaussian-dominated
    ])
    def test_models_are_palindromes(self, laser, gaussian, step, half_span):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=laser, fiber_length=4321.0)
        grid = grid_about(7e6, half_span, step)
        offsets = grid.points() - 7e6
        assert np.array_equal(offsets, -offsets[::-1])
        models = (*_wing_and_envelope(params, grid), analytic_psd(params, grid).values,
                  voigt_beat_note(params, gaussian, grid).values)
        with two_sided_models():
            two_sided = (*dshi._wing_and_envelope(params, grid),
                         analytic_psd(params, grid).values,
                         voigt_beat_note(params, gaussian, grid).values)
        for values, reference in zip(models, two_sided):
            assert np.array_equal(reference, reference[::-1])
            assert np.array_equal(values, reference)

    @given(case=carrier_grids())
    @settings(max_examples=200)
    def test_mirrored_equals_two_sided(self, case):
        params, gaussian, grid = case
        offsets = grid.points() - params.eom_frequency
        peak = LineshapeParams(0.0, gaussian, params.laser_fwhm or gaussian)
        assert np.array_equal(lineshape._voigt_density(offsets, peak),
                              two_sided_density(offsets, peak))
        assert np.array_equal(_wing_and_envelope(params, grid)[1],
                              one_sided_envelope(params, grid))
        if grid.covers(params.eom_frequency):
            models = (analytic_psd(params, grid).values,
                      voigt_beat_note(params, gaussian, grid).values)
            with two_sided_models():
                two_sided = (analytic_psd(params, grid).values,
                             voigt_beat_note(params, gaussian, grid).values)
            for values, reference in zip(models, two_sided):
                assert np.array_equal(values, reference)

    def test_masked_plateau_peak_is_the_lowest_bin(self):
        # The five centre bins are exactly equal once the three nearest the
        # maximum are masked, so the peak search takes the lowest of them.
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        grid = grid_about(7e6, 64e3, 10.0)
        masked = mask_central_bins(voigt_beat_note(params, 640.0, grid), 3).values
        c = grid.index_of(7e6)
        assert np.all(masked[c - 2:c + 3] == masked[c])
        assert int(np.argmax(masked)) == c - 2


class TestExtremaSpacing:
    def test_spacing_value(self):
        params = DshiParams(**P5KM)
        assert extrema_spacing(params) == pytest.approx(20421.83, abs=0.5)

    def test_doubling_length_halves_spacing(self):
        p1 = DshiParams(**P5KM)
        p2 = DshiParams(**{**P5KM, "fiber_length": 10e3})
        assert extrema_spacing(p2) == pytest.approx(extrema_spacing(p1) / 2.0, rel=1e-12)


class TestMonteCarlo:
    def test_matches_analytic_model(self):
        params = DshiParams(eom_frequency=1e6, laser_fwhm=320.0)
        fs, nper, segs = 8e6, 32000, 32
        cfg = SimConfig(sample_rate=fs, duration=segs * nper / fs,
                        segments=segs, seed=20)
        mc = simulate_time_domain(params, NoiseModel(white_fm_fwhm=320.0), cfg)
        ana = analytic_psd(params, mc.grid)
        sel = np.flatnonzero(np.abs(mc.grid.points() - 1e6) <= 200e3)
        sel = sel[np.abs(sel - mc.grid.index_of(1e6)) > 1]
        dev = 10.0 * np.log10(mc.values[sel] / ana.values[sel])
        assert math.sqrt(np.mean(dev**2)) < 1.5

    def test_deterministic_for_fixed_seed(self):
        params = DshiParams(eom_frequency=1e6, laser_fwhm=5e3)
        cfg = SimConfig(sample_rate=8e6, duration=16 * 4096 / 8e6,
                        segments=16, seed=3)
        noise = NoiseModel(white_fm_fwhm=5e3, rin_sigma=0.01)
        a = simulate_time_domain(params, noise, cfg)
        b = simulate_time_domain(params, noise, cfg)
        assert np.array_equal(a.values, b.values)

    def test_zero_linewidth_is_pure_line(self):
        params = DshiParams(eom_frequency=1e6, laser_fwhm=0.0)
        cfg = SimConfig(sample_rate=8e6, duration=16 * 8192 / 8e6,
                        segments=16, seed=1)
        tr = simulate_time_domain(params, NoiseModel(white_fm_fwhm=0.0), cfg)
        i0 = tr.grid.index_of(1e6)
        line = np.sum(tr.values[i0 - 2:i0 + 3])
        assert line / np.sum(tr.values) > 0.99

    def test_rin_leaves_width_but_raises_floor(self):
        # Intensity noise must not masquerade as linewidth.
        params = DshiParams(eom_frequency=1e6, laser_fwhm=50e3)
        fs, nper, segs = 8e6, 16384, 48
        cfg = SimConfig(sample_rate=fs, duration=segs * nper / fs,
                        segments=segs, seed=99)
        results = {}
        for rin in (0.0, 0.05):
            tr = simulate_time_domain(
                params, NoiseModel(white_fm_fwhm=50e3, rin_sigma=rin), cfg)
            w20 = width_at_level(mask_central_bins(tr, 3), 20.0)
            floor = np.median(tr.values[np.abs(tr.grid.points() - 3.5e6) < 0.4e6])
            results[rin] = (w20, floor)
        assert abs(results[0.05][0] / results[0.0][0] - 1.0) < 0.02
        assert results[0.05][1] > 1.2 * results[0.0][1]

    def test_sampling_preconditions(self):
        params = DshiParams(eom_frequency=1e6, laser_fwhm=100.0)
        with pytest.raises(ResolutionError):
            simulate_time_domain(params, NoiseModel(100.0),
                                 SimConfig(sample_rate=2e6, duration=0.1))
        with pytest.raises(ResolutionError):
            simulate_time_domain(params, NoiseModel(100.0),
                                 SimConfig(sample_rate=8e6, duration=1e-4))
        with pytest.raises(InvalidParameterError):
            SimConfig(sample_rate=8e6, duration=0.1, segments=4)

    def test_delay_shorter_than_one_sample_refused(self):
        # 1 m of fiber delays the copy by 4.9 ns, 0.04 samples at 8 MS/s.
        params = DshiParams(eom_frequency=1e6, laser_fwhm=100.0,
                            fiber_length=1.0)
        with pytest.raises(ResolutionError, match="shorter than one sample"):
            simulate_time_domain(params, NoiseModel(100.0),
                                 SimConfig(sample_rate=8e6, duration=2e-3))

    def test_flicker_noise_follows_one_over_f(self):
        # Unheld: 50 Hz to 200 kHz at 2 MS/s.
        level, n, dt = 1e4, 1_500_000, 5e-7
        nu = flicker_frequency_noise(level, n, dt, seed=42, hold=1)
        assert_one_over_f(nu, level, 1.0 / dt, 2e5)

    def test_held_flicker_noise_follows_one_over_f(self):
        # Held over 5 samples, the frequency is a staircase whose PSD falls
        # by 0.9 dB at fs / (4 hold) = 100 kHz: 1/f within 1 dB up to there.
        level, n, dt, hold = 1e4, 1_500_000, 5e-7, 5
        nu = flicker_frequency_noise(level, n, dt, seed=42, hold=hold)
        assert_one_over_f(nu, level, 1.0 / dt, 1.0 / (4.0 * hold * dt))

    @pytest.mark.parametrize("noise, seed", [
        (NoiseModel(white_fm_fwhm=320.0), 4),
        (NoiseModel(white_fm_fwhm=320.0, flicker_level=1e4, rin_sigma=0.05), 9),
    ], ids=["white_fm", "flicker_rin"])
    def test_matches_complex_field_reference(self, noise, seed):
        params = DshiParams(eom_frequency=1e6, laser_fwhm=320.0)
        cfg = SimConfig(sample_rate=8e6, duration=16 * 16384 / 8e6,
                        segments=16, seed=seed)
        expected = reference_simulate_time_domain(params, noise, cfg)
        values = simulate_time_domain(params, noise, cfg).values
        assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(expected)

    def test_peak_memory_below_72_bytes_per_sample(self):
        # One complex array over all samples costs 16 B a sample; the real
        # beat with flicker and RIN peaks near 29 B, a complex field above 100.
        params = DshiParams(eom_frequency=1e6, laser_fwhm=320.0)
        noise = NoiseModel(white_fm_fwhm=320.0, flicker_level=1e3, rin_sigma=1e-3)
        cfg = SimConfig(sample_rate=8e6, duration=512_000 / 8e6, segments=16, seed=1)
        tracemalloc.start()
        try:
            simulate_time_domain(params, noise, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 512_000 < 72.0

    @pytest.mark.parametrize("noise", [
        NoiseModel(white_fm_fwhm=320.0),
        NoiseModel(white_fm_fwhm=320.0, rin_sigma=0.05),
        NoiseModel(white_fm_fwhm=320.0, flicker_level=1e4),
        NoiseModel(white_fm_fwhm=320.0, flicker_level=1e4, rin_sigma=0.05),
    ], ids=["white_fm", "rin", "flicker", "flicker_rin"])
    @pytest.mark.parametrize("segments, nperseg", [(17, 4095), (16, 20000)])
    def test_bit_identical_to_serial(self, noise, segments, nperseg):
        # Same draws, same operations in the same order: the two lanes must
        # not move a single bit, with an odd segment count and length and a
        # last chunk shorter than the others.
        params = DshiParams(eom_frequency=1e6, laser_fwhm=320.0)
        cfg = SimConfig(sample_rate=8e6, duration=segments * nperseg / 8e6,
                        segments=segments, seed=5)
        expected = serial_simulate_time_domain(params, noise, cfg)
        trace = simulate_time_domain(params, noise, cfg)
        assert trace.grid == expected.grid and trace.rbw == expected.rbw
        assert np.array_equal(trace.values, expected.values)

    @pytest.mark.parametrize("noise", [
        NoiseModel(white_fm_fwhm=320.0),
        NoiseModel(white_fm_fwhm=320.0, flicker_level=1e4),
        NoiseModel(white_fm_fwhm=320.0, flicker_level=1e4, rin_sigma=0.05),
    ], ids=["white_fm", "flicker", "flicker_rin"])
    def test_bit_identical_whatever_the_lane_order(self, monkeypatch, noise):
        # 16 x 20000 samples put the white FM and the RIN in two keyed
        # blocks each and the beat in six chunks.  Every list's tasks run
        # on one thread, reversed and in a fixed shuffled order, handed
        # lanes 0 and 1 in turn so both lanes' scratch buffers are reused.
        params = DshiParams(eom_frequency=1e6, laser_fwhm=320.0)
        cfg = SimConfig(sample_rate=8e6, duration=16 * 20000 / 8e6,
                        segments=16, seed=5)
        expected = simulate_time_domain(params, noise, cfg)
        shuffle = np.random.default_rng(2024).permutation
        for order in (lambda n: range(n)[::-1], shuffle):
            sizes = []

            def one_thread(tasks):
                tasks = list(tasks)
                sizes.append(len(tasks))
                for i, j in enumerate(order(len(tasks))):
                    tasks[j](i % 2)

            with monkeypatch.context() as patch:
                patch.setattr(dshi, "_in_two_lanes", one_thread)
                trace = simulate_time_domain(params, noise, cfg)
            assert len(sizes) == 3 and sizes[0] >= 2 and sizes[2] == 6
            assert np.array_equal(trace.values, expected.values)

    def test_white_phase_is_a_prefix_of_a_longer_record(self):
        # Keys name the block, not the record length: a shorter track is
        # the start of a longer one, across a block boundary.
        noise, dt = NoiseModel(white_fm_fwhm=320.0), 1.0 / 8e6
        n1, n2 = 300_001, 600_000
        short, _ = dshi._noise_tracks(noise, n1, dt, 3, 6)
        long, _ = dshi._noise_tracks(noise, n2, dt, 3, 6)
        assert np.array_equal(long[:n1], short)

    def test_lanes_end_with_the_call(self, monkeypatch):
        # A task that raises, the 1/f synthesis or a beat chunk, reaches
        # the caller, and no thread outlives the call.
        params = DshiParams(eom_frequency=1e6, laser_fwhm=320.0)
        noise = NoiseModel(white_fm_fwhm=320.0, flicker_level=1e4, rin_sigma=0.05)
        cfg = SimConfig(sample_rate=8e6, duration=16 * 4096 / 8e6,
                        segments=16, seed=1)
        before = threading.active_count()
        simulate_time_domain(params, noise, cfg)
        assert threading.active_count() == before

        class LaneFailure(Exception):
            pass

        def failing(*args):
            raise LaneFailure("task failed")

        for name in ("_flicker_increments", "_periodogram_rows"):
            with monkeypatch.context() as patch:
                patch.setattr(dshi, name, failing)
                with pytest.raises(LaneFailure):
                    simulate_time_domain(params, noise, cfg)
            assert threading.active_count() == before, name

    def test_two_lanes_run_each_task_once(self):
        # Thousands of tiny tasks that each let the other lane run, with
        # the interpreter switching threads every microsecond: a task
        # popped twice or lost would show.
        ran, interval = [], sys.getswitchinterval()

        def task(i, lane):
            time.sleep(0)
            ran.append((i, lane))

        sys.setswitchinterval(1e-6)
        try:
            dshi._in_two_lanes(partial(task, i) for i in range(5000))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(i for i, _ in ran) == list(range(5000))
        assert {lane for _, lane in ran} <= {0, 1}

    def test_first_exception_stops_both_lanes(self):
        # Lane 1 sleeps in its task, and lane 0 raises in its own once
        # lane 1 is inside: the caller must wait for lane 1, and then
        # neither lane may start another task.
        inside, late = threading.Event(), []

        def first(lane):
            if lane == 1:
                inside.set()
                time.sleep(0.2)
            else:
                assert inside.wait(10.0)
                raise ValueError("first")

        tasks = [first, first] + [lambda lane: late.append(lane)] * 20
        before = threading.active_count()
        with pytest.raises(ValueError, match="first"):
            dshi._in_two_lanes(tasks)
        assert threading.active_count() == before
        assert late == []

    @pytest.mark.parametrize("nperseg", [4096, 4095])
    def test_welch_matches_scipy(self, nperseg):
        x = 3.0 + np.random.default_rng(5).standard_normal(16 * nperseg)
        _, expected = welch(x, fs=8e6, window="hann", nperseg=nperseg, noverlap=0,
                            detrend="constant", scaling="density")
        psd = welch_density(x, 8e6, nperseg)
        assert np.max(np.abs(psd / expected - 1.0)) <= 1e-12


class TestNoiseTracks:
    """_noise_tracks against the serial oracle, bit for bit: one draw block
    and one block + 1 sample, a hold that divides a block and one that
    does not (7), with and without 1/f noise and RIN."""

    @pytest.mark.parametrize("noise", [
        NoiseModel(white_fm_fwhm=320.0),
        NoiseModel(white_fm_fwhm=320.0, rin_sigma=0.05),
        NoiseModel(white_fm_fwhm=320.0, flicker_level=1e4),
        NoiseModel(white_fm_fwhm=320.0, flicker_level=1e4, rin_sigma=0.05),
    ], ids=["white_fm", "rin", "flicker", "flicker_rin"])
    @pytest.mark.parametrize("hold", [1, 7])
    @pytest.mark.parametrize("n", [KEY_BLOCK, KEY_BLOCK + 1],
                             ids=["one_block", "one_block_plus_one"])
    def test_bit_identical_to_serial_phase(self, n, hold, noise):
        dt, seed = 1.0 / 8e6, 3
        phase, intensity = dshi._noise_tracks(noise, n, dt, seed, hold)
        assert np.array_equal(phase, serial_phase(noise, n, dt, seed, hold))
        if noise.rin_sigma > 0:
            expected = np.maximum(
                1.0 + noise.rin_sigma * keyed_normals(seed, 2, n), 0.0)
            assert np.array_equal(intensity, expected)
        else:
            assert intensity is None


class TestPhaseSpectrum:
    @pytest.mark.parametrize("m", [6, 8])
    def test_flicker_increments_carry_each_bins_variance(self, m):
        # 1/f increments on m samples: over the seeds, every DFT bin
        # 0 < j <= m/2 must carry the power m S(f_j) / (2 dt) of the
        # one-sided PSD S(f) = (2 pi dt)^2 level / f, in two parts for a
        # complex bin and one for the real Nyquist bin: each bin's sum of
        # power over that mean, times its parts, is chi^2 with parts x
        # seeds degrees of freedom.  A halved Nyquist bin reads half its
        # mean, far outside its band.
        level, dt, seeds = 1e4, 1e-6, 8000
        x = np.array([_flicker_increments(level, m, dt, seed)
                      for seed in range(seeds)])
        power = np.abs(np.fft.rfft(x, axis=1)[:, 1:]) ** 2
        j = np.arange(1, m // 2 + 1)
        mean = m * (2.0 * math.pi * dt) ** 2 * level * (m * dt / j) / (2.0 * dt)
        parts = np.where(j < m // 2, 2, 1)
        statistic = parts * power.sum(axis=0) / mean
        dof = parts * seeds
        assert np.all(chi2.ppf(1e-6, dof) < statistic)
        assert np.all(statistic < chi2.isf(1e-6, dof))

    def test_fft_length_is_the_smallest_even_5_smooth_number(self):
        assert [_fft_length(n) for n in range(1, 5001)] == [
            smooth_length(n) for n in range(1, 5001)]
        assert _fft_length(2_048_196) == smooth_length(2_048_196) == 2_073_600


class TestHeldFlicker:
    """The oracle's 1/f phase, held over a 32nd of the delay, against
    D_flicker at the 5 km delay, 8 MS/s and the benchmark's record."""

    PARAMS = DshiParams(eom_frequency=1e6, laser_fwhm=320.0)
    FS, N, LEVEL, DELAY_N = 8e6, 2_048_196, 1e3, 196

    def ratio(self, phase_sf, k):
        dt = 1.0 / self.FS
        closed = flicker_structure_function(self.LEVEL, self.DELAY_N * dt,
                                            k * self.DELAY_N * dt)
        return phase_sf / closed

    def test_exact_bias_under_1e_3(self, monkeypatch):
        assert round(self.PARAMS.delay * self.FS) == self.DELAY_N
        hold = oracle_hold(monkeypatch, self.PARAMS, self.FS)

        def exact(hold, k):
            return self.ratio(held_structure_function(
                self.LEVEL, self.N, 1.0 / self.FS, self.DELAY_N, hold,
                k * self.DELAY_N), k)

        for k in (1, 4, 40):
            assert abs(exact(hold, k) - 1.0) < 1e-3, k
        # The check bites: held over an eighth of the delay, 0.9895.
        assert abs(exact(self.DELAY_N // 8, 1) - 1.0) > 1e-3

    def test_twelve_seeds_at_the_delay(self, monkeypatch):
        # Unheld, seeds 0-11 read 1.000 +- 0.005 (mean +- standard error)
        # of the closed form at the delay; held, they must stay in that band.
        hold = oracle_hold(monkeypatch, self.PARAMS, self.FS)
        d, ratios = self.DELAY_N, []
        for seed in range(12):
            phase, _ = dshi._noise_tracks(NoiseModel(0.0, self.LEVEL), self.N,
                                          1.0 / self.FS, seed, hold)
            dphi = phase[d:] - phase[:-d]
            step = dphi[d:] - dphi[:-d]
            ratios.append(self.ratio(np.mean(step * step), 1))
        assert abs(np.mean(ratios) - 1.0) < 5e-3


class TestServoBumps:
    def setup_method(self):
        self.params = DshiParams(**P5KM)
        self.grid = grid_about(7e6, 90e3, 10.0)
        self.clean = analytic_psd(self.params, self.grid)
        self.bump = ServoBumpModel(offset=50e3, width=15e3, height_db=10.0)

    def test_identity_bump(self):
        flat = inject_servo_bumps(
            self.clean, ServoBumpModel(offset=30e3, width=10e3, height_db=0.0),
            carrier_hz=7e6)
        assert np.array_equal(flat.values, self.clean.values)

    def test_inject_extract_roundtrip(self):
        bumped = inject_servo_bumps(self.clean, self.bump, carrier_hz=7e6)
        ratio = extract_servo_bumps(bumped, self.clean)
        expected = _bump_multiplier(self.bump, 7e6, self.grid.points())
        assert np.max(np.abs(ratio.values / expected - 1.0)) < 1e-6

    def test_orders_two_three_distorted(self):
        # Bumps at +-50 kHz against 20.4 kHz spacing hit orders 2-3 by > 1 dB.
        bumped = inject_servo_bumps(self.clean, self.bump, carrier_hz=7e6)
        spacing = extrema_spacing(self.params)
        for order in (2, 3):
            i = self.grid.index_of(7e6 + order * spacing)
            change = 10.0 * math.log10(bumped.values[i] / self.clean.values[i])
            assert change > 1.0

    def test_self_division_is_unity(self):
        ratio = extract_servo_bumps(self.clean, self.clean)
        assert np.array_equal(ratio.values, np.ones(self.grid.count))

    def test_noisy_ratio_unbiased(self):
        rng = np.random.default_rng(11)
        noisy_db = lambda: 10.0 ** (rng.normal(0.0, 0.1, self.grid.count) / 10.0)
        measured = SpectrumTrace(self.grid, self.clean.values * noisy_db())
        model = SpectrumTrace(self.grid, self.clean.values * noisy_db())
        ratio_db = 10.0 * np.log10(extract_servo_bumps(measured, model).values)
        assert abs(np.mean(ratio_db)) < 0.02
        assert np.std(ratio_db) < 0.2

    def test_grid_mismatch_rejected(self):
        other = analytic_psd(self.params, grid_about(7e6, 90e3, 20.0))
        with pytest.raises(GridMismatchError):
            extract_servo_bumps(self.clean, other)

    def test_zero_model_bin_rejected(self):
        values = self.clean.values.copy()
        values[5] = 0.0
        model = SpectrumTrace(self.grid, values)
        with pytest.raises(DomainError):
            extract_servo_bumps(self.clean, model)

    def test_narrowest_bump_is_one_bin_each_side_without_warning(self):
        bump = ServoBumpModel(offset=50e3, width=1e-300, height_db=10.0)
        bumped = inject_servo_bumps(self.clean, bump, carrier_hz=7e6)
        multiplier = _bump_multiplier(bump, 7e6, self.grid.points())
        assert np.flatnonzero(multiplier != 1.0).tolist() == [
            self.grid.index_of(7e6 - 50e3), self.grid.index_of(7e6 + 50e3)]
        assert multiplier.max() == 10.0
        assert np.array_equal(bumped.values, self.clean.values * multiplier)

    def test_bump_outside_grid_rejected(self):
        with pytest.raises(DomainError):
            inject_servo_bumps(
                self.clean, ServoBumpModel(offset=200e3, width=1e3, height_db=3.0),
                carrier_hz=7e6)

    @pytest.mark.parametrize("carrier", [math.nan, math.inf, -math.inf])
    def test_non_finite_carrier_rejected(self, carrier):
        # Not a bump off the grid: the carrier itself is no frequency.
        with pytest.raises(InvalidParameterError,
                           match=f"carrier must be finite, got {carrier}"):
            inject_servo_bumps(self.clean, self.bump, carrier_hz=carrier)


class TestVoigtBeatNote:
    def test_zero_broadening_falls_back_to_analytic(self):
        params = DshiParams(**P5KM)
        grid = grid_about(7e6, 50e3, 10.0)
        assert np.array_equal(voigt_beat_note(params, 0.0, grid).values,
                              analytic_psd(params, grid).values)

    @pytest.mark.parametrize("gaussian", [math.nan, math.inf])
    def test_non_finite_broadening_refused_at_zero_laser_width(self, gaussian):
        # The zero-width shortcut used to return analytic_psd before the
        # Gaussian width was checked.
        params = DshiParams(**dict(P5KM, laser_fwhm=0.0))
        with pytest.raises(InvalidParameterError):
            voigt_beat_note(params, gaussian, grid_about(7e6, 50e3, 10.0))

    def test_zero_laser_width_spreads_residue_as_gaussian(self):
        # The residue used to stay in the carrier bin, dropping the width.
        params = DshiParams(**dict(P5KM, laser_fwhm=0.0))
        grid = grid_about(7e6, 50e3, 10.0)
        trace = voigt_beat_note(params, 640.0, grid)
        assert width_at_level(trace, 10.0 * math.log10(2.0)) == pytest.approx(
            640.0, rel=1e-3)
        assert trace.integral() == pytest.approx(
            analytic_psd(params, grid).integral(), rel=1e-12)

    def test_unresolved_gaussian_at_zero_laser_width_stays_in_carrier_bin(self):
        # 0.05 Hz is under a hundredth of the 10 Hz step: a delta on this grid.
        params = DshiParams(**dict(P5KM, laser_fwhm=0.0))
        grid = grid_about(7e6, 50e3, 10.0)
        assert np.array_equal(voigt_beat_note(params, 0.05, grid).values,
                              analytic_psd(params, grid).values)

    def test_peak_carries_spike_power(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        grid = grid_about(7e6, 60e3, 10.0)
        trace = voigt_beat_note(params, 640.0, grid)
        pedestal = analytic_psd(params, grid)
        i0 = grid.index_of(7e6)
        pedestal_values = pedestal.values.copy()
        pedestal_values[i0] = pedestal_values[i0 - 1]  # drop the delta bin
        peak_part = trace.values - pedestal_values
        gamma = 160.0
        spike = 0.5 * math.pi * math.exp(-2.0 * math.pi * params.delay * gamma)
        assert np.sum(peak_part) * grid.step == pytest.approx(spike, rel=1e-2)


class TestApplyRbw:
    def test_smooths_spike_into_gaussian_width(self):
        params = DshiParams(**P5KM)
        grid = grid_about(7e6, 50e3, 10.0)
        smoothed = apply_rbw(analytic_psd(params, grid), 500.0)
        assert smoothed.rbw == 500.0
        w3 = width_at_level(smoothed, 10.0 * math.log10(2.0))
        assert w3 == pytest.approx(500.0, rel=0.1)

    def test_preserves_total_power(self):
        params = DshiParams(**P5KM)
        grid = grid_about(7e6, 50e3, 10.0)
        raw = analytic_psd(params, grid)
        smoothed = apply_rbw(raw, 300.0)
        assert np.sum(smoothed.values) == pytest.approx(np.sum(raw.values), rel=1e-6)

    @pytest.mark.parametrize("rbw", [math.inf, math.nan, 0.0])
    def test_rbw_must_be_finite_positive(self, rbw):
        raw = analytic_psd(DshiParams(**P5KM), grid_about(7e6, 50e3, 10.0))
        with pytest.raises(InvalidParameterError):
            apply_rbw(raw, rbw)

    def test_narrowest_rbw_keeps_the_trace_without_warning(self):
        # A kernel of one non-zero bin: (offset / rbw)**2 would overflow
        # beside it.
        raw = analytic_psd(DshiParams(**P5KM), grid_about(7e6, 50e3, 10.0))
        smoothed = apply_rbw(raw, 1e-300)
        assert smoothed.rbw == 1e-300
        assert np.allclose(smoothed.values, raw.values, rtol=1e-9,
                           atol=1e-12 * raw.values.max())

    def test_kernel_wider_than_trace_refused(self):
        # 101 points of 10 Hz: the kernel half-width ceil(4 rbw / step) may
        # reach 100 bins, not 101.
        raw = analytic_psd(DshiParams(**P5KM), grid_about(7e6, 500.0, 10.0))
        assert raw.grid.count == 101
        assert apply_rbw(raw, 250.0).values.shape == (101,)
        for rbw in (250.0 + 1e-9, 1e9, 1e308):
            with pytest.raises(InvalidParameterError, match="wider than"):
                apply_rbw(raw, rbw)

    def test_matches_fftconvolve(self):
        raw = analytic_psd(DshiParams(**P5KM), grid_about(7e6, 50e3, 10.0))
        rbw, step = 370.0, raw.grid.step
        offsets = step * np.arange(-148, 149)  # m = ceil(4 rbw / step)
        kernel = np.exp(-4.0 * math.log(2.0) * (offsets / rbw) ** 2)
        expected = np.maximum(
            fftconvolve(raw.values, kernel / kernel.sum(), mode="same"), 0.0)
        smoothed = apply_rbw(raw, rbw).values
        assert np.max(np.abs(smoothed - expected)) <= 1e-12 * np.max(expected)
