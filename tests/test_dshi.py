"""Analytic beat-note model, Monte-Carlo oracle, and servo bumps."""

import math

import numpy as np
import pytest
from scipy.signal import fftconvolve, welch

from beatnote import (
    SPEED_OF_LIGHT,
    DshiParams,
    FrequencyGrid,
    NoiseModel,
    ServoBumpModel,
    SimConfig,
    SpectrumTrace,
    analytic_psd,
    apply_rbw,
    extract_servo_bumps,
    extrema_spacing,
    inject_servo_bumps,
    predict_extrema,
    simulate_time_domain,
    voigt_beat_note,
    width_at_level,
)
from beatnote.dshi import (
    _bump_multiplier,
    _flicker_frequency_noise,
    _welch_density,
    _wing_and_envelope,
)
from beatnote.errors import (
    DomainError,
    GridMismatchError,
    InvalidParameterError,
    ResolutionError,
)
from beatnote.estimate import mask_central_bins

P5KM = dict(eom_frequency=7e6, laser_fwhm=100.0, fiber_length=5e3, fiber_index=1.468)


def grid_about(center, half_span, step):
    n = int(half_span / step)
    return FrequencyGrid(center - n * step, step, 2 * n + 1)


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

    def test_sim_config_integral_floats_become_int(self):
        cfg = SimConfig(sample_rate=8e6, duration=0.1, segments=32.0, seed=np.int64(3))
        assert (cfg.segments, cfg.seed) == (32, 3)
        assert type(cfg.segments) is int and type(cfg.seed) is int


class TestSpectrumTrace:
    def test_unit_conversion_involutive(self):
        grid = FrequencyGrid(0.0, 1.0, 64)
        rng = np.random.default_rng(0)
        dbm = SpectrumTrace(grid, rng.uniform(-90, 10, 64), "dbm")
        back = dbm.to_linear().to_dbm()
        assert np.max(np.abs(back.values - dbm.values)) < 1e-9

    def test_linear_values_non_negative(self):
        grid = FrequencyGrid(0.0, 1.0, 4)
        with pytest.raises(InvalidParameterError):
            SpectrumTrace(grid, np.array([1.0, -1.0, 0.0, 2.0]), "linear")


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
        wing, envelope = _wing_and_envelope(params, x)
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


class TestPredictExtrema:
    def test_spacing_value(self):
        params = DshiParams(**P5KM)
        assert extrema_spacing(params) == pytest.approx(20421.83, abs=0.5)
        ext = predict_extrema(params, 4)
        gaps = np.diff([e.frequency for e in ext])
        assert np.allclose(gaps, extrema_spacing(params), rtol=1e-12)

    def test_order_one_is_peak_at_one_spacing(self):
        params = DshiParams(**P5KM)
        first = predict_extrema(params, 1)[0]
        assert first.kind == "peak"
        assert first.order == 1
        assert first.frequency == params.eom_frequency + extrema_spacing(params)

    def test_alternating_kinds(self):
        kinds = [e.kind for e in predict_extrema(DshiParams(**P5KM), 6)]
        assert kinds == ["peak", "trough", "peak", "trough", "peak", "trough"]

    def test_doubling_length_halves_spacing(self):
        p1 = DshiParams(**P5KM)
        p2 = DshiParams(**{**P5KM, "fiber_length": 10e3})
        assert extrema_spacing(p2) == pytest.approx(extrema_spacing(p1) / 2.0, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(InvalidParameterError):
            predict_extrema(DshiParams(**P5KM), 0)
        with pytest.raises(InvalidParameterError):
            predict_extrema(DshiParams(**{**P5KM, "laser_fwhm": 0.0}), 2)


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

    def test_flicker_noise_follows_one_over_f(self):
        rng = np.random.default_rng(42)
        level = 1e4
        n, dt = 1_500_000, 5e-7
        nu = _flicker_frequency_noise(level, n, dt, rng)
        f, psd = welch(nu, fs=1.0 / dt, nperseg=1 << 15, noverlap=0)
        edges = 10.0 ** np.arange(1.7, 5.4, 0.3)
        for lo, hi in zip(edges[:-1], edges[1:]):
            band = (f >= lo) & (f < hi)
            if np.count_nonzero(band) >= 3:
                dev_db = 10.0 * math.log10(np.mean(psd[band] * f[band]) / level)
                assert abs(dev_db) < 1.0

    @pytest.mark.parametrize("nperseg", [4096, 4095])
    def test_welch_matches_scipy(self, nperseg):
        x = 3.0 + np.random.default_rng(5).standard_normal(16 * nperseg)
        _, expected = welch(x, fs=8e6, window="hann", nperseg=nperseg, noverlap=0,
                            detrend="constant", scaling="density")
        psd = _welch_density(x, 8e6, nperseg)
        assert np.max(np.abs(psd / expected - 1.0)) <= 1e-12


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
        measured = SpectrumTrace(self.grid, self.clean.values * noisy_db(), "linear")
        model = SpectrumTrace(self.grid, self.clean.values * noisy_db(), "linear")
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
        model = SpectrumTrace(self.grid, values, "linear")
        with pytest.raises(DomainError):
            extract_servo_bumps(self.clean, model)

    def test_bump_outside_grid_rejected(self):
        with pytest.raises(DomainError):
            inject_servo_bumps(
                self.clean, ServoBumpModel(offset=200e3, width=1e3, height_db=3.0),
                carrier_hz=7e6)


class TestVoigtBeatNote:
    def test_zero_broadening_falls_back_to_analytic(self):
        params = DshiParams(**P5KM)
        grid = grid_about(7e6, 50e3, 10.0)
        assert np.array_equal(voigt_beat_note(params, 0.0, grid).values,
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

    def test_matches_fftconvolve(self):
        raw = analytic_psd(DshiParams(**P5KM), grid_about(7e6, 50e3, 10.0))
        rbw, step = 370.0, raw.grid.step
        offsets = step * np.arange(-148, 149)  # m = ceil(4 rbw / step)
        kernel = np.exp(-4.0 * math.log(2.0) * (offsets / rbw) ** 2)
        expected = np.maximum(
            fftconvolve(raw.values, kernel / kernel.sum(), mode="same"), 0.0)
        smoothed = apply_rbw(raw, rbw).values
        assert np.max(np.abs(smoothed - expected)) <= 1e-12 * np.max(expected)
