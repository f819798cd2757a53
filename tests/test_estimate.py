"""Linewidth estimators and the least-squares engine."""

import math

import numpy as np
import pytest

from beatnote import (
    DshiParams,
    FrequencyGrid,
    ServoBumpModel,
    SpectrumTrace,
    analytic_psd,
    estimate_direct_lorentzian,
    estimate_envelope_contrast,
    estimate_voigt,
    eval_gaussian,
    eval_lorentzian,
    fit_least_squares,
    halve_combined,
    inject_servo_bumps,
    measure_envelope_contrast,
    model_contrast_db,
    read_trace,
    solve_contrast,
    voigt_beat_note,
)
from beatnote.errors import (
    ExtremumNotFoundError,
    InitializationError,
    InsufficientDataError,
    InvalidParameterError,
    NoSolutionError,
    SchemaError,
    WidthUndefinedError,
)
from beatnote.estimate import (
    FLAG_GRID_LIMITED,
    FLAG_SERVO_CONTAMINATED,
    VoigtOptions,
    lorentzian_peak_model,
    mask_central_bins,
)


def grid_about(center, half_span, step):
    n = int(half_span / step)
    return FrequencyGrid(center - n * step, step, 2 * n + 1)


def beat_trace(fwhm=320.0, gaussian=640.0, step=10.0, half_span=60e3):
    params = DshiParams(eom_frequency=7e6, laser_fwhm=fwhm)
    return voigt_beat_note(params, gaussian, grid_about(7e6, half_span, step)), params


class TestHalveCombined:
    def test_values(self):
        assert halve_combined(320.0) == 160.0
        assert halve_combined(0.0) == 0.0
        assert halve_combined(312.0) == 156.0

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            halve_combined(-1.0)


class TestFitLeastSquares:
    def test_exact_lorentzian_recovery(self):
        x = np.linspace(-300.0, 300.0, 201)
        truth = (12.0, 80.0, 0.9, 0.05)
        y = lorentzian_peak_model(x, *truth)
        init = [p * f for p, f in zip(truth, (0.8, 1.2, 0.8, 1.2))]
        result = fit_least_squares(lorentzian_peak_model, x, y, init)
        assert result.converged
        assert np.allclose(result.parameters, truth, rtol=1e-6)

    def test_inverse_square_amplitude(self):
        x = np.arange(1.0, 11.0)
        result = fit_least_squares(lambda x, a: a / x**2, x, 5.0 / x**2, [1.0])
        assert abs(result.parameters[0] - 5.0) < 1e-8

    def test_noisy_lorentzian_calibration(self):
        # 1% additive noise, 200 points across 6 FWHM: width within 2%.
        x = np.linspace(-300.0, 300.0, 200)
        truth = (0.0, 100.0, 1.0, 0.0)
        clean = lorentzian_peak_model(x, *truth)
        errors = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = clean + rng.normal(0.0, 0.01, x.size)
            result = fit_least_squares(lorentzian_peak_model, x, y,
                                       [5.0, 120.0, 0.9, 0.01])
            errors.append(abs(result.parameters[1] / 100.0 - 1.0))
        assert max(errors) < 0.02

    def test_covariance_symmetric_psd(self):
        x = np.linspace(-300.0, 300.0, 120)
        rng = np.random.default_rng(1)
        y = lorentzian_peak_model(x, 0.0, 90.0, 1.0, 0.0) + rng.normal(0, 0.01, 120)
        result = fit_least_squares(lorentzian_peak_model, x, y,
                                   [10.0, 70.0, 0.8, 0.05])
        cov = result.covariance
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > -1e-18)

    def test_singular_at_init(self):
        # Second parameter has identically zero derivative: singular normals.
        x = np.linspace(0.0, 1.0, 30)
        with pytest.raises(InitializationError):
            fit_least_squares(lambda x, a, b: a * x + 0.0 * b, x, x, [0.5, 1.0])

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit_least_squares(lambda x, a, b: a * x + b, [1.0, 2.0], [1.0, 2.0],
                              [1.0, 1.0])

    def test_init_outside_bounds(self):
        with pytest.raises(InvalidParameterError):
            fit_least_squares(lambda x, a: a * x, [1, 2, 3], [1, 2, 3], [5.0],
                              bounds=([0.0], [1.0]))

    def test_analytic_jacobian_path(self):
        x = np.linspace(0.0, 10.0, 40)
        y = 3.0 * x + 1.0

        def model(x, a, b):
            return a * x + b

        def jac(x, a, b):
            return np.column_stack([x, np.ones_like(x)])

        result = fit_least_squares(model, x, y, [1.0, 0.0], jacobian=jac)
        assert np.allclose(result.parameters, [3.0, 1.0], atol=1e-10)


class TestEstimateVoigt:
    def test_paper_configuration_roundtrip(self):
        trace, _ = beat_trace(320.0, 640.0)
        est = estimate_voigt(trace)
        assert est.lorentzian_fwhm == pytest.approx(320.0, abs=30.0)
        assert est.single_laser_fwhm == pytest.approx(160.0, abs=15.0)
        assert est.single_laser_fwhm * 2.0 == est.lorentzian_fwhm
        assert est.gaussian_fwhm == pytest.approx(640.0, rel=0.05)

    def test_pure_lorentzian(self):
        grid = grid_about(0.0, 5e3, 2.0)
        trace = SpectrumTrace(grid, eval_lorentzian(grid, 0.0, 300.0).values, "linear")
        est = estimate_voigt(trace, VoigtOptions(exclude_central_bins=0))
        assert est.lorentzian_fwhm == pytest.approx(300.0, rel=0.01)
        assert est.gaussian_fwhm < 0.05 * est.lorentzian_fwhm

    def test_pure_gaussian_pins_lower_bracket(self):
        grid = grid_about(0.0, 5e3, 2.0)
        trace = SpectrumTrace(grid, eval_gaussian(grid, 0.0, 300.0).values, "linear")
        est = estimate_voigt(trace, VoigtOptions(exclude_central_bins=0))
        assert est.lorentzian_fwhm < 0.05 * est.gaussian_fwhm
        assert FLAG_GRID_LIMITED in est.flags

    def test_voigt_width_dominates_components(self):
        trace, _ = beat_trace(320.0, 320.0)
        est = estimate_voigt(trace)
        assert est.voigt_fwhm >= 0.999 * est.lorentzian_fwhm
        assert est.voigt_fwhm >= 0.999 * est.gaussian_fwhm

    def test_bit_identical_reruns(self):
        trace, _ = beat_trace(320.0, 960.0)
        a = estimate_voigt(trace)
        b = estimate_voigt(trace)
        assert a == b

    def test_unmeasurable_width_raises(self):
        grid = grid_about(0.0, 300.0, 2.0)  # too narrow for the 20 dB width
        trace = SpectrumTrace(grid, eval_lorentzian(grid, 0.0, 300.0).values, "linear")
        with pytest.raises(WidthUndefinedError):
            estimate_voigt(trace, VoigtOptions(exclude_central_bins=0))

    def test_nan_at_argmax_yields_no_estimate(self, tmp_path):
        # A NaN bin would be the argmax carrier and be interpolated away by
        # mask_central_bins; the trace itself now refuses it, in memory and
        # on disk.
        trace, _ = beat_trace(320.0, 640.0)
        values = trace.values.copy()
        i_pk = int(np.argmax(values))
        values[i_pk] = math.nan
        with pytest.raises(InvalidParameterError):
            estimate_voigt(SpectrumTrace(trace.grid, values, "linear"))
        path = tmp_path / "nan.csv"
        rows = [f"{f:.17g},{v:.17g}" for f, v in zip(trace.grid.points(), values)]
        path.write_text("frequency_hz,psd\n" + "\n".join(rows) + "\n")
        with pytest.raises(SchemaError, match=f"line {i_pk + 2}"):
            estimate_voigt(read_trace(path))

    @pytest.mark.parametrize("field, bad", [
        ("max_iter", 3.5),
        ("max_iter", math.nan),
        ("exclude_central_bins", 1.5),
    ])
    def test_options_reject_non_integral_counts(self, field, bad):
        with pytest.raises(InvalidParameterError):
            VoigtOptions(**{field: bad})

    def test_mask_central_bins_removes_spike(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        trace = analytic_psd(params, grid_about(7e6, 60e3, 10.0))
        masked = mask_central_bins(trace, 3, carrier_hz=7e6)
        i0 = trace.grid.index_of(7e6)
        assert trace.values[i0] > 100.0 * masked.values[i0]
        assert np.array_equal(masked.values[:i0 - 2], trace.values[:i0 - 2])


class TestEnvelopeContrast:
    def test_roundtrip_against_forward_model(self):
        for fwhm in (50.0, 100.0, 320.0, 1000.0, 10000.0):
            params = DshiParams(eom_frequency=7e6, laser_fwhm=fwhm)
            trace = analytic_psd(params, grid_about(7e6, 80e3, 20.0))
            est = estimate_envelope_contrast(trace, params, 1, 2)
            assert est.lorentzian_fwhm == pytest.approx(fwhm, rel=0.05), fwhm
            assert est.single_laser_fwhm * 2.0 == est.lorentzian_fwhm

    def test_contrast_monotone_decreasing_in_linewidth(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=1.0)
        values = [model_contrast_db(params, 1, 2, fwhm)
                  for fwhm in (10.0, 100.0, 1000.0, 10000.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_servo_flag_within_band(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        trace = analytic_psd(params, grid_about(7e6, 80e3, 20.0))
        est = estimate_envelope_contrast(trace, params, 1, 2)
        assert FLAG_SERVO_CONTAMINATED in est.flags  # extrema at 20/41 kHz
        far = estimate_envelope_contrast(trace, params, 1, 2, servo_band_hz=1e3)
        assert FLAG_SERVO_CONTAMINATED not in far.flags

    def test_vanishing_contrast_has_no_solution(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=1.0)
        with pytest.raises(NoSolutionError):
            solve_contrast(params, 1, 2, 0.001)

    def test_order_validation(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=100.0)
        trace = analytic_psd(params, grid_about(7e6, 80e3, 20.0))
        with pytest.raises(InvalidParameterError):
            estimate_envelope_contrast(trace, params, 2, 3)  # 2 is a trough
        with pytest.raises(InvalidParameterError):
            estimate_envelope_contrast(trace, params, 1, 4)  # not adjacent

    def test_bumped_extrema_not_locatable_or_flagged(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        clean = analytic_psd(params, grid_about(7e6, 90e3, 10.0))
        bumped = inject_servo_bumps(
            clean, ServoBumpModel(offset=50e3, width=15e3, height_db=12.0),
            carrier_hz=7e6)
        try:
            est = estimate_envelope_contrast(bumped, params, 1, 2)
            assert FLAG_SERVO_CONTAMINATED in est.flags
        except (ExtremumNotFoundError, NoSolutionError):
            pass

    def test_coarse_grid_raises(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        trace = analytic_psd(params, grid_about(7e6, 80e3, 4000.0))
        with pytest.raises(ExtremumNotFoundError):
            measure_envelope_contrast(trace, params, 1, 2)


class TestEstimatorCrossChecks:
    def test_agreement_in_overlap_regime(self):
        # Where the delay is a sizable fraction of the coherence time both
        # estimators are valid and must agree.
        params = DshiParams(eom_frequency=7e6, laser_fwhm=50e3)
        trace = analytic_psd(params, grid_about(7e6, 500e3, 100.0))
        ev = estimate_voigt(trace)
        en = estimate_envelope_contrast(trace, params, 1, 2)
        assert abs(ev.lorentzian_fwhm / en.lorentzian_fwhm - 1.0) < 0.10

    def test_robustness_split_under_bumps(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        grid = grid_about(7e6, 90e3, 10.0)
        clean = voigt_beat_note(params, 640.0, grid)
        bumped = inject_servo_bumps(
            clean, ServoBumpModel(offset=50e3, width=15e3, height_db=12.0),
            carrier_hz=7e6)
        shift = abs(estimate_voigt(bumped).lorentzian_fwhm
                    / estimate_voigt(clean).lorentzian_fwhm - 1.0)
        assert shift < 0.05
        try:
            est = estimate_envelope_contrast(bumped, params, 1, 2)
            assert FLAG_SERVO_CONTAMINATED in est.flags
        except (ExtremumNotFoundError, NoSolutionError):
            pass


class TestDirectLorentzian:
    def test_recovers_width(self):
        grid = grid_about(0.0, 5e3, 2.0)
        trace = SpectrumTrace(grid, eval_lorentzian(grid, 0.0, 400.0).values, "linear")
        est = estimate_direct_lorentzian(trace)
        assert est.lorentzian_fwhm == pytest.approx(400.0, rel=1e-3)
        assert est.method == "direct-lorentzian"


class TestPlainFloats:
    WIDTHS = ("lorentzian_fwhm", "gaussian_fwhm", "voigt_fwhm",
              "single_laser_fwhm", "residual")

    def assert_plain(self, est):
        for name in self.WIDTHS:
            assert type(getattr(est, name)) is float, name
        assert type(est.iterations) is int

    def test_voigt(self):
        self.assert_plain(estimate_voigt(beat_trace(320.0, 640.0)[0]))

    def test_voigt_pure_gaussian_branch(self):
        grid = grid_about(0.0, 5e3, 2.0)
        trace = SpectrumTrace(grid, eval_gaussian(grid, 0.0, 300.0).values, "linear")
        self.assert_plain(estimate_voigt(trace, VoigtOptions(exclude_central_bins=0)))

    def test_envelope(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        trace = analytic_psd(params, grid_about(7e6, 80e3, 20.0))
        self.assert_plain(estimate_envelope_contrast(trace, params, 1, 2))

    def test_direct(self):
        grid = grid_about(0.0, 5e3, 2.0)
        trace = SpectrumTrace(grid, eval_lorentzian(grid, 0.0, 400.0).values, "linear")
        self.assert_plain(estimate_direct_lorentzian(trace))
