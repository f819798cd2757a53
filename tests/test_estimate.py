"""Linewidth estimators and the least-squares engine."""

import dataclasses
import math

import numpy as np
import pytest

from beatnote import (
    DshiParams,
    FrequencyGrid,
    ServoBumpModel,
    SpectrumTrace,
    analytic_psd,
    estimate_envelope_contrast,
    estimate_voigt,
    eval_gaussian,
    extrema_spacing,
    eval_lorentzian,
    fit_least_squares,
    inject_servo_bumps,
    measure_envelope_contrast,
    read_trace,
    solve_contrast,
    voigt_beat_note,
)
from beatnote.errors import (
    DomainError,
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
    FLAG_NON_CONVERGED,
    FLAG_SERVO_CONTAMINATED,
    VoigtOptions,
    _check_orders,
    _contrast_db,
    _make_estimate,
    _quadratic_value_at,
    lorentzian_peak_model,
    mask_central_bins,
)


def grid_about(center, half_span, step):
    n = int(half_span / step)
    return FrequencyGrid(center - n * step, step, 2 * n + 1)


def beat_trace(fwhm=320.0, gaussian=640.0, step=10.0, half_span=60e3):
    params = DshiParams(eom_frequency=7e6, laser_fwhm=fwhm)
    return voigt_beat_note(params, gaussian, grid_about(7e6, half_span, step)), params


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
        trace = SpectrumTrace(grid, eval_lorentzian(grid, 0.0, 300.0).values)
        est = estimate_voigt(trace, VoigtOptions(exclude_central_bins=0))
        assert est.lorentzian_fwhm == pytest.approx(300.0, rel=0.01)
        assert est.gaussian_fwhm < 0.05 * est.lorentzian_fwhm

    def test_pure_gaussian_pins_lower_bracket(self):
        grid = grid_about(0.0, 5e3, 2.0)
        trace = SpectrumTrace(grid, eval_gaussian(grid, 0.0, 300.0).values)
        est = estimate_voigt(trace, VoigtOptions(exclude_central_bins=0))
        assert est.lorentzian_fwhm < 0.05 * est.gaussian_fwhm
        assert FLAG_GRID_LIMITED in est.flags

    def test_tied_maxima_give_a_flagged_estimate(self):
        # Two equal, separated maxima, as a quantised dBm file can hold: the
        # lowest-frequency one is measured and the estimate is flagged, not
        # refused with AmbiguousPeakError.
        grid = FrequencyGrid(-200.0, 0.5, 801)
        values = (eval_lorentzian(grid, -50.0, 4.0).values
                  + eval_lorentzian(grid, 50.0, 4.0).values)
        assert np.count_nonzero(values == values.max()) == 2
        est = estimate_voigt(SpectrumTrace(grid, values),
                             VoigtOptions(exclude_central_bins=0))
        assert est.flags == {FLAG_GRID_LIMITED}
        assert est.lorentzian_fwhm == pytest.approx(4.0, rel=0.05)

    def test_iteration_cap_flags_non_converged(self):
        trace, _ = beat_trace(320.0, 640.0)
        est = estimate_voigt(trace, VoigtOptions(max_iter=1, tol=1e-12))
        assert est.iterations == 1
        assert est.flags == {FLAG_NON_CONVERGED}

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
        trace = SpectrumTrace(grid, eval_lorentzian(grid, 0.0, 300.0).values)
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
            estimate_voigt(SpectrumTrace(trace.grid, values))
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

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-3])
    def test_options_reject_non_finite_or_non_positive_tol(self, tol):
        # Unchecked, tol=inf "converges" on the first probe: 461 Hz on this
        # 320 Hz trace.
        with pytest.raises(InvalidParameterError):
            VoigtOptions(tol=tol)

    def test_mask_central_bins_removes_spike(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        trace = analytic_psd(params, grid_about(7e6, 60e3, 10.0))
        masked = mask_central_bins(trace, 3)
        i0 = trace.grid.index_of(7e6)
        assert trace.values[i0] > 100.0 * masked.values[i0]
        assert np.array_equal(masked.values[:i0 - 2], trace.values[:i0 - 2])

    @pytest.mark.parametrize("count", [2.5, -1, math.nan])
    def test_mask_central_bins_rejects_bad_count(self, count):
        # Unchecked, 2.5 dies in slicing with a bare IndexError and -1 leaves
        # the trace unmasked.
        trace, _ = beat_trace(320.0, 640.0)
        with pytest.raises(InvalidParameterError):
            mask_central_bins(trace, count)


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
        values = [_contrast_db(params, 1, 2, fwhm)
                  for fwhm in (10.0, 100.0, 1000.0, 10000.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_servo_flag_within_band(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        trace = analytic_psd(params, grid_about(7e6, 80e3, 20.0))
        est = estimate_envelope_contrast(trace, params, 1, 2)
        assert FLAG_SERVO_CONTAMINATED in est.flags  # extrema at 20/41 kHz
        far = estimate_envelope_contrast(trace, params, 1, 2, servo_band_hz=1e3)
        assert FLAG_SERVO_CONTAMINATED not in far.flags

    @pytest.mark.parametrize("band", [math.nan, math.inf, -1.0])
    def test_servo_band_must_be_finite_non_negative(self, band):
        # Every comparison with NaN is false: unchecked, the flag never rises.
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        trace = analytic_psd(params, grid_about(7e6, 80e3, 20.0))
        with pytest.raises(InvalidParameterError):
            estimate_envelope_contrast(trace, params, 1, 2, servo_band_hz=band)

    def test_vanishing_contrast_has_no_solution(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=1.0)
        with pytest.raises(NoSolutionError):
            solve_contrast(params, 1, 2, 0.001)

    @pytest.mark.parametrize("contrast_db", [math.nan, math.inf, -math.inf])
    def test_non_finite_contrast_rejected(self, contrast_db):
        # Every comparison with NaN is false: unchecked, the bisection walks
        # down to the lower bracket and returns its 0.1 Hz as a linewidth.
        with pytest.raises(InvalidParameterError):
            solve_contrast(DshiParams(7e6, 300.0), 1, 2, contrast_db)

    def test_order_validation(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=100.0)
        trace = analytic_psd(params, grid_about(7e6, 80e3, 20.0))
        with pytest.raises(InvalidParameterError):
            estimate_envelope_contrast(trace, params, 2, 3)  # 2 is a trough
        with pytest.raises(InvalidParameterError):
            estimate_envelope_contrast(trace, params, 1, 4)  # not adjacent

    def test_swapped_orders_refused_before_the_trace_is_read(self):
        # The grid stops short of order 2: read first, the swapped pair
        # failed as a missing extremum instead of as bad orders.
        params = DshiParams(eom_frequency=7e6, laser_fwhm=100.0)
        trace = analytic_psd(params, grid_about(7e6, 25e3, 20.0))
        with pytest.raises(InvalidParameterError, match="trough, not a peak"):
            estimate_envelope_contrast(trace, params, 2, 1)

    @pytest.mark.parametrize("orders", [(math.nan, 2), (1, math.nan), (1.5, 2),
                                        (1, 2.5)])
    @pytest.mark.parametrize("call", [
        lambda trace, params, p, t: estimate_envelope_contrast(trace, params, p, t),
        lambda trace, params, p, t: measure_envelope_contrast(trace, params, p, t),
        lambda trace, params, p, t: solve_contrast(params, p, t, 1.0),
    ], ids=["estimate", "measure", "solve"])
    def test_non_integral_orders_refused(self, call, orders):
        # NaN raised a bare ValueError from round(), and 1.5 was refused as
        # "not adjacent".
        params = DshiParams(eom_frequency=7e6, laser_fwhm=100.0)
        trace = analytic_psd(params, grid_about(7e6, 80e3, 20.0))
        with pytest.raises(InvalidParameterError, match="integer"):
            call(trace, params, *orders)

    def test_integral_float_orders_accepted(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=100.0)
        trace = analytic_psd(params, grid_about(7e6, 80e3, 20.0))
        assert estimate_envelope_contrast(trace, params, 1.0, 2.0) \
            == estimate_envelope_contrast(trace, params, 1, 2)

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


    @pytest.mark.parametrize("estimator", [estimate_envelope_contrast,
                                           measure_envelope_contrast])
    def test_off_grid_extremum_is_named(self, estimator):
        # The order-2 trough sits 40.8 kHz above the carrier, off a +-25 kHz
        # grid; it used to be read from the extrapolated edge parabola.
        params = DshiParams(eom_frequency=7e6, laser_fwhm=100.0, fiber_length=5e3)
        trace = analytic_psd(params, grid_about(7e6, 25e3, 10.0))
        with pytest.raises(DomainError,
                           match=r"order-2 trough at 7040844 Hz lies outside"):
            estimator(trace, params, 1, 2)

    def test_dbm_file_gives_the_linear_estimate(self, tmp_path):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        trace = analytic_psd(params, grid_about(7e6, 80e3, 20.0))
        rows = [f"{f:.17g},{10.0 * math.log10(v):.17g}"
                for f, v in zip(trace.grid.points(), trace.values)]
        path = tmp_path / "dbm.csv"
        path.write_text("\n".join(["# unit=dbm", "frequency_hz,psd"] + rows) + "\n")
        expected = estimate_envelope_contrast(trace, params, 1, 2)
        est = estimate_envelope_contrast(read_trace(path), params, 1, 2)
        # The dB round trip moves each value by a few ulps, which reaches
        # only the solver's leftover residual.
        assert est.residual == pytest.approx(expected.residual, abs=1e-12)
        assert dataclasses.replace(est, residual=expected.residual) == expected

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
        trace = SpectrumTrace(grid, eval_gaussian(grid, 0.0, 300.0).values)
        self.assert_plain(estimate_voigt(trace, VoigtOptions(exclude_central_bins=0)))

    def test_envelope(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        trace = analytic_psd(params, grid_about(7e6, 80e3, 20.0))
        self.assert_plain(estimate_envelope_contrast(trace, params, 1, 2))


def _reference_locate_extremum(values, grid, carrier, position, window, kind,
                               gamma):
    freqs = grid.points()
    mask = np.abs(freqs - position) <= window
    if np.count_nonzero(mask) < 5:
        raise ExtremumNotFoundError("grid too coarse")
    sub_f = freqs[mask]
    detrended = values[mask] * ((sub_f - carrier) ** 2 + gamma * gamma)
    idx = int(np.argmax(detrended) if kind == "peak" else np.argmin(detrended))
    if idx == 0 or idx == len(detrended) - 1:
        raise ExtremumNotFoundError(f"no {kind} inside the search window")
    qs = detrended[idx - 1:idx + 2]
    denom = qs[0] - 2.0 * qs[1] + qs[2]
    delta = 0.5 * (qs[0] - qs[2]) / denom if denom != 0 else 0.0
    refined = float(sub_f[idx] + np.clip(delta, -1.0, 1.0) * grid.step)
    return refined, _quadratic_value_at(freqs, values, position)


def reference_estimate_envelope_contrast(trace, params, peak_order=1,
                                         trough_order=2, servo_band_hz=100e3):
    """Two-pass envelope estimator: a provisional reading and solve for the
    locator hint, then a second reading and solve at the located extrema."""
    values = trace.linear_values()
    freqs = trace.grid.points()
    carrier = params.eom_frequency
    spacing = extrema_spacing(params)
    hint = 0.0
    try:
        s_p = _quadratic_value_at(freqs, values, carrier + peak_order * spacing)
        s_t = _quadratic_value_at(freqs, values, carrier + trough_order * spacing)
        if s_p <= 0 or s_t <= 0:
            raise ExtremumNotFoundError("non-positive PSD at a predicted extremum")
        ds0 = 10.0 * math.log10(s_p / s_t)
        hint = solve_contrast(params, peak_order, trough_order, ds0)[0] / 2.0
    except NoSolutionError:
        pass
    _check_orders(peak_order, trough_order)
    x_p, s_p = _reference_locate_extremum(
        values, trace.grid, carrier, carrier + peak_order * spacing,
        spacing / 4.0, "peak", hint)
    x_t, s_t = _reference_locate_extremum(
        values, trace.grid, carrier, carrier + trough_order * spacing,
        spacing / 4.0, "trough", hint)
    if s_t <= 0 or s_p <= 0:
        raise ExtremumNotFoundError("non-positive PSD at a located extremum")
    ds = 10.0 * math.log10(s_p / s_t)
    fwhm, iterations = solve_contrast(params, peak_order, trough_order, ds)
    flags = set()
    if min(abs(x_p - carrier), abs(x_t - carrier)) < servo_band_hz:
        flags.add(FLAG_SERVO_CONTAMINATED)
    residual = abs(
        _contrast_db(params, peak_order, trough_order, fwhm) - ds
    ) / max(abs(ds), 1e-12)
    return _make_estimate(fwhm, 0.0, "envelope-contrast", iterations,
                          residual, flags)


def _envelope_case(name):
    p320 = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
    spacing = extrema_spacing(p320)
    clean5 = voigt_beat_note(p320, 640.0, grid_about(7e6, 90e3, 10.0))
    analytic = analytic_psd(p320, grid_about(7e6, 80e3, 20.0))
    wide = DshiParams(eom_frequency=7e6, laser_fwhm=50e3)

    def dip(height_db, width):
        # A dip at the order-1 peak: its reading drops, its location holds.
        bump = ServoBumpModel(offset=spacing, width=width, height_db=height_db)
        return inject_servo_bumps(analytic, bump, carrier_hz=7e6), p320

    cases = {
        "criterion-5 clean": lambda: (clean5, p320),
        "criterion-5 bumped": lambda: (inject_servo_bumps(
            clean5, ServoBumpModel(offset=50e3, width=15e3, height_db=12.0),
            carrier_hz=7e6), p320),
        "analytic 1 Hz": lambda: (analytic_psd(
            DshiParams(7e6, 1.0), grid_about(7e6, 80e3, 20.0)), DshiParams(7e6, 1.0)),
        "analytic 320 Hz": lambda: (analytic, p320),
        "analytic 50 kHz": lambda: (analytic_psd(
            wide, grid_about(7e6, 500e3, 100.0)), wide),
        "analytic coarse grid": lambda: (analytic_psd(
            p320, grid_about(7e6, 80e3, 4000.0)), p320),
        "analytic shallow dip": lambda: dip(-3.0, 1000.0),
        "analytic deep dip": lambda: dip(-30.0, 600.0),
        "voigt 320/960 Hz": lambda: (voigt_beat_note(
            p320, 960.0, grid_about(7e6, 60e3, 10.0)), p320),
        "voigt 50/1 kHz": lambda: (voigt_beat_note(
            wide, 1e3, grid_about(7e6, 500e3, 100.0)), wide),
        "voigt 50/20 kHz": lambda: (voigt_beat_note(
            wide, 20e3, grid_about(7e6, 500e3, 100.0)), wide),
    }
    return cases[name]()


def _outcome(estimator, trace, params):
    try:
        return estimator(trace, params, 1, 2)
    except (ExtremumNotFoundError, NoSolutionError) as exc:
        return type(exc).__name__


class TestEnvelopeSinglePass:
    """The single reading and solve gives what the two-pass estimator gave:
    equal estimates, or the same exception type in the same order."""

    @pytest.mark.parametrize("name", [
        "criterion-5 clean", "criterion-5 bumped", "analytic 1 Hz",
        "analytic 320 Hz", "analytic 50 kHz",
        "analytic coarse grid", "analytic shallow dip", "analytic deep dip",
        "voigt 320/960 Hz", "voigt 50/1 kHz", "voigt 50/20 kHz",
    ])
    def test_matches_two_pass_reference(self, name):
        trace, params = _envelope_case(name)
        expected = _outcome(reference_estimate_envelope_contrast, trace, params)
        assert _outcome(estimate_envelope_contrast, trace, params) == expected

    def test_cases_cover_every_outcome(self):
        outcomes = {
            name: _outcome(estimate_envelope_contrast, *_envelope_case(name))
            for name in ("criterion-5 bumped", "analytic 320 Hz",
                         "analytic deep dip")
        }
        assert outcomes["criterion-5 bumped"] == "ExtremumNotFoundError"
        assert outcomes["analytic deep dip"] == "NoSolutionError"
        assert outcomes["analytic 320 Hz"].lorentzian_fwhm == pytest.approx(
            320.0, rel=1e-6)
