"""Linewidth estimators and the least-squares engine."""

import dataclasses
import functools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

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
    write_trace,
)
import beatnote.lineshape as lineshape
from beatnote.cli import main as cli_main
from beatnote.errors import (
    AmbiguousPeakError,
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
    FLAG_SERVO_CONTAMINATED,
    _check_orders,
    _contrast_model,
    _locate_extremum,
    _make_estimate,
    _quadratic_value_at,
    lorentzian_peak_model,
    mask_central_bins,
)
from beatnote.lineshape import (
    GAUSSIAN_20DB_FACTOR,
    HALF_POWER_DB,
    LORENTZIAN_20DB_FACTOR,
    _interpolated_peak,
    voigt_width_numeric,
    width_at_level,
)
from oracles import grid_about


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

    @pytest.mark.parametrize("case", ["xdata_length", "bounds_length", "init_2d",
                                      "model_shape", "jacobian_shape"])
    def test_mismatched_shapes_refused(self, case):
        x = np.linspace(-300.0, 300.0, 21)
        y = lorentzian_peak_model(x, 0.0, 100.0, 1.0, 0.0)
        init = [5.0, 120.0, 0.9, 0.01]
        model, bounds, jacobian = lorentzian_peak_model, None, None
        if case == "xdata_length":
            x = x[:20]
        elif case == "bounds_length":
            bounds = ([-300.0, 1.0], [300.0, 600.0])
        elif case == "init_2d":
            init = [init[:2], init[2:]]
        elif case == "model_shape":
            def model(x, *p):  # 3 values for 21 points
                return lorentzian_peak_model(x[:3], *p)
        else:
            def jacobian(x, *p):  # (n, m), not (m, n)
                return np.ones((len(p), x.size))
        with pytest.raises(InvalidParameterError):
            fit_least_squares(model, x, y, init, bounds, jacobian=jacobian)


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
        est = estimate_voigt(trace, exclude_central_bins=0)
        assert est.lorentzian_fwhm == pytest.approx(300.0, rel=0.01)
        assert est.gaussian_fwhm < 0.05 * est.lorentzian_fwhm

    def test_pure_gaussian_pins_lower_bracket(self):
        grid = grid_about(0.0, 5e3, 2.0)
        trace = SpectrumTrace(grid, eval_gaussian(grid, 0.0, 300.0).values)
        est = estimate_voigt(trace, exclude_central_bins=0)
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
        est = estimate_voigt(SpectrumTrace(grid, values), exclude_central_bins=0)
        assert est.flags == {FLAG_GRID_LIMITED}
        assert est.lorentzian_fwhm == pytest.approx(4.0, rel=0.05)

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
            estimate_voigt(trace, exclude_central_bins=0)

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
        ("exclude_central_bins", 1.5),
    ])
    def test_options_reject_non_integral_counts(self, field, bad):
        with pytest.raises(InvalidParameterError):
            estimate_voigt(beat_trace(320.0, 640.0)[0], **{field: bad})

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
        contrast_db = _contrast_model(params, 1, 2)
        values = [contrast_db(fwhm) for fwhm in (10.0, 100.0, 1000.0, 10000.0)]
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

    def test_contrast_above_the_model_maximum_has_no_solution(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=1.0)
        top = _contrast_model(params, 1, 2)(0.1)  # the lower bracket's contrast
        with pytest.raises(NoSolutionError, match="exceeds the model maximum"):
            solve_contrast(params, 1, 2, top + 1.0)

    def test_order_below_one_refused(self):
        # Order 0 is the carrier, not an envelope extremum.
        with pytest.raises(InvalidParameterError, match=">= 1"):
            solve_contrast(DshiParams(7e6, 300.0), 0, 1, 3.0)

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
    def test_two_bin_grid_is_named(self, estimator):
        # Both extrema lie on a 2-bin grid three spacings wide; the
        # estimator used to raise a bare IndexError from its quadratic
        # reading, and the reader a message about the search window.
        params = DshiParams(eom_frequency=7e6, laser_fwhm=100.0)
        grid = FrequencyGrid(7e6, 3.0 * extrema_spacing(params), 2)
        trace = SpectrumTrace(grid, [1.0, 0.5])
        with pytest.raises(ExtremumNotFoundError,
                           match=r"the 2-bin grid \[7000000, 7061265\] Hz has "
                                 r"fewer than the 3 bins"):
            estimator(trace, params, 1, 2)

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
        self.assert_plain(estimate_voigt(trace, exclude_central_bins=0))

    def test_envelope(self):
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
        trace = analytic_psd(params, grid_about(7e6, 80e3, 20.0))
        self.assert_plain(estimate_envelope_contrast(trace, params, 1, 2))


# The full-pass readers that the estimators replaced, verbatim but for their
# names and, in reference_width_at_level, the refusal of a level above the
# top sample that both width readers now make: every bin of the trace is
# read, and the frequencies come from grid.points().
def reference_width_at_level(trace: SpectrumTrace, level_db: float,
                             allow_ties: bool = False) -> float:
    """Full width of the trace's peak at `level_db` (power dB) below the peak.

    The two crossings nearest the peak are located by linear interpolation
    between adjacent samples.  Raises WidthUndefinedError when the level is
    not crossed inside the grid (or the peak sits on a grid edge, or the
    level lies above the top sample) and AmbiguousPeakError when several
    separated samples tie for the maximum (with allow_ties the
    lowest-frequency one wins).
    """
    if not 0 < level_db < math.inf:
        raise InvalidParameterError(f"level must be finite and > 0 dB, got {level_db}")
    values = trace.values
    grid = trace.grid
    vmax = values.max()
    peaks = np.flatnonzero(values == vmax)
    if len(peaks) > 1 and np.any(np.diff(peaks) > 1) and not allow_ties:
        raise AmbiguousPeakError(
            f"{len(peaks)} samples tie for the maximum; peak is ambiguous"
        )
    ipk = int(peaks[0])
    if ipk == 0 or ipk == grid.count - 1:
        raise WidthUndefinedError("global maximum sits on a grid edge")

    threshold = _interpolated_peak(values, ipk) * 10.0 ** (-level_db / 10.0)
    if threshold > values[ipk]:
        end = ipk
        while end + 1 < len(values) and values[end + 1] == values[ipk]:
            end += 1
        if end > ipk:
            raise WidthUndefinedError(
                f"{level_db:g} dB level lies above the flat top at bins "
                f"{ipk}-{end}; its high-frequency crossing is undefined"
            )
        raise WidthUndefinedError(
            f"{level_db:g} dB level lies above the top sample at bin {ipk}; "
            f"its crossings are undefined"
        )

    below_left = np.flatnonzero(values[:ipk] < threshold)
    if len(below_left) == 0:
        raise WidthUndefinedError(
            f"{level_db:g} dB level not crossed on the low-frequency side"
        )
    i = int(below_left[-1])
    f_left = grid.start + grid.step * (
        i + (threshold - values[i]) / (values[i + 1] - values[i])
    )

    below_right = np.flatnonzero(values[ipk + 1:] < threshold)
    if len(below_right) == 0:
        raise WidthUndefinedError(
            f"{level_db:g} dB level not crossed on the high-frequency side"
        )
    j = ipk + 1 + int(below_right[0])
    f_right = grid.start + grid.step * (
        j - (threshold - values[j]) / (values[j - 1] - values[j])
    )
    return float(f_right - f_left)


def reference_quadratic_value_at(freqs, values, position):
    """Value at `position` from the parabola through the three nearest samples."""
    step = freqs[1] - freqs[0]
    idx = int(np.clip(round((position - freqs[0]) / step), 1, len(freqs) - 2))
    delta = (position - freqs[idx]) / step
    vs = values[idx - 1:idx + 2]
    return float(vs[1] + 0.5 * (vs[2] - vs[0]) * delta
                 + 0.5 * (vs[2] - 2.0 * vs[1] + vs[0]) * delta * delta)


def reference_locate_extremum(freqs, values, step, carrier, position, window,
                              kind, gamma) -> float:
    """Validated position of one envelope extremum near its prediction.

    The existence search runs on the wing-detrended series
    v*((f-carrier)^2 + gamma^2), whose extrema track the envelope's: on the
    raw trace the 1/x^2 wing falloff swallows low-order peaks outright.  The
    position is the parabolic vertex of the detrended samples.
    """
    mask = np.abs(freqs - position) <= window
    if np.count_nonzero(mask) < 5:
        raise ExtremumNotFoundError(
            f"grid too coarse: fewer than 5 samples within {window:.0f} Hz of "
            f"the predicted extremum at {position:.0f} Hz"
        )
    sub_f = freqs[mask]
    detrended = values[mask] * ((sub_f - carrier) ** 2 + gamma * gamma)
    idx = int(np.argmax(detrended) if kind == "peak" else np.argmin(detrended))
    if idx == 0 or idx == len(detrended) - 1:
        raise ExtremumNotFoundError(
            f"no {kind} inside the search window around {position:.0f} Hz"
        )
    qs = detrended[idx - 1:idx + 2]
    denom = qs[0] - 2.0 * qs[1] + qs[2]
    # |delta| <= 1/2: qs[1] is the extreme of the three.
    delta = 0.5 * (qs[0] - qs[2]) / denom if denom != 0 else 0.0
    return float(sub_f[idx] + delta * step)


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
    return refined, reference_quadratic_value_at(freqs, values, position)


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
        s_p = reference_quadratic_value_at(freqs, values,
                                           carrier + peak_order * spacing)
        s_t = reference_quadratic_value_at(freqs, values,
                                           carrier + trough_order * spacing)
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
        _contrast_model(params, peak_order, trough_order)(fwhm) - ds
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


def _nudged(value, ulps):
    """`value` moved by `ulps` units in the last place."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


@st.composite
def voigt_cases(draw):
    """A trace and a central-bin count for estimate_voigt: a DSHI beat note
    with random Lorentzian and Gaussian widths, with or without servo bumps
    or a flat floor 21-30 dB below its peak (wings higher than any Voigt's),
    two tied Lorentzian peaks, or a pure Gaussian."""
    kind = draw(st.sampled_from(["beat", "bumped", "floor", "tied", "gaussian"]))
    width = draw(st.floats(2.0, 20.0))
    grid = FrequencyGrid(-200.0, 0.5, 801)
    if kind == "tied":
        values = (eval_lorentzian(grid, -50.0, width).values
                  + eval_lorentzian(grid, 50.0, width).values)
        trace = SpectrumTrace(grid, values)
    elif kind == "gaussian":
        trace = eval_gaussian(grid, 0.0, width)
    else:
        lorentzian = draw(st.floats(50.0, 3000.0))
        gaussian = lorentzian * draw(st.floats(0.05, 4.0))
        step = (lorentzian + gaussian) / draw(st.floats(4.0, 40.0))
        params = DshiParams(eom_frequency=7e6, laser_fwhm=lorentzian,
                            fiber_length=draw(st.floats(1e3, 6e3)))
        trace = voigt_beat_note(params, gaussian,
                                grid_about(7e6, 12.0 * (lorentzian + gaussian), step))
        if kind == "bumped":
            bump = ServoBumpModel(offset=draw(st.floats(2.0, 8.0)) * lorentzian,
                                  width=draw(st.floats(0.5, 3.0)) * lorentzian,
                                  height_db=draw(st.floats(3.0, 15.0)))
            trace = inject_servo_bumps(trace, bump, carrier_hz=7e6)
        elif kind == "floor":
            floor = trace.values.max() * 10.0 ** (-draw(st.floats(21.0, 30.0)) / 10.0)
            trace = SpectrumTrace(trace.grid, trace.values + floor)
    return trace, draw(st.sampled_from([0, 3]))


@functools.cache
def ratio_at_lorentzian_floor():
    """The width ratio w20 / w3 of the Voigt whose Lorentzian width is
    w20 / 20, solved by scipy on voigt_width_numeric: below it the estimator
    returns the pure Gaussian."""
    def excess(rho):
        return rho / voigt_width_numeric(rho, 1.0 - rho, 20.0) - 1.0 / 20.0

    rho = brentq(excess, 1e-3, 0.5, xtol=1e-15, rtol=1e-15)
    return (voigt_width_numeric(rho, 1.0 - rho, 20.0)
            / voigt_width_numeric(rho, 1.0 - rho, HALF_POWER_DB))


@pytest.fixture(scope="module")
def seed7_trace(tmp_path_factory):
    """Criterion 8's Monte-Carlo trace: 50 kHz, 1 MHz EOM, seed 7."""
    path = tmp_path_factory.mktemp("seed7") / "trace.csv"
    assert cli_main(["simulate", "--mode", "montecarlo", "--eom-mhz", "1",
                     "--linewidth-hz", "50000", "--duration-s", "0.04",
                     "--segments", "16", "--seed", "7", "--out", str(path)]) == 0
    return path


class TestVoigtInversion:
    """estimate_voigt inverts the measured width ratio q = w20 / w3 once,
    through a per-process Chebyshev fit to exact Voigt widths."""

    @given(case=voigt_cases())
    @settings(max_examples=150)
    def test_each_path_gives_its_stated_values(self, case):
        trace, count = case
        values = mask_central_bins(trace, count)
        try:
            w20 = width_at_level(values, 20.0, allow_ties=True)
            w3 = width_at_level(values, HALF_POWER_DB, allow_ties=True)
        except WidthUndefinedError as exc:
            with pytest.raises(WidthUndefinedError, match=str(exc)):
                estimate_voigt(trace, exclude_central_bins=count)
            return
        try:
            width_at_level(values, 20.0)
            tied = set()
        except AmbiguousPeakError:
            tied = {FLAG_GRID_LIMITED}
        est = estimate_voigt(trace, exclude_central_bins=count)
        q = w20 / w3
        assert est.iterations == 1
        assert est.single_laser_fwhm * 2.0 == est.lorentzian_fwhm
        if q >= LORENTZIAN_20DB_FACTOR:
            assert (est.lorentzian_fwhm, est.gaussian_fwhm, est.residual) == (
                w20 / LORENTZIAN_20DB_FACTOR, 0.0,
                (q - LORENTZIAN_20DB_FACTOR) / q)
            assert est.flags == {FLAG_GRID_LIMITED}
        elif est.lorentzian_fwhm == 0:
            assert q <= ratio_at_lorentzian_floor() * (1.0 + 1e-9)
            assert (est.gaussian_fwhm, est.residual) == (
                w3, abs(GAUSSIAN_20DB_FACTOR * w3 - w20) / w20)
            assert est.flags == {FLAG_GRID_LIMITED}
        else:
            assert q >= ratio_at_lorentzian_floor() * (1.0 - 1e-9)
            assert est.lorentzian_fwhm >= w20 / 20.0
            lorentzian, gaussian = est.lorentzian_fwhm, est.gaussian_fwhm
            assert voigt_width_numeric(lorentzian, gaussian, HALF_POWER_DB) \
                == pytest.approx(w3, rel=1e-8, abs=0.0)
            assert voigt_width_numeric(lorentzian, gaussian, 20.0) \
                == pytest.approx(w20, rel=1e-8, abs=0.0)
            assert est.residual < 1e-12
            assert est.flags == tied

    def test_cases_reach_every_path(self, seed7_trace):
        # The three paths on fixed traces: the paper configuration, a pure
        # Gaussian and criterion 8's trace, whose q reads 77.3.
        grid = grid_about(0.0, 5e3, 2.0)
        inverted = estimate_voigt(beat_trace(320.0, 640.0)[0])
        gaussian = estimate_voigt(eval_gaussian(grid, 0.0, 300.0),
                                  exclude_central_bins=0)
        lorentzian = estimate_voigt(read_trace(seed7_trace))
        assert inverted.flags == frozenset() and inverted.gaussian_fwhm > 0
        assert gaussian.lorentzian_fwhm == 0 and gaussian.gaussian_fwhm > 0
        assert lorentzian.gaussian_fwhm == 0 and lorentzian.lorentzian_fwhm > 0

    def test_wide_wings_keep_the_pure_lorentzian_value_bit_for_bit(self, seed7_trace):
        # The value the bisection returned on this trace, whose first probe,
        # w20 / sqrt(99), it accepted.
        est = estimate_voigt(read_trace(seed7_trace))
        masked = mask_central_bins(read_trace(seed7_trace), 3)
        w20 = width_at_level(masked, 20.0)
        assert est.lorentzian_fwhm == 31538.058851465572
        assert est.lorentzian_fwhm == w20 / LORENTZIAN_20DB_FACTOR
        assert est.gaussian_fwhm == 0.0
        assert est.flags == {FLAG_GRID_LIMITED}

    def test_fit_inverts_shapes_off_its_nodes(self):
        # 440 shapes halfway in angle between the fit's Chebyshev nodes, and
        # ratios a few ulps inside either pure shape.
        m = 8 * (lineshape._FIT_NODES - 1)
        shapes = 0.5 - 0.5 * np.cos(np.pi * (np.arange(m) + 0.5) / m)
        ratios = [voigt_width_numeric(x, math.sqrt(1.0 - x), 20.0)
                  / voigt_width_numeric(x, math.sqrt(1.0 - x)) for x in shapes]
        nudged = ([_nudged(GAUSSIAN_20DB_FACTOR, k) for k in (1, 2, 5)]
                  + [_nudged(LORENTZIAN_20DB_FACTOR, -k) for k in (1, 2, 5)])
        for k, ratio in enumerate(ratios + nudged):
            lorentzian, gaussian, w3 = lineshape._voigt_shape(ratio)
            assert 0.0 <= lorentzian <= 1.0
            assert gaussian == math.sqrt(1.0 - lorentzian)
            if k < m:
                assert lorentzian == pytest.approx(shapes[k], rel=0.0, abs=1e-10)
            assert voigt_width_numeric(lorentzian, gaussian, HALF_POWER_DB) \
                == pytest.approx(w3, rel=1e-10, abs=0.0)
            assert voigt_width_numeric(lorentzian, gaussian, 20.0) \
                == pytest.approx(ratio * w3, rel=1e-10, abs=0.0)

    def test_no_faddeeva_evaluation_once_the_fit_exists(self, monkeypatch):
        trace, _ = beat_trace(320.0, 640.0)
        lineshape._shape_fit()
        evaluations = []
        faddeeva = lineshape._faddeeva
        monkeypatch.setattr(lineshape, "_faddeeva",
                            lambda z: evaluations.append(z) or faddeeva(z))
        est = estimate_voigt(trace)
        assert evaluations == []
        assert not est.flags and est.gaussian_fwhm > 0  # the inverted path

    def test_fit_made_by_an_in_range_ratio_alone(self, tmp_path, seed7_trace):
        # Neither the CLI's import nor a fit of wings wider than any Voigt's
        # pays for the shape fit; the paper configuration does.
        in_range = tmp_path / "beat.csv"
        write_trace(beat_trace(320.0, 640.0)[0], in_range)
        proc = subprocess.run([sys.executable, "-c", (
            "import sys\n"
            "import beatnote.cli\n"
            "from beatnote import estimate_voigt, read_trace\n"
            "from beatnote.lineshape import _shape_fit as fit\n"
            "sizes = [fit.cache_info().currsize]\n"
            "for path in sys.argv[1:]:\n"
            "    estimate_voigt(read_trace(path))\n"
            "    sizes.append(fit.cache_info().currsize)\n"
            "print(sizes)\n"), str(seed7_trace), str(in_range)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 1]"

    def test_fit_is_the_same_in_every_process(self):
        # Seeded estimates stay deterministic only if the least-squares fit
        # gives the same coefficients each time it is made.
        runs = [subprocess.run([sys.executable, "-c", (
            "from beatnote.lineshape import _shape_fit\n"
            "print(repr(_shape_fit()))\n")],
            capture_output=True, text=True, check=True).stdout for _ in range(2)]
        assert runs[0] == runs[1] == repr(lineshape._shape_fit()) + "\n"


def _result_or_raised(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


# Distances from the peak where the outward search's blocks of 64, 128, 256
# and 512 bins meet, and one bin either side of each.
_BLOCK_EDGES = [1, 2, 63, 64, 65, 66, 191, 192, 193, 194, 447, 448, 449, 450]


@st.composite
def width_cases(draw):
    """A trace, a level and allow_ties for width_at_level.  Bins lie either
    high, in [0.2, 0.9], or low, in [0, 0.01], about a unit peak; the
    nearest low bin on each side is placed at a block edge, inside the first
    block, on a grid edge, anywhere, or nowhere, and farther bins are mixed.
    The peak sits inside the grid, on index 1 or n-2 included, and may tie
    with an adjacent or a separated sample (on a grid edge too) or head a
    plateau, which a level under 0.05 dB leaves as a flat top under it; or
    it is a sharp top, whose parabola peaks above it unless its neighbours
    are equal, drawn with a level under 0.51 dB."""
    n = draw(st.integers(3, 1100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ipk = draw(st.sampled_from([1, n - 2]) | st.integers(1, n - 2))
    values = rng.uniform(0.2, 0.9, n)
    far_low = rng.random(n) < draw(st.sampled_from([0.0, 0.02, 0.5]))
    values[far_low] = rng.uniform(0.0, 0.01, np.count_nonzero(far_low))
    for outward, room in ((-1, ipk), (1, n - 1 - ipk)):
        where = draw(st.sampled_from(["block edge", "any", "grid edge", "none"]))
        if where == "none" or room == 0:
            distance = room + 1
        elif where == "grid edge":
            distance = room
        elif where == "any":
            distance = draw(st.integers(1, room))
        else:
            distance = min(draw(st.sampled_from(_BLOCK_EDGES)), room)
        near = np.arange(ipk + outward, ipk + outward * distance, outward)
        values[near] = rng.uniform(0.2, 0.9, len(near))
        if distance <= room:
            values[ipk + outward * distance] = rng.uniform(0.0, 0.01)
    values[ipk] = 1.0
    tie = draw(st.sampled_from(["none", "adjacent", "separated", "plateau",
                                "flat top", "sharp top"]))
    if tie == "adjacent":
        values[min(ipk + 1, n - 1)] = 1.0
    elif tie == "separated":
        values[draw(st.integers(0, n - 1))] = 1.0
    elif tie in ("plateau", "flat top"):
        values[ipk:ipk + draw(st.integers(2, 70))] = 1.0
    grid = FrequencyGrid(draw(st.sampled_from([0.0, -1234.5, 7e6 + 1.0 / 3.0])),
                         draw(st.sampled_from([10.0, 0.5, 1.0 / 3.0])), n)
    # 20 dB and below, the level parts the low bins from the high ones or,
    # near 3 dB, falls among the high ones.  Under 0.05 dB it lies above a
    # flat top's samples, since the parabola through the top's first bin
    # peaks at least 1.0125 times above them.  Over a sharp top it may lie
    # above or below the top sample.
    if tie == "flat top":
        level = draw(st.sampled_from([0.01, 0.001]) | st.floats(0.001, 0.05))
    elif tie == "sharp top":
        level = draw(st.sampled_from([0.125, 0.01]) | st.floats(0.001, 0.51))
    else:
        level = draw(st.sampled_from([20.0, HALF_POWER_DB, 10.0])
                     | st.floats(0.01, 19.0))
    return SpectrumTrace(grid, values), level, draw(st.booleans())


@st.composite
def extremum_cases(draw):
    """Grid, values and a search for the envelope readers.  The position
    and the window's edges sit on or a few ulps off grid points and half
    steps, so the bins at the window's edges are decided by rounding;
    windows reach past either grid edge.  The values are noise, one smooth
    bump, or noise with the extremum forced next to a window edge, where a
    bin more or less moves it."""
    count = draw(st.integers(5, 400))
    grid = FrequencyGrid(
        draw(st.sampled_from([0.0, -0.0, -1234.5, 7e6, 7e6 + 1.0 / 3.0, 1e9])),
        draw(st.sampled_from([10.0, 0.1, 1.0 / 3.0, 37.5, 1e-3, 2.0 ** -7])),
        count)
    ulps = st.integers(-2, 2)
    k = draw(st.sampled_from([0, 1, 2, count - 3, count - 2, count - 1])
             | st.integers(0, count - 1))
    frac = draw(st.sampled_from([0.0, 0.5, -0.5]) | st.floats(-0.5, 0.5))
    position = _nudged(grid.start + grid.step * (k + frac), draw(ulps))
    reach = draw(st.sampled_from([2, 3, 4, k, count - 1 - k])
                 | st.integers(2, count + 2))
    # A window of whole and part steps, or the gap from the position to a
    # grid point as the readers round it, so that point sits on its edge.
    edge = draw(st.sampled_from(["steps", "low point", "high point"]))
    if edge == "steps":
        window = grid.step * (reach + draw(st.sampled_from([0.0, 0.5])
                                           | st.floats(0.0, 1.0)))
    elif edge == "low point":
        window = position - (grid.start + grid.step * (k - reach))
    else:
        window = (grid.start + grid.step * (k + reach)) - position
    window = max(_nudged(window, draw(ulps)), 0.0)
    kind = draw(st.sampled_from(["peak", "trough"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0.5, 1.0, count)
    shape = draw(st.sampled_from(["noise", "bump", "edge extremum"]))
    if shape == "bump":  # an interior extremum or none
        values = np.exp(-((np.arange(count) - draw(st.integers(-5, count + 5)))
                          / draw(st.floats(1.0, 50.0))) ** 2)
    elif shape == "edge extremum":
        at = k + draw(st.sampled_from([-1, 1])) * (reach + draw(st.integers(-1, 1)))
        values[min(max(at, 0), count - 1)] = 1e9 if kind == "peak" else 0.0
    carrier = draw(st.sampled_from([grid.start, position,
                                    grid.start - 1e3 * grid.step]))
    gamma = draw(st.sampled_from([0.0, grid.step, 100.0 * grid.step]))
    return grid, values, carrier, position, window, kind, gamma


class TestReadersMatchFullPass:
    """The estimators read only the bins near what they measure; every
    width, extremum and quadratic reading is the full-pass reader's, bit
    for bit, or the same exception with the same message."""

    @given(case=width_cases())
    @settings(max_examples=600)
    def test_width_at_level(self, case):
        trace, level, allow_ties = case
        assert _result_or_raised(width_at_level, trace, level, allow_ties) \
            == _result_or_raised(reference_width_at_level, trace, level, allow_ties)

    @given(case=extremum_cases())
    @settings(max_examples=600)
    def test_locate_extremum_and_quadratic_value(self, case):
        grid, values, carrier, position, window, kind, gamma = case
        freqs = grid.points()
        assert _result_or_raised(_locate_extremum, grid, values, carrier,
                                 position, window, kind, gamma) \
            == _result_or_raised(reference_locate_extremum, freqs, values,
                                 grid.step, carrier, position, window, kind, gamma)
        assert _result_or_raised(_quadratic_value_at, grid, values, position) \
            == _result_or_raised(reference_quadratic_value_at, freqs, values,
                                 position)


class TestFarBinsUnread:
    @pytest.mark.parametrize("bumped", [False, True])
    def test_padding_the_high_wing_changes_no_estimate(self, bumped):
        # Bins appended above the trace lie below both width levels and
        # outside both envelope windows, and move neither the grid start nor
        # any index: both estimates stay equal.
        params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0,
                            fiber_length=4e3)
        grid = grid_about(7e6, 64e3, 10.0)
        trace = voigt_beat_note(params, 640.0, grid)
        if bumped:
            trace = inject_servo_bumps(trace, ServoBumpModel(
                offset=50e3, width=15e3, height_db=12.0), carrier_hz=7e6)
        clean = analytic_psd(params, grid)
        padded_grid = FrequencyGrid(grid.start, grid.step, 3 * grid.count)

        def padded(t):
            wing = t.values[-1] * np.linspace(1.0, 0.5, padded_grid.count - grid.count)
            return SpectrumTrace(padded_grid, np.concatenate([t.values, wing]))

        assert padded(trace).values.max() == trace.values.max()
        assert estimate_voigt(padded(trace)) == estimate_voigt(trace)
        assert estimate_envelope_contrast(padded(clean), params) \
            == estimate_envelope_contrast(clean, params)
        assert measure_envelope_contrast(padded(clean), params, 1, 2) \
            == measure_envelope_contrast(clean, params, 1, 2)


class TestOversizedMask:
    GRID = FrequencyGrid(-5.0, 1.0, 11)

    @pytest.mark.parametrize("count", [9, 10, 20000])
    def test_refused_naming_count_and_bins(self, count):
        # 9 of 11 bins is every interior bin; the estimator used to report
        # it as a peak on the grid edge.
        trace = eval_lorentzian(self.GRID, 0.0, 3.0)
        message = f"masked bin count {count} must be below 9 on a 11-bin trace"
        with pytest.raises(InvalidParameterError, match=message):
            mask_central_bins(trace, count)
        with pytest.raises(InvalidParameterError, match=message):
            estimate_voigt(trace, exclude_central_bins=count)

    @pytest.mark.parametrize("peak, masked", [(9, [5, 6, 7, 8, 9]),
                                              (1, [1, 2, 3, 4, 5])])
    def test_count_kept_next_to_either_edge(self, peak, masked):
        # A ramp peaking next to the high edge used to mask only bins 7-9:
        # the mask was clipped at bin 9 instead of shifted down.
        values = np.append(np.arange(1.0, 11.0), 0.5)
        trace = SpectrumTrace(self.GRID, values if peak == 9 else values[::-1])
        changed = mask_central_bins(trace, 5).values != trace.values
        assert np.flatnonzero(changed).tolist() == masked

    def test_largest_count_masks(self):
        trace = eval_lorentzian(self.GRID, 0.0, 3.0)
        masked = mask_central_bins(trace, 8)
        assert masked.values[0] == trace.values[0]
        assert masked.values[-1] == trace.values[-1]
        assert not np.array_equal(masked.values, trace.values)


def reference_contrast_model(params, peak_order, trough_order):
    """The contrast model as one closure that reads every constant from
    params on each call: the formula _contrast_model must match bit for bit."""
    spacing = extrema_spacing(params)
    delay = params.delay
    x_p = peak_order * spacing
    x_t = trough_order * spacing

    def contrast_db(fwhm):
        gamma = fwhm / 2.0
        coh = math.exp(-2.0 * math.pi * delay * gamma)
        ratio = ((gamma * gamma + x_t * x_t) / (gamma * gamma + x_p * x_p)) \
            * ((1.0 + coh) / (1.0 - coh))
        return 10.0 * math.log10(ratio)

    return contrast_db


def reference_solve_contrast(params, peak_order, trough_order, contrast_db):
    """Geometric bisection of the reference model on [0.1 Hz, 1 MHz] to a
    1e-12 relative bracket: (linewidth, iterations)."""
    model = reference_contrast_model(params, peak_order, trough_order)
    lo, hi = 0.1, 1e6
    iterations = 0
    for iterations in range(1, 200):
        mid = math.sqrt(lo * hi)
        if model(mid) > contrast_db:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= 1e-12 * hi:
            break
    return math.sqrt(lo * hi), iterations


@st.composite
def contrast_cases(draw):
    """Params with a 1-10 km fiber, an order pair, and a contrast inside the
    model's attainable bracket [model(1 MHz), model(0.1 Hz)], ends included."""
    params = DshiParams(eom_frequency=7e6, laser_fwhm=100.0,
                        fiber_length=draw(st.floats(1e3, 1e4)))
    orders = draw(st.sampled_from([(1, 2), (3, 2), (3, 4)]))
    model = reference_contrast_model(params, *orders)
    low, high = model(1e6), model(0.1)
    share = draw(st.floats(0.0, 1.0))
    contrast = min(max(low + share * (high - low), low), high)
    return params, orders, contrast


class TestContrastSolverMatchesReference:
    @given(case=contrast_cases())
    @settings(max_examples=300)
    def test_same_linewidth_and_iterations(self, case):
        params, orders, contrast = case
        fwhm, iterations = solve_contrast(params, *orders, contrast)
        assert (fwhm, iterations) \
            == reference_solve_contrast(params, *orders, contrast)
        assert type(iterations) is int
        assert _contrast_model(params, *orders)(fwhm) \
            == reference_contrast_model(params, *orders)(fwhm)
