"""Lineshape evaluation and width measurement."""

import math

import numpy as np
import pytest
from scipy.signal import fftconvolve
from scipy.special import voigt_profile, wofz

from beatnote import (
    HALF_POWER_DB,
    FrequencyGrid,
    LineshapeParams,
    SpectrumTrace,
    eval_gaussian,
    eval_lorentzian,
    eval_voigt_numeric,
    voigt_fwhm_approx,
    voigt_width_numeric,
    width_at_level,
)
from beatnote.errors import (
    AmbiguousPeakError,
    InvalidParameterError,
    WidthUndefinedError,
)
from beatnote.lineshape import _faddeeva, _voigt_density
from oracles import voigt_grid

GAUSS_20DB = math.sqrt(math.log2(100.0))     # 2.577568
LORENTZ_20DB = math.sqrt(99.0)               # 9.949874


def gaussian_trace(fwhm=100.0, f0=0.0, step=None, half_span=None):
    step = step or fwhm / 50.0
    half_span = half_span or 12.0 * fwhm
    n = int(half_span / step)
    return eval_gaussian(FrequencyGrid(f0 - n * step, step, 2 * n + 1), f0, fwhm)


def lorentzian_trace(fwhm=100.0, f0=0.0, step=None, half_span=None):
    step = step or fwhm / 50.0
    half_span = half_span or 20.0 * fwhm
    n = int(half_span / step)
    return eval_lorentzian(FrequencyGrid(f0 - n * step, step, 2 * n + 1), f0, fwhm)


def reference_voigt(fl, fg, step=None):
    """Independent Voigt: brute-force discrete convolution of the sampled
    Lorentzian with a sampled Gaussian kernel, renormalized to unit
    trapezoidal integral.  Grid: 40 points across the narrower FWHM (the
    wider one when the ratio passes 4000, where the narrow part is a delta),
    spanning +-20*(fg + fl).  Returns (grid, values)."""
    if step is None:
        narrower, wider = min(fl, fg), max(fl, fg)
        step = (narrower if narrower >= wider / 4000.0 else wider) / 40.0
    n = int(math.ceil(20.0 * (fg + fl) / step))
    grid = FrequencyGrid(-n * step, step, 2 * n + 1)
    if fg < step / 100.0:
        return grid, eval_lorentzian(grid, 0.0, fl).values
    if fl < step / 100.0:
        return grid, eval_gaussian(grid, 0.0, fg).values
    m = int(math.ceil(4.0 * fg / step))
    kernel = eval_gaussian(FrequencyGrid(-m * step, step, 2 * m + 1), 0.0, fg).values
    values = fftconvolve(eval_lorentzian(grid, 0.0, fl).values, kernel, mode="same")
    values = np.maximum(values, 0.0)
    return grid, values / np.trapezoid(values, dx=step)


def reference_voigt_density(x, fl, fg):
    """scipy's exact Voigt density at offsets x from the center."""
    sigma = fg / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return voigt_profile(x, sigma, fl / 2.0)


def reference_voigt_width(fl, fg, level_db):
    """Full width at `level_db` by plain bisection on scipy's density, inside
    a bracket doubled from the summed widths, to 1e-12 relative."""
    target = reference_voigt_density(0.0, fl, fg) * 10.0 ** (-level_db / 10.0)
    lo, hi = 0.0, fl + fg
    while reference_voigt_density(hi, fl, fg) > target:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if reference_voigt_density(mid, fl, fg) > target:
            lo = mid
        else:
            hi = mid
    return float(lo + hi)


def random_width_cases(count, seed=11):
    """(fl, fg, level_db): widths log-uniform over 1e-3..1e3, every fifth
    Lorentzian spread by up to 1e6 either way, levels 0.5..30 dB."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        fl, fg = 10.0 ** rng.uniform(-3.0, 3.0, 2)
        if i % 5 == 0:
            fl *= 10.0 ** rng.uniform(-6.0, 6.0)
        cases.append((float(fl), float(fg), float(rng.uniform(0.5, 30.0))))
    return cases


class TestFaddeeva:
    def test_matches_wofz(self):
        rng = np.random.default_rng(5)
        y = 10.0 ** rng.uniform(-8.0, 4.0, 20000)
        x = 10.0 ** rng.uniform(-6.0, 5.0, 20000) * rng.choice([-1.0, 1.0], 20000)
        w, reference = _faddeeva(x + 1j * y), wofz(x + 1j * y)
        assert np.max(np.abs(w - reference) / np.abs(reference)) < 1e-12
        # The real part, which the Voigt profile is, within 30 dB of its
        # peak over x, Re w(iy).
        near = reference.real >= 1e-3 * wofz(1j * y).real
        assert np.count_nonzero(near) > 5000
        assert np.max(np.abs(w.real[near] / reference.real[near] - 1.0)) < 1e-12

    def test_scalar_path_matches_array_path(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(-50.0, 50.0, 200) + 1j * 10.0 ** rng.uniform(-6.0, 3.0, 200)
        array = _faddeeva(z)
        for zk, wk in zip(z, array):
            scalar = _faddeeva(complex(zk))
            assert isinstance(scalar, complex)
            assert abs(scalar - wk) <= 1e-15 * abs(wk)

    @pytest.mark.parametrize("z", [8e300 + 1e300j, 8e300 + 8e299j,
                                   1e150 + 1e150j, 1e5 + 1e3j, 1.0 + 1e-301j])
    def test_large_and_edge_arguments(self, z):
        # (L - iz)**2 would overflow past |z| ~ 1e154; the form used never
        # squares it.
        got, reference = _faddeeva(z), complex(wofz(z))
        assert abs(got.real / reference.real - 1.0) < 1e-13
        assert abs(got.imag / reference.imag - 1.0) < 1e-13


class TestFrequencyGrid:
    def test_points_exactly_reproducible(self):
        grid = FrequencyGrid(7e6 - 1e3, 0.25, 8001)
        pts = grid.points()
        idx = np.arange(8001)
        assert np.array_equal(pts, grid.start + idx * grid.step)
        assert grid.stop == pts[-1]

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            FrequencyGrid(0.0, 0.0, 10)
        with pytest.raises(InvalidParameterError):
            FrequencyGrid(0.0, 1.0, 1)

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_start(self, start):
        with pytest.raises(InvalidParameterError):
            FrequencyGrid(start, 1.0, 10)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_rejects_non_finite_step(self, step):
        with pytest.raises(InvalidParameterError):
            FrequencyGrid(0.0, step, 10)

    @pytest.mark.parametrize("count", [3.5, math.nan, math.inf])
    def test_rejects_non_integral_count(self, count):
        with pytest.raises(InvalidParameterError):
            FrequencyGrid(0.0, 1.0, count)

    def test_integral_count_becomes_int(self):
        grid = FrequencyGrid(0.0, 1.0, np.int64(4))
        assert type(grid.count) is int
        assert FrequencyGrid(0.0, 1.0, 4.0) == FrequencyGrid(0.0, 1.0, 4)

    def test_index_of(self):
        grid = FrequencyGrid(100.0, 2.0, 51)
        assert grid.index_of(100.0) == 0
        assert grid.index_of(150.9) == 25


class TestGaussian:
    def test_peak_value(self):
        # Direct evaluation: 2 sqrt(ln 2) / (sqrt(pi) * 100)
        trace = gaussian_trace(100.0)
        expected = 2.0 * math.sqrt(math.log(2.0)) / (math.sqrt(math.pi) * 100.0)
        assert trace.values.max() == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(9.3944e-3, rel=1e-4)

    def test_half_maximum_at_half_fwhm(self):
        fwhm = 100.0
        grid = FrequencyGrid(-fwhm, fwhm / 2.0, 5)
        trace = eval_gaussian(grid, 0.0, fwhm)
        peak = trace.values[2]
        assert trace.values[1] == pytest.approx(peak / 2.0, rel=1e-12)
        assert trace.values[3] == pytest.approx(peak / 2.0, rel=1e-12)

    def test_unit_integral(self):
        trace = gaussian_trace(100.0, half_span=1000.0)
        assert abs(trace.integral() - 1.0) < 1e-6

    def test_rejects_bad_fwhm(self):
        grid = FrequencyGrid(-1.0, 0.1, 21)
        with pytest.raises(InvalidParameterError):
            eval_gaussian(grid, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            eval_gaussian(grid, 0.0, -1.0)


class TestLorentzian:
    def test_peak_value(self):
        trace = lorentzian_trace(320.0)
        expected = 2.0 / (math.pi * 320.0)
        assert trace.values.max() == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.9894e-3, rel=1e-4)

    def test_half_maximum_at_half_fwhm(self):
        fwhm = 320.0
        grid = FrequencyGrid(-fwhm, fwhm / 2.0, 5)
        trace = eval_lorentzian(grid, 0.0, fwhm)
        assert trace.values[1] == pytest.approx(trace.values[2] / 2.0, rel=1e-12)

    def test_20db_width_factor(self):
        # Analytic inversion at 0.01x peak: full width sqrt(99) * fwhm
        trace = lorentzian_trace(320.0)
        w20 = width_at_level(trace, 20.0)
        assert w20 == pytest.approx(LORENTZ_20DB * 320.0, rel=5e-3)

    def test_heavy_tail_normalization(self):
        trace = lorentzian_trace(1.0, step=0.1, half_span=1e4)
        assert abs(trace.integral() - 1.0) < 1e-2

    def test_rejects_bad_fwhm(self):
        grid = FrequencyGrid(-1.0, 0.1, 21)
        with pytest.raises(InvalidParameterError):
            eval_lorentzian(grid, 0.0, -3.0)


class TestVoigtApprox:
    def test_pure_gaussian_limit_exact(self):
        assert voigt_fwhm_approx(0.0, 123.0) == 123.0

    def test_pure_lorentzian_value(self):
        assert voigt_fwhm_approx(320.0, 0.0) == pytest.approx(320.0215, abs=5e-3)

    def test_equal_widths_value(self):
        assert voigt_fwhm_approx(100.0, 100.0) == pytest.approx(163.7623, abs=5e-3)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            voigt_fwhm_approx(-1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            voigt_fwhm_approx(1.0, -1.0)

    def test_monotone_in_each_argument(self):
        widths = np.logspace(0, 4, 9)
        for other in (1.0, 100.0, 1e4):
            lor = [voigt_fwhm_approx(w, other) for w in widths]
            gau = [voigt_fwhm_approx(other, w) for w in widths]
            assert np.all(np.diff(lor) > 0)
            assert np.all(np.diff(gau) > 0)


class TestVoigtNumeric:
    def test_gaussian_delta_limit_equals_lorentzian(self):
        grid = FrequencyGrid(-2000.0, 1.0, 4001)
        params = LineshapeParams(0.0, fwhm_gaussian=1e-4, fwhm_lorentzian=100.0)
        trace = eval_voigt_numeric(grid, params)
        assert np.array_equal(trace.values, eval_lorentzian(grid, 0.0, 100.0).values)

    def test_lorentzian_delta_limit_equals_gaussian(self):
        grid = FrequencyGrid(-2000.0, 1.0, 4001)
        params = LineshapeParams(0.0, fwhm_gaussian=100.0, fwhm_lorentzian=1e-4)
        trace = eval_voigt_numeric(grid, params)
        assert np.array_equal(trace.values, eval_gaussian(grid, 0.0, 100.0).values)

    def test_equal_widths_match_closed_form(self):
        # Root find on the exact profile vs the closed-form width: ~163.8 Hz
        fwhm = voigt_width_numeric(100.0, 100.0, HALF_POWER_DB)
        assert fwhm == pytest.approx(voigt_fwhm_approx(100.0, 100.0), rel=1e-2)
        assert fwhm == pytest.approx(163.8, rel=1e-2)

    def test_profile_matches_faddeeva_oracle(self):
        # The package's Faddeeva profile against the independent brute-force
        # convolution, both renormalized over the same finite span.
        grid, reference = reference_voigt(100.0, 100.0)
        params = LineshapeParams(0.0, fwhm_gaussian=100.0, fwhm_lorentzian=100.0)
        trace = eval_voigt_numeric(grid, params)
        assert np.max(np.abs(trace.values - reference)) / reference.max() < 2e-3

    def test_unit_integral(self):
        params = LineshapeParams(0.0, fwhm_gaussian=50.0, fwhm_lorentzian=200.0)
        trace = eval_voigt_numeric(voigt_grid(params), params)
        assert trace.integral() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("sub", [
        FrequencyGrid(-4000.0, 10.0, 801),   # 10 points across the FWHM
        FrequencyGrid(-500.0, 1.0, 1001),    # +-5 widths of span
    ], ids=["coarse_step", "narrow_span"])
    def test_sub_grid_samples_match_fine_grid(self, sub):
        # Exact samples at any step or span: on frequencies shared with a
        # fine, wide grid they differ only by the one normalization constant.
        params = LineshapeParams(0.0, fwhm_gaussian=100.0, fwhm_lorentzian=100.0)
        fine = FrequencyGrid(-4000.0, 0.5, 16001)
        shared = fine.points()
        keep = np.isin(shared, sub.points())
        assert np.count_nonzero(keep) == sub.count
        ratio = eval_voigt_numeric(sub, params).values \
            / eval_voigt_numeric(fine, params).values[keep]
        assert np.ptp(ratio) / ratio.mean() < 1e-12

    def test_width_matches_reference_convolution(self):
        # Criterion-4 width grid, half power: the root find on the exact
        # profile against widths read off the brute-force convolution.
        widths = [1.0, 10.0, 100.0, 1000.0, 10000.0]
        worst = 0.0
        for fl in widths:
            for fg in widths:
                grid, values = reference_voigt(fl, fg)
                reference = width_at_level(SpectrumTrace(grid, values), HALF_POWER_DB)
                exact = voigt_width_numeric(fl, fg, HALF_POWER_DB)
                worst = max(worst, abs(exact / reference - 1.0))
        assert worst <= 2e-4

    def test_density_matches_scipy_on_voigt_grids(self):
        for ratio in np.logspace(-4.0, 4.0, 17):
            params = LineshapeParams(0.0, fwhm_gaussian=1.0, fwhm_lorentzian=ratio)
            x = voigt_grid(params).points()
            reference = reference_voigt_density(x, ratio, 1.0)
            density = _voigt_density(x, params)
            peak = reference.max()
            assert np.max(np.abs(density - reference)) <= 1e-13 * peak, ratio
            near = reference >= 1e-3 * peak
            assert np.max(np.abs(density[near] / reference[near] - 1.0)) <= 1e-10
            assert density.min() >= 0.0

    @pytest.mark.parametrize("cases", [
        random_width_cases(400),
        # L/G from 1e4 to 1e8: the Newton slope loses digits to cancellation
        # here; trusted regardless, it puts widths 4e-10 off.
        [(1.0, 10.0 ** -e, level) for e, level in
         np.random.default_rng(13).uniform((4.0, 0.5), (8.0, 30.0), (60, 2))],
    ], ids=["mixed", "lorentzian_dominated"])
    def test_width_matches_reference_bisection(self, cases):
        worst = max(abs(voigt_width_numeric(fl, fg, level)
                        / reference_voigt_width(fl, fg, level) - 1.0)
                    for fl, fg, level in cases)
        assert worst <= 2e-12

    @pytest.mark.parametrize("fl,fg", [(0.0, 1.0), (1.0, 0.0), (1e-300, 1.0),
                                       (1.0, 1e-300), (1e300, 1.0), (1.0, 1e300)])
    def test_width_at_extreme_ratios(self, fl, fg):
        assert voigt_width_numeric(fl, fg, 20.0) == pytest.approx(
            reference_voigt_width(fl, fg, 20.0), rel=2e-12)

    @pytest.mark.parametrize("fg", [1e-310, 5e-324])
    def test_width_subnormal_gaussian_is_lorentzian(self, fg):
        # gamma / (sigma sqrt 2) overflows here (scipy's profile reads 0).
        assert voigt_width_numeric(1.0, fg, 20.0) == pytest.approx(
            LORENTZ_20DB, rel=1e-15)

    def test_width_newton_needs_few_evaluations(self, monkeypatch):
        # Bisection to 1e-12 takes about 43 profile evaluations a width.
        calls = []
        monkeypatch.setattr("beatnote.lineshape._faddeeva",
                            lambda z: calls.append(z) or _faddeeva(z))
        counts = []
        for fl, fg, level in random_width_cases(100, seed=12):
            calls.clear()
            voigt_width_numeric(fl, fg, level)
            counts.append(len(calls))
        assert np.median(counts) <= 8

    def test_width_exact_in_pure_limits(self):
        assert voigt_width_numeric(100.0, 0.0, 20.0) == pytest.approx(
            LORENTZ_20DB * 100.0, rel=1e-11)
        assert voigt_width_numeric(0.0, 100.0, 20.0) == pytest.approx(
            GAUSS_20DB * 100.0, rel=1e-11)

    def test_width_level_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            voigt_width_numeric(100.0, 100.0, 0.0)

    @pytest.mark.parametrize("level_db", [math.inf, math.nan])
    def test_width_level_must_be_finite(self, level_db):
        # Unchecked, an infinite level makes the target density 0 and the
        # bracket doubles until the profile underflows (5.2e161 Hz).
        with pytest.raises(InvalidParameterError):
            voigt_width_numeric(1.0, 1.0, level_db)

    def test_both_degenerate_rejected(self):
        with pytest.raises(InvalidParameterError):
            LineshapeParams(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (0.0, math.inf, 1.0),
                                      (0.0, 1.0, math.nan)])
    def test_non_finite_params_rejected(self, args):
        with pytest.raises(InvalidParameterError):
            LineshapeParams(*args)

    @pytest.mark.parametrize("fl,fg", [(1.0, 1.0), (10.0, 1000.0), (1000.0, 10.0)])
    def test_symmetry(self, fl, fg):
        params = LineshapeParams(0.0, fwhm_gaussian=fg, fwhm_lorentzian=fl)
        trace = eval_voigt_numeric(voigt_grid(params), params)
        assert np.allclose(trace.values, trace.values[::-1], rtol=1e-9, atol=0)


class TestWidthAtLevel:
    def test_half_power_roundtrip_lorentzian(self):
        trace = lorentzian_trace(100.0, step=2.0)
        assert abs(width_at_level(trace, HALF_POWER_DB) - 100.0) <= 2.0

    def test_half_power_roundtrip_gaussian(self):
        trace = gaussian_trace(100.0, step=2.0)
        assert abs(width_at_level(trace, HALF_POWER_DB) - 100.0) <= 2.0

    def test_gaussian_20db_factor(self):
        trace = gaussian_trace(100.0)
        w20 = width_at_level(trace, 20.0)
        assert w20 == pytest.approx(GAUSS_20DB * 100.0, rel=5e-3)

    def test_level_not_crossed(self):
        trace = gaussian_trace(100.0, half_span=120.0)
        with pytest.raises(WidthUndefinedError):
            width_at_level(trace, 40.0)

    def test_peak_on_edge(self):
        grid = FrequencyGrid(0.0, 1.0, 101)
        trace = SpectrumTrace(grid, np.exp(-np.linspace(0, 5, 101)))
        with pytest.raises(WidthUndefinedError):
            width_at_level(trace, 3.0)

    def test_ambiguous_two_peaks(self):
        grid = FrequencyGrid(0.0, 1.0, 101)
        values = np.ones(101) * 0.1
        values[30] = values[70] = 1.0
        trace = SpectrumTrace(grid, values)
        with pytest.raises(AmbiguousPeakError):
            width_at_level(trace, 3.0)
        width_at_level(trace, 3.0, allow_ties=True)  # lowest frequency wins

    def test_level_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            width_at_level(gaussian_trace(), 0.0)

    def test_returns_plain_float(self):
        assert type(width_at_level(gaussian_trace(), HALF_POWER_DB)) is float
        assert type(voigt_width_numeric(100.0, 100.0)) is float


class TestSpectrumTrace:
    grid = FrequencyGrid(0.0, 1.0, 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nan_and_positive_inf(self, bad):
        values = np.ones(5)
        values[2] = bad
        with pytest.raises(InvalidParameterError):
            SpectrumTrace(self.grid, values)

    def test_negative_inf_illegal_in_linear(self):
        with pytest.raises(InvalidParameterError):
            SpectrumTrace(self.grid, [1.0, 1.0, -np.inf, 1.0, 1.0])

    @pytest.mark.parametrize("rbw", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rbw(self, rbw):
        with pytest.raises(InvalidParameterError):
            SpectrumTrace(self.grid, np.ones(5), rbw=rbw)

    def test_integral_of_dbm_trace_is_linear(self):
        linear = SpectrumTrace(self.grid, [0.0, 1.0, 2.0, 1.0, 0.0])
        assert linear.integral() == 4.0
