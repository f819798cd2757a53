"""Two-level spectroscopy simulator and its reductions."""

import math

import numpy as np
import pytest

from beatnote import (
    ExcitationCurve,
    FrequencyGrid,
    IonProbeParams,
    LaserNoise,
    fit_damped_sine,
    fit_inverse_power,
    fit_lorentzian_peak,
    rabi_probability,
    simulate_carrier_spectrum,
    simulate_rabi,
)
from beatnote.errors import (
    DomainError,
    InitializationError,
    InsufficientDataError,
    InvalidParameterError,
    ResolutionError,
)
from beatnote.ionsim import _shot_noise_tables, damped_sine_model

RESONANT_GRID = FrequencyGrid(-1.0, 1.0, 3)


def detuning_grid(half_span, points):
    return FrequencyGrid(-half_span, 2.0 * half_span / (points - 1), points)


def spectrum(omega, pulse, fwhm=0.0, rin=0.0, shots=1, seed=0, half_span=None,
             points=81):
    half_span = half_span or max(5.0 / pulse, 3.0 * omega)
    params = IonProbeParams(rabi_frequency=omega, pulse_duration=pulse,
                            detuning_grid=detuning_grid(half_span, points),
                            shots_per_point=shots, rng_seed=seed)
    return simulate_carrier_spectrum(params, LaserNoise(fwhm=fwhm, rin_sigma=rin))


class TestNoiselessOracle:
    def test_integrator_matches_closed_form(self):
        # pi-pulse at T = 1/(2 Omega): on-resonance transfer is complete and
        # the profile is Omega^2/(Omega^2+d^2) sin^2(pi sqrt(Omega^2+d^2) T).
        for omega, pulse in [(250.0, 2e-3), (250.0, 4e-3), (1000.0, 0.5e-3)]:
            curve = spectrum(omega, pulse, points=101)
            oracle = rabi_probability(omega, curve.abscissa, pulse)
            assert np.max(np.abs(curve.probability - oracle)) < 1e-4

    def test_pi_pulse_resonant_unity(self):
        curve = spectrum(250.0, 2e-3, points=101)
        i0 = np.argmin(np.abs(curve.abscissa))
        assert curve.probability[i0] == pytest.approx(1.0, abs=1e-6)

    def test_far_detuned_negligible(self):
        assert rabi_probability(250.0, 5000.0, 2e-3) < 0.01
        curve = spectrum(250.0, 2e-3, half_span=6000.0, points=121)
        outer = np.abs(curve.abscissa) >= 5000.0
        assert np.all(curve.probability[outer] < 0.01)

    def test_rabi_flopping_sin_squared(self):
        params = IonProbeParams(rabi_frequency=40e3, pulse_duration=1.0,
                                detuning_grid=RESONANT_GRID)
        curve = simulate_rabi(params, LaserNoise(), t_max=3e-4, t_points=300)
        oracle = np.sin(math.pi * 40e3 * curve.abscissa) ** 2
        assert np.max(np.abs(curve.probability - oracle)) < 1e-6


class TestProbabilityBounds:
    def test_bounded_with_noise(self):
        curve = spectrum(250.0, 4e-3, fwhm=500.0, rin=0.1, shots=40, seed=2)
        assert np.all(curve.probability >= 0.0)
        assert np.all(curve.probability <= 1.0)

    def test_shot_noise_scaling(self):
        # Standard error of the mean halves when shots quadruple.
        def scatter(shots):
            values = [
                spectrum(250.0, 2e-3, fwhm=400.0, shots=shots, seed=seed,
                         points=9, half_span=2100.0).probability[4]
                for seed in range(24)
            ]
            return np.std(values)

        ratio = scatter(8) / scatter(32)
        assert 1.4 < ratio < 2.9

    def test_deterministic_curves(self):
        a = spectrum(250.0, 2e-3, fwhm=156.0, shots=25, seed=9)
        b = spectrum(250.0, 2e-3, fwhm=156.0, shots=25, seed=9)
        assert np.array_equal(a.probability, b.probability)
        params = IonProbeParams(rabi_frequency=40e3, pulse_duration=1.0,
                                detuning_grid=RESONANT_GRID,
                                shots_per_point=20, rng_seed=4)
        noise = LaserNoise(rin_sigma=0.02)
        r1 = simulate_rabi(params, noise, 3e-4, 300)
        r2 = simulate_rabi(params, noise, 3e-4, 300)
        assert np.array_equal(r1.probability, r2.probability)


class TestNoiseKeying:
    def test_point_noise_independent_of_point_count(self):
        kicks_5, scales_5 = _shot_noise_tables(7, 5, 20, 30, 0.1, 0.01)
        kicks_9, scales_9 = _shot_noise_tables(7, 9, 20, 30, 0.1, 0.01)
        assert np.array_equal(kicks_5, kicks_9[:5])
        assert np.array_equal(scales_5, scales_9[:5])

    def test_points_draw_distinct_noise(self):
        kicks, scales = _shot_noise_tables(7, 2, 20, 30, 0.1, 0.01)
        assert not np.array_equal(kicks[0], kicks[1])
        assert not np.array_equal(scales[0], scales[1])


class TestPreconditions:
    def test_grid_span_enforced(self):
        with pytest.raises(ResolutionError):
            spectrum(250.0, 4e-3, half_span=500.0)  # needs +-1000 Hz

    def test_rabi_sampling_enforced(self):
        params = IonProbeParams(rabi_frequency=40e3, pulse_duration=1.0,
                                detuning_grid=RESONANT_GRID)
        with pytest.raises(ResolutionError):
            simulate_rabi(params, LaserNoise(), t_max=1e-3, t_points=100)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            IonProbeParams(rabi_frequency=0.0, pulse_duration=1e-3,
                           detuning_grid=RESONANT_GRID)
        with pytest.raises(InvalidParameterError):
            LaserNoise(fwhm=-1.0)
        with pytest.raises(InvalidParameterError):
            ExcitationCurve(np.arange(3.0), np.array([0.0, 0.5, 1.5]), 1)

    @pytest.mark.parametrize("field", ["fwhm", "rin_sigma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_laser_noise_rejects_non_finite(self, field, bad):
        with pytest.raises(InvalidParameterError):
            LaserNoise(**{field: bad})

    @pytest.mark.parametrize("field, bad", [
        ("shots_per_point", 2.5),
        ("rng_seed", -1),
        ("rng_seed", 1.5),
        ("rabi_frequency", math.inf),
        ("pulse_duration", math.nan),
    ])
    def test_probe_params_rejected(self, field, bad):
        kwargs = dict(rabi_frequency=125.0, pulse_duration=4e-3,
                      detuning_grid=RESONANT_GRID)
        with pytest.raises(InvalidParameterError):
            IonProbeParams(**{**kwargs, field: bad})


class TestSpectrumTrends:
    def test_fourier_narrowing_in_duration(self):
        # Fixed small pulse area: fitted width strictly decreases with T.
        widths = []
        for pulse in (1e-3, 2e-3, 4e-3):
            curve = spectrum(0.5 / pulse, pulse, points=81)
            widths.append(float(fit_lorentzian_peak(curve).parameters[1]))
        assert widths[0] > widths[1] > widths[2]

    def test_linewidth_floor_with_laser_noise(self):
        fwhm = 156.0
        fitted = []
        for pulse in (4e-3, 8e-3, 16e-3):
            curve = spectrum(0.5 / pulse, pulse, fwhm=fwhm, shots=200, seed=3,
                             half_span=max(5.0 / pulse, 4.0 * fwhm))
            fitted.append(float(fit_lorentzian_peak(curve).parameters[1]))
        assert fitted[0] > fitted[1] > fitted[2]
        assert fitted[-1] >= 0.8 * fwhm

    def test_peak_desaturation_below_half_area(self):
        peaks = []
        for omega in (100.0, 62.5, 31.25):  # Omega*T < 1/2 at T = 4 ms
            curve = spectrum(omega, 4e-3, points=81)
            peaks.append(curve.probability.max())
        assert all(p < 1.0 for p in peaks)
        assert peaks[0] > peaks[1] > peaks[2]


class TestFitLorentzianPeak:
    def test_noiseless_recovery(self):
        from beatnote.estimate import lorentzian_peak_model
        x = np.linspace(-20e3, 20e3, 161)
        y = lorentzian_peak_model(x, 0.0, 5400.0, 0.8, 0.02)
        fit = fit_lorentzian_peak(ExcitationCurve(x, y, 1))
        assert fit.parameters[1] == pytest.approx(5400.0, rel=1e-4)

    def test_flat_curve_rejected(self):
        x = np.linspace(-1e3, 1e3, 51)
        with pytest.raises(InitializationError):
            fit_lorentzian_peak(ExcitationCurve(x, np.full(51, 0.3), 1))


class TestFitDampedSine:
    def test_exact_recovery(self):
        t = np.linspace(0.0, 3e-4, 240)
        y = damped_sine_model(t, 40e3, 3e-4, 1.0, 0.0, 0.5)
        fit = fit_damped_sine(ExcitationCurve(t, y, 1))
        assert fit.parameters[0] == pytest.approx(40e3, rel=1e-3)
        assert fit.parameters[1] == pytest.approx(3e-4, rel=1e-3)
        assert fit.parameters[2] == pytest.approx(1.0, rel=1e-3)

    def test_simulated_rabi_frequency_within_one_percent(self):
        params = IonProbeParams(rabi_frequency=40e3, pulse_duration=1.0,
                                detuning_grid=RESONANT_GRID,
                                shots_per_point=150, rng_seed=5)
        curve = simulate_rabi(params, LaserNoise(rin_sigma=0.01), 5e-4, 450)
        fit = fit_damped_sine(curve)
        assert fit.parameters[0] == pytest.approx(40e3, rel=0.01)

    def test_coherence_time_decreases_with_rin(self):
        taus = {}
        for rin in (0.01, 0.02):
            params = IonProbeParams(rabi_frequency=40e3, pulse_duration=1.0,
                                    detuning_grid=RESONANT_GRID,
                                    shots_per_point=150, rng_seed=5)
            curve = simulate_rabi(params, LaserNoise(rin_sigma=rin), 5e-4, 450)
            taus[rin] = float(fit_damped_sine(curve).parameters[1])
        assert taus[0.02] < taus[0.01]

    def test_master_vs_amplified_coherence(self):
        # Lower intensity noise (master) keeps a longer coherence time.
        def tau(rin):
            params = IonProbeParams(rabi_frequency=40e3, pulse_duration=1.0,
                                    detuning_grid=RESONANT_GRID,
                                    shots_per_point=150, rng_seed=8)
            curve = simulate_rabi(params, LaserNoise(rin_sigma=rin), 5e-4, 450)
            return float(fit_damped_sine(curve).parameters[1])

        assert tau(0.008) > tau(0.016)

    def test_too_few_periods(self):
        t = np.linspace(0.0, 1e-4, 50)
        y = damped_sine_model(t, 10e3, 1.0, 1.0, 0.0, 0.5)  # one period
        with pytest.raises(InsufficientDataError):
            fit_damped_sine(ExcitationCurve(t, y, 1))


class TestFitInversePower:
    def test_exact_inverse_square(self):
        points = [(x, 5.0 / x**2) for x in (1.0, 2.0, 3.0, 5.0, 8.0, 13.0)]
        fit = fit_inverse_power(points)
        assert abs(fit.parameters[0] - 5.0) < 1e-8
        assert abs(fit.parameters[1] - 2.0) < 1e-8

    def test_fixed_exponent(self):
        points = [(x, 5.0 / x**2) for x in (1.0, 2.0, 4.0)]
        fit = fit_inverse_power(points, fixed_exponent=2.0)
        assert abs(fit.parameters[0] - 5.0) < 1e-8
        assert fit.parameters[1] == 2.0

    def test_fourier_limited_sweep_exponent_near_one(self):
        pairs = []
        for pulse in (1e-3, 2e-3, 4e-3, 8e-3, 16e-3):
            curve = spectrum(0.5 / pulse, pulse, points=81)
            pairs.append((pulse, float(fit_lorentzian_peak(curve).parameters[1])))
        fit = fit_inverse_power(pairs)
        assert 0.9 <= fit.parameters[1] <= 1.1

    def test_rin_dephasing_exponent_reported(self):
        # Exploratory: the per-shot intensity-spread model yields a finite
        # exponent; its value is reported, not asserted against the paper.
        pairs = []
        for omega in (10e3, 20e3, 40e3):
            params = IonProbeParams(rabi_frequency=omega, pulse_duration=1.0,
                                    detuning_grid=RESONANT_GRID,
                                    shots_per_point=120, rng_seed=13)
            curve = simulate_rabi(params, LaserNoise(rin_sigma=0.015),
                                  12.0 / omega, 260)
            pairs.append((omega, float(fit_damped_sine(curve).parameters[1])))
        fit = fit_inverse_power(pairs)
        assert fit.converged
        assert fit.parameters[1] > 0.0

    def test_non_positive_rejected(self):
        with pytest.raises(DomainError):
            fit_inverse_power([(1.0, 1.0), (2.0, -0.5), (3.0, 0.2)])
