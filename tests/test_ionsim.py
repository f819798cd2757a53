"""Two-level spectroscopy simulator and its reductions."""

import math
import tracemalloc

import numpy as np
import pytest

from beatnote import (
    ExcitationCurve,
    FrequencyGrid,
    IonProbeParams,
    LaserNoise,
    expected_excitation,
    fit_damped_sine,
    fit_inverse_power,
    fit_lorentzian_peak,
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
from beatnote.ionsim import _flop_mean, damped_sine_model
from oracles import evolve, rabi_probability, step_plan

RESONANT_GRID = FrequencyGrid(-1.0, 1.0, 3)


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def discrete_kick_mean(deltas, omega, duration, noise, record_times=None):
    """Exact shot mean of the oracle's discrete kicks, (D R)^N on the Bloch
    vector from the ground state (0, 0, 1), with P = (1 - z)/2.

    R is one constant step U0 = exp(-i pi dt (omega sx - delta sz)) as a
    rotation, R_ij = Tr(s_i U0 s_j U0^dagger)/2.  A kick turns the Bloch
    vector about z by a normal angle of variance 2 pi fwhm dt, whose mean is
    D = diag(c, c, 1) with c = exp(-pi fwhm dt).  RIN is averaged with a
    dense Gauss-Hermite rule."""
    n_steps, block, dt = step_plan(omega, deltas, duration, noise.fwhm,
                                   record_times)
    if noise.rin_sigma > 0:
        nodes, weights = np.polynomial.hermite_e.hermegauss(64)
        weights = weights / np.sum(weights)
    else:
        nodes, weights = np.zeros(1), np.ones(1)
    omega_s = omega * (1.0 + noise.rin_sigma * nodes)[:, None, None, None]
    generator = omega_s * PAULI[0] - deltas[None, :, None, None] * PAULI[2]
    norm = np.hypot(omega_s, deltas[None, :, None, None])
    theta = math.pi * dt * norm
    u0 = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) / norm * generator
    rotation = 0.5 * np.einsum("iab,npbc,jcd,npad->npij", PAULI, u0, PAULI,
                               np.conj(u0)).real
    c = math.exp(-math.pi * noise.fwhm * dt)
    step = rotation @ np.diag([c, c, 1.0])
    bloch = np.zeros(step.shape[:2] + (3,))
    bloch[..., 2] = 1.0
    recorded = []
    for k in range(1, n_steps + 1):
        bloch = np.einsum("npij,npj->npi", step, bloch)
        if k % block == 0:
            recorded.append(weights @ (0.5 * (1.0 - bloch[..., 2])))
    recorded = np.array(recorded)
    return recorded if record_times is not None else recorded[0]


def bloch_expm_mean(omega, deltas, times, fwhm):
    """Bloch mean without RIN through scipy.linalg.expm, one matrix at a time."""
    from scipy.linalg import expm
    gamma = math.pi * fwhm
    out = np.empty((len(deltas), len(times)))
    for i, delta in enumerate(deltas):
        a = np.array([[-gamma, -2 * math.pi * delta, 0.0],
                      [2 * math.pi * delta, -gamma, -2 * math.pi * omega],
                      [0.0, 2 * math.pi * omega, 0.0]])
        for j, t in enumerate(times):
            out[i, j] = 0.5 * (1.0 - expm(a * t)[2, 2])
    return out


def detuning_grid(half_span, points):
    return FrequencyGrid(-half_span, 2.0 * half_span / (points - 1), points)


def spectrum(omega, pulse, fwhm=0.0, rin=0.0, shots=1, seed=0, half_span=None,
             points=81):
    half_span = half_span or max(5.0 / pulse, 3.0 * omega)
    params = IonProbeParams(rabi_frequency=omega, pulse_duration=pulse,
                            detuning_grid=detuning_grid(half_span, points),
                            shots_per_point=shots, rng_seed=seed)
    return simulate_carrier_spectrum(params, LaserNoise(fwhm=fwhm, rin_sigma=rin))


def noiseless_profile(omega, pulse, points=81):
    """The exact noiseless excitation on spectrum()'s default grid, as a
    curve: the profile one shot per point only samples as 0s and 1s."""
    grid = detuning_grid(max(5.0 / pulse, 3.0 * omega), points)
    mean = expected_excitation(IonProbeParams(omega, pulse, grid), LaserNoise())
    return ExcitationCurve(grid.points(), mean, 1)


class TestNoiselessOracle:
    def test_integrator_matches_closed_form(self):
        # pi-pulse at T = 1/(2 Omega): on-resonance transfer is complete and
        # the profile is Omega^2/(Omega^2+d^2) sin^2(pi sqrt(Omega^2+d^2) T).
        for omega, pulse in [(250.0, 2e-3), (250.0, 4e-3), (1000.0, 0.5e-3)]:
            deltas = detuning_grid(max(5.0 / pulse, 3.0 * omega), 101).points()
            integrated = evolve(deltas, omega, pulse, LaserNoise(), 1, 0)
            oracle = rabi_probability(omega, deltas, pulse)
            assert np.max(np.abs(integrated - oracle)) < 1e-4

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
        flop = evolve(np.zeros(1), 40e3, 3e-4, LaserNoise(), 1, 0,
                      record_times=300)[:, 0]
        oracle = np.sin(math.pi * 40e3 * flop_times(3e-4, 300)) ** 2
        assert np.max(np.abs(flop - oracle)) < 1e-6


SCAN_6A = (125.0, 4e-3, detuning_grid(1200.0, 81))
README_FLOP = (40e3, 0.5e-3, 400)


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while fn() runs, on any thread.  A
    first, untraced call keeps numpy's one-off set-up out of the count."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """The peak of a run against the noise table that a shot-by-shot run of
    it fills (oracles.step_plan), 8 B per step x point x shot: the exact
    mean and its draws stay within the bounds that propagator met."""

    def test_scan_peak_within_its_table(self):
        omega, pulse, grid = SCAN_6A
        params = IonProbeParams(omega, pulse, grid, shots_per_point=200, rng_seed=7)
        noise = LaserNoise(fwhm=156.0)
        n_steps = step_plan(omega, grid.points(), pulse, noise.fwhm)[0]
        assert n_steps == 61
        table = 8 * n_steps * 81 * 200
        peak = traced_peak(lambda: simulate_carrier_spectrum(params, noise))
        assert peak <= 1.5 * table

    def test_flop_peak_within_its_table(self):
        rabi, t_max, t_points = README_FLOP
        params = IonProbeParams(rabi, t_max, RESONANT_GRID, shots_per_point=200)
        noise = LaserNoise(fwhm=156.0, rin_sigma=0.01)
        n_steps = step_plan(rabi, np.zeros(1), t_max, noise.fwhm, t_points)[0]
        table = 8 * n_steps * 200
        peak = traced_peak(lambda: simulate_rabi(params, noise, t_max, t_points))
        assert peak <= 3.5 * table


def flop_times(t_max, t_points):
    return t_max * np.arange(1, t_points + 1) / t_points


def chi2_band(n):
    """Two-sided 1 % band of chi^2 with n degrees of freedom."""
    from scipy.stats import chi2
    return chi2.ppf(0.005, n), chi2.ppf(0.995, n)


class TestExactMean:
    def test_matches_scipy_expm(self):
        omega, pulse, grid = SCAN_6A
        params = IonProbeParams(omega, pulse, grid)
        # 500 Hz puts gamma2 = 4 pi Omega, the resonant degenerate point
        for fwhm in (156.0, 500.0):
            exact = expected_excitation(params, LaserNoise(fwhm=fwhm))
            oracle = bloch_expm_mean(omega, grid.points(), [pulse], fwhm)[:, 0]
            assert np.max(np.abs(exact - oracle)) <= 1e-12
        rabi, t_max, t_points = README_FLOP
        times = flop_times(t_max, t_points)
        flop = expected_excitation(IonProbeParams(rabi, t_max, RESONANT_GRID),
                                   LaserNoise(fwhm=156.0), times)
        assert np.max(np.abs(flop - bloch_expm_mean(rabi, [0.0], times, 156.0)[0])) <= 1e-12

    def test_rin_average_matches_quadrature(self):
        from scipy.integrate import quad
        rabi, rin, t = 40e3, 0.01, 3e-4
        params = IonProbeParams(rabi, t, RESONANT_GRID)
        exact = expected_excitation(params, LaserNoise(rin_sigma=rin), [t])[0]

        def integrand(x):
            density = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
            return density * float(rabi_probability(rabi * (1.0 + rin * x), 0.0, t))

        oracle, _ = quad(integrand, -12.0, 12.0, epsabs=1e-14, limit=200)
        assert exact == pytest.approx(oracle, abs=1e-10)

    def test_noiseless_matches_closed_form(self):
        omega, pulse, grid = SCAN_6A
        exact = expected_excitation(IonProbeParams(omega, pulse, grid), LaserNoise())
        assert np.max(np.abs(exact - rabi_probability(omega, grid.points(), pulse))) <= 1e-12
        rabi, t_max, t_points = README_FLOP
        times = flop_times(t_max, t_points)
        flop = expected_excitation(IonProbeParams(rabi, t_max, RESONANT_GRID),
                                   LaserNoise(), times)
        assert np.max(np.abs(flop - rabi_probability(rabi, 0.0, times))) <= 1e-12

    def test_times_rejected(self):
        params = IonProbeParams(125.0, 4e-3, RESONANT_GRID)
        for bad in ([1e-3, math.nan], [-1e-3], [[1e-3]]):
            with pytest.raises(InvalidParameterError):
                expected_excitation(params, LaserNoise(), bad)

    @pytest.mark.parametrize("omega, pulse, half_span, fwhm", [
        (125.0, 4e-3, 1200.0, 156.0),   # criterion 6a
        (250.0, 2e-3, 2400.0, 156.0),   # its 2 ms sibling
        (125.0, 4e-3, 1250.0, 156.0),   # criterion 6c, 4 ms
        (62.5, 8e-3, 625.0, 156.0),     # 8 ms
        (31.25, 16e-3, 624.0, 156.0),   # 16 ms
        (125.0, 4e-3, 1200.0, 2000.0),  # wide lasers, where 4 fwhm sets the rate
        (125.0, 4e-3, 1200.0, 5000.0),
    ])
    def test_step_rule_bias_on_scans(self, omega, pulse, half_span, fwhm):
        grid = detuning_grid(half_span, 81)
        noise = LaserNoise(fwhm=fwhm)
        discrete = discrete_kick_mean(grid.points(), omega, pulse, noise)
        exact = expected_excitation(IonProbeParams(omega, pulse, grid), noise)
        assert np.max(np.abs(discrete - exact)) <= 2e-4

    def test_step_rule_bias_on_flop(self):
        rabi, t_max, t_points = README_FLOP
        noise = LaserNoise(fwhm=156.0, rin_sigma=0.01)
        discrete = discrete_kick_mean(np.zeros(1), rabi, t_max, noise, t_points)[:, 0]
        exact = expected_excitation(IonProbeParams(rabi, t_max, RESONANT_GRID),
                                    noise, flop_times(t_max, t_points))
        assert np.max(np.abs(discrete - exact)) <= 2e-4

    def test_scan_within_shot_noise_band(self):
        omega, pulse, grid = SCAN_6A
        params = IonProbeParams(omega, pulse, grid, shots_per_point=200, rng_seed=7)
        noise = LaserNoise(fwhm=156.0)
        exact = expected_excitation(params, noise)
        curve = simulate_carrier_spectrum(params, noise)
        sigma = np.sqrt(exact * (1.0 - exact) / 200)
        assert np.all(np.abs(curve.probability - exact) <= 4.0 * sigma)

    def test_flop_within_shot_noise_band(self):
        rabi, t_max, t_points = README_FLOP
        params = IonProbeParams(rabi, t_max, RESONANT_GRID, shots_per_point=200)
        noise = LaserNoise(fwhm=156.0, rin_sigma=0.01)
        curve = simulate_rabi(params, noise, t_max, t_points)
        exact = expected_excitation(params, noise, curve.abscissa)
        sigma = np.sqrt(exact * (1.0 - exact) / 200)
        assert np.all(np.abs(curve.probability - exact) <= 4.0 * sigma)

    @pytest.mark.parametrize("case", ["scan", "flop"])
    def test_shot_by_shot_oracle_within_shot_noise(self, case):
        # A shot's |e|^2 lies in [0, 1] with mean p, so its variance is at
        # most p(1 - p) and sum z^2 below stays under chi^2 at the exact p.
        shots = 200
        if case == "scan":
            omega, pulse, grid = SCAN_6A
            noise = LaserNoise(fwhm=156.0)
            oracle = evolve(grid.points(), omega, pulse, noise, shots, 7)
            exact = expected_excitation(IonProbeParams(omega, pulse, grid), noise)
        else:
            rabi, t_max, t_points = README_FLOP
            noise = LaserNoise(fwhm=156.0, rin_sigma=0.01)
            oracle = evolve(np.zeros(1), rabi, t_max, noise, shots, 4, t_points)[:, 0]
            exact = expected_excitation(IonProbeParams(rabi, t_max, RESONANT_GRID),
                                        noise, flop_times(t_max, t_points))
        z = (oracle - exact) / np.sqrt(exact * (1.0 - exact) / shots)
        assert float(np.sum(z * z)) <= chi2_band(z.size)[1]

    def test_criterion_6a_mean_peaks_on_resonance(self):
        omega, pulse, grid = SCAN_6A
        exact = expected_excitation(IonProbeParams(omega, pulse, grid),
                                    LaserNoise(fwhm=156.0))
        assert np.argmax(exact) == np.argmin(np.abs(grid.points()))


class TestReadout:
    """Each point reads its shots as 0s and 1s: its count is Binomial(shots,
    p) on the exact mean p, drawn from one generator per curve."""

    SHOTS = 200

    def assert_binomial(self, curves, means):
        """Sum of z^2 of the counts against Binomial(SHOTS, mean) inside the
        chi^2 band of its point count."""
        counts = self.SHOTS * np.array(curves)
        means = np.array(means)
        z = (counts - self.SHOTS * means) / np.sqrt(self.SHOTS * means * (1.0 - means))
        low, high = chi2_band(z.size)
        assert low <= float(np.sum(z * z)) <= high

    def test_scan_counts_are_binomial_on_the_exact_mean(self):
        omega, pulse, grid = SCAN_6A
        noise = LaserNoise(fwhm=156.0)
        picked = [40, 44, 48, 52]  # resonance to 360 Hz out, p from 0.68 to 0.14
        curves, means = [], []
        for seed in range(20):
            params = IonProbeParams(omega, pulse, grid, self.SHOTS, seed)
            curves.append(simulate_carrier_spectrum(params, noise).probability[picked])
            means.append(expected_excitation(params, noise)[picked])
        self.assert_binomial(curves, means)

    def test_flop_counts_are_binomial_on_the_exact_mean(self):
        rabi, t_max, t_points = README_FLOP
        noise = LaserNoise(fwhm=156.0, rin_sigma=0.01)
        picked = [2, 5, 10, 399]  # p of 0.21, 0.65, 0.97 and 0.30
        times = flop_times(t_max, t_points)[picked]
        curves, means = [], []
        for seed in range(20):
            params = IonProbeParams(rabi, t_max, RESONANT_GRID, self.SHOTS, seed)
            curve = simulate_rabi(params, noise, t_max, t_points)
            curves.append(curve.probability[picked])
            means.append(expected_excitation(params, noise, times))
        self.assert_binomial(curves, means)

    def test_scan_draws_from_one_generator_in_point_order(self):
        omega, pulse, grid = SCAN_6A
        params = IonProbeParams(omega, pulse, grid, self.SHOTS, 7)
        noise = LaserNoise(fwhm=156.0)
        counts = np.random.default_rng(7).binomial(
            self.SHOTS, expected_excitation(params, noise))
        assert np.array_equal(simulate_carrier_spectrum(params, noise).probability,
                              counts / self.SHOTS)

    @pytest.mark.parametrize("noise", [
        LaserNoise(), LaserNoise(fwhm=156.0, rin_sigma=0.01)], ids=["noiseless", "noisy"])
    def test_stepped_flop_mean_matches_expected_excitation(self, noise):
        rabi, t_max, t_points = README_FLOP
        params = IonProbeParams(rabi, t_max, RESONANT_GRID)
        stepped = _flop_mean(params, noise, t_max, t_points)
        exact = expected_excitation(params, noise, flop_times(t_max, t_points))
        assert np.max(np.abs(stepped - exact)) <= 1e-12


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

    @pytest.mark.parametrize("abscissa, probability, shots", [
        ([0.0, 1.0, 2.0], [0.0, math.nan, 0.5], 1),
        ([0.0, 1.0, math.inf], [0.0, 0.5, 0.5], 1),
        ([0.0, 1.0, 2.0], [0.0, 0.5, 0.5], -3),
        ([0.0, 1.0, 2.0], [0.0, 0.5, 0.5], 2.5),
        (1.0, 0.5, 1),
        ([[0.0, 1.0, 2.0]], [[0.0, 0.5, 0.5]], 1),
        ([0.0, 1.0, 1.0, 2.0], [0.0, 0.5, 0.5, 0.5], 1),
        ([2.0, 1.0, 0.0], [0.0, 0.5, 0.5], 1),
    ], ids=["nan_probability", "inf_abscissa", "negative_shots", "fractional_shots",
            "zero_d", "two_d", "repeated_abscissa", "descending_abscissa"])
    def test_excitation_curve_rejected(self, abscissa, probability, shots):
        with pytest.raises(InvalidParameterError):
            ExcitationCurve(np.array(abscissa), np.array(probability), shots)

    def test_rabi_points_must_be_whole(self):
        params = IonProbeParams(rabi_frequency=40e3, pulse_duration=1.0,
                                detuning_grid=RESONANT_GRID)
        with pytest.raises(InvalidParameterError):
            simulate_rabi(params, LaserNoise(), t_max=3e-4, t_points=400.5)
        assert simulate_rabi(params, LaserNoise(), 3e-4, 300.0).shot_count == 1

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
            curve = noiseless_profile(0.5 / pulse, pulse)
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
            peaks.append(noiseless_profile(omega, 4e-3).probability.max())
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

    @pytest.mark.parametrize("points", [0, 1, 4])
    def test_fewer_than_five_points_refused(self, points):
        # The empty curve warned "Mean of empty slice" on its way to a fit.
        x = np.arange(float(points))
        with pytest.raises(InsufficientDataError, match="at least 5 points"):
            fit_lorentzian_peak(ExcitationCurve(x, np.full(points, 0.5), 1))


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

    def test_one_point_refused(self):
        with pytest.raises(InsufficientDataError):
            fit_damped_sine(ExcitationCurve(np.array([1e-4]), np.array([0.5]), 1))

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
            curve = noiseless_profile(0.5 / pulse, pulse)
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

    def test_one_linear_solve_matches_polyfit(self):
        x = np.array([1.0, 2.0, 3.0, 5.0, 8.0])
        y = 5.0 / x**2 * np.array([1.03, 0.98, 1.01, 0.97, 1.02])
        fit = fit_inverse_power(np.column_stack((x, y)))
        slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
        assert fit.parameters == pytest.approx([math.exp(intercept), -slope], rel=1e-12)
        assert (fit.converged, fit.iterations) == (True, 1)

    def test_single_abscissa_refused(self):
        with pytest.raises(InsufficientDataError):
            fit_inverse_power([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)])
