"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  Criterion 6's ion probes use the ``beatnote.ionsim`` Rabi
convention, a pi pulse at t = 1/(2*Omega), and are driven at pi area,
Omega = 0.5/T.  Criterion 6a reads the laser linewidth net of the pulse's
Fourier width: the fitted FWHM of the noisy scan minus the fitted FWHM of the
noiseless profile at the same pulse (Lorentzian widths add under
convolution).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from beatnote import (
    DshiParams,
    ExcitationCurve,
    IonProbeParams,
    LaserNoise,
    NoiseModel,
    ServoBumpModel,
    SimConfig,
    analytic_psd,
    estimate_envelope_contrast,
    estimate_voigt,
    eval_voigt_numeric,
    expected_excitation,
    fit_inverse_power,
    fit_least_squares,
    fit_lorentzian_peak,
    inject_servo_bumps,
    measure_envelope_contrast,
    simulate_carrier_spectrum,
    simulate_time_domain,
    voigt_beat_note,
    voigt_fwhm_approx,
    voigt_width_numeric,
    width_at_level,
)
from beatnote.errors import ExtremumNotFoundError, NoSolutionError
from beatnote.estimate import (
    FLAG_SERVO_CONTAMINATED,
    HALF_POWER_DB,
    lorentzian_peak_model,
    mask_central_bins,
)
from beatnote.ionsim import damped_sine_model
from beatnote.lineshape import LineshapeParams
from oracles import grid_about, rabi_probability, voigt_grid

pytestmark = pytest.mark.acceptance


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_paper_number_roundtrip():
    """Analytic 320 Hz trace + 1-3x flicker broadening -> 320+-30 / 160+-15."""
    start = time.perf_counter()
    params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0,
                        fiber_length=5e3, fiber_index=1.468)
    grid = grid_about(7e6, 60e3, 10.0)
    results = []
    for mult in (1.0, 2.0, 3.0):
        trace = voigt_beat_note(params, 320.0 * mult, grid)
        est = estimate_voigt(trace)
        results.append((mult, est.lorentzian_fwhm, est.single_laser_fwhm))
    elapsed = time.perf_counter() - start
    ok = all(abs(combined - 320.0) <= 30.0 and abs(single - 160.0) <= 15.0
             for _, combined, single in results) and elapsed < 10.0
    detail = ", ".join(f"{m:g}x: {c:.1f}/{s:.1f} Hz" for m, c, s in results)
    report(1, ok, f"{detail}; {elapsed:.2f}s")


def test_criterion_2_parameter_sweep_behaviors():
    start = time.perf_counter()
    base = DshiParams(eom_frequency=7e6, laser_fwhm=100.0,
                      fiber_length=5e3, fiber_index=1.468)
    step = 20.0

    # (a) carrier shift is a pure translation
    a = analytic_psd(base, grid_about(7e6, 80e3, step))
    moved = DshiParams(eom_frequency=9e6, laser_fwhm=100.0)
    b = analytic_psd(moved, grid_about(9e6, 80e3, step))
    translation = np.array_equal(a.values, b.values)

    # (b) optical power scales the level but not any measured width
    boosted = analytic_psd(
        DshiParams(eom_frequency=7e6, laser_fwhm=100.0, optical_power=2.0),
        grid_about(7e6, 80e3, step))
    offsets = 10.0 * np.log10(boosted.values / a.values)
    uniform_gain = np.max(np.abs(offsets - 6.0206)) < 1e-6
    widths_unchanged = all(
        width_at_level(mask_central_bins(a, 3), level)
        == width_at_level(mask_central_bins(boosted, 3), level)
        for level in (HALF_POWER_DB, 10.0, 20.0)
    )

    # (c) first-order contrast strictly decreasing in linewidth
    contrasts = []
    for fwhm in (10.0, 100.0, 1000.0, 10000.0):
        p = DshiParams(eom_frequency=7e6, laser_fwhm=fwhm)
        ds, _, _ = measure_envelope_contrast(
            analytic_psd(p, grid_about(7e6, 80e3, step)), p, 1, 2)
        contrasts.append(ds)
    decreasing = all(x > y for x, y in zip(contrasts, contrasts[1:]))

    # (d) extrema spacing c/(2nL) within 0.1%, halving when L doubles
    def measured_spacing(params):
        trace = analytic_psd(params, grid_about(7e6, 120e3, 10.0))
        _, _, x2 = measure_envelope_contrast(trace, params, 1, 2)
        _, x3, _ = measure_envelope_contrast(trace, params, 3, 2)
        return x3 - x2

    expected = 299_792_458.0 / (2.0 * 1.468 * 5e3)
    s1 = measured_spacing(base)
    s2 = measured_spacing(DshiParams(eom_frequency=7e6, laser_fwhm=100.0,
                                     fiber_length=10e3))
    spacing_ok = abs(s1 / expected - 1.0) < 1e-3 and abs(s2 / (expected / 2.0) - 1.0) < 1e-3

    elapsed = time.perf_counter() - start
    ok = translation and uniform_gain and widths_unchanged and decreasing \
        and spacing_ok and elapsed < 30.0
    report(2, ok,
           f"translate={translation}, gain={uniform_gain}, widths={widths_unchanged}, "
           f"contrast={['%.1f' % c for c in contrasts]}, "
           f"spacing={s1:.1f}/{expected:.1f} Hz; {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    params = DshiParams(eom_frequency=1e6, laser_fwhm=320.0)
    noise = NoiseModel(white_fm_fwhm=320.0)
    fs, nperseg = 8e6, 32000

    def rms_of(segments):
        cfg = SimConfig(sample_rate=fs, duration=segments * nperseg / fs,
                        segments=segments, seed=12345)
        mc = simulate_time_domain(params, noise, cfg)
        ana = analytic_psd(params, mc.grid)
        sel = np.flatnonzero(np.abs(mc.grid.points() - 1e6) <= 200e3)
        sel = sel[np.abs(sel - mc.grid.index_of(1e6)) > 1]  # drop 3 central bins
        dev = 10.0 * np.log10(mc.values[sel] / ana.values[sel])
        return math.sqrt(float(np.mean(dev**2)))

    rms64 = rms_of(64)
    rms16 = rms_of(16)
    elapsed = time.perf_counter() - start
    ok = rms64 < 1.5 and rms16 / rms64 > 1.4 and elapsed < 300.0
    report(3, ok, f"RMS(64 seg)={rms64:.2f} dB, RMS(16)/RMS(64)={rms16 / rms64:.2f}; "
                  f"{elapsed:.1f}s")


def test_criterion_4_voigt_width_fidelity():
    start = time.perf_counter()
    widths = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    worst = 0.0
    for fl in widths:
        for fg in widths:
            numeric = voigt_width_numeric(fl, fg, HALF_POWER_DB)
            worst = max(worst, abs(numeric / voigt_fwhm_approx(fl, fg) - 1.0))

    # pure limits: exact within the grid resolution
    pure_ok = True
    for fl, fg in ((100.0, 0.0), (0.0, 100.0)):
        params = LineshapeParams(0.0, fwhm_gaussian=fg, fwhm_lorentzian=fl)
        grid = voigt_grid(params)
        measured = width_at_level(eval_voigt_numeric(grid, params), HALF_POWER_DB)
        pure_ok &= abs(measured - 100.0) <= grid.step
    elapsed = time.perf_counter() - start
    ok = worst < 0.01 and pure_ok and elapsed < 60.0
    report(4, ok, f"max |numeric/approx - 1| = {worst:.2e}, pure limits exact; "
                  f"{elapsed:.1f}s")


def test_criterion_5_estimator_robustness_split():
    start = time.perf_counter()
    params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
    grid = grid_about(7e6, 90e3, 10.0)
    clean = voigt_beat_note(params, 640.0, grid)
    bumped = inject_servo_bumps(
        clean, ServoBumpModel(offset=50e3, width=15e3, height_db=12.0),
        carrier_hz=7e6)

    voigt_shift = abs(estimate_voigt(bumped).lorentzian_fwhm
                      / estimate_voigt(clean).lorentzian_fwhm - 1.0)
    try:
        env = estimate_envelope_contrast(bumped, params, 1, 2)
        envelope_outcome = f"flagged={sorted(env.flags)}"
        envelope_ok = FLAG_SERVO_CONTAMINATED in env.flags
    except (ExtremumNotFoundError, NoSolutionError) as exc:
        envelope_outcome = f"error={type(exc).__name__}"
        envelope_ok = True
    elapsed = time.perf_counter() - start
    ok = voigt_shift < 0.05 and envelope_ok and elapsed < 30.0
    report(5, ok, f"voigt shift={voigt_shift * 100:.2f}%, envelope {envelope_outcome}; "
                  f"{elapsed:.1f}s")


def test_criterion_6a_spectrum_band_as_stated():
    """156 Hz laser, 4 ms pi pulse, 200 shots -> laser width in [140, 260] Hz.

    The quoted 250 Hz Rabi frequency is read in the doubled convention, as in
    the 2 ms sibling below: Omega = 0.5/T = 125 Hz, the pi area of the
    ``ionsim`` convention (250 Hz x 4 ms would be a 2*pi pulse, with a
    coherent zero on resonance).  Even at pi area the raw fitted FWHM
    (~320 Hz) carries the pulse's own Fourier width, so the band is checked on
    the recovered laser width: the noisy scan's fitted FWHM minus the fitted
    FWHM of the noiseless profile on the same grid.
    """
    start = time.perf_counter()
    pulse = 4e-3
    omega = 0.5 / pulse
    grid = grid_about(0.0, 1200.0, 30.0)
    params = IonProbeParams(rabi_frequency=omega, pulse_duration=pulse,
                            detuning_grid=grid, shots_per_point=200, rng_seed=7)
    curve = simulate_carrier_spectrum(params, LaserNoise(fwhm=156.0))
    raw = float(fit_lorentzian_peak(curve).parameters[1])
    deltas = grid.points()
    noiseless = ExcitationCurve(deltas, rabi_probability(omega, deltas, pulse), 1)
    fourier = float(fit_lorentzian_peak(noiseless).parameters[1])
    laser = raw - fourier
    elapsed = time.perf_counter() - start
    ok = 140.0 <= laser <= 260.0 and elapsed < 600.0
    report("6a", ok, f"raw FWHM={raw:.1f} Hz - Fourier FWHM={fourier:.1f} Hz "
                     f"= laser {laser:.1f} Hz vs [140, 260]; {elapsed:.1f}s")


def test_criterion_6a_neighborhood_desaturated_probe():
    """Same 156 Hz laser and 4 ms pulse at pi area: the spectrum is
    single-peaked on resonance and its raw fitted width (~320 Hz) sits far
    below the 2*pi-pulse width (~1.4 kHz).  It stays above the 6a band
    because it still holds the pulse's own Fourier width (~160 Hz fitted),
    which criterion 6a subtracts.  Each point is a binomial count, so the
    peak is checked on the exact mean, and the drawn maximum only within
    three binomial sigma of a difference of two points at the resonant p0."""
    grid = grid_about(0.0, 1200.0, 30.0)
    params = IonProbeParams(rabi_frequency=125.0, pulse_duration=4e-3,
                            detuning_grid=grid, shots_per_point=200, rng_seed=7)
    noise = LaserNoise(fwhm=156.0)
    curve = simulate_carrier_spectrum(params, noise)
    fitted = float(fit_lorentzian_peak(curve).parameters[1])
    # single-peaked, far below the 2*pi-pulse width, laser plus Fourier width
    assert 140.0 <= fitted <= 400.0
    i0 = np.argmin(np.abs(curve.abscissa))
    mean = expected_excitation(params, noise)
    assert np.argmax(mean) == i0
    p0 = mean[i0]
    band = 3.0 * math.sqrt(2.0 * p0 * (1.0 - p0) / params.shots_per_point)
    assert curve.probability.max() - curve.probability[i0] <= band


def test_criterion_6a_neighborhood_two_ms_scan():
    """2 ms sibling configuration at pi area (quoted 500 Hz read as a doubled
    convention, so 250 Hz here): the fitted width lands inside the 350-550 Hz
    band the 2 ms scan is supposed to produce."""
    grid = grid_about(0.0, 2400.0, 60.0)
    params = IonProbeParams(rabi_frequency=250.0, pulse_duration=2e-3,
                            detuning_grid=grid, shots_per_point=200, rng_seed=7)
    curve = simulate_carrier_spectrum(params, LaserNoise(fwhm=156.0))
    fitted = float(fit_lorentzian_peak(curve).parameters[1])
    assert 350.0 <= fitted <= 550.0


def test_criterion_6b_fourier_limited_sweep_exponent():
    start = time.perf_counter()
    pairs = []
    for pulse in (1e-3, 2e-3, 4e-3, 8e-3, 16e-3):
        omega = 0.5 / pulse
        grid = grid_about(0.0, 5.0 / pulse, 10.0 / pulse / 80.0)
        params = IonProbeParams(rabi_frequency=omega, pulse_duration=pulse,
                                detuning_grid=grid)
        # the noiseless profile itself: one shot per point reads a 0 or a 1
        curve = ExcitationCurve(grid.points(),
                                expected_excitation(params, LaserNoise()), 1)
        pairs.append((pulse, float(fit_lorentzian_peak(curve).parameters[1])))
    exponent = float(fit_inverse_power(pairs).parameters[1])
    elapsed = time.perf_counter() - start
    ok = 0.9 <= exponent <= 1.1 and elapsed < 600.0
    report("6b", ok, f"inverse-power exponent={exponent:.3f}; {elapsed:.1f}s")


def test_criterion_6c_laser_linewidth_floor():
    start = time.perf_counter()
    fwhm = 156.0
    fitted = []
    for pulse in (4e-3, 8e-3, 16e-3):
        omega = 0.5 / pulse
        half = max(5.0 / pulse, 4.0 * fwhm)
        grid = grid_about(0.0, half, 2.0 * half / 80.0)
        params = IonProbeParams(rabi_frequency=omega, pulse_duration=pulse,
                                detuning_grid=grid, shots_per_point=200,
                                rng_seed=3)
        curve = simulate_carrier_spectrum(params, LaserNoise(fwhm=fwhm))
        fitted.append(float(fit_lorentzian_peak(curve).parameters[1]))
    elapsed = time.perf_counter() - start
    ok = fitted[-1] >= 0.8 * fwhm and fitted[0] > fitted[1] > fitted[2] \
        and elapsed < 600.0
    report("6c", ok, f"fitted floor sweep={['%.0f' % f for f in fitted]} Hz "
                     f">= {0.8 * fwhm:.0f}; {elapsed:.1f}s")


def test_criterion_7_fit_engine_calibration():
    start = time.perf_counter()
    # exact-model recovery at 1e-6 relative
    x = np.linspace(-300.0, 300.0, 201)
    truth = (10.0, 80.0, 0.9, 0.05)
    res = fit_least_squares(lorentzian_peak_model, x, lorentzian_peak_model(x, *truth),
                            [8.0, 95.0, 0.8, 0.04])
    lorentz_ok = np.allclose(res.parameters, truth, rtol=1e-6)

    t = np.linspace(0.0, 3e-4, 240)
    sine_truth = (40e3, 3e-4, 1.0, 0.0, 0.5)
    res = fit_least_squares(damped_sine_model, t, damped_sine_model(t, *sine_truth),
                            [41e3, 2.5e-4, 0.9, 0.05, 0.45])
    sine_ok = np.allclose(res.parameters, sine_truth, rtol=1e-6, atol=1e-6)

    xs = np.arange(1.0, 11.0)
    res = fit_least_squares(lambda x, a: a / x**2, xs, 5.0 / xs**2, [1.0])
    inverse_ok = abs(res.parameters[0] - 5.0) < 5e-6

    errors = []
    clean = lorentzian_peak_model(x, 0.0, 100.0, 1.0, 0.0)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = clean + rng.normal(0.0, 0.01, x.size)
        fit = fit_least_squares(lorentzian_peak_model, x, noisy,
                                [5.0, 120.0, 0.9, 0.01])
        errors.append(abs(fit.parameters[1] / 100.0 - 1.0))
    noise_ok = max(errors) < 0.02
    elapsed = time.perf_counter() - start
    ok = lorentz_ok and sine_ok and inverse_ok and noise_ok and elapsed < 60.0
    report(7, ok, f"exact: lorentzian={lorentz_ok} sine={sine_ok} inverse={inverse_ok}; "
                  f"noisy max err={max(errors) * 100:.2f}%; {elapsed:.1f}s")


def test_criterion_8_pipeline_determinism(tmp_path):
    start = time.perf_counter()

    trace = tmp_path / "trace.csv"
    rep = tmp_path / "report.json"

    def pipeline():
        for cmd in (
            ["simulate", "--mode", "montecarlo", "--eom-mhz", "1",
             "--linewidth-hz", "50000", "--duration-s", "0.04",
             "--segments", "16", "--seed", "7", "--out", str(trace)],
            ["fit", "--input", str(trace), "--method", "voigt",
             "--exclude-central-bins", "3", "--out", str(rep)],
        ):
            proc = subprocess.run([sys.executable, "-m", "beatnote.cli"] + cmd,
                                  capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
        return trace.read_bytes(), rep.read_bytes()

    t1, r1 = pipeline()
    t2, r2 = pipeline()
    payload = json.loads(r1)
    elapsed = time.perf_counter() - start
    ok = t1 == t2 and r1 == r2 and "result" in payload
    report(8, ok, f"trace bytes equal={t1 == t2}, report bytes equal={r1 == r2}; "
                  f"{elapsed:.1f}s")
