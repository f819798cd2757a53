"""Cross-checking a linewidth with single-ion quadrupole spectroscopy.

Scans a noisy probe laser across the qubit transition for several pulse
durations (narrower lines for longer, weaker pulses, down to the laser
floor), then drives resonant Rabi flopping and reads the coherence time
from a damped-sine fit.
"""

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

LASER = LaserNoise(fwhm=156.0)


def detuning_grid(half_span, points=81):
    return FrequencyGrid(-half_span, 2.0 * half_span / (points - 1), points)


print("carrier scans at fixed pi-pulse area (156 Hz probe laser)")
print("  pulse     fitted FWHM   Fourier 0.8/T")
pairs = []
for pulse_ms in (1.0, 2.0, 4.0, 8.0, 16.0):
    pulse = pulse_ms * 1e-3
    params = IonProbeParams(
        rabi_frequency=0.5 / pulse,
        pulse_duration=pulse,
        detuning_grid=detuning_grid(max(5.0 / pulse, 4.0 * LASER.fwhm)),
        shots_per_point=150,
        rng_seed=1,
    )
    curve = simulate_carrier_spectrum(params, LASER)
    fitted = float(fit_lorentzian_peak(curve).parameters[1])
    pairs.append((pulse, fitted))
    print(f"  {pulse_ms:4.0f} ms {fitted:10.1f} Hz {0.8 / pulse:12.1f} Hz")
print("  long pulses pin the floor set by the laser itself "
      f"(>= {0.8 * LASER.fwhm:.0f} Hz here)")

# Without laser noise the line is the exact profile; a scan of it would add
# the shots' projection noise, so fit the profile itself.
noiseless = []
for pulse, _ in pairs:
    params = IonProbeParams(rabi_frequency=0.5 / pulse, pulse_duration=pulse,
                            detuning_grid=detuning_grid(5.0 / pulse))
    profile = ExcitationCurve(params.detuning_grid.points(),
                              expected_excitation(params, LaserNoise()), 1)
    noiseless.append((pulse, float(fit_lorentzian_peak(profile).parameters[1])))
exponent = float(fit_inverse_power(noiseless).parameters[1])
print(f"\nzero-noise sweep: width ~ 1/T^p with p = {exponent:.3f}")

print("\nresonant Rabi flopping at 40 kHz (12.5 us pi-time)")
for rin, label in ((0.008, "master-like"), (0.016, "amplified")):
    params = IonProbeParams(rabi_frequency=40e3, pulse_duration=1.0,
                            detuning_grid=FrequencyGrid(-1.0, 1.0, 3),
                            shots_per_point=150, rng_seed=8)
    curve = simulate_rabi(params, LaserNoise(rin_sigma=rin), 5e-4, 450)
    fit = fit_damped_sine(curve)
    print(f"  {label:12s} rin={rin:.3f}: Rabi={fit.parameters[0] / 1e3:6.2f} kHz, "
          f"coherence time={fit.parameters[1] * 1e6:6.0f} us")
print("  higher intensity noise -> faster decay, same Rabi frequency")
