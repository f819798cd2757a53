"""Headline workflow: estimate a sub-kilohertz linewidth from a beat note.

Synthesizes the measured-beat-note model for a 320 Hz combined linewidth
(two identical arms, so 160 Hz per laser) with flicker-induced Gaussian
broadening, runs the Voigt estimator (one inversion of the measured 20 dB
to half-power width ratio through a Chebyshev fit to exact Voigt widths)
and the envelope-contrast estimator, then injects cavity-servo bumps to
show why only the Voigt method survives them.
"""

from beatnote import (
    DshiParams,
    FrequencyGrid,
    ServoBumpModel,
    estimate_envelope_contrast,
    estimate_voigt,
    inject_servo_bumps,
    analytic_psd,
    voigt_beat_note,
    write_trace,
)
from beatnote.errors import ExtremumNotFoundError, NoSolutionError

params = DshiParams(eom_frequency=7e6, laser_fwhm=320.0,
                    fiber_length=5e3, fiber_index=1.468)
grid = FrequencyGrid(7e6 - 60e3, 10.0, 12001)

print("== Voigt estimate on the broadened beat note ==")
for flicker in (320.0, 640.0, 960.0):
    trace = voigt_beat_note(params, flicker, grid)
    est = estimate_voigt(trace)
    print(f"  flicker {flicker:5.0f} Hz: combined={est.lorentzian_fwhm:6.1f} Hz, "
          f"gaussian={est.gaussian_fwhm:6.1f} Hz, "
          f"voigt={est.voigt_fwhm:6.1f} Hz, "
          f"single laser={est.single_laser_fwhm:6.1f} Hz")

print("\n== envelope contrast on the unbroadened spectrum ==")
clean = analytic_psd(params, grid)
est = estimate_envelope_contrast(clean, params, peak_order=1, trough_order=2)
print(f"  combined={est.lorentzian_fwhm:.1f} Hz, single={est.single_laser_fwhm:.1f} Hz, "
      f"flags={sorted(est.flags)}")
print("  (the flag notes that orders 1-2 sit inside a typical servo band)")

print("\n== the servo-bump split ==")
beat = voigt_beat_note(params, 640.0, grid)
bumped = inject_servo_bumps(
    beat, ServoBumpModel(offset=50e3, width=15e3, height_db=12.0), carrier_hz=7e6)
write_trace(bumped, "beat_note_with_bumps.csv")
clean_est = estimate_voigt(beat)
bump_est = estimate_voigt(bumped)
shift = abs(bump_est.lorentzian_fwhm / clean_est.lorentzian_fwhm - 1.0) * 100.0
print(f"  voigt fit: {clean_est.lorentzian_fwhm:.1f} -> "
      f"{bump_est.lorentzian_fwhm:.1f} Hz ({shift:.2f}% shift)")
try:
    env = estimate_envelope_contrast(bumped, params, 1, 2)
    print(f"  envelope: {env.lorentzian_fwhm:.1f} Hz, flags={sorted(env.flags)}")
except (ExtremumNotFoundError, NoSolutionError) as exc:
    print(f"  envelope: failed ({type(exc).__name__}: the bumps bury the extrema)")
