"""Lineshape toolbox tour: Gaussian, Lorentzian, and their Voigt convolution.

Builds the three normalized profiles (the Voigt from the exact Faddeeva
closed form), measures widths at the half-power and 20 dB levels, and checks
the Olivero-Longbothum Voigt-width approximation against the exact width,
found by a root find on the Faddeeva profile, over a wide range of mixing
ratios.
"""

import math

from beatnote import (
    HALF_POWER_DB,
    FrequencyGrid,
    LineshapeParams,
    eval_gaussian,
    eval_lorentzian,
    eval_voigt_numeric,
    voigt_fwhm_approx,
    voigt_width_numeric,
    width_at_level,
)

grid = FrequencyGrid(-8000.0, 1.0, 16001)
gauss = eval_gaussian(grid, 0.0, 320.0)
lorentz = eval_lorentzian(grid, 0.0, 320.0)
voigt = eval_voigt_numeric(grid, LineshapeParams(0.0, 320.0, 320.0))

print("normalized 320 Hz profiles on a +-8 kHz grid")
for name, trace in [("gaussian", gauss), ("lorentzian", lorentz), ("voigt", voigt)]:
    w3 = width_at_level(trace, HALF_POWER_DB)
    w20 = width_at_level(trace, 20.0)
    print(f"  {name:10s} peak={trace.values.max():.3e}/Hz  "
          f"FWHM={w3:7.1f} Hz  20dB width={w20:7.1f} Hz  "
          f"integral={trace.integral():.6f}")
print(f"  20dB/FWHM ratio: gaussian {math.sqrt(math.log2(100)):.3f}, "
      f"lorentzian {math.sqrt(99):.3f} (tail weight tells the shapes apart)")

print("\napproximate Voigt width vs exact (root find on the Faddeeva profile)")
print("  lorentzian  gaussian   approximate   exact        rel.err")
for fl in (10.0, 100.0, 1000.0):
    for fg in (10.0, 100.0, 1000.0):
        approx = voigt_fwhm_approx(fl, fg)
        exact = voigt_width_numeric(fl, fg)
        print(f"  {fl:9.0f} {fg:9.0f} {approx:12.2f} {exact:12.2f} "
              f"{approx / exact - 1.0:+12.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    for name, trace in [("Gaussian", gauss), ("Lorentzian", lorentz),
                        ("Voigt", voigt)]:
        ax.semilogy(grid.points(), trace.values, label=name)
    ax.set_xlim(-3000, 3000)
    ax.set_xlabel("offset (Hz)")
    ax.set_ylabel("density (1/Hz)")
    ax.set_ylim(1e-8, 1e-2)
    ax.legend()
    fig.tight_layout()
    fig.savefig("lineshapes.png", dpi=120)
    print("\nwrote lineshapes.png")
except ImportError:
    pass
