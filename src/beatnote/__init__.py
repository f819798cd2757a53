"""Beat-note synthesis and linewidth estimation for delayed self-heterodyne
interferometry, with a trapped-ion spectroscopy simulator for cross-checks.

The public names load their module on first access (PEP 562), so
`import beatnote` loads no submodule and a CLI subcommand compiles only the
modules it runs.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

# Each public name and the module that defines it.
_HOMES = {name: module for module, names in {
    "lineshape": (
        "HALF_POWER_DB", "FrequencyGrid", "LineshapeParams", "SpectrumTrace",
        "eval_gaussian", "eval_lorentzian", "eval_voigt_numeric",
        "voigt_fwhm_approx", "voigt_width_numeric", "width_at_level"),
    "dshi": (
        "SPEED_OF_LIGHT", "DshiParams", "NoiseModel", "ServoBumpModel",
        "SimConfig", "analytic_psd", "apply_rbw", "extract_servo_bumps",
        "extrema_spacing", "inject_servo_bumps", "simulate_time_domain",
        "voigt_beat_note"),
    "estimate": (
        "FitResult", "LinewidthEstimate", "estimate_envelope_contrast",
        "estimate_voigt", "fit_least_squares", "measure_envelope_contrast",
        "solve_contrast"),
    "ionsim": (
        "ExcitationCurve", "IonProbeParams", "LaserNoise",
        "expected_excitation", "fit_damped_sine", "fit_inverse_power",
        "fit_lorentzian_peak", "simulate_carrier_spectrum", "simulate_rabi"),
    "io": (
        "AnalysisReport", "read_report", "read_trace", "write_report",
        "write_trace"),
}.items() for name in names}

# Submodules are attributes, not exports: `import *` must not rebind `io`.
__all__ = sorted(_HOMES)


def __getattr__(name):
    try:
        module = _HOMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
