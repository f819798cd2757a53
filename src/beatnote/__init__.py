"""Beat-note synthesis and linewidth estimation for delayed self-heterodyne
interferometry, with a trapped-ion spectroscopy simulator for cross-checks."""

__version__ = "0.1.0"

from .lineshape import (  # noqa: E402
    HALF_POWER_DB,
    FrequencyGrid,
    LineshapeParams,
    SpectrumTrace,
    eval_gaussian,
    eval_lorentzian,
    eval_voigt_numeric,
    voigt_fwhm_approx,
    voigt_grid,
    voigt_width_numeric,
    width_at_level,
)
from .dshi import (  # noqa: E402
    SPEED_OF_LIGHT,
    DshiParams,
    NoiseModel,
    ServoBumpModel,
    SimConfig,
    analytic_psd,
    apply_rbw,
    extract_servo_bumps,
    extrema_spacing,
    inject_servo_bumps,
    simulate_time_domain,
    voigt_beat_note,
)
from .estimate import (  # noqa: E402
    FitResult,
    LinewidthEstimate,
    VoigtOptions,
    estimate_envelope_contrast,
    estimate_voigt,
    fit_least_squares,
    measure_envelope_contrast,
    solve_contrast,
)
from .ionsim import (  # noqa: E402
    ExcitationCurve,
    IonProbeParams,
    LaserNoise,
    expected_excitation,
    fit_damped_sine,
    fit_inverse_power,
    fit_lorentzian_peak,
    rabi_probability,
    simulate_carrier_spectrum,
    simulate_rabi,
)
from .io import (  # noqa: E402
    AnalysisReport,
    read_report,
    read_trace,
    write_report,
    write_trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
