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
    predict_extrema,
    simulate_time_domain,
    voigt_beat_note,
)
from .estimate import (  # noqa: E402
    FitResult,
    LinewidthEstimate,
    VoigtOptions,
    estimate_direct_lorentzian,
    estimate_envelope_contrast,
    estimate_voigt,
    fit_least_squares,
    halve_combined,
    measure_envelope_contrast,
    model_contrast_db,
    solve_contrast,
)
from .ionsim import (  # noqa: E402
    ExcitationCurve,
    IonProbeParams,
    LaserNoise,
    fit_damped_sine,
    fit_inverse_power,
    fit_lorentzian_peak,
    rabi_probability,
    simulate_carrier_spectrum,
    simulate_rabi,
)
from .io import (  # noqa: E402
    AnalysisReport,
    dbm_to_linear,
    linear_to_dbm,
    read_report,
    read_trace,
    write_report,
    write_trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
