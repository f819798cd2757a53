"""Command-line front end: synthesize traces, estimate linewidths, run the
ion-spectroscopy simulator, and extract servo bumps.

Exit codes: 0 success, 2 flag/validation error, 3 estimation failure,
4 I/O error.  Every run is deterministic for a fixed (flags, seed) pair; a
--config JSON file may supply any flag (underscores or dashes), with explicit
flags taking precedence.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import __version__
from .dshi import (
    DshiParams,
    NoiseModel,
    ServoBumpModel,
    SimConfig,
    analytic_psd,
    apply_rbw,
    extract_servo_bumps,
    inject_servo_bumps,
    simulate_time_domain,
    voigt_beat_note,
)
from .errors import (
    AmbiguousPeakError,
    BeatnoteError,
    DomainError,
    ExtremumNotFoundError,
    GridMismatchError,
    InitializationError,
    InsufficientDataError,
    InvalidParameterError,
    NoSolutionError,
    ParseError,
    ResolutionError,
    SchemaError,
    TraceIOError,
    WidthUndefinedError,
)
from .estimate import (
    VoigtOptions,
    estimate_envelope_contrast,
    estimate_voigt,
)
from .io import AnalysisReport, read_trace, write_report, write_trace
from .ionsim import (
    IonProbeParams,
    LaserNoise,
    fit_damped_sine,
    fit_inverse_power,
    fit_lorentzian_peak,
    simulate_carrier_spectrum,
    simulate_rabi,
)
from .lineshape import (
    FrequencyGrid,
    LineshapeParams,
    SpectrumTrace,
    eval_voigt_numeric,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ESTIMATION = 3
EXIT_IO = 4

_VALIDATION_ERRORS = (
    InvalidParameterError,
    ResolutionError,
    DomainError,
    GridMismatchError,
)
_ESTIMATION_ERRORS = (
    WidthUndefinedError,
    AmbiguousPeakError,
    ExtremumNotFoundError,
    NoSolutionError,
    InitializationError,
    InsufficientDataError,
)
_IO_ERRORS = (TraceIOError, ParseError, SchemaError, OSError)


def _centered_grid(center: float, span: float, points: int) -> FrequencyGrid:
    if points < 3 or span <= 0:
        raise InvalidParameterError("grid needs span > 0 and at least 3 points")
    step = span / (points - 1)
    return FrequencyGrid(center - span / 2.0, step, points)


def _dshi_params(args, laser_fwhm: Optional[float] = None) -> DshiParams:
    fwhm = args.linewidth_hz if laser_fwhm is None else laser_fwhm
    return DshiParams(
        eom_frequency=args.eom_mhz * 1e6,
        laser_fwhm=fwhm,
        fiber_length=args.fiber_km * 1e3,
        fiber_index=args.fiber_index,
        optical_power=args.power,
    )


def _write_curve(path, x_name, y_name, x, y):
    lines = [f"{x_name},{y_name}"]
    lines.extend(f"{float(a):.17g},{float(b):.17g}" for a, b in zip(x, y))
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise TraceIOError(f"cannot write curve to {path}: {exc}") from exc


def _echo_config(args, keys):
    return {key: getattr(args, key) for key in keys if hasattr(args, key)}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SWEEPABLE = {
    "linewidth-hz": "linewidth_hz",
    "power": "power",
    "eom-mhz": "eom_mhz",
    "fiber-km": "fiber_km",
}


def _one_trace(args) -> SpectrumTrace:
    params = _dshi_params(args)
    if args.mode == "analytic":
        grid = _centered_grid(params.eom_frequency, args.span_hz, args.points)
        if args.flicker_gaussian_hz > 0:
            trace = voigt_beat_note(params, args.flicker_gaussian_hz, grid)
        else:
            trace = analytic_psd(params, grid)
    else:
        noise = NoiseModel(white_fm_fwhm=params.laser_fwhm,
                           flicker_level=args.flicker_level,
                           rin_sigma=args.rin)
        sample_rate = args.sample_rate_hz or 8.0 * params.eom_frequency
        cfg = SimConfig(sample_rate=sample_rate, duration=args.duration_s,
                        segments=args.segments, seed=args.seed)
        trace = simulate_time_domain(params, noise, cfg)
    if args.rbw_hz > 0:
        trace = apply_rbw(trace, args.rbw_hz)
    return trace


def cmd_simulate(args) -> int:
    if args.sweep_param is not None:
        if not args.sweep_values:
            raise InvalidParameterError("--sweep-values required with --sweep-param")
        attr = _SWEEPABLE[args.sweep_param]
        values = [float(v) for v in args.sweep_values.split(",")]
        for value in values:
            setattr(args, attr, value)
            trace = _one_trace(args)
            out = f"{args.out_prefix}_{args.sweep_param}_{value:g}.csv"
            write_trace(trace, out)
            print(out)
        return EXIT_OK
    if args.out is None:
        raise InvalidParameterError("--out is required without --sweep-param")
    write_trace(_one_trace(args), args.out)
    print(args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _fitted_profile(trace: SpectrumTrace, estimate) -> SpectrumTrace:
    """Voigt overlay with the estimated widths, scaled to the trace peak."""
    params = LineshapeParams(
        center=trace.grid.start + trace.grid.step * int(np.argmax(trace.linear_values())),
        fwhm_gaussian=estimate.gaussian_fwhm,
        fwhm_lorentzian=estimate.lorentzian_fwhm,
    )
    profile = eval_voigt_numeric(trace.grid, params)
    scale = trace.linear_values().max() / profile.values.max()
    return SpectrumTrace(trace.grid, profile.values * scale, "linear", trace.rbw)


def cmd_fit(args) -> int:
    trace = read_trace(args.input)
    opts = VoigtOptions(tol=args.tol, max_iter=args.max_iter,
                        exclude_central_bins=args.exclude_central_bins)
    reports = []
    if args.method in ("voigt", "both"):
        est = estimate_voigt(trace, opts)
        reports.append(("voigt", est))
        if args.fitted_trace:
            write_trace(_fitted_profile(trace, est), args.fitted_trace)
    if args.method in ("envelope", "both"):
        params = _dshi_params(args, laser_fwhm=0.0)
        est = estimate_envelope_contrast(
            trace, params, peak_order=args.peak_order,
            trough_order=args.trough_order, servo_band_hz=args.servo_band_hz)
        reports.append(("envelope", est))

    config = _echo_config(args, [
        "input", "method", "tol", "max_iter", "exclude_central_bins",
        "peak_order", "trough_order", "servo_band_hz", "eom_mhz", "fiber_km",
        "fiber_index", "power",
    ])
    for name, est in reports:
        out = args.out if len(reports) == 1 else \
            args.out.replace(".json", f"_{name}.json") if args.out.endswith(".json") \
            else f"{args.out}_{name}"
        report = AnalysisReport(
            input={"path": args.input},
            method=est.method,
            payload=est,
            config=config,
            seed=None,
            timestamp=args.timestamp,
        )
        write_report(report, out)
        print(f"{out}: single_laser_fwhm_hz={est.single_laser_fwhm:.6g} "
              f"flags={sorted(est.flags)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ionsim
# ---------------------------------------------------------------------------

def _ion_grid(args, pulse_s, rabi_hz) -> FrequencyGrid:
    if args.span_hz is not None:
        span = args.span_hz
    else:
        span = 2.0 * max(5.0 / pulse_s, 3.0 * rabi_hz, 4.0 * args.laser_fwhm_hz)
    return _centered_grid(0.0, span, args.points)


def _spectrum_once(args, pulse_s, rabi_hz):
    params = IonProbeParams(
        rabi_frequency=rabi_hz,
        pulse_duration=pulse_s,
        detuning_grid=_ion_grid(args, pulse_s, rabi_hz),
        shots_per_point=args.shots,
        rng_seed=args.seed,
    )
    noise = LaserNoise(fwhm=args.laser_fwhm_hz, rin_sigma=args.rin)
    return simulate_carrier_spectrum(params, noise)


def cmd_ionsim(args) -> int:
    noise = LaserNoise(fwhm=args.laser_fwhm_hz, rin_sigma=args.rin)
    config = _echo_config(args, [
        "mode", "rabi_hz", "pulse_ms", "laser_fwhm_hz", "rin", "shots",
        "seed", "span_hz", "points", "t_max_ms", "t_points", "durations_ms",
        "rabi_values_hz", "rabi_time_product", "free_exponent",
    ])

    if args.mode == "spectrum":
        curve = _spectrum_once(args, args.pulse_ms * 1e-3, args.rabi_hz)
        _write_curve(args.out_curve, "detuning_hz", "excitation_probability",
                     curve.abscissa, curve.probability)
        fit = fit_lorentzian_peak(curve)
        method = "ion-spectrum-lorentzian"
        print(f"fitted_fwhm_hz={fit.parameters[1]:.6g}")
    elif args.mode == "rabi":
        params = IonProbeParams(
            rabi_frequency=args.rabi_hz,
            pulse_duration=args.t_max_ms * 1e-3,
            detuning_grid=FrequencyGrid(-1.0, 1.0, 3),  # unused on resonance
            shots_per_point=args.shots,
            rng_seed=args.seed,
        )
        curve = simulate_rabi(params, noise, args.t_max_ms * 1e-3, args.t_points)
        _write_curve(args.out_curve, "time_s", "excitation_probability",
                     curve.abscissa, curve.probability)
        fit = fit_damped_sine(curve)
        method = "ion-rabi-damped-sine"
        print(f"fitted_rabi_hz={fit.parameters[0]:.6g} tau_s={fit.parameters[1]:.6g}")
    elif args.mode == "sweep-T":
        durations = [float(v) * 1e-3 for v in args.durations_ms.split(",")]
        pairs = []
        for pulse_s in durations:
            rabi = args.rabi_time_product / pulse_s
            curve = _spectrum_once(args, pulse_s, rabi)
            width = float(fit_lorentzian_peak(curve).parameters[1])
            pairs.append((pulse_s, width))
        _write_curve(args.out_curve, "pulse_duration_s", "fitted_fwhm_hz",
                     [p[0] for p in pairs], [p[1] for p in pairs])
        fit = fit_inverse_power(pairs, None if args.free_exponent else 1.0)
        method = "ion-sweep-duration-inverse-power"
        print(f"exponent={fit.parameters[1]:.4g} amplitude={fit.parameters[0]:.6g}")
    elif args.mode == "sweep-omega":
        rabis = [float(v) for v in args.rabi_values_hz.split(",")]
        pairs = []
        for rabi in rabis:
            t_max = args.rabi_periods / rabi
            params = IonProbeParams(
                rabi_frequency=rabi,
                pulse_duration=t_max,
                detuning_grid=FrequencyGrid(-1.0, 1.0, 3),
                shots_per_point=args.shots,
                rng_seed=args.seed,
            )
            curve = simulate_rabi(params, noise, t_max,
                                  max(args.t_points, int(20 * rabi * t_max) + 1))
            tau = float(fit_damped_sine(curve).parameters[1])
            pairs.append((rabi, tau))
        _write_curve(args.out_curve, "rabi_frequency_hz", "coherence_time_s",
                     [p[0] for p in pairs], [p[1] for p in pairs])
        fit = fit_inverse_power(pairs, None if args.free_exponent else 2.0)
        method = "ion-sweep-rabi-inverse-power"
        print(f"exponent={fit.parameters[1]:.4g} amplitude={fit.parameters[0]:.6g}")
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidParameterError(f"unknown mode {args.mode!r}")

    report = AnalysisReport(
        input={"path": "synthetic", "params": config},
        method=method,
        payload=fit,
        config=config,
        seed=args.seed,
        timestamp=args.timestamp,
    )
    write_report(report, args.out)
    print(args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bumps
# ---------------------------------------------------------------------------

def cmd_bumps(args) -> int:
    measured = read_trace(args.measured)
    model = read_trace(args.model)
    if args.inject_height_db is not None:
        bump = ServoBumpModel(offset=args.inject_offset_hz,
                              width=args.inject_width_hz,
                              height_db=args.inject_height_db)
        measured = inject_servo_bumps(measured, bump)
    ratio = extract_servo_bumps(measured, model)
    write_trace(ratio, args.out)
    print(args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_dshi_flags(parser):
    parser.add_argument("--linewidth-hz", type=float, default=320.0,
                        help="combined two-arm Lorentzian FWHM (default 320)")
    parser.add_argument("--fiber-km", type=float, default=5.0,
                        help="delay-fiber length in km (default 5)")
    parser.add_argument("--fiber-index", type=float, default=1.468,
                        help="fiber group index (default 1.468)")
    parser.add_argument("--eom-mhz", type=float, default=7.0,
                        help="EOM shift frequency in MHz (default 7)")
    parser.add_argument("--power", type=float, default=1.0,
                        help="normalized optical power (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beatnote",
        description="Delayed self-heterodyne beat-note simulation and "
                    "linewidth estimation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of flag defaults (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize a beat-note trace")
    _add_dshi_flags(sim)
    sim.add_argument("--mode", choices=["analytic", "montecarlo"],
                     default="analytic")
    sim.add_argument("--span-hz", type=float, default=200e3,
                     help="grid span centered on the carrier (analytic mode)")
    sim.add_argument("--points", type=int, default=8001)
    sim.add_argument("--flicker-gaussian-hz", type=float, default=0.0,
                     help="Gaussian broadening of the coherent residue")
    sim.add_argument("--rbw-hz", type=float, default=0.0,
                     help="post-hoc Gaussian resolution bandwidth")
    sim.add_argument("--flicker-level", type=float, default=0.0,
                     help="1/f frequency-noise level, Hz^2/Hz at 1 Hz (MC mode)")
    sim.add_argument("--rin", type=float, default=0.0,
                     help="fractional RMS intensity noise (MC mode)")
    sim.add_argument("--sample-rate-hz", type=float, default=None,
                     help="MC sample rate (default 8 * f_eom)")
    sim.add_argument("--duration-s", type=float, default=0.25)
    sim.add_argument("--segments", type=int, default=64)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--sweep-param", choices=sorted(_SWEEPABLE), default=None)
    sim.add_argument("--sweep-values", type=str, default=None,
                     help="comma-separated values for --sweep-param")
    sim.add_argument("--out", type=str, default=None)
    sim.add_argument("--out-prefix", type=str, default="trace",
                     help="filename prefix in sweep mode")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="estimate linewidths from a trace")
    _add_dshi_flags(fit)
    fit.add_argument("--input", type=str, required=True)
    fit.add_argument("--method", choices=["voigt", "envelope", "both"],
                     default="voigt")
    fit.add_argument("--tol", type=float, default=1e-3)
    fit.add_argument("--max-iter", type=int, default=60)
    fit.add_argument("--exclude-central-bins", type=int, default=3)
    fit.add_argument("--peak-order", type=int, default=1)
    fit.add_argument("--trough-order", type=int, default=2)
    fit.add_argument("--servo-band-hz", type=float, default=100e3)
    fit.add_argument("--fitted-trace", type=str, default=None,
                     help="write the fitted Voigt profile for overlays")
    fit.add_argument("--timestamp", type=str, default=None)
    fit.add_argument("--out", type=str, required=True)
    fit.set_defaults(func=cmd_fit)

    ion = sub.add_parser("ionsim", help="trapped-ion spectroscopy simulator")
    ion.add_argument("--mode", choices=["spectrum", "rabi", "sweep-T",
                                        "sweep-omega"], default="spectrum")
    ion.add_argument("--rabi-hz", type=float, default=250.0)
    ion.add_argument("--pulse-ms", type=float, default=4.0)
    ion.add_argument("--laser-fwhm-hz", type=float, default=156.0)
    ion.add_argument("--rin", type=float, default=0.0)
    ion.add_argument("--shots", type=int, default=200)
    ion.add_argument("--seed", type=int, default=0)
    ion.add_argument("--span-hz", type=float, default=None)
    ion.add_argument("--points", type=int, default=41)
    ion.add_argument("--t-max-ms", type=float, default=0.5)
    ion.add_argument("--t-points", type=int, default=400)
    ion.add_argument("--durations-ms", type=str, default="1,2,4,8")
    ion.add_argument("--rabi-time-product", type=float, default=0.5,
                     help="Omega*T kept fixed across a duration sweep")
    ion.add_argument("--rabi-values-hz", type=str, default="10000,20000,40000")
    ion.add_argument("--rabi-periods", type=float, default=12.0,
                     help="flop periods recorded in sweep-omega mode")
    ion.add_argument("--free-exponent", action="store_true",
                     help="fit the power-law exponent instead of fixing it")
    ion.add_argument("--timestamp", type=str, default=None)
    ion.add_argument("--out-curve", type=str, required=True)
    ion.add_argument("--out", type=str, required=True)
    ion.set_defaults(func=cmd_ionsim)

    bumps = sub.add_parser("bumps", help="ratio of measured to model trace")
    bumps.add_argument("--measured", type=str, required=True)
    bumps.add_argument("--model", type=str, required=True)
    bumps.add_argument("--inject-height-db", type=float, default=None,
                       help="inject a synthetic bump into measured first")
    bumps.add_argument("--inject-offset-hz", type=float, default=50e3)
    bumps.add_argument("--inject-width-hz", type=float, default=15e3)
    bumps.add_argument("--out", type=str, required=True)
    bumps.set_defaults(func=cmd_bumps)
    return parser


def _apply_config_file(parser, argv):
    """Load --config JSON as parser defaults; explicit flags still win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", type=str, default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return
    try:
        with open(known.config, "r", encoding="ascii") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise TraceIOError(f"cannot read config {known.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid config JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise SchemaError("config file must hold a JSON object")
    normalized = {str(k).replace("-", "_"): v for k, v in values.items()}
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        for sub in action.choices.values():
            sub.set_defaults(**{k: v for k, v in normalized.items()
                                if any(k == a.dest for a in sub._actions)})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _ESTIMATION_ERRORS as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except _IO_ERRORS as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BeatnoteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
