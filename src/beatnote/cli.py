"""Command-line front end: synthesize traces, estimate linewidths, run the
ion-spectroscopy simulator, and extract servo bumps.

Exit codes, one per base class of beatnote.errors: 0 success, 3 estimation
failure (EstimationError), 4 file error (FileError: a file that cannot be
read or written, malformed content, or a non-ASCII byte in a trace, report
or config), 2 any other BeatnoteError (a flag or validation error).  Every
run is deterministic for a fixed (flags, seed) pair.  A --config JSON file
may supply any flag of the subcommand it is used with (underscores or
dashes); each entry is parsed as the flag it names, and explicit flags take
precedence.  Any other key, or a null, list or object value, exits 4; a
value the flag refuses exits 2.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

# Every subcommand reads or writes through io, which loads lineshape.  The
# other modules are imported by the functions that call them, so a process
# compiles only what its subcommand runs.
from . import __version__
from .errors import (BeatnoteError, EstimationError, FileError,
                     InvalidParameterError, SchemaError)
from .io import AnalysisReport, read_trace, write_report, write_trace
from .io import _read_json, _write_rows
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

def _centered_grid(center: float, span: float, points: int) -> FrequencyGrid:
    """`points` (>= 3) samples over `span` (> 0) centred on `center`."""
    step = span / (points - 1)
    return FrequencyGrid(center - span / 2.0, step, points)


def _dshi_params(args, laser_fwhm: float):
    from .dshi import DshiParams

    return DshiParams(
        eom_frequency=args.eom_mhz * 1e6,
        laser_fwhm=laser_fwhm,
        fiber_length=args.fiber_km * 1e3,
        fiber_index=args.fiber_index,
        optical_power=args.power,
    )


def _number_list(text: str, flag: str, positive: bool = False) -> list:
    """The comma-separated numbers of `flag`; with `positive`, each must also
    be finite and > 0."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise InvalidParameterError(
            f"{flag} must be comma-separated numbers, got {text!r}") from None
    if positive and not all(0 < v < math.inf for v in values):
        raise InvalidParameterError(
            f"{flag} values must be finite and > 0, got {text!r}")
    return values


def _parsed(convert, text: str, expected: str):
    """convert(text), or an argparse error naming the `expected` value, as
    argparse would otherwise name the type function."""
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}") from None


def _non_negative(text: str) -> float:
    """argparse type of a flag that must be finite and >= 0."""
    value = _parsed(float, text, "a number")
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type of a flag that must be finite and > 0."""
    value = _parsed(float, text, "a number")
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _grid_points(text: str) -> int:
    """argparse type of a grid's point count: an integer >= 3."""
    value = _parsed(int, text, "an integer")
    if value < 3:
        raise argparse.ArgumentTypeError(f"must be >= 3, got {text!r}")
    return value


# Namespace entries that are not settings of a run: the dispatch, the config
# file (its values are already in the flags), output paths and the timestamp.
_NOT_ECHOED = frozenset({"command", "func", "config", "out", "out_curve",
                         "fitted_trace", "timestamp"})


def _run_config(args) -> dict:
    """Every flag of the subcommand but the names in _NOT_ECHOED."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _one_trace(args) -> SpectrumTrace:
    from .dshi import (NoiseModel, SimConfig, apply_rbw, simulate_time_domain,
                       voigt_beat_note)

    params = _dshi_params(args, args.linewidth_hz)
    if args.mode == "analytic":
        grid = _centered_grid(params.eom_frequency, args.span_hz, args.points)
        trace = voigt_beat_note(params, args.flicker_gaussian_hz, grid)
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
        attr = args.sweep_param.replace("-", "_")
        outs = {}  # file name -> sweep value
        for value in _number_list(args.sweep_values, "--sweep-values"):
            out = f"{args.out_prefix}_{args.sweep_param}_{value:g}.csv"
            if out in outs:
                raise InvalidParameterError(
                    f"--sweep-values {outs[out]!r} and {value!r} would both "
                    f"write {out}")
            outs[out] = value
        for out, value in outs.items():
            setattr(args, attr, value)
            write_trace(_one_trace(args), out)
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
        center=trace.grid.start + trace.grid.step * int(np.argmax(trace.values)),
        fwhm_gaussian=estimate.gaussian_fwhm,
        fwhm_lorentzian=estimate.lorentzian_fwhm,
    )
    profile = eval_voigt_numeric(trace.grid, params)
    scale = trace.values.max() / profile.values.max()
    return SpectrumTrace(trace.grid, profile.values * scale, trace.rbw)


def cmd_fit(args) -> int:
    from .estimate import (VoigtOptions, estimate_envelope_contrast,
                           estimate_voigt)

    if args.fitted_trace and args.method == "envelope":
        raise InvalidParameterError(
            "--fitted-trace needs the Voigt estimator (--method voigt or both)")
    trace = read_trace(args.input)
    opts = VoigtOptions(tol=args.tol, max_iter=args.max_iter,
                        exclude_central_bins=args.exclude_central_bins)
    # Every requested estimator runs before any file is written, so a
    # failure leaves no partial output.
    reports = []
    if args.method in ("voigt", "both"):
        reports.append(("voigt", estimate_voigt(trace, opts)))
    if args.method in ("envelope", "both"):
        params = _dshi_params(args, laser_fwhm=0.0)
        est = estimate_envelope_contrast(
            trace, params, peak_order=args.peak_order,
            trough_order=args.trough_order, servo_band_hz=args.servo_band_hz)
        reports.append(("envelope", est))
    if args.fitted_trace:
        write_trace(_fitted_profile(trace, reports[0][1]), args.fitted_trace)

    config = _run_config(args)
    for name, est in reports:
        out = args.out
        if len(reports) > 1:
            stem = out[:-len(".json")] if out.endswith(".json") else out
            out = f"{stem}_{name}{out[len(stem):]}"
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


def _spectrum_once(args, noise, pulse_s, rabi_hz):
    from .ionsim import IonProbeParams, simulate_carrier_spectrum

    grid = _ion_grid(args, pulse_s, rabi_hz)
    params = IonProbeParams(rabi_hz, pulse_s, grid, shots_per_point=args.shots,
                            rng_seed=args.seed)
    return simulate_carrier_spectrum(params, noise)


def _rabi_once(args, noise, rabi_hz, t_max_s, t_points):
    """Resonant Rabi flop; the probe's detuning grid is unused on resonance."""
    from .ionsim import IonProbeParams, simulate_rabi

    params = IonProbeParams(rabi_hz, t_max_s, FrequencyGrid(-1.0, 1.0, 3),
                            shots_per_point=args.shots, rng_seed=args.seed)
    return simulate_rabi(params, noise, t_max_s, t_points)


def _fit_sweep(args, header, pairs, exponent):
    """Write the sweep curve and fit it with an inverse power law."""
    from .ionsim import fit_inverse_power

    _write_rows(args.out_curve, (header,), [p[0] for p in pairs],
                [p[1] for p in pairs], "curve")
    fit = fit_inverse_power(pairs, None if args.free_exponent else exponent)
    print(f"exponent={fit.parameters[1]:.4g} amplitude={fit.parameters[0]:.6g}")
    return fit


def cmd_ionsim(args) -> int:
    from .ionsim import LaserNoise, fit_damped_sine, fit_lorentzian_peak

    noise = LaserNoise(fwhm=args.laser_fwhm_hz, rin_sigma=args.rin)
    config = _run_config(args)

    if args.mode == "spectrum":
        curve = _spectrum_once(args, noise, args.pulse_ms * 1e-3, args.rabi_hz)
        _write_rows(args.out_curve, ("detuning_hz,excitation_probability",),
                    curve.abscissa, curve.probability, "curve")
        fit = fit_lorentzian_peak(curve)
        method = "ion-spectrum-lorentzian"
        print(f"fitted_fwhm_hz={fit.parameters[1]:.6g}")
    elif args.mode == "rabi":
        curve = _rabi_once(args, noise, args.rabi_hz, args.t_max_ms * 1e-3,
                           args.t_points)
        _write_rows(args.out_curve, ("time_s,excitation_probability",),
                    curve.abscissa, curve.probability, "curve")
        fit = fit_damped_sine(curve)
        method = "ion-rabi-damped-sine"
        print(f"fitted_rabi_hz={fit.parameters[0]:.6g} tau_s={fit.parameters[1]:.6g}")
    elif args.mode == "sweep-T":
        durations = [v * 1e-3 for v in _number_list(
            args.durations_ms, "--durations-ms", positive=True)]
        pairs = []
        for pulse_s in durations:
            curve = _spectrum_once(args, noise, pulse_s,
                                   args.rabi_time_product / pulse_s)
            pairs.append((pulse_s, float(fit_lorentzian_peak(curve).parameters[1])))
        fit = _fit_sweep(args, "pulse_duration_s,fitted_fwhm_hz", pairs, 1.0)
        method = "ion-sweep-duration-inverse-power"
    else:  # sweep-omega
        rabis = _number_list(args.rabi_values_hz, "--rabi-values-hz", positive=True)
        pairs = []
        for rabi in rabis:
            t_max = args.rabi_periods / rabi
            curve = _rabi_once(args, noise, rabi, t_max,
                               max(args.t_points, int(20 * rabi * t_max) + 1))
            pairs.append((rabi, float(fit_damped_sine(curve).parameters[1])))
        fit = _fit_sweep(args, "rabi_frequency_hz,coherence_time_s", pairs, 2.0)
        method = "ion-sweep-rabi-inverse-power"

    report = AnalysisReport(
        input={"path": "synthetic"},
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
    from .dshi import ServoBumpModel, extract_servo_bumps, inject_servo_bumps

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
    parser.add_argument("--fiber-km", type=float, default=5.0,
                        help="delay-fiber length in km (default 5)")
    parser.add_argument("--fiber-index", type=float, default=1.468,
                        help="fiber group index (default 1.468)")
    parser.add_argument("--eom-mhz", type=float, default=7.0,
                        help="EOM shift frequency in MHz (default 7)")
    parser.add_argument("--power", type=float, default=1.0,
                        help="normalized optical power (default 1)")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
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
    sim.add_argument("--linewidth-hz", type=float, default=320.0,
                     help="combined two-arm Lorentzian FWHM (default 320)")
    _add_dshi_flags(sim)
    sim.add_argument("--mode", choices=("analytic", "montecarlo"),
                     default="analytic")
    sim.add_argument("--span-hz", type=_positive, default=200e3,
                     help="grid span centered on the carrier (analytic mode)")
    sim.add_argument("--points", type=_grid_points, default=8001)
    sim.add_argument("--flicker-gaussian-hz", type=float, default=0.0,
                     help="Gaussian broadening of the coherent residue")
    sim.add_argument("--rbw-hz", type=_non_negative, default=0.0,
                     help="post-hoc Gaussian resolution bandwidth (0: none)")
    sim.add_argument("--flicker-level", type=float, default=0.0,
                     help="1/f frequency-noise level, Hz^2/Hz at 1 Hz (MC mode)")
    sim.add_argument("--rin", type=float, default=0.0,
                     help="fractional RMS intensity noise (MC mode)")
    sim.add_argument("--sample-rate-hz", type=_positive, default=None,
                     help="MC sample rate (default 8 * f_eom)")
    sim.add_argument("--duration-s", type=float, default=0.25)
    sim.add_argument("--segments", type=int, default=64)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--sweep-param", default=None,
                     choices=("eom-mhz", "fiber-km", "linewidth-hz", "power"))
    sim.add_argument("--sweep-values", type=str, default=None,
                     help="comma-separated values for --sweep-param")
    sim.add_argument("--out", type=str, default=None)
    sim.add_argument("--out-prefix", type=str, default="trace",
                     help="filename prefix in sweep mode")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="estimate linewidths from a trace")
    _add_dshi_flags(fit)
    fit.add_argument("--input", type=str, required=True)
    fit.add_argument("--method", choices=("voigt", "envelope", "both"),
                     default="voigt")
    fit.add_argument("--tol", type=float, default=1e-3)
    fit.add_argument("--max-iter", type=int, default=60)
    fit.add_argument("--exclude-central-bins", type=int, default=3)
    fit.add_argument("--peak-order", type=int, default=1)
    fit.add_argument("--trough-order", type=int, default=2)
    fit.add_argument("--servo-band-hz", type=float, default=100e3)
    fit.add_argument("--fitted-trace", type=str, default=None,
                     help="write the fitted Voigt profile for overlays "
                          "(--method voigt or both)")
    fit.add_argument("--timestamp", type=str, default=None)
    fit.add_argument("--out", type=str, required=True)
    fit.set_defaults(func=cmd_fit)

    ion = sub.add_parser("ionsim", help="trapped-ion spectroscopy simulator")
    ion.add_argument("--mode", default="spectrum",
                     choices=("spectrum", "rabi", "sweep-T", "sweep-omega"))
    ion.add_argument("--rabi-hz", type=float, default=250.0)
    ion.add_argument("--pulse-ms", type=_positive, default=2.0,
                     help="default 2: a pi pulse at 250 Hz")
    ion.add_argument("--laser-fwhm-hz", type=float, default=156.0)
    ion.add_argument("--rin", type=float, default=0.0)
    ion.add_argument("--shots", type=int, default=200)
    ion.add_argument("--seed", type=int, default=0)
    ion.add_argument("--span-hz", type=_positive, default=None)
    ion.add_argument("--points", type=_grid_points, default=41)
    ion.add_argument("--t-max-ms", type=float, default=16.0,
                     help="default 16: four Rabi periods at 250 Hz")
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
    return parser, sub.choices


def _config_flags(path, args) -> tuple[list, list]:
    """The keys of the --config JSON object at `path`, dashes turned into
    underscores, and its entries as the flags they name."""
    entries = _read_json(path, "config")
    if not isinstance(entries, dict):
        raise SchemaError("config file must hold a JSON object")
    entries = {key.replace("-", "_"): value for key, value in entries.items()}
    accepted = vars(args).keys() - {"command", "func", "config"}
    unknown = sorted(entries.keys() - accepted)
    if unknown:
        raise SchemaError(f"config keys not accepted by {args.command}: "
                          + ", ".join(unknown))
    flags = []
    for key, value in entries.items():
        flag = "--" + key.replace("_", "-")
        if value is None or isinstance(value, (list, dict)):
            raise SchemaError(f"config key {key} must hold a number or a string")
        if isinstance(value, bool) and not isinstance(getattr(args, key), bool):
            raise InvalidParameterError(
                f"{flag} takes a value, not {str(value).lower()}")
        if value is not False:  # a switch: true sets it, false leaves it off
            flags.append(flag if value is True else f"{flag}={value}")
    return list(entries), flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # The config's flags are parsed after the user's own, and their
            # values become the subcommand's defaults, so explicit flags win.
            keys, flags = _config_flags(args.config, args)
            parsed = vars(parser.parse_args(argv + flags))
            commands[args.command].set_defaults(**{k: parsed[k] for k in keys})
            args = parser.parse_args(argv)
        return args.func(args)
    except EstimationError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (FileError, OSError) as exc:  # OSError: a print to a closed pipe
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BeatnoteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
