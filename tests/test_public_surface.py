"""The package's public surface: every public name and every private helper
has a caller outside the tests, every helper of tests/oracles.py has a test
that reads it, and every public class and callable refuses a bad number.

The refusal table holds one valid call for each public class and callable.
Each numeric argument of that call is replaced in turn by NaN, +inf and
-inf (one element at a time for an array), and each count also by 2.5.
Every such call must raise a BeatnoteError and emit no warning, unless the
table of exemptions names the argument and the value, with its reason.
"""

import ast
import importlib
import math
import pathlib
import warnings

import numpy as np
import pytest

import beatnote
from beatnote import (
    HALF_POWER_DB,
    AnalysisReport,
    DshiParams,
    ExcitationCurve,
    FrequencyGrid,
    IonProbeParams,
    LaserNoise,
    LineshapeParams,
    LinewidthEstimate,
    NoiseModel,
    ServoBumpModel,
    SimConfig,
    analytic_psd,
    eval_voigt_numeric,
    measure_envelope_contrast,
    write_report,
    write_trace,
)
from beatnote.errors import BeatnoteError

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLERS = ("src/beatnote/*.py", "demos/*.py", "perfbench/*.py")
SUBMODULES = ("beatnote.lineshape", "beatnote.dshi", "beatnote.estimate",
              "beatnote.ionsim", "beatnote.io")

# Public only so that tests can check the package against them.
ORACLES = {
    "expected_excitation": "exact ion shot mean the Monte-Carlo scans are held to",
}


def _defined(node):
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return set()


def _references(path):
    """Names a file reads, imports or reaches as attributes, leaving out
    what each top-level definition says of its own name."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module.split(".")[-1])
        found |= names - _defined(top)
    return found


def test_every_public_name_has_a_caller():
    files = [p for pattern in CALLERS for p in ROOT.glob(pattern)
             if p.name != "__init__.py"]
    used = set().union(*map(_references, files))
    assert set(ORACLES) <= set(beatnote.__all__)
    assert sorted(set(beatnote.__all__) - used - set(ORACLES)) == []


def test_every_private_helper_has_a_caller():
    # A private top-level name of the package that no caller reads (its own
    # definition aside) is dead code; __init__.py reads its own helpers.
    package = (ROOT / "src" / "beatnote").glob("*.py")
    defined = set().union(*(_defined(top) for path in package
                            for top in ast.parse(path.read_text()).body))
    private = {name for name in defined
               if name.startswith("_") and not name.startswith("__")}
    files = [p for pattern in CALLERS for p in ROOT.glob(pattern)]
    used = set().union(*map(_references, files))
    assert sorted(private - used) == []


def test_every_oracle_has_a_test():
    # A helper of tests/oracles.py that no test module reads checks nothing.
    oracles = ROOT / "tests" / "oracles.py"
    defined = set().union(*map(_defined, ast.parse(oracles.read_text()).body))
    used = set().union(*map(_references, (ROOT / "tests").glob("test_*.py")))
    assert sorted(defined - used) == []


def test_all_holds_no_module():
    namespace = {}
    exec("import io\nfrom beatnote import *", namespace)
    assert namespace["io"].StringIO
    assert len(beatnote.__all__) == 43


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from beatnote import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == beatnote.__all__
    assert len(namespace) - 1 == 43


@pytest.mark.parametrize("name", beatnote.__all__)
def test_public_name_is_its_home_modules_object(name):
    # Names load on first access; each must be the object of the one
    # submodule whose __all__ lists it.
    homes = [module for module in map(importlib.import_module, SUBMODULES)
             if name in module.__all__]
    assert len(homes) == 1
    assert getattr(beatnote, name) is getattr(homes[0], name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'voigt_fwhm'"):
        beatnote.voigt_fwhm  # noqa: B018
    assert not hasattr(beatnote, "lineshape_params")


# ---------------------------------------------------------------------------
# Refusal table
# ---------------------------------------------------------------------------

ENTRY_POINTS = sorted(name for name in beatnote.__all__
                      if callable(getattr(beatnote, name)))

BAD = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}
FRACTIONAL = {"2.5": 2.5}

# (name, argument): the bad values the argument may hold, and why.
EXEMPT = {
    ("fit_least_squares", "bounds"): (
        {"+inf", "-inf"}, "an infinite bound leaves its parameter unbounded"),
    ("FitResult", "covariance"): (
        {"nan"}, "the covariance is NaN after a failed pinv"),
}


def _line(x, slope, offset):
    return slope * x + offset


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    """One valid call per public class and callable, as keyword arguments."""
    tmp = tmp_path_factory.mktemp("surface")
    dshi = DshiParams(eom_frequency=7e6, laser_fwhm=320.0)
    envelope_grid = FrequencyGrid(7e6 - 50e3, 500.0, 201)
    envelope_trace = analytic_psd(dshi, envelope_grid)
    line_grid = FrequencyGrid(-200.0, 1.0, 401)
    shape = LineshapeParams(0.0, 20.0, 20.0)
    trace = eval_voigt_numeric(line_grid, shape)
    ion = IonProbeParams(125.0, 4e-3, FrequencyGrid(-1200.0, 100.0, 25),
                         shots_per_point=2, rng_seed=1)
    noise = LaserNoise(fwhm=50.0, rin_sigma=0.01)
    t = np.linspace(1e-4, 0.032, 100)
    flop = ExcitationCurve(
        t, 0.5 - 0.5 * np.exp(-t / 0.05) * np.cos(2.0 * math.pi * 125.0 * t), 1)
    x = np.linspace(-500.0, 500.0, 51)
    peak = ExcitationCurve(x, 0.05 + 0.8 * 2500.0 / (x * x + 2500.0), 1)
    estimate = LinewidthEstimate(
        lorentzian_fwhm=2.0, gaussian_fwhm=1.0, voigt_fwhm=2.5,
        single_laser_fwhm=1.0, method="voigt-iterative", iterations=3,
        residual=1e-4)
    report = AnalysisReport(input={"path": "synthetic"}, method="voigt-iterative",
                            payload=estimate, seed=0)
    write_trace(trace, tmp / "trace.csv")
    write_report(report, tmp / "report.json")
    contrast, _, _ = measure_envelope_contrast(envelope_trace, dshi, 1, 2)
    return {
        "AnalysisReport": dict(input={"path": "synthetic"},
                               method="voigt-iterative", payload=estimate,
                               config={}, seed=0, tool_version="0.1.0"),
        "DshiParams": dict(eom_frequency=7e6, laser_fwhm=320.0,
                           fiber_length=5000.0, fiber_index=1.468,
                           optical_power=1.0),
        "ExcitationCurve": dict(abscissa=np.array([0.0, 1.0, 2.0]),
                                probability=np.array([0.1, 0.5, 0.2]),
                                shot_count=3),
        "FitResult": dict(parameters=np.array([1.0, 2.0]), covariance=np.eye(2),
                          residual_norm=0.5, converged=True, iterations=3),
        "FrequencyGrid": dict(start=-5.0, step=1.0, count=11),
        "IonProbeParams": dict(rabi_frequency=125.0, pulse_duration=4e-3,
                               detuning_grid=ion.detuning_grid,
                               shots_per_point=2, rng_seed=1),
        "LaserNoise": dict(fwhm=50.0, rin_sigma=0.01),
        "LineshapeParams": dict(center=0.0, fwhm_gaussian=20.0,
                                fwhm_lorentzian=20.0),
        "LinewidthEstimate": dict(lorentzian_fwhm=2.0, gaussian_fwhm=1.0,
                                  voigt_fwhm=2.5, single_laser_fwhm=1.0,
                                  method="voigt-iterative", iterations=3,
                                  residual=1e-4),
        "NoiseModel": dict(white_fm_fwhm=320.0, flicker_level=1e3,
                           rin_sigma=1e-3),
        "ServoBumpModel": dict(offset=50e3, width=15e3, height_db=12.0),
        "SimConfig": dict(sample_rate=1e8, duration=1e-5, segments=16, seed=0),
        "SpectrumTrace": dict(grid=FrequencyGrid(0.0, 1.0, 4),
                              values=np.array([0.0, 1.0, 2.0, 0.5]), rbw=1.0),
        "analytic_psd": dict(params=dshi, grid=envelope_grid),
        "apply_rbw": dict(trace=trace, rbw=2.0),
        "estimate_envelope_contrast": dict(trace=envelope_trace, params=dshi,
                                           peak_order=1, trough_order=2,
                                           servo_band_hz=100e3),
        "estimate_voigt": dict(trace=trace, exclude_central_bins=3),
        "eval_gaussian": dict(grid=line_grid, f0=0.0, fwhm=20.0),
        "eval_lorentzian": dict(grid=line_grid, f0=0.0, fwhm=20.0),
        "eval_voigt_numeric": dict(grid=line_grid, params=shape),
        "expected_excitation": dict(params=ion, noise=noise,
                                    times=np.array([1e-3, 2e-3, 4e-3])),
        "extract_servo_bumps": dict(measured=trace, model=trace),
        "extrema_spacing": dict(params=dshi),
        "fit_damped_sine": dict(curve=flop),
        "fit_inverse_power": dict(points=[(1.0, 5.0), (2.0, 1.3), (4.0, 0.3)],
                                  fixed_exponent=2.0),
        "fit_least_squares": dict(model=_line, xdata=np.arange(5.0),
                                  ydata=np.array([0.1, 2.0, 3.9, 6.1, 8.0]),
                                  init=np.array([1.0, 0.0]),
                                  bounds=([-10.0, -10.0], [10.0, 10.0])),
        "fit_lorentzian_peak": dict(curve=peak),
        "inject_servo_bumps": dict(trace=trace,
                                   bumps=ServoBumpModel(50.0, 10.0, 6.0),
                                   carrier_hz=0.0),
        "measure_envelope_contrast": dict(trace=envelope_trace, params=dshi,
                                          peak_order=1, trough_order=2),
        "read_report": dict(path=tmp / "report.json"),
        "read_trace": dict(path=tmp / "trace.csv"),
        "simulate_carrier_spectrum": dict(params=ion, noise=noise),
        "simulate_rabi": dict(params=ion, noise=noise, t_max=0.02, t_points=60),
        "simulate_time_domain": dict(
            params=DshiParams(eom_frequency=1e6, laser_fwhm=1e4, fiber_length=10.0),
            noise=NoiseModel(white_fm_fwhm=1e4, flicker_level=1e3, rin_sigma=1e-3),
            cfg=SimConfig(sample_rate=1e8, duration=1e-5)),
        "solve_contrast": dict(params=dshi, peak_order=1, trough_order=2,
                               contrast_db=contrast),
        "voigt_beat_note": dict(params=dshi, gaussian_fwhm=640.0,
                                grid=envelope_grid),
        "voigt_fwhm_approx": dict(fwhm_lorentzian=20.0, fwhm_gaussian=20.0),
        "voigt_width_numeric": dict(fwhm_lorentzian=20.0, fwhm_gaussian=20.0,
                                    level_db=20.0),
        "width_at_level": dict(trace=trace, level_db=HALF_POWER_DB,
                               allow_ties=False),
        "write_report": dict(report=report, path=tmp / "copy.json"),
        "write_trace": dict(trace=trace, path=tmp / "copy.csv"),
    }


def _bad_arguments(kwargs):
    """(argument, label, bad value) for every numeric argument: NaN and
    +-inf, one array element at a time, and 2.5 for an int (a count)."""
    for arg, value in kwargs.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            bad = {**BAD, **FRACTIONAL} if isinstance(value, int) else BAD
            for label, number in bad.items():
                yield arg, label, number
        elif isinstance(value, (list, tuple, np.ndarray)):
            array = np.array(value, dtype=float)
            for i in range(array.size):
                for label, number in BAD.items():
                    poisoned = array.copy()
                    poisoned.flat[i] = number
                    yield arg, f"{label} at {i}", poisoned


def _outcome(fn, kwargs):
    """'returned', 'refused', or the name of what else was raised; a
    warning counts as raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(**kwargs)
        except BeatnoteError:
            return "refused"
        except Exception as exc:  # noqa: BLE001 - reported by name
            return type(exc).__name__
    return "returned"


def test_table_rows_are_the_public_entry_points(table):
    assert sorted(table) == ENTRY_POINTS
    for (name, arg), (labels, _) in EXEMPT.items():
        assert arg in table[name] and labels <= set(BAD)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_refuses_bad_numbers(table, name):
    assert name in table, f"{name} is public but has no row in the table"
    fn, kwargs = getattr(beatnote, name), table[name]
    assert _outcome(fn, kwargs) == "returned"
    wrong = []
    for arg, label, value in _bad_arguments(kwargs):
        outcome = _outcome(fn, {**kwargs, arg: value})
        exempt, _ = EXEMPT.get((name, arg), (set(), ""))
        if outcome != "refused" and not (
                outcome == "returned" and label.split()[0] in exempt):
            wrong.append(f"{arg}={label}: {outcome}")
    assert wrong == []
