"""The four benchmark workloads.

Each workload generates its inputs from the workload seed in its constructor
(timed as set-up), runs one op per `op(i)` call (timed), and verifies that
op's output in `check(i, result)` (untimed), which returns the op's relative
error against the workload's reference (None for an op that only reruns an
earlier input) or raises CheckFailed.  Calls into
beatnote go through the tracer so a traced run can time each layer.
"""

import hashlib
import math
import os
import resource
import subprocess
import sys

import numpy as np

import beatnote as bn
from beatnote import ionsim
from beatnote.errors import BeatnoteError
from calibration import ComputeCalibration, StartupCalibration


class CheckFailed(Exception):
    """An op's output failed a correctness check."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def check_trace(trace, grid):
    """Finite, non-negative PSD values on the expected grid."""
    got = trace.grid
    require(got.count == grid.count,
            f"trace has {got.count} bins, expected {grid.count}")
    require(abs(got.start - grid.start) <= 1e-9 * grid.step
            and abs(got.step - grid.step) <= 1e-9 * grid.step,
            f"trace grid {got} differs from expected {grid}")
    values = trace.linear_values()
    require(bool(np.all(np.isfinite(values))), "trace has non-finite values")
    require(bool(np.all(values >= 0)), "trace has negative values")


def check_positive(value, what):
    require(math.isfinite(value) and value > 0, f"{what} = {value} is not positive")


def op_seeds(rng):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=1024)]


def welch_grid(sample_rate, duration, segments):
    """Grid simulate_time_domain returns: one-sided, non-overlapping segments."""
    nperseg = int(sample_rate * duration) // segments
    return bn.FrequencyGrid(0.0, sample_rate / nperseg, nperseg // 2 + 1), \
        nperseg * segments


class CliPipeline:
    """`beatnote simulate --mode montecarlo` then `beatnote fit --method voigt`,
    one subprocess after the other, in the criterion-8 configuration."""

    CALIBRATION = StartupCalibration  # the op is mostly start-up and import
    TRUE_FWHM = 50e3
    SAMPLE_RATE = 8e6  # the CLI default, 8 * f_eom
    DURATION = 0.04
    SEGMENTS = 16

    def __init__(self, rng, tracer, workdir, src):
        self.tracer = tracer
        self.seeds = op_seeds(rng)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src if not path else src + os.pathsep + path)
        self.trace_path = os.path.join(workdir, "trace.csv")
        self.report_path = os.path.join(workdir, "report.json")
        self.trace_copy = os.path.join(workdir, "trace-copy.csv")
        self.report_copy = os.path.join(workdir, "report-copy.json")
        self.grid, self.samples = welch_grid(self.SAMPLE_RATE, self.DURATION,
                                             self.SEGMENTS)
        self.digests = {}

    def seed(self, i):
        # Every fourth op repeats the previous op's seed, so the
        # byte-identity of criterion 8 is checked throughout the run.
        return self.seeds[(i - 1 if i % 4 == 1 else i) % len(self.seeds)]

    def _cli(self, span, args):
        argv = [sys.executable, "-m", "beatnote.cli"] + args
        proc = self.tracer.call(span, subprocess.run, argv, env=self.env,
                                capture_output=True, timeout=150)
        if proc.returncode != 0:
            if span == "cli.fit" and proc.returncode == 3:
                self.tracer.count("estimate.refusals")
            raise CheckFailed(f"{args[0]} exited {proc.returncode}: "
                              f"{proc.stderr.decode(errors='replace')[-400:]}")

    def op(self, i):
        seed = self.seed(i)
        self._cli("cli.simulate", [
            "simulate", "--mode", "montecarlo", "--eom-mhz", "1",
            "--linewidth-hz", f"{self.TRUE_FWHM:g}",
            "--duration-s", f"{self.DURATION:g}",
            "--segments", str(self.SEGMENTS), "--seed", str(seed),
            "--out", self.trace_path])
        self.tracer.count("estimate.attempts")
        self._cli("cli.fit", [
            "fit", "--input", self.trace_path, "--method", "voigt",
            "--exclude-central-bins", "3", "--out", self.report_path])
        return seed

    def check(self, i, seed):
        tracer = self.tracer
        trace = tracer.call("io.read_trace", bn.read_trace, self.trace_path)
        tracer.count("io.trace_bytes", os.path.getsize(self.trace_path))
        tracer.count("dshi.samples", self.samples)
        check_trace(trace, self.grid)
        tracer.call("io.write_trace", bn.write_trace, trace, self.trace_copy)
        require(same_bytes(self.trace_path, self.trace_copy),
                "rewriting the trace does not reproduce the CLI's bytes")

        doc = bn.read_report(self.report_path)
        result = doc["result"]
        estimate = bn.LinewidthEstimate(
            lorentzian_fwhm=result["lorentzian_fwhm_hz"],
            gaussian_fwhm=result["gaussian_fwhm_hz"],
            voigt_fwhm=result["voigt_fwhm_hz"],
            single_laser_fwhm=result["single_laser_fwhm_hz"],
            method=doc["method"],
            iterations=result["iterations"],
            residual=result["residual"],
            flags=frozenset(result["flags"]),
        )
        tracer.count("estimate.flagged", bool(estimate.flags))
        tracer.count("estimate.voigt_iterations", estimate.iterations)
        check_positive(estimate.lorentzian_fwhm, "lorentzian_fwhm")
        report = bn.AnalysisReport(input=doc["input"], method=doc["method"],
                                   payload=estimate, config=doc["config"],
                                   seed=doc["seed"],
                                   tool_version=doc["tool_version"])
        tracer.call("io.write_report", bn.write_report, report, self.report_copy)
        require(same_bytes(self.report_path, self.report_copy),
                "rewriting the report does not reproduce the CLI's bytes")

        digest = (file_digest(self.trace_path), file_digest(self.report_path))
        if seed in self.digests:
            require(self.digests[seed] == digest,
                    f"seed {seed} gave different trace or report bytes on a rerun")
            return None  # a rerun adds no new sample of the error
        self.digests[seed] = digest
        return abs(estimate.lorentzian_fwhm / self.TRUE_FWHM - 1.0)

    @staticmethod
    def peak_rss_mb():
        # The work runs in the CLI subprocesses: report the largest of them.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class EstimateBatch:
    """estimate_voigt on a broadened beat note plus estimate_envelope_contrast
    on the analytic PSD of the same parameters, over a batch drawn at set-up."""

    CALIBRATION = ComputeCalibration
    CASES = 512
    EOM = 7e6
    STEP = 10.0
    BUMPS = bn.ServoBumpModel(offset=50e3, width=15e3, height_db=12.0)
    BUMPED_EVERY = 4  # every fourth trace carries the criterion-5 servo bumps

    def __init__(self, rng, tracer, workdir, src):
        self.tracer = tracer
        self.cases = [self._case(k, rng) for k in range(self.CASES)]

    def _case(self, k, rng):
        lorentzian = rng.uniform(260.0, 380.0)
        gaussian = lorentzian * rng.uniform(1.6, 2.4)
        params = bn.DshiParams(eom_frequency=self.EOM, laser_fwhm=lorentzian,
                               fiber_length=rng.uniform(3e3, 6e3))
        bumped = k % self.BUMPED_EVERY == 0
        # Wide enough for the Voigt wings (+-10 widths), for envelope orders
        # 1-2 with their search window, and for the bumps where present.
        half = max(10.0 * (lorentzian + gaussian),
                   2.5 * bn.extrema_spacing(params),
                   1.8 * self.BUMPS.offset if bumped else 0.0)
        n = int(math.ceil(half / self.STEP))
        grid = bn.FrequencyGrid(self.EOM - n * self.STEP, self.STEP, 2 * n + 1)
        trace = self.tracer.call("dshi.voigt_beat_note", bn.voigt_beat_note,
                                 params, gaussian, grid)
        if bumped:
            trace = bn.inject_servo_bumps(trace, self.BUMPS, carrier_hz=self.EOM)
        clean = self.tracer.call("dshi.analytic_psd", bn.analytic_psd, params, grid)
        problem = None
        try:
            check_trace(trace, grid)
            check_trace(clean, grid)
        except CheckFailed as exc:
            problem = f"input trace {k}: {exc}"
        return params, trace, clean, problem

    def op(self, i):
        params, trace, clean, _ = self.cases[i % len(self.cases)]
        self.tracer.count("estimate.attempts", 2)
        try:
            voigt = self.tracer.call("estimate.estimate_voigt",
                                     bn.estimate_voigt, trace)
            envelope = self.tracer.call("estimate.estimate_envelope_contrast",
                                        bn.estimate_envelope_contrast,
                                        clean, params, 1, 2)
        except BeatnoteError:
            self.tracer.count("estimate.refusals")
            raise
        return voigt, envelope

    def check(self, i, result):
        params, trace, _, problem = self.cases[i % len(self.cases)]
        require(problem is None, problem)
        voigt, envelope = result
        tracer = self.tracer
        tracer.count("estimate.flagged", bool(voigt.flags) + bool(envelope.flags))
        tracer.count("estimate.voigt_iterations", voigt.iterations)
        tracer.count("estimate.envelope_iterations", envelope.iterations)
        check_positive(voigt.lorentzian_fwhm, "voigt lorentzian_fwhm")
        check_positive(envelope.lorentzian_fwhm, "envelope lorentzian_fwhm")
        if tracer.active:
            tracer.call("lineshape.width_at_level", bn.width_at_level, trace, 20.0)
            tracer.call("lineshape.voigt_width_numeric", bn.voigt_width_numeric,
                        voigt.lorentzian_fwhm, voigt.gaussian_fwhm, 20.0)
        true = params.laser_fwhm
        return max(abs(voigt.lorentzian_fwhm / true - 1.0),
                   abs(envelope.lorentzian_fwhm / true - 1.0))

    peak_rss_mb = staticmethod(self_rss_mb)


class McOracle:
    """simulate_time_domain in the README configuration, with white FM,
    flicker and a small RIN, compared with analytic_psd over the
    criterion-3 band."""

    CALIBRATION = ComputeCalibration
    PARAMS = bn.DshiParams(eom_frequency=1e6, laser_fwhm=320.0)
    # Flicker low enough that the band still follows the white-FM model.
    NOISE = bn.NoiseModel(white_fm_fwhm=320.0, flicker_level=1e3, rin_sigma=1e-3)
    SAMPLE_RATE = 8e6
    DURATION = 0.256
    SEGMENTS = 64
    BAND = 200e3
    MAX_RMS_DB = 1.5  # criterion 3

    def __init__(self, rng, tracer, workdir, src):
        self.tracer = tracer
        self.seeds = op_seeds(rng)
        self.grid, self.samples = welch_grid(self.SAMPLE_RATE, self.DURATION,
                                             self.SEGMENTS)
        reference = tracer.call("dshi.analytic_psd", bn.analytic_psd,
                                self.PARAMS, self.grid)
        carrier = self.grid.index_of(self.PARAMS.eom_frequency)
        offsets = np.abs(self.grid.points() - self.PARAMS.eom_frequency)
        band = np.flatnonzero(offsets <= self.BAND)
        self.band = band[np.abs(band - carrier) > 1]  # drop the 3 central bins
        self.reference = reference.values[self.band]

    def op(self, i):
        cfg = bn.SimConfig(sample_rate=self.SAMPLE_RATE, duration=self.DURATION,
                           segments=self.SEGMENTS,
                           seed=self.seeds[i % len(self.seeds)])
        self.tracer.count("dshi.samples", self.samples)
        return self.tracer.call("dshi.simulate_time_domain",
                                bn.simulate_time_domain, self.PARAMS,
                                self.NOISE, cfg)

    def check(self, i, trace):
        check_trace(trace, self.grid)
        ratio = trace.values[self.band] / self.reference
        rms_db = math.sqrt(float(np.mean((10.0 * np.log10(ratio)) ** 2)))
        require(rms_db < self.MAX_RMS_DB,
                f"RMS deviation {rms_db:.2f} dB from analytic_psd exceeds "
                f"{self.MAX_RMS_DB} dB (criterion 3)")
        return math.sqrt(float(np.mean((ratio - 1.0) ** 2)))

    peak_rss_mb = staticmethod(self_rss_mb)


class IonScan:
    """Desaturated criterion-6a carrier scan and its Lorentzian fit, then the
    README Rabi flop and its damped-sine fit."""

    CALIBRATION = ComputeCalibration
    SCAN_GRID = bn.FrequencyGrid(-1200.0, 30.0, 81)
    SCAN_RABI = 125.0
    SCAN_PULSE = 4e-3
    SCAN_NOISE = bn.LaserNoise(fwhm=156.0)
    FLOP_RABI = 40e3
    FLOP_T_MAX = 0.5e-3
    FLOP_POINTS = 400
    FLOP_NOISE = bn.LaserNoise(fwhm=156.0, rin_sigma=0.01)
    SHOTS = 200

    def __init__(self, rng, tracer, workdir, src):
        self.tracer = tracer
        self.seeds = op_seeds(rng)
        self.flop_times = (self.FLOP_T_MAX * np.arange(1, self.FLOP_POINTS + 1)
                           / self.FLOP_POINTS)
        self.shot_steps = self._shot_steps()

    def _shot_steps(self):
        """Computed count: points x shots x integration steps of both sims."""
        # The step rule of ionsim._evolve; a rename of its constant fails here.
        per_period = ionsim._STEPS_PER_PERIOD
        top = max(abs(self.SCAN_GRID.start), abs(self.SCAN_GRID.stop))
        scan_rate = per_period * math.hypot(self.SCAN_RABI, top)
        scan_steps = max(int(math.ceil(self.SCAN_PULSE * scan_rate)), 32)
        block = max(int(math.ceil(self.FLOP_T_MAX * per_period * self.FLOP_RABI
                                  / self.FLOP_POINTS)), 1)
        flop_steps = block * self.FLOP_POINTS
        return self.SHOTS * (self.SCAN_GRID.count * scan_steps + flop_steps)

    def op(self, i):
        seed = self.seeds[i % len(self.seeds)]
        call = self.tracer.call
        scan = call("ionsim.simulate_carrier_spectrum",
                    bn.simulate_carrier_spectrum,
                    bn.IonProbeParams(self.SCAN_RABI, self.SCAN_PULSE,
                                      self.SCAN_GRID, self.SHOTS, seed),
                    self.SCAN_NOISE)
        peak = call("ionsim.fit_lorentzian_peak", bn.fit_lorentzian_peak, scan)
        flop = call("ionsim.simulate_rabi", bn.simulate_rabi,
                    bn.IonProbeParams(self.FLOP_RABI, self.FLOP_T_MAX,
                                      bn.FrequencyGrid(-1.0, 1.0, 3),
                                      self.SHOTS, seed),
                    self.FLOP_NOISE, self.FLOP_T_MAX, self.FLOP_POINTS)
        sine = call("ionsim.fit_damped_sine", bn.fit_damped_sine, flop)
        self.tracer.count("ionsim.shot_steps", self.shot_steps)
        self.tracer.count("estimate.lm_iterations", peak.iterations + sine.iterations)
        return scan, peak, flop, sine

    def check(self, i, result):
        scan, peak, flop, sine = result
        for curve, abscissa in ((scan, self.SCAN_GRID.points()),
                                (flop, self.flop_times)):
            require(curve.abscissa.shape == abscissa.shape
                    and bool(np.allclose(curve.abscissa, abscissa, rtol=1e-12,
                                         atol=1e-12 * np.max(np.abs(abscissa)))),
                    "excitation curve is not on the expected abscissa")
            p = curve.probability
            require(bool(np.all(np.isfinite(p))) and bool(np.all((p >= 0) & (p <= 1))),
                    "excitation probabilities are not finite values in [0, 1]")
        check_positive(float(peak.parameters[1]), "fitted scan FWHM")
        rabi, contrast = float(sine.parameters[0]), float(sine.parameters[2])
        check_positive(rabi, "fitted Rabi frequency")
        rabi_err = abs(rabi / self.FLOP_RABI - 1.0)
        self.tracer.count("ionsim.rabi_rel_err", rabi_err)
        # A flop from the ground state has contrast exactly 1.  The sum lets
        # a Rabi bias add to the contrast bias rather than hide under it.
        return rabi_err + abs(contrast - 1.0)

    peak_rss_mb = staticmethod(self_rss_mb)


WORKLOADS = {
    "cli-pipeline": CliPipeline,
    "estimate-batch": EstimateBatch,
    "mc-oracle": McOracle,
    "ion-scan": IonScan,
}
