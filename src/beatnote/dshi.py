"""Delayed self-heterodyne beat-note spectra.

Provides the analytic PSD of the beat note between a laser and its delayed,
frequency-shifted copy (Lorentzian wing times coherence envelope plus a
coherent residue at the carrier), a time-domain Monte-Carlo oracle for the
same quantity, the spacing of the coherence-envelope extrema, and
injection/extraction of servo bumps.  The analytic models are evaluated once
per side of the carrier (lineshape._about_center), palindromes about a bin.

Linewidth convention: DshiParams.laser_fwhm is the *combined two-arm*
Lorentzian FWHM of the beat note, i.e. twice the per-arm width.  All internal
formulas therefore run on the per-arm half width gamma = laser_fwhm / 2, so a
trace generated with laser_fwhm = X hands an estimator a Lorentzian of FWHM X.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import (
    DomainError,
    GridMismatchError,
    InvalidParameterError,
    ResolutionError,
)
from .lineshape import (FrequencyGrid, LineshapeParams, SpectrumTrace,
                        _about_center, _delta_width, _unit_gaussian,
                        _whole_number, eval_voigt_numeric)

__all__ = [
    "SPEED_OF_LIGHT",
    "DshiParams",
    "NoiseModel",
    "ServoBumpModel",
    "SimConfig",
    "analytic_psd",
    "voigt_beat_note",
    "extrema_spacing",
    "simulate_time_domain",
    "inject_servo_bumps",
    "extract_servo_bumps",
    "apply_rbw",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class DshiParams:
    """Physical configuration of the interferometer.

    laser_fwhm is the combined two-arm Lorentzian FWHM of the beat note.
    The delay follows from the fiber: delay = fiber_index * fiber_length / c.
    """

    eom_frequency: float
    laser_fwhm: float
    fiber_length: float = 5_000.0
    fiber_index: float = 1.468
    optical_power: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise InvalidParameterError("interferometer parameters must be finite")
        if not self.optical_power > 0:
            raise InvalidParameterError("optical_power must be > 0")
        if not self.eom_frequency > 0:
            raise InvalidParameterError("eom_frequency must be > 0")
        if self.laser_fwhm < 0:
            raise InvalidParameterError("laser_fwhm must be >= 0")
        if not self.fiber_length > 0:
            raise InvalidParameterError("fiber_length must be > 0")
        if not 1.0 < self.fiber_index < 2.0:
            raise InvalidParameterError("fiber_index must lie in (1, 2)")

    @property
    def delay(self) -> float:
        """Fiber transit time in seconds."""
        return self.fiber_index * self.fiber_length / SPEED_OF_LIGHT


@dataclass(frozen=True)
class NoiseModel:
    """Laser noise description.

    white_fm_fwhm: Lorentzian FWHM from white frequency noise (combined
    two-arm value; keep it equal to DshiParams.laser_fwhm when comparing a
    simulation against the analytic model).
    flicker_level: one-sided 1/f frequency-noise PSD coefficient, Hz^2/Hz at
    1 Hz offset.  rin_sigma: fractional RMS intensity noise.
    """

    white_fm_fwhm: float
    flicker_level: float = 0.0
    rin_sigma: float = 0.0

    def __post_init__(self):
        if not all(0 <= getattr(self, f.name) < math.inf for f in fields(self)):
            raise InvalidParameterError("noise levels must be finite and >= 0")


@dataclass(frozen=True)
class ServoBumpModel:
    """Pair of Gaussian intensity bumps at +-offset from the carrier."""

    offset: float
    width: float
    height_db: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.offset, self.width, self.height_db))):
            raise InvalidParameterError("bump offset, width and height must be finite")
        if not self.offset > 0:
            raise InvalidParameterError("bump offset must be > 0")
        if not self.width > 0:
            raise InvalidParameterError("bump width must be > 0")


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo run configuration."""

    sample_rate: float
    duration: float
    segments: int = 16
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.sample_rate < math.inf and 0 < self.duration < math.inf):
            raise InvalidParameterError(
                "sample_rate and duration must be finite and > 0")
        object.__setattr__(self, "segments", _whole_number(self.segments, "segments"))
        object.__setattr__(self, "seed", _whole_number(self.seed, "seed"))
        if self.segments < 16:
            raise InvalidParameterError("need at least 16 averaging segments")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        samples = self.sample_rate * self.duration
        if samples < 2 * self.segments:
            raise InvalidParameterError(
                f"{int(samples)} samples (sample_rate * duration) leave fewer "
                f"than 2 per segment across {self.segments} segments")


def extrema_spacing(params: DshiParams) -> float:
    """Spacing of the coherence-envelope extrema: c / (2 n L)."""
    return SPEED_OF_LIGHT / (2.0 * params.fiber_index * params.fiber_length)


def _coherence_factor(params: DshiParams) -> float:
    """exp(-2 pi t_d gamma): fraction of the field still coherent after the delay."""
    gamma = params.laser_fwhm / 2.0
    return math.exp(-2.0 * math.pi * params.delay * gamma)


def _wing_and_envelope(params: DshiParams, grid: FrequencyGrid):
    """Continuous beat PSD on the grid as (Lorentzian wing) * (coherence
    envelope), each even about the carrier f0 = params.eom_frequency and
    assembled from its two sides by lineshape._about_center.

    The envelope is 1 - coh (cos theta + gamma sin theta / x), theta = 2 pi
    t_d x at the offset x from the carrier, with its removable singularity
    at x = 0 taken as the limit 2 pi t_d gamma.  Its cosine and sine come by
    angle addition, a row's angle plus a column's, over a (rows, block)
    split of each side, so about 4 sqrt(count) trig calls replace two per
    bin.  A side's k-th value depends on k and the block alone, never on
    its count.
    """
    gamma = params.laser_fwhm / 2.0
    p2 = params.optical_power**2
    f0, step, n = params.eom_frequency, grid.step, grid.count
    two_pi_td = 2.0 * math.pi * params.delay
    coh = _coherence_factor(params)
    block = math.isqrt(n - 1) + 1
    col_angle = np.arange(block) * (step * two_pi_td)
    cos_col, sin_col = np.cos(col_angle), np.sin(col_angle)

    def wing(offset, count):
        x = (np.arange(count) + offset) * step
        return (p2 / (4.0 * math.pi)) * gamma / (gamma * gamma + x * x)

    def envelope(offset, count):
        first = block * np.arange(-(-count // block)) + offset
        row_angle = first * (step * two_pi_td)
        cos_row, sin_row = np.cos(row_angle), np.sin(row_angle)
        cos_t = np.multiply.outer(cos_row, cos_col)
        cos_t -= np.multiply.outer(sin_row, sin_col)
        sin_t = np.multiply.outer(sin_row, cos_col)
        sin_t += np.multiply.outer(cos_row, sin_col)
        cos_t, sin_t = cos_t.ravel()[:count], sin_t.ravel()[:count]
        x = np.add.outer(first, np.arange(block, dtype=float)).ravel()[:count]
        x *= step
        if x[0] == 0.0:  # only the first offset can be 0: take the limit there
            x[0], sin_t[0] = 1.0, two_pi_td
        sin_t /= x
        sin_t *= gamma
        sin_t += cos_t
        sin_t *= -coh
        sin_t += 1.0
        return np.maximum(sin_t, 0.0, out=sin_t)

    # A half width whose square underflows has no wing, as a zero one has
    # none; an offset whose square overflows reads 0.
    with np.errstate(over="ignore"):
        wing_values = (_about_center(grid, f0, wing) if gamma * gamma > 0
                       else np.zeros(n))
    return wing_values, _about_center(grid, f0, envelope)


def _spike_power(params: DshiParams) -> float:
    """Integrated power of the coherent residue at the carrier."""
    return 0.5 * math.pi * params.optical_power**2 * _coherence_factor(params)


def _require_carrier_coverage(params: DshiParams, grid: FrequencyGrid):
    if not grid.covers(params.eom_frequency):
        raise DomainError(
            f"grid [{grid.start:g}, {grid.stop:g}] Hz does not cover the "
            f"carrier at {params.eom_frequency:g} Hz"
        )


def analytic_psd(params: DshiParams, grid: FrequencyGrid) -> SpectrumTrace:
    """Analytic beat-note PSD on the given grid.

    The continuous part is the Lorentzian wing of the combined-linewidth beat
    modulated by the coherence envelope of the delay line; the coherent
    residue is deposited as integrated power into the single bin containing
    the carrier.  This is voigt_beat_note with no broadening.
    """
    return voigt_beat_note(params, 0.0, grid)


def voigt_beat_note(params: DshiParams, gaussian_fwhm: float,
                    grid: FrequencyGrid) -> SpectrumTrace:
    """Beat-note model with the coherent residue broadened into a Voigt peak.

    Flicker noise accumulated over the delay smears the carrier residue into
    a finite line; this model gives that line the measured-beat-note shape: a
    Voigt profile whose Lorentzian part is the combined white-noise linewidth
    and whose Gaussian part is the supplied flicker broadening (a Gaussian
    at zero linewidth).  The peak carries the residue's integrated power and
    rides on the same wing-times-envelope pedestal as analytic_psd.  With no
    broadening, or a Gaussian alone that the grid cannot resolve, the
    residue stays in the carrier bin.  With the carrier on a bin the trace
    is a bitwise palindrome about it.
    """
    if not 0 <= gaussian_fwhm < math.inf:
        raise InvalidParameterError(
            f"gaussian_fwhm must be finite and >= 0, got {gaussian_fwhm}")
    _require_carrier_coverage(params, grid)
    wing, envelope = _wing_and_envelope(params, grid)
    values = wing * envelope
    if gaussian_fwhm == 0 or (params.laser_fwhm == 0
                              and gaussian_fwhm < _delta_width(grid)):
        values[grid.index_of(params.eom_frequency)] += (
            _spike_power(params) / grid.step)
    else:
        peak = eval_voigt_numeric(grid, LineshapeParams(
            params.eom_frequency, gaussian_fwhm, params.laser_fwhm))
        values += _spike_power(params) * peak.values
    return SpectrumTrace(grid, values)


# Normals per keyed draw block.  Block k of stream s comes from
# SeedSequence(seed, spawn_key=(s, k)), whoever draws it and whatever the
# record length, so the draws do not depend on lanes or on their order.
_DRAW_BLOCK = 1 << 18
_WHITE, _FLICKER, _RIN = range(3)
# Samples per piece of the phase's integration and per beat-and-Welch
# chunk (whole holds or whole segments, at least one): small enough that a
# piece's buffers stay in cache.
_CHUNK_SAMPLES = 1 << 16


def _keyed_block(seed: int, stream: int, out: np.ndarray, k: int) -> np.ndarray:
    """Fill block k of the float array out with standard normals from its
    key and return it."""
    block = out[k * _DRAW_BLOCK:(k + 1) * _DRAW_BLOCK]
    key = np.random.SeedSequence(seed, spawn_key=(stream, k))
    np.random.default_rng(key).standard_normal(out=block)
    return block


def _fft_length(n: int) -> int:
    """Smallest even 2^a 3^b 5^c >= n: a length pocketfft transforms fast,
    never longer than the next power of two."""
    bits = n.bit_length()
    return min(2 * p << (-(-n // (2 * p)) - 1).bit_length()
               for p in (3 ** b * 5 ** c for b in range(bits) for c in range(bits)))


def _flicker_sigma(level: float, m: int, dt: float) -> np.ndarray:
    """Fourier amplitudes sigma_j, 0 <= j <= m/2, of the per-sample phase
    increments of 1/f noise (one-sided PSD level/f) on an even length m.

    Spectral synthesis (Timmer & Koenig 1995, A&A 300, 707): E|X_j|^2 =
    S(f_j) m / (2 dt) with f_j = j / (m dt) and 2 pi dt rad per Hz, so a
    part of bin 0 < j < m/2 has the variance (m pi dt)^2 level / j.  DC
    carries nothing, and the real Nyquist bin the variance of its whole bin.
    """
    var = np.arange(m // 2 + 1, dtype=float)
    np.divide((m * math.pi * dt) ** 2 * level, var, out=var, where=var > 0)
    var[-1] *= 2.0
    return np.sqrt(var, out=var)


def _flicker_increments(level: float, n: int, dt: float, seed: int) -> np.ndarray:
    """Phase increments (rad) of 1/f noise over n samples of step dt.

    The m // 2 + 1 Fourier amplitudes on m = _fft_length(n) are stream
    _FLICKER (real and imaginary parts interleaved) scaled by
    _flicker_sigma; their inverse transform is truncated to n.  It is
    periodic over m, so the series wraps around when n is itself an even
    5-smooth length; the phase structure function at segment lags still
    matches its closed form there.
    """
    m = _fft_length(n)
    spec = np.empty(m // 2 + 1, complex)
    parts = spec.view(float)
    for k in range(-(-parts.size // _DRAW_BLOCK)):
        _keyed_block(seed, _FLICKER, parts, k)
    spec *= _flicker_sigma(level, m, dt)
    return np.fft.irfft(spec, m)[:n]


def _in_two_lanes(tasks) -> None:
    """Run the tasks in two lanes, the calling thread (lane 0) and one more
    thread (lane 1), each calling the next task of one queue with its
    lane's number until the queue is empty.  The calling thread takes the
    first task before the second thread starts, so the first task always
    runs on it: the 1/f synthesis's temporaries, left to either thread's
    heap by turns, kept about 7 MB more memory resident.  The first
    exception stops both lanes and is raised here; the second thread has
    ended when this returns or raises."""
    queue, errors = deque(tasks), []

    def take():
        try:
            return None if errors else queue.popleft()
        except IndexError:
            return None

    def work(lane, task):
        try:
            while task is not None:
                task(lane)
                task = take()
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    first = take()
    second = threading.Thread(target=lambda: work(1, take()))
    second.start()
    try:
        work(0, first)
    finally:
        second.join()
    if errors:
        raise errors[0]


def _noise_tracks(noise: NoiseModel, n: int, dt: float, seed: int, hold: int):
    """Total phase (rad) and intensity (None without RIN) over n samples.

    Two task lists run in two lanes (_in_two_lanes), every draw keyed by
    stream and block (_keyed_block).  The first holds the 1/f synthesis,
    the longest task, then one task per white-FM block; the second holds
    the task that adds the 1/f increments and integrates the phase, beside
    one task per RIN block.  The 1/f increments are drawn on a grid hold
    samples coarser, and each is spread evenly over its hold white-FM
    increments, so the 1/f phase is the coarse one linearly interpolated.
    That lowers the 1/f structure function at a delay of delay_n samples by
    about 0.9 (hold / delay_n)^2 of the closed form: under 1e-3 for
    hold <= delay_n / 32.
    """
    phase = np.empty(n)
    intensity = np.empty(n) if noise.rin_sigma > 0 else None
    # Wiener phase: increment variance pi * fwhm * dt gives the per-arm
    # autocorrelation exp(-pi (fwhm/2) |tau|).
    step = math.sqrt(math.pi * noise.white_fm_fwhm * dt)
    blocks = range(-(-n // _DRAW_BLOCK))
    flicker = []

    def synthesize_flicker(_lane):
        flicker.append(_flicker_increments(
            noise.flicker_level, -(-n // hold), hold * dt, seed) / hold)

    def white(k, _lane):
        block = _keyed_block(seed, _WHITE, phase, k)
        block *= step

    def integrate(_lane):
        # A piece of whole holds at a time, each piece's first increment
        # taking the last sum before it: the additions of one cumsum, in
        # its order.  The increments go through scratch space because
        # numpy's in-place cumsum holds the interpreter lock, which would
        # stall the other lane's RIN tasks.
        piece = hold * max(1, _CHUNK_SAMPLES // hold)
        scratch = np.empty(min(piece, n))
        for lo in range(0, n, piece):
            part = phase[lo:lo + piece]
            inc = scratch[:part.size]
            if flicker:
                coarse, k = flicker[0][lo // hold:], part.size // hold
                np.add(part[:k * hold].reshape(k, hold), coarse[:k, None],
                       out=inc[:k * hold].reshape(k, hold))
                np.add(part[k * hold:], coarse[k:k + 1], out=inc[k * hold:])
            else:
                inc[:] = part
            if lo:
                inc[0] += phase[lo - 1]
            np.cumsum(inc, out=part)

    def rin(k, _lane):
        block = _keyed_block(seed, _RIN, intensity, k)
        block *= noise.rin_sigma
        block += 1.0
        np.maximum(block, 0.0, out=block)

    first = [synthesize_flicker] if noise.flicker_level > 0 else []
    _in_two_lanes(first + [partial(white, k) for k in blocks])
    rins = [partial(rin, k) for k in blocks] if intensity is not None else []
    _in_two_lanes([integrate] + rins)
    return phase, intensity


def _hann(nperseg: int) -> np.ndarray:
    """Periodic Hann window."""
    return 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(nperseg) / nperseg)


def _periodogram_rows(segments: np.ndarray, window: np.ndarray,
                      spectra: np.ndarray, out: np.ndarray) -> None:
    """|rfft|^2 of each row of segments, after its mean is removed and the
    window applied (both in place), into out; spectra is scratch space of
    out's shape."""
    segments -= segments.mean(axis=1, keepdims=True)
    segments *= window
    np.fft.rfft(segments, axis=1, out=spectra)
    np.square(spectra.real, out=out)
    np.square(spectra.imag, out=spectra.imag)
    out += spectra.imag


def _one_sided_density(power: np.ndarray, fs: float,
                       window: np.ndarray) -> np.ndarray:
    """One-sided Welch PSD from the (segments, bins) periodogram rows.

    The scaling and the one-sided doubling (not of DC, nor of the Nyquist bin
    of an even segment length) are those of scipy.signal.welch with
    scaling="density".
    """
    psd = power.mean(axis=0)
    psd /= fs * np.sum(window ** 2)
    psd[1:(window.size + 1) // 2] *= 2.0
    return psd


def _beat_periodograms(params: DshiParams, phase: np.ndarray, intensity,
                       delay_n: int, nperseg: int, segments: int, dt: float,
                       window: np.ndarray) -> np.ndarray:
    """(segments, bins) periodogram rows of the detected beat.

    Arms sqrt(I) e^{i phi}: |direct|^2 + |delayed|^2 + 2 Re(conj(direct)
    delayed e^{iwt}) = I_dir + I_del + 2 sqrt(I_dir I_del) cos(phi_del -
    phi_dir + wt).  The beat is formed and transformed one task per chunk
    of whole segments (_in_two_lanes), each lane in its own scratch
    buffers; a chunk writes its own rows, so the rows do not depend on
    which lane made them or in what order.
    """
    rows = max(1, _CHUNK_SAMPLES // nperseg)
    power = np.empty((segments, nperseg // 2 + 1))
    omega_dt = 2.0 * math.pi * params.eom_frequency * dt
    half = 0.5 * params.optical_power
    ramp = np.arange(rows * nperseg, dtype=float)
    scratch = [(np.empty(ramp.size), np.empty(ramp.size),
                np.empty(power[:rows].shape, complex)) for _ in range(2)]

    def chunk(a, lane):
        buf, tmp, spectra = scratch[lane]
        b = min(a + rows, segments)
        lo, hi = a * nperseg, b * nperseg
        beat, t = buf[:hi - lo], tmp[:hi - lo]
        np.add(ramp[:hi - lo], lo, out=beat)
        beat *= omega_dt
        np.subtract(phase[lo:hi], phase[lo + delay_n:hi + delay_n], out=t)
        beat += t
        np.cos(beat, out=beat)
        if intensity is None:
            beat += 1.0
            beat *= 2.0 * half
        else:
            direct = intensity[lo + delay_n:hi + delay_n]
            delayed = intensity[lo:hi]
            np.multiply(direct, delayed, out=t)
            np.sqrt(t, out=t)
            t *= 2.0 * half
            beat *= t
            np.add(direct, delayed, out=t)
            t *= half
            beat += t
        _periodogram_rows(beat.reshape(b - a, nperseg), window,
                          spectra[:b - a], power[a:b])

    _in_two_lanes(partial(chunk, a) for a in range(0, segments, rows))
    return power


def simulate_time_domain(params: DshiParams, noise: NoiseModel,
                         cfg: SimConfig) -> SpectrumTrace:
    """Monte-Carlo beat-note PSD from explicit time-domain phase noise.

    Synthesizes one field's Wiener phase (per-arm autocorrelation
    exp(-pi (fwhm/2) |tau|), so the two arms beat to a Lorentzian of FWHM
    white_fm_fwhm), plus optional 1/f frequency and intensity noise.  One
    copy is delayed by the fiber transit time and shifted by the EOM
    frequency; the detected power, a real cosine of the arms' phase
    difference, is Welch-averaged over non-overlapping Hann segments and
    halved to the two-sided density convention of analytic_psd.

    The work runs as three lists of tasks, one after the other, each
    shared by two lanes, the calling thread and one more thread that ends
    with the list: the 1/f synthesis and the white-FM blocks; the phase's
    integration beside the RIN blocks; the beat and its periodograms, a
    chunk of segments per task.  Every normal is keyed by what it is:
    block k of stream s (0 white FM, 1 the 1/f spectrum, 2 RIN) is drawn
    from SeedSequence(cfg.seed, spawn_key=(s, k)).  White FM is drawn in
    the time domain; 1/f noise is synthesized on a grid held over
    max(1, delay_n // 32) samples and its phase linearly interpolated,
    which lowers its structure function at the delay by under 1e-3
    (_noise_tracks).  No value depends on which lane made it or in what
    order the tasks of a list ran, so a seeded run is bit-identical to a
    single-threaded one that draws each block from its key in order.
    """
    fs = cfg.sample_rate
    if fs < 8.0 * params.eom_frequency:
        raise ResolutionError(
            f"sample rate {fs:g} Hz undersamples the beat; need >= 8 * f_eom"
        )
    t_d = params.delay
    if cfg.duration < 50.0 * t_d:
        raise ResolutionError(
            f"duration {cfg.duration:g} s too short; need >= 50 * delay ({50 * t_d:g} s)"
        )
    delay_n = int(round(t_d * fs))
    if delay_n < 1:
        raise ResolutionError("delay shorter than one sample at this rate")

    nperseg = int(fs * cfg.duration) // cfg.segments
    n_total = nperseg * cfg.segments
    dt = 1.0 / fs

    hold = max(1, delay_n // 32)
    phase, intensity = _noise_tracks(noise, n_total + delay_n, dt, cfg.seed,
                                     hold)
    window = _hann(nperseg)
    power = _beat_periodograms(params, phase, intensity, delay_n, nperseg,
                               cfg.segments, dt, window)
    psd = _one_sided_density(power, fs, window)
    grid = FrequencyGrid(0.0, 1.0 / (nperseg * dt), psd.size)
    # Halve the one-sided Welch estimate: the analytic model is two-sided.
    return SpectrumTrace(grid, psd / 2.0, rbw=fs / nperseg)


def _bump_multiplier(bumps: ServoBumpModel, carrier: float,
                     freqs: np.ndarray) -> np.ndarray:
    gain = 10.0 ** (bumps.height_db / 10.0) - 1.0
    shape = (_unit_gaussian(freqs - (carrier + bumps.offset), bumps.width)
             + _unit_gaussian(freqs - (carrier - bumps.offset), bumps.width))
    return 1.0 + gain * shape


def _carrier_or_peak(trace: SpectrumTrace, carrier_hz) -> float:
    if carrier_hz is not None:
        carrier = float(carrier_hz)
        if not math.isfinite(carrier):
            raise InvalidParameterError(f"carrier must be finite, got {carrier_hz}")
        return carrier
    i = int(np.argmax(trace.values))
    return trace.grid.start + i * trace.grid.step


def inject_servo_bumps(trace: SpectrumTrace, bumps: ServoBumpModel,
                       carrier_hz: float | None = None) -> SpectrumTrace:
    """Multiply the trace by Gaussian bumps at +-offset from the carrier.

    carrier_hz defaults to the trace's peak frequency.  Exact inverse of
    extract_servo_bumps against the unbumped trace.
    """
    carrier = _carrier_or_peak(trace, carrier_hz)
    grid = trace.grid
    if not (grid.covers(carrier + bumps.offset)
            and grid.covers(carrier - bumps.offset)):
        raise DomainError("bump offset falls outside the trace grid")
    values = trace.values * _bump_multiplier(bumps, carrier, grid.points())
    return SpectrumTrace(grid, values, trace.rbw)


def extract_servo_bumps(measured: SpectrumTrace,
                        model: SpectrumTrace) -> SpectrumTrace:
    """Pointwise power ratio measured/model on a shared grid."""
    if measured.grid != model.grid:
        raise GridMismatchError("measured and model traces use different grids")
    denom = model.values
    if np.any(denom <= 0):
        raise DomainError("model trace has non-positive bins; ratio undefined")
    return SpectrumTrace(measured.grid, measured.values / denom, measured.rbw)


def apply_rbw(trace: SpectrumTrace, rbw: float) -> SpectrumTrace:
    """Smooth the trace with a Gaussian of FWHM `rbw` (resolution bandwidth).

    The kernel spans +-ceil(4 rbw / step) bins; one as wide as the trace is
    refused.
    """
    if not 0 < rbw < math.inf:
        raise InvalidParameterError(f"rbw must be finite and > 0, got {rbw}")
    step = trace.grid.step
    half_span = 4.0 * rbw / step
    # ceil(half_span) >= count exactly when half_span > count - 1.
    if not half_span <= trace.grid.count - 1:
        raise InvalidParameterError(
            f"rbw {rbw:g} Hz needs a kernel of +-{half_span:.4g} bins, wider "
            f"than the {trace.grid.count}-point trace")
    m = max(1, int(math.ceil(half_span)))
    offsets = step * np.arange(-m, m + 1)
    kernel = _unit_gaussian(offsets, rbw)
    kernel /= kernel.sum()
    values = trace.values
    nfft = 1 << (values.size + kernel.size - 2).bit_length()
    full = np.fft.irfft(np.fft.rfft(values, nfft) * np.fft.rfft(kernel, nfft), nfft)
    values = np.maximum(full[m:m + values.size], 0.0)
    return SpectrumTrace(trace.grid, values, rbw)
