"""Delayed self-heterodyne beat-note spectra.

Provides the analytic PSD of the beat note between a laser and its delayed,
frequency-shifted copy (Lorentzian wing times coherence envelope plus a
coherent residue at the carrier), a time-domain Monte-Carlo oracle for the
same quantity, the spacing of the coherence-envelope extrema, and
injection/extraction of servo bumps.

Linewidth convention: DshiParams.laser_fwhm is the *combined two-arm*
Lorentzian FWHM of the beat note, i.e. twice the per-arm width.  All internal
formulas therefore run on the per-arm half width gamma = laser_fwhm / 2, so a
trace generated with laser_fwhm = X hands an estimator a Lorentzian of FWHM X.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DomainError,
    GridMismatchError,
    InvalidParameterError,
    ResolutionError,
)
from .lineshape import (FrequencyGrid, LineshapeParams, SpectrumTrace,
                        _delta_width, _whole_number, eval_voigt_numeric)

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


def _wing_and_envelope(params: DshiParams, x: np.ndarray):
    """Continuous beat PSD as (Lorentzian wing) * (coherence envelope).

    x is the offset from the carrier.  The envelope's removable singularity
    at x = 0 is evaluated through sinc.
    """
    gamma = params.laser_fwhm / 2.0
    p2 = params.optical_power**2
    t_d = params.delay
    coh = _coherence_factor(params)
    if gamma > 0:
        wing = (p2 / (4.0 * math.pi)) * gamma / (gamma * gamma + x * x)
    else:
        wing = np.zeros_like(x)
    theta = 2.0 * math.pi * t_d * x
    envelope = 1.0 - coh * (
        np.cos(theta) + gamma * 2.0 * math.pi * t_d * np.sinc(2.0 * t_d * x)
    )
    return wing, np.maximum(envelope, 0.0)


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
    residue stays in the carrier bin.
    """
    if not 0 <= gaussian_fwhm < math.inf:
        raise InvalidParameterError(
            f"gaussian_fwhm must be finite and >= 0, got {gaussian_fwhm}")
    _require_carrier_coverage(params, grid)
    x = grid.points() - params.eom_frequency
    wing, envelope = _wing_and_envelope(params, x)
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
_WHITE, _SPECTRUM, _RIN = range(3)


def _keyed_blocks(seed: int, stream: int, out: np.ndarray, first: int = 0,
                  step: int = 1):
    """Fill blocks first, first + step, ... of the float array out with
    standard normals, each from its key, and yield (offset, block) as each
    is drawn."""
    for k in range(first, -(-out.size // _DRAW_BLOCK), step):
        offset = k * _DRAW_BLOCK
        block = out[offset:offset + _DRAW_BLOCK]
        key = np.random.SeedSequence(seed, spawn_key=(stream, k))
        np.random.default_rng(key).standard_normal(out=block)
        yield offset, block


def _fft_length(n: int) -> int:
    """Smallest even 2^a 3^b 5^c >= n: a length pocketfft transforms fast,
    never longer than the next power of two."""
    bits = n.bit_length()
    return min(2 * p << (-(-n // (2 * p)) - 1).bit_length()
               for p in (3 ** b * 5 ** c for b in range(bits) for c in range(bits)))


def _phase_sigma(white_fm_fwhm: float, level: float, m: int, dt: float,
                 lo: int, hi: int) -> np.ndarray:
    """Fourier amplitudes sigma_j, j in [lo, hi), of the per-sample phase
    increments of white FM W = white_fm_fwhm plus 1/f noise on m samples.

    Spectral synthesis (Timmer & Koenig 1995, A&A 300, 707): a part of bin
    0 < j < m/2 has the variance m pi W dt / 2 + (m pi dt)^2 level / j,
    from E|X_j|^2 = S(f_j) m / (2 dt) with f_j = j / (m dt) and 2 pi dt
    per Hz.  The real DC and Nyquist bins carry the whole white variance,
    so a flat spectrum inverts to i.i.d. N(0, pi W dt) increments.
    """
    var = np.arange(lo, hi, dtype=float)
    np.divide((m * math.pi * dt) ** 2 * level, var, out=var, where=var > 0)
    white = 0.5 * m * math.pi * white_fm_fwhm * dt
    var += white
    var[[j - lo for j in (0, m // 2) if lo <= j < hi]] += white
    np.sqrt(var, out=var)
    return var


def _phase_spectrum(white_fm_fwhm: float, level: float, m: int, dt: float,
                    seed: int) -> np.ndarray:
    """The m // 2 + 1 Fourier amplitudes of the phase increments on m
    samples.  The complex array's float view (re, im interleaved) is stream
    _SPECTRUM; two lanes draw alternate blocks and scale each by
    _phase_sigma as they go."""
    spec = np.empty(m // 2 + 1, complex)
    parts = spec.view(float)

    def lane(first):
        for offset, block in _keyed_blocks(seed, _SPECTRUM, parts, first, 2):
            lo = offset // 2
            pairs = block.reshape(-1, 2)
            pairs *= _phase_sigma(white_fm_fwhm, level, m, dt, lo,
                                  lo + pairs.shape[0])[:, None]

    _in_two_lanes(lane)
    return spec


def _spectral_phase(spec: np.ndarray, m: int, n: int) -> np.ndarray:
    """Phase (rad) over n samples from the increment spectrum spec.  The
    inverse transform runs on the length m >= n and is truncated to n.  The
    increments are periodic over m, so the series does wrap around when n
    is itself an even 5-smooth length (m = n); the phase structure function
    at segment lags still matches its closed form there."""
    phase = np.fft.irfft(spec, m)[:n]
    np.cumsum(phase, out=phase)
    return phase


def _in_two_lanes(fn) -> None:
    """Run fn(1) on a second thread and fn(0) on the calling thread at once;
    both have finished when this returns or raises, and an exception of
    fn(1) is raised here unless fn(0) raised first."""
    errors = []

    def run_second():
        try:
            fn(1)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    lane = threading.Thread(target=run_second)
    lane.start()
    try:
        fn(0)
    finally:
        lane.join()
    if errors:
        raise errors[0]


def _noise_tracks(noise: NoiseModel, n: int, dt: float, seed: int):
    """Total phase (rad) and intensity (None without RIN) over n samples.

    Every draw is keyed by stream and block (_keyed_blocks).  With flicker,
    both lanes draw one spectrum of the phase increments, white FM and 1/f
    on the length _fft_length(n); the second lane then inverts and
    integrates it while the calling thread draws RIN.  Without flicker
    both lanes draw alternate white-FM and RIN blocks.
    """
    phase = None if noise.flicker_level > 0 else np.empty(n)
    intensity = np.empty(n) if noise.rin_sigma > 0 else None
    # Wiener phase: increment variance pi * fwhm * dt gives the per-arm
    # autocorrelation exp(-pi (fwhm/2) |tau|).
    step = math.sqrt(math.pi * noise.white_fm_fwhm * dt)

    def draw(first, lanes=2):
        if phase is not None:
            for _, block in _keyed_blocks(seed, _WHITE, phase, first, lanes):
                block *= step
        if intensity is not None:
            for _, block in _keyed_blocks(seed, _RIN, intensity, first, lanes):
                block *= noise.rin_sigma
                block += 1.0
                np.maximum(block, 0.0, out=block)

    if phase is not None:
        _in_two_lanes(draw)
        return np.cumsum(phase, out=phase), intensity
    m = _fft_length(n)
    spec = _phase_spectrum(noise.white_fm_fwhm, noise.flicker_level, m, dt, seed)
    flicker = []

    def lane(second):
        if second:
            flicker.append(_spectral_phase(spec, m, n))
        else:
            draw(0, 1)

    _in_two_lanes(lane)
    return flicker[0], intensity


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


# Samples per beat-and-Welch chunk (whole segments, at least one): small
# enough that a chunk's buffers stay in cache.
_CHUNK_SAMPLES = 1 << 16


def _beat_periodograms(params: DshiParams, phase: np.ndarray, intensity,
                       delay_n: int, nperseg: int, segments: int, dt: float,
                       window: np.ndarray) -> np.ndarray:
    """(segments, bins) periodogram rows of the detected beat.

    Arms sqrt(I) e^{i phi}: |direct|^2 + |delayed|^2 + 2 Re(conj(direct)
    delayed e^{iwt}) = I_dir + I_del + 2 sqrt(I_dir I_del) cos(phi_del -
    phi_dir + wt).  The beat is formed and transformed a chunk of whole
    segments at a time; the two lanes take alternate chunks and write
    disjoint rows, so the rows do not depend on which lane made them.
    """
    rows = max(1, _CHUNK_SAMPLES // nperseg)
    n_chunks = -(-segments // rows)
    power = np.empty((segments, nperseg // 2 + 1))
    omega_dt = 2.0 * math.pi * params.eom_frequency * dt
    half = 0.5 * params.optical_power

    def lane(first):
        ramp = np.arange(rows * nperseg, dtype=float)
        buf, tmp = np.empty(ramp.size), np.empty(ramp.size)
        spectra = np.empty(power[:rows].shape, complex)
        for c in range(first, n_chunks, 2):
            a, b = c * rows, min(c * rows + rows, segments)
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

    _in_two_lanes(lane)
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

    The work runs in two lanes, the calling thread and one more thread
    that ends before this returns.  Every normal is keyed by what it is:
    block k of stream s (0 white FM, 1 phase-increment spectrum, 2 RIN) is
    drawn from SeedSequence(cfg.seed, spawn_key=(s, k)); with flicker, the
    white FM is drawn with the 1/f noise in that spectrum (_noise_tracks).
    The beat and its periodograms are split between the lanes a chunk of
    segments at a time.  No value depends on which lane made it, so a
    seeded run is bit-identical to a single-threaded one that draws each
    block from its key in order.
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

    phase, intensity = _noise_tracks(noise, n_total + delay_n, dt, cfg.seed)
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
    shape = np.exp(
        -4.0 * math.log(2.0)
        * ((freqs - (carrier + bumps.offset)) / bumps.width) ** 2
    ) + np.exp(
        -4.0 * math.log(2.0)
        * ((freqs - (carrier - bumps.offset)) / bumps.width) ** 2
    )
    return 1.0 + gain * shape


def _carrier_or_peak(trace: SpectrumTrace, carrier_hz) -> float:
    if carrier_hz is not None:
        return float(carrier_hz)
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
    kernel = np.exp(-4.0 * math.log(2.0) * (offsets / rbw) ** 2)
    kernel /= kernel.sum()
    values = trace.values
    nfft = 1 << (values.size + kernel.size - 2).bit_length()
    full = np.fft.irfft(np.fft.rfft(values, nfft) * np.fft.rfft(kernel, nfft), nfft)
    values = np.maximum(full[m:m + values.size], 0.0)
    return SpectrumTrace(trace.grid, values, rbw)
