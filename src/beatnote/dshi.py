"""Delayed self-heterodyne beat-note spectra.

Provides the analytic PSD of the beat note between a laser and its delayed,
frequency-shifted copy (Lorentzian wing times coherence envelope plus a
coherent residue at the carrier), a time-domain Monte-Carlo oracle for the
same quantity, the positions of the coherence-envelope extrema, and
injection/extraction of servo bumps.

Linewidth convention: DshiParams.laser_fwhm is the *combined two-arm*
Lorentzian FWHM of the beat note, i.e. twice the per-arm width.  All internal
formulas therefore run on the per-arm half width gamma = laser_fwhm / 2, so a
trace generated with laser_fwhm = X hands an estimator a Lorentzian of FWHM X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, NamedTuple

import numpy as np

from .errors import (
    DomainError,
    GridMismatchError,
    InvalidParameterError,
    ResolutionError,
)
from .lineshape import (UNIT_DBM, UNIT_LINEAR, FrequencyGrid, LineshapeParams,
                        SpectrumTrace, _whole_number, eval_voigt_numeric)

__all__ = [
    "SPEED_OF_LIGHT",
    "UNIT_LINEAR",
    "UNIT_DBM",
    "DshiParams",
    "SpectrumTrace",
    "NoiseModel",
    "ServoBumpModel",
    "SimConfig",
    "Extremum",
    "analytic_psd",
    "voigt_beat_note",
    "predict_extrema",
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
    """Gaussian intensity bump(s) at +-offset from the carrier."""

    offset: float
    width: float
    height_db: float
    symmetric: bool = True

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


class Extremum(NamedTuple):
    frequency: float
    kind: str  # "peak" | "trough"
    order: int


def extrema_spacing(params: DshiParams) -> float:
    """Spacing of the coherence-envelope extrema: c / (2 n L)."""
    return SPEED_OF_LIGHT / (2.0 * params.fiber_index * params.fiber_length)


def predict_extrema(params: DshiParams, max_order: int) -> List[Extremum]:
    """Envelope extrema above the carrier, order j at f_eom + j*c/(2nL).

    Odd orders sit where the delayed and direct arms interfere
    constructively (peaks), even orders where they cancel (troughs).
    """
    if max_order < 1:
        raise InvalidParameterError("max_order must be >= 1")
    if not params.laser_fwhm > 0:
        raise InvalidParameterError("extrema are undefined for zero linewidth")
    spacing = extrema_spacing(params)
    return [
        Extremum(params.eom_frequency + j * spacing,
                 "peak" if j % 2 else "trough", j)
        for j in range(1, max_order + 1)
    ]


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
    """Analytic beat-note PSD on the given grid, in linear units.

    The continuous part is the Lorentzian wing of the combined-linewidth beat
    modulated by the coherence envelope of the delay line; the coherent
    residue is deposited as integrated power into the single bin containing
    the carrier.
    """
    _require_carrier_coverage(params, grid)
    x = grid.points() - params.eom_frequency
    wing, envelope = _wing_and_envelope(params, x)
    values = wing * envelope
    values[grid.index_of(params.eom_frequency)] += _spike_power(params) / grid.step
    return SpectrumTrace(grid, values, UNIT_LINEAR)


def voigt_beat_note(params: DshiParams, gaussian_fwhm: float,
                    grid: FrequencyGrid) -> SpectrumTrace:
    """Beat-note model with the coherent residue broadened into a Voigt peak.

    Flicker noise accumulated over the delay smears the carrier residue into
    a finite line; this model gives that line the measured-beat-note shape: a
    Voigt profile whose Lorentzian part is the combined white-noise linewidth
    and whose Gaussian part is the supplied flicker broadening.  The peak
    carries the residue's integrated power and rides on the same
    wing-times-envelope pedestal as analytic_psd.
    """
    if gaussian_fwhm < 0:
        raise InvalidParameterError("gaussian_fwhm must be >= 0")
    if gaussian_fwhm == 0 or params.laser_fwhm == 0:
        return analytic_psd(params, grid)
    _require_carrier_coverage(params, grid)
    x = grid.points() - params.eom_frequency
    wing, envelope = _wing_and_envelope(params, x)
    peak = eval_voigt_numeric(
        grid,
        LineshapeParams(params.eom_frequency, gaussian_fwhm, params.laser_fwhm),
    )
    values = wing * envelope + _spike_power(params) * peak.values
    return SpectrumTrace(grid, values, UNIT_LINEAR)


def _flicker_frequency_noise(level: float, n: int, dt: float,
                             rng: np.random.Generator) -> np.ndarray:
    """Frequency deviation (Hz) with a one-sided PSD of level/f.

    Spectral synthesis (Timmer & Koenig 1995, A&A 300, 707): Gaussian
    Fourier amplitudes of variance level/f on a power-of-two length m >= n,
    inverted and truncated to n samples so the series does not wrap around.
    E|X_k|^2 = S(f_k) m / (2 dt) makes the one-sided periodogram S(f_k).
    """
    m = 1 << (n - 1).bit_length()
    f = np.fft.rfftfreq(m, dt)
    sigma = np.zeros(f.size)
    sigma[1:] = np.sqrt(level * m / (4.0 * dt * f[1:]))
    re, im = rng.standard_normal(f.size), rng.standard_normal(f.size)
    return np.fft.irfft(sigma * (re + 1j * im), m)[:n]


def _welch_density(x: np.ndarray, fs: float, nperseg: int) -> np.ndarray:
    """One-sided Welch PSD of x over non-overlapping segments of nperseg.

    Each segment loses its mean and takes a periodic Hann window; the
    scaling and the one-sided doubling (not of DC, nor of the Nyquist bin of
    an even nperseg) are those of scipy.signal.welch with scaling="density".
    len(x) must be a multiple of nperseg.
    """
    segments = x.reshape(-1, nperseg)
    segments = segments - segments.mean(axis=1, keepdims=True)
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(nperseg) / nperseg)
    segments *= window
    spectra = np.fft.rfft(segments, axis=1)
    psd = (spectra.real ** 2 + spectra.imag ** 2).mean(axis=0)
    psd /= fs * np.sum(window ** 2)
    psd[1:(nperseg + 1) // 2] *= 2.0
    return psd


def simulate_time_domain(params: DshiParams, noise: NoiseModel,
                         cfg: SimConfig) -> SpectrumTrace:
    """Monte-Carlo beat-note PSD from an explicit time-domain field.

    Synthesizes one complex field with Wiener phase noise (per-arm
    autocorrelation exp(-pi (fwhm/2) |tau|), so the two arms beat to a
    Lorentzian of FWHM white_fm_fwhm), plus optional 1/f frequency noise and
    intensity noise.  One copy is delayed by the fiber transit time and
    shifted by the EOM frequency; the photodetected power is Welch-averaged
    over non-overlapping Hann segments.  The returned values are halved to
    the two-sided density convention of analytic_psd.
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
    n_field = n_total + delay_n
    dt = 1.0 / fs

    rng = np.random.default_rng(cfg.seed)
    # Wiener phase: increment variance pi * fwhm * dt gives the per-arm
    # autocorrelation exp(-pi (fwhm/2) |tau|).
    phase = np.cumsum(
        rng.normal(0.0, math.sqrt(math.pi * noise.white_fm_fwhm * dt), n_field)
    )
    if noise.flicker_level > 0:
        nu = _flicker_frequency_noise(noise.flicker_level, n_field, dt, rng)
        phase += 2.0 * math.pi * np.cumsum(nu) * dt
    field = np.exp(1j * phase)
    if noise.rin_sigma > 0:
        intensity = 1.0 + rng.normal(0.0, noise.rin_sigma, n_field)
        field *= np.sqrt(np.maximum(intensity, 0.0))

    direct = field[delay_n:]
    delayed = field[:n_total]
    t = np.arange(n_total) * dt
    half = 0.5 * params.optical_power
    beat = half * (np.abs(direct) ** 2 + np.abs(delayed) ** 2)
    beat += 2.0 * half * np.real(
        np.conj(direct) * delayed
        * np.exp(1j * (2.0 * math.pi * params.eom_frequency) * t)
    )

    psd = _welch_density(beat, fs, nperseg)
    grid = FrequencyGrid(0.0, 1.0 / (nperseg * dt), psd.size)
    # Halve the one-sided Welch estimate: the analytic model is two-sided.
    return SpectrumTrace(grid, psd / 2.0, UNIT_LINEAR, rbw=fs / nperseg)


def _bump_multiplier(bumps: ServoBumpModel, carrier: float,
                     freqs: np.ndarray) -> np.ndarray:
    gain = 10.0 ** (bumps.height_db / 10.0) - 1.0
    shape = np.exp(
        -4.0 * math.log(2.0)
        * ((freqs - (carrier + bumps.offset)) / bumps.width) ** 2
    )
    if bumps.symmetric:
        shape = shape + np.exp(
            -4.0 * math.log(2.0)
            * ((freqs - (carrier - bumps.offset)) / bumps.width) ** 2
        )
    return 1.0 + gain * shape


def _carrier_or_peak(trace: SpectrumTrace, carrier_hz) -> float:
    if carrier_hz is not None:
        return float(carrier_hz)
    i = int(np.argmax(trace.linear_values()))
    return trace.grid.start + i * trace.grid.step


def inject_servo_bumps(trace: SpectrumTrace, bumps: ServoBumpModel,
                       carrier_hz: float | None = None) -> SpectrumTrace:
    """Multiply the linear trace by Gaussian bump(s) at +-offset from the carrier.

    carrier_hz defaults to the trace's peak frequency.  Exact inverse of
    extract_servo_bumps against the unbumped trace.
    """
    carrier = _carrier_or_peak(trace, carrier_hz)
    grid = trace.grid
    if not grid.covers(carrier + bumps.offset) or (
        bumps.symmetric and not grid.covers(carrier - bumps.offset)
    ):
        raise DomainError("bump offset falls outside the trace grid")
    values = trace.linear_values() * _bump_multiplier(bumps, carrier, grid.points())
    out = SpectrumTrace(grid, values, UNIT_LINEAR, trace.rbw)
    return out.to_dbm() if trace.unit == UNIT_DBM else out


def extract_servo_bumps(measured: SpectrumTrace,
                        model: SpectrumTrace) -> SpectrumTrace:
    """Pointwise linear-power ratio measured/model on a shared grid."""
    if measured.grid != model.grid:
        raise GridMismatchError("measured and model traces use different grids")
    denom = model.linear_values()
    if np.any(denom <= 0):
        raise DomainError("model trace has non-positive bins; ratio undefined")
    return SpectrumTrace(measured.grid, measured.linear_values() / denom,
                         UNIT_LINEAR, measured.rbw)


def apply_rbw(trace: SpectrumTrace, rbw: float) -> SpectrumTrace:
    """Smooth the trace with a Gaussian of FWHM `rbw` (resolution bandwidth)."""
    if not rbw > 0:
        raise InvalidParameterError("rbw must be > 0")
    step = trace.grid.step
    m = max(1, int(math.ceil(4.0 * rbw / step)))
    offsets = step * np.arange(-m, m + 1)
    kernel = np.exp(-4.0 * math.log(2.0) * (offsets / rbw) ** 2)
    kernel /= kernel.sum()
    values = trace.linear_values()
    nfft = 1 << (values.size + kernel.size - 2).bit_length()
    full = np.fft.irfft(np.fft.rfft(values, nfft) * np.fft.rfft(kernel, nfft), nfft)
    values = np.maximum(full[m:m + values.size], 0.0)
    out = SpectrumTrace(trace.grid, values, UNIT_LINEAR, rbw)
    return out.to_dbm() if trace.unit == UNIT_DBM else out
