"""Audio I/O, resampling, convolution, STFT analysis/synthesis and alignment.

Everything here is safe to call concurrently, and all but :class:`Spectra`
(one operand's FFTs, behind its own lock) is a pure function of its inputs.
The one global state is a small cache of read-only resampling filters, one
per rate ratio: constants, not settings. Waveforms travel as float64 arrays
in [-1, 1] inside :class:`AudioClip`; spectrograms are plain [frames x bins]
arrays at one framing, FRAME_LEN-sample Hann frames every HOP samples at
SAMPLE_RATE: complex from `stft`, magnitudes from `normalized_magnitude`.

Everything here is numpy. `resample` gives the bytes `scipy.signal.upfirdn`
gave, which the tests keep as its oracle, without importing `scipy.signal`
(about a second and 49 MB).
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from pathlib import Path

import numpy as np

from .errors import (
    AllZeroRir,
    CorruptHeader,
    EmptyAudio,
    IoFailure,
    UnsupportedFormat,
)

FRAME_LEN = 512  # 32 ms at 16 kHz
HOP = 256        # 16 ms at 16 kHz
SAMPLE_RATE = 16000
LOG_FLOOR = 1e-5

_RESAMPLE_TAPS = 32      # filter taps per polyphase branch
_KAISER_BETA = 8.6


@dataclass(frozen=True)
class AudioClip:
    """Mono waveform with its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"clip must be mono 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("clip contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


# ---------------------------------------------------------------------------
# WAV files (RIFF, PCM16 or IEEE float32)
# ---------------------------------------------------------------------------

def read_wav(path) -> AudioClip:
    """Read a PCM16 or float32 RIFF/WAVE file; channels are averaged to mono."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise CorruptHeader(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + size]
        if cid == b"fmt " and len(body) >= 16:
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise CorruptHeader(f"{path}: missing fmt/data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format == 0xFFFE and len(data) > 0:
        raise UnsupportedFormat(f"{path}: extensible WAV not supported")
    if (audio_format, bits) not in ((1, 16), (3, 32)):
        raise UnsupportedFormat(f"{path}: format code {audio_format}, {bits}-bit")
    if len(data) % (bits // 8):
        raise CorruptHeader(f"{path}: data chunk of {len(data)} bytes "
                            f"is not a whole number of {bits}-bit samples")
    if audio_format == 1:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    else:
        with np.errstate(invalid="ignore"):   # a signalling NaN; rejected below
            samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    if channels < 1 or sample_rate <= 0:
        raise CorruptHeader(f"{path}: bad fmt chunk")
    if not np.all(np.isfinite(samples)):
        raise CorruptHeader(f"{path}: data chunk holds non-finite samples")
    if channels > 1:
        samples = samples[: (samples.size // channels) * channels]
        samples = samples.reshape(-1, channels).mean(axis=1)
    if samples.size == 0:
        raise EmptyAudio(f"{path}: no samples")
    return AudioClip(samples, sample_rate)


def write_wav(path, clip: AudioClip, format: str = "pcm16") -> None:
    """Write `clip` as RIFF/WAVE. `format` is "pcm16" or "float32";
    pcm16 clamps to [-1, 1] and rounds to the nearest code."""
    if format == "pcm16":
        scaled = np.rint(np.clip(clip.samples, -1.0, 1.0) * 32768.0)
        payload = np.clip(scaled, -32768, 32767).astype("<i2").tobytes()
        audio_format, bits = 1, 16
    elif format == "float32":
        payload = clip.samples.astype("<f4").tobytes()
        audio_format, bits = 3, 32
    else:
        raise ValueError(f"unknown format {format!r}")

    block = bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, audio_format, 1, clip.sample_rate,
        clip.sample_rate * block, block, bits,
        b"data", len(payload),
    )
    try:
        Path(path).write_bytes(header + payload)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Band-limited rate conversion (windowed-sinc polyphase, Kaiser window).

    Output length is round(len * target/source), output sample k centred on
    input time k * source/target. A clip already at the target rate is
    returned unchanged. Memory grows with the clip and the target rate, not
    with the source rate, so any rate a WAV header may claim is safe.
    """
    if target_rate <= 0:
        raise ValueError(f"target rate must be positive, got {target_rate}")
    if clip.sample_rate == target_rate:
        return clip
    g = gcd(clip.sample_rate, target_rate)
    up, down = target_rate // g, clip.sample_rate // g
    n_out = int(round(len(clip) * target_rate / clip.sample_rate))
    if n_out == 0:
        return AudioClip(np.zeros(0), target_rate)
    return AudioClip(_polyphase(clip.samples, _resample_filter(up, down), up, down, n_out),
                     target_rate)


@lru_cache(maxsize=8)
def _resample_filter(up: int, down: int) -> np.ndarray:
    """The read-only Kaiser-windowed sinc filter of an `up`/`down` resampler
    (_RESAMPLE_TAPS * up + 1 taps), designed once per ratio: a run sees few
    rates, and at a source rate coprime with 16 kHz the design takes about
    0.1 s and a 45 MB peak."""
    n = _RESAMPLE_TAPS * up + 1  # odd length -> integer group delay
    center = (n - 1) // 2
    cutoff = 0.5 / max(up, down)
    t = np.arange(n) - center
    h = 2.0 * cutoff * np.sinc(2.0 * cutoff * t) * np.kaiser(n, _KAISER_BETA)
    h *= up / h.sum()
    h.flags.writeable = False
    return h


def _polyphase(x: np.ndarray, h: np.ndarray, up: int, down: int,
               n_out: int) -> np.ndarray:
    """Outputs 0..n_out-1 of `x` upsampled by `up`, filtered with the
    centred `h` (_RESAMPLE_TAPS * up + 1 taps) and decimated by `down`.

    Output k sums the inputs (k*down)//up - 16 to + 16 (zero outside `x`)
    against filter phase (k*down) % up. In the [rows, up] grid of outputs,
    k = m*up + r, column r keeps one phase while its window moves by `down`
    per row, so each tap is one column gather from a strided view of the
    input and one multiply-add over all outputs. Products are added from 0
    in increasing input order, as `scipy.signal.upfirdn` adds them, so the
    result is the same bytes. Only the kept outputs are computed.
    """
    taps = _RESAMPLE_TAPS + 1
    half = _RESAMPLE_TAPS // 2
    cols = min(up, n_out)
    rows = -(-n_out // cols)
    offsets = np.arange(cols) * down
    start, phase = offsets // up, offsets % up
    padded = np.concatenate([h, np.zeros(taps * up - h.size)])
    coef = padded.reshape(taps, up)[::-1, phase]  # [tap, column]

    width = int(start[-1]) + taps
    span = (rows - 1) * down + width
    xp = np.zeros(span)
    n = min(x.size, span - half)
    xp[half:half + n] = x[:n]
    windows = np.lib.stride_tricks.as_strided(
        xp, (rows, width), (down * xp.itemsize, xp.itemsize), writeable=False)
    y = np.zeros((rows, cols))
    for q in range(taps):
        y += windows[:, start + q] * coef[q]
    return y.ravel()[:n_out]


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

class Spectra:
    """One convolution operand with its real forward spectrum at each FFT
    length asked for, computed once and kept; a lock makes that atomic, so
    threads may share it."""

    def __init__(self, samples: np.ndarray):
        self.samples = np.asarray(samples, dtype=np.float64)
        if self.samples.size == 0:
            raise ValueError("convolution operands must be non-empty")
        self._by_length = {}
        self._lock = threading.Lock()

    def at(self, n: int) -> np.ndarray:
        """rfft of the samples zero-padded to `n`."""
        with self._lock:
            if n not in self._by_length:
                self._by_length[n] = np.fft.rfft(self.samples, n)
            return self._by_length[n]


def convolve(x: Spectra, h: Spectra) -> np.ndarray:
    """Full linear convolution via a zero-padded FFT (next power of two),
    reusing each operand's spectrum at that length."""
    out_len = x.samples.size + h.samples.size - 1
    n = 1 << (out_len - 1).bit_length()
    return np.fft.irfft(x.at(n) * h.at(n), n)[:out_len]


def convolve_fft(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Full linear convolution of two arrays; see `convolve`."""
    return convolve(Spectra(x), Spectra(h))


# ---------------------------------------------------------------------------
# STFT / ISTFT
# ---------------------------------------------------------------------------

def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(clip: AudioClip) -> np.ndarray:
    """Complex Hann-windowed STFT with reflect center padding, [frames x bins].

    Frame count is 1 + floor(len/HOP); bins are FRAME_LEN/2 + 1.
    """
    x = clip.samples
    if x.size < 1:
        raise ValueError("cannot transform an empty clip")
    frames = 1 + x.size // HOP
    padded = np.pad(x, FRAME_LEN // 2, mode="reflect")
    strided = np.lib.stride_tricks.sliding_window_view(padded, FRAME_LEN)[::HOP]
    return np.fft.rfft(strided[:frames] * _hann_periodic(FRAME_LEN), axis=1)


def istft(spec: np.ndarray, length: int | None = None) -> AudioClip:
    """Invert `stft` by windowed overlap-add with exact normalization.

    `length` trims the result to the original sample count; the default is
    (frames - 1) * HOP, exact whenever the source length was a HOP multiple.
    """
    frames = spec.shape[0]
    window = _hann_periodic(FRAME_LEN)
    pieces = np.fft.irfft(spec, n=FRAME_LEN, axis=1) * window

    total = FRAME_LEN + (frames - 1) * HOP
    buf = np.zeros(total)
    wsum = np.zeros(total)
    wsq = window * window
    for t in range(frames):
        buf[t * HOP:t * HOP + FRAME_LEN] += pieces[t]
        wsum[t * HOP:t * HOP + FRAME_LEN] += wsq
    out = buf / np.where(wsum > 1e-12, wsum, 1.0)

    pad = FRAME_LEN // 2
    n = (frames - 1) * HOP if length is None else length
    if n > frames * HOP:
        raise ValueError(f"cannot recover {n} samples from {frames} frames")
    return AudioClip(out[pad:pad + n], SAMPLE_RATE)


# ---------------------------------------------------------------------------
# Magnitudes
# ---------------------------------------------------------------------------

def normalized_magnitude(spec: np.ndarray):
    """(magnitude divided by its global max, that max). All-zero input
    passes through with max 0.

    The magnitude is numpy's vectorised complex absolute value, within 2 ulp
    of `np.hypot(spec.real, spec.imag)` (equal on 0, inf and NaN) and about
    ten times faster on a 313 x 257 spectrum."""
    mag = np.abs(spec)
    peak = float(mag.max())
    return (mag / peak, peak) if peak else (mag, 0.0)


def log_magnitude(mag: np.ndarray) -> np.ndarray:
    """Natural log of the magnitude, floored at LOG_FLOOR so silence stays
    finite."""
    return np.log(np.maximum(mag, LOG_FLOOR))


# ---------------------------------------------------------------------------
# Alignment helpers
# ---------------------------------------------------------------------------

def detect_direct_path_delay(rir: AudioClip) -> int:
    """Index of the first arrival: first |h| within 20 dB of the peak."""
    mags = np.abs(rir.samples)
    peak = mags.max() if mags.size else 0.0
    if peak == 0.0:
        raise AllZeroRir("impulse response has no energy")
    return int(np.argmax(mags >= 0.1 * peak))


def trim_leading_silence(clip: AudioClip, threshold_db: float = -40.0):
    """Drop samples before the first one above `threshold_db` relative to the
    peak. Returns (trimmed clip, offset dropped); an all-silent clip becomes
    empty with offset len."""
    mags = np.abs(clip.samples)
    peak = mags.max() if mags.size else 0.0
    threshold = peak * 10.0 ** (threshold_db / 20.0)
    above = mags > threshold
    if not above.any():
        return AudioClip(np.empty(0), clip.sample_rate), len(clip)
    offset = int(np.argmax(above))
    return AudioClip(clip.samples[offset:], clip.sample_rate), offset


def fix_length(clip: AudioClip, target_len: int) -> AudioClip:
    """Truncate or zero-pad the tail to exactly `target_len` samples."""
    if target_len <= 0:
        raise ValueError(f"target length must be positive, got {target_len}")
    n = len(clip)
    if n == target_len:
        return clip
    if n > target_len:
        return AudioClip(clip.samples[:target_len], clip.sample_rate)
    return AudioClip(np.concatenate([clip.samples, np.zeros(target_len - n)]),
                     clip.sample_rate)

