"""Seeded WAV trees for the benchmark workloads.

The same seed gives byte-identical files. The files are written by this
module's own RIFF writer, so the inputs do not depend on the program under
test. Dry clips are PCM16 at 16 kHz and a little longer than 5 s; impulse
responses are float32 at 16, 44.1 and 48 kHz and span 0.4 to 2.5 s, so the
program both pads short ones and truncates long ones to its 2 s RIR window.

The seed changes the signals, not their lengths or rates: every seed gives
the program the same amount of work. Quantities that drive the quality
figures (syllable, pause and level ranges, reverberation times) are drawn with
little spread or stratified over the files, so that a mean over a dozen
examples moves little between seeds.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

DRY_RATE = 16000
DRY_SECONDS = 5.25
RIR_RATES = (16000, 44100, 48000)
RIR_SECONDS = (0.4, 2.5)
GROUP_PATTERN = r"(room\d+)"


def write_wav(path, samples, rate, fmt):
    """Mono RIFF/WAVE as "pcm16" (clipped, rounded) or "float32"."""
    if fmt == "pcm16":
        codes = np.clip(np.rint(samples * 32768.0), -32768, 32767)
        payload = codes.astype("<i2").tobytes()
        audio_format, bits = 1, 16
    else:
        payload = np.asarray(samples, dtype="<f4").tobytes()
        audio_format, bits = 3, 32
    block = bits // 8
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload),
                         b"WAVE", b"fmt ", 16, audio_format, 1, rate,
                         rate * block, block, bits, b"data", len(payload))
    Path(path).write_bytes(header + payload)


def dry_clip(rng, n):
    """Speech-like signal: voiced syllables (harmonics of a random pitch
    under a Hann envelope, plus breath noise) separated by short pauses."""
    x = np.zeros(n)
    t = int(rng.integers(0, 400))
    while t < n:
        m = min(int(rng.integers(2600, 4400)), n - t)
        f0 = rng.uniform(90.0, 240.0)
        k = np.arange(1, int(3800.0 // f0) + 1)
        amps = rng.uniform(0.2, 1.0, k.size) / k
        phases = rng.uniform(0.0, 2.0 * np.pi, k.size)
        tt = np.arange(m) / DRY_RATE
        seg = amps @ np.sin(2.0 * np.pi * f0 * k[:, None] * tt + phases[:, None])
        seg += 0.05 * rng.standard_normal(m)
        x[t:t + m] += seg * np.hanning(m) * rng.uniform(0.75, 1.0)
        t += m + int(rng.integers(960, 1920))
    return 0.7 * x / np.abs(x).max()


def rir_clip(rng, rate, seconds, t60):
    """Direct path after a short onset, a few early reflections, then
    exponentially decaying noise with reverberation time `t60`."""
    n = int(seconds * rate)
    onset = int(rng.integers(0, 160) * rate / DRY_RATE)
    t = np.arange(n - onset) / rate
    h = np.zeros(n)
    h[onset:] = 0.3 * rng.standard_normal(t.size) * np.exp(-6.9 * t / t60)
    h[onset] = 1.0
    for _ in range(4):
        h[onset + int(rng.integers(1, int(0.05 * rate)))] += rng.uniform(-0.6, 0.6)
    return 0.9 * h / np.abs(h).max()


def make_tree(root, seed, n_dry, n_rooms, mics_per_room):
    """Write `root`/dry/utt*.wav and `root`/rir/room*_mic*.wav; return
    (dry_dir, rir_dir). RIR lengths are spread evenly over RIR_SECONDS and
    rates cycle through RIR_RATES, whatever the seed; reverberation times
    are stratified over 0.25 to 0.9 s in the same order."""
    root = Path(root)
    dry_dir, rir_dir = root / "dry", root / "rir"
    dry_dir.mkdir(parents=True, exist_ok=True)
    rir_dir.mkdir(parents=True, exist_ok=True)
    n_rir = n_rooms * mics_per_room
    streams = np.random.SeedSequence(seed % 2 ** 64).spawn(n_dry + n_rir)
    for i in range(n_dry):
        rng = np.random.default_rng(streams[i])
        write_wav(dry_dir / f"utt{i:02d}.wav",
                  dry_clip(rng, int(DRY_SECONDS * DRY_RATE)), DRY_RATE, "pcm16")
    lo, hi = RIR_SECONDS
    for j in range(n_rir):
        rng = np.random.default_rng(streams[n_dry + j])
        rate = RIR_RATES[j % len(RIR_RATES)]
        seconds = lo + (hi - lo) * (j + 0.5) / n_rir
        t60 = 0.25 + 0.65 * (j + rng.uniform()) / n_rir
        room, mic = divmod(j, mics_per_room)
        write_wav(rir_dir / f"room{room:02d}_mic{mic}.wav",
                  rir_clip(rng, rate, seconds, t60), rate, "float32")
    return dry_dir, rir_dir
