import os

# One BLAS thread, as CI runs: training bytes are reproducible only at one
# thread, so every session checks them at the same setting. Set before numpy
# loads its BLAS; subprocess tests inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from dereverb import autodiff as ad  # noqa: E402
from dereverb import dsp  # noqa: E402

# `pytest --hypothesis-profile=ci`: every run draws the same cases and keeps
# no example database, so a CI failure reproduces from the commit alone
settings.register_profile("ci", derandomize=True, database=None)


def total(t):
    """Sum of every entry of the tensor `t`, as a scalar graph node."""
    return ad.reshape(ad.matmul(ad.reshape(t, (1, -1)), np.ones((t.data.size, 1))), ())


def make_dry_clip(rng, seconds=1.2, rate=16000):
    """Speech-like fixture: band-limited noise bursts with pauses."""
    n = int(seconds * rate)
    envelope = np.zeros(n)
    t = 0
    while t < n:
        burst = int(rng.integers(rate // 10, rate // 3))
        envelope[t:t + burst] = rng.uniform(0.3, 0.9)
        t += burst + int(rng.integers(rate // 20, rate // 8))
    noise = rng.standard_normal(n)
    smooth = np.convolve(noise, np.ones(8) / 8.0, mode="same")
    x = smooth * envelope
    peak = np.abs(x).max()
    return dsp.AudioClip(0.7 * x / peak if peak else x, rate)


def make_rir_clip(rng, onset=0, decay_s=0.25, seconds=0.6, rate=16000):
    """Impulse-response fixture: direct path then exponentially decaying noise."""
    n = int(seconds * rate)
    tail = rng.standard_normal(n) * np.exp(-np.arange(n) / (decay_s * rate))
    tail[0] = 1.0
    h = np.concatenate([np.zeros(onset), tail])
    return dsp.AudioClip(0.9 * h / np.abs(h).max(), rate)


@pytest.fixture
def tiny_corpus(tmp_path):
    """Four dry WAVs and six RIR WAVs in two groups, on disk."""
    rng = np.random.default_rng(1234)
    dry_dir = tmp_path / "dry"
    rir_dir = tmp_path / "rir"
    dry_dir.mkdir()
    rir_dir.mkdir()
    for i in range(4):
        dsp.write_wav(dry_dir / f"utt{i}.wav", make_dry_clip(rng), format="float32")
    for room, group in enumerate(["roomA", "roomB"]):
        for mic in range(3):
            clip = make_rir_clip(rng, onset=int(rng.integers(0, 200)))
            dsp.write_wav(rir_dir / f"{group}_mic{mic}.wav", clip, format="float32")
    return {"dry": dry_dir, "rir": rir_dir}
