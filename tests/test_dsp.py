import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.signal import upfirdn

from dereverb import dsp
from dereverb.errors import (
    AllZeroRir,
    CorruptHeader,
    DereverbError,
    EmptyAudio,
    UnsupportedFormat,
)


def clip(samples, rate=16000):
    return dsp.AudioClip(np.asarray(samples, dtype=np.float64), rate)


# --- WAV I/O -----------------------------------------------------------

def test_read_pcm16_scaling(tmp_path):
    path = tmp_path / "x.wav"
    import struct
    payload = struct.pack("<3h", 0, 16384, -16384)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 1, 16000, 32000, 2, 16,
        b"data", len(payload))
    path.write_bytes(header + payload)
    got = dsp.read_wav(path)
    assert got.sample_rate == 16000
    np.testing.assert_array_equal(got.samples, [0.0, 0.5, -0.5])


def test_read_stereo_averages_to_mono(tmp_path):
    path = tmp_path / "st.wav"
    import struct
    payload = np.array([1.0, 0.0], dtype="<f4").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 3, 2, 16000, 128000, 8, 32,
        b"data", len(payload))
    path.write_bytes(header + payload)
    got = dsp.read_wav(path)
    np.testing.assert_array_equal(got.samples, [0.5])


def test_float32_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, 4321).astype(np.float32).astype(np.float64)
    path = tmp_path / "f.wav"
    dsp.write_wav(path, clip(x), format="float32")
    got = dsp.read_wav(path)
    np.testing.assert_array_equal(got.samples, x)
    assert got.sample_rate == 16000


def test_pcm16_round_trip_near_exact(tmp_path):
    rng = np.random.default_rng(8)
    x = rng.uniform(-0.9, 0.9, 1000)
    path = tmp_path / "p.wav"
    dsp.write_wav(path, clip(x), format="pcm16")
    got = dsp.read_wav(path)
    assert np.abs(got.samples - x).max() <= 0.5 / 32768


def test_pcm16_clamps(tmp_path):
    path = tmp_path / "c.wav"
    dsp.write_wav(path, clip([1.5, -1.5, 0.0]), format="pcm16")
    raw = np.frombuffer(path.read_bytes()[44:], dtype="<i2")
    assert list(raw) == [32767, -32768, 0]


def test_read_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wave file at all")
    with pytest.raises(CorruptHeader):
        dsp.read_wav(path)


def wav_bytes(audio_format, bits, payload):
    """A mono 16 kHz RIFF/WAVE file around `payload`, taken as is."""
    import struct
    block = bits // 8
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, audio_format, 1, 16000, 16000 * block, block, bits,
        b"data", len(payload)) + payload


@pytest.mark.parametrize("audio_format,bits,size", [(1, 16, 5), (3, 32, 6), (3, 32, 7)],
                         ids=["pcm16-odd", "float32-6", "float32-7"])
def test_read_rejects_partial_sample(tmp_path, audio_format, bits, size):
    path = tmp_path / "partial.wav"
    path.write_bytes(wav_bytes(audio_format, bits, b"\x01" * size))
    with pytest.raises(CorruptHeader):
        dsp.read_wav(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_read_rejects_non_finite_sample(tmp_path, value):
    path = tmp_path / "bad.wav"
    path.write_bytes(wav_bytes(3, 32, np.array([0.5, value, 0.0], dtype="<f4").tobytes()))
    with pytest.raises(CorruptHeader):
        dsp.read_wav(path)


def test_read_rejects_24bit(tmp_path):
    import struct
    path = tmp_path / "b24.wav"
    payload = b"\x00\x00\x00" * 4
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 1, 16000, 48000, 3, 24,
        b"data", len(payload))
    path.write_bytes(header + payload)
    with pytest.raises(UnsupportedFormat):
        dsp.read_wav(path)


def test_read_rejects_empty_data(tmp_path):
    import struct
    path = tmp_path / "empty.wav"
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36, b"WAVE",
        b"fmt ", 16, 1, 1, 16000, 32000, 2, 16,
        b"data", 0)
    path.write_bytes(header)
    with pytest.raises(EmptyAudio):
        dsp.read_wav(path)


def test_read_rejects_fewer_samples_than_channels(tmp_path):
    import struct
    path = tmp_path / "short.wav"
    payload = struct.pack("<2h", 1000, -1000)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 3, 16000, 96000, 6, 16,
        b"data", len(payload))
    path.write_bytes(header + payload)
    with pytest.raises(EmptyAudio):
        dsp.read_wav(path)


u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)


def mostly(usual, anything):
    """`usual` three times in four, else `anything`."""
    return st.one_of(usual, usual, usual, anything)


@st.composite
def riff_files(draw):
    """RIFF/WAVE bytes from fuzzed fields: each fmt value and chunk size
    mostly one a valid file has, else anything; now and then an unknown
    chunk, a missing chunk or a cut tail."""
    import struct
    audio_format, bits = draw(mostly(st.sampled_from([(1, 16), (3, 32), (0xFFFE, 16)]),
                                     st.tuples(u16, u16)))
    channels = draw(mostly(st.integers(1, 3), u16))
    rate = draw(mostly(st.sampled_from([16000, 44100]), u32))
    fmt_size = draw(mostly(st.just(16), st.integers(0, 40)))
    fmt_body = struct.pack("<HHIIHH", audio_format, channels, rate, draw(u32),
                           draw(u16), bits).ljust(fmt_size, b"\0")[:fmt_size]
    payload = draw(st.binary(max_size=64))
    data_size = draw(mostly(st.just(len(payload)), u32))
    chunks = [b"fmt " + struct.pack("<I", fmt_size) + fmt_body,
              b"data" + struct.pack("<I", data_size) + payload]
    change = draw(st.sampled_from(["none"] * 5 + ["extra", "drop", "cut"]))
    if change == "extra":
        extra = draw(st.binary(max_size=9))
        chunks.insert(draw(st.integers(0, 2)),
                      b"LIST" + struct.pack("<I", len(extra)) + extra)
    elif change == "drop":
        chunks.pop(draw(st.integers(0, 1)))
    body = b"WAVE" + b"".join(chunks)
    raw = b"RIFF" + struct.pack("<I", draw(mostly(st.just(len(body)), u32))) + body
    return raw[:draw(st.integers(0, len(raw)))] if change == "cut" else raw


def assert_clip_or_dereverb_error(path, raw):
    path.write_bytes(raw)
    try:
        got = dsp.read_wav(path)
    except DereverbError:
        return
    assert len(got) >= 1 and got.sample_rate > 0


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.binary(max_size=128))
def test_any_bytes_read_as_a_clip_or_a_dereverb_error(tmp_path, raw):
    assert_clip_or_dereverb_error(tmp_path / "fuzz.wav", raw)


# a float32 WAV whose one sample is a signalling NaN (0x7f810000)
SIGNALLING_NAN_WAV = (b"RIFF(\x00\x00\x00WAVEfmt \x10\x00\x00\x00\x03\x00\x01\x00\x80>\x00\x00"
                      b"\x00\x00\x00\x00\x00\x00 \x00data\x04\x00\x00\x00\x00\x00\x81\x7f")


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=riff_files())
@example(raw=SIGNALLING_NAN_WAV)
def test_any_riff_header_reads_as_a_clip_or_a_dereverb_error(tmp_path, raw):
    assert_clip_or_dereverb_error(tmp_path / "fuzz.wav", raw)


# --- resampling --------------------------------------------------------

def test_resample_identity():
    c = clip(np.arange(10) / 10.0)
    assert dsp.resample(c, 16000) is c


def test_resample_sine_peak():
    sr = 48000
    t = np.arange(sr) / sr
    c = dsp.AudioClip(np.sin(2 * np.pi * 1000 * t), sr)
    out = dsp.resample(c, 16000)
    assert len(out) == 16000
    spectrum = np.abs(np.fft.rfft(out.samples))
    peak_hz = np.argmax(spectrum) * 16000 / len(out)
    assert abs(peak_hz - 1000) <= 16000 / len(out)


@pytest.mark.parametrize("src,dst", [(48000, 16000), (8000, 16000), (44100, 16000)])
def test_resample_dc_gain(src, dst):
    c = dsp.AudioClip(np.ones(src // 4), src)
    out = dsp.resample(c, dst)
    assert len(out) == round(len(c) * dst / src)
    interior = out.samples[64:-64]
    assert np.abs(interior - 1.0).max() < 1e-3


def test_resample_rejects_bad_rate():
    with pytest.raises(ValueError):
        dsp.resample(clip([0.0]), 0)


def upfirdn_resample(clip, target_rate):
    """The former `dsp.resample`, whose core was scipy.signal.upfirdn: the
    oracle the numpy polyphase loop must equal byte for byte."""
    if clip.sample_rate == target_rate:
        return clip
    g = gcd(clip.sample_rate, target_rate)
    up, down = target_rate // g, clip.sample_rate // g
    n_out = int(round(len(clip) * target_rate / clip.sample_rate))

    n = 32 * up + 1
    center = (n - 1) // 2
    cutoff = 0.5 / max(up, down)
    t = np.arange(n) - center
    h = 2.0 * cutoff * np.sinc(2.0 * cutoff * t) * np.kaiser(n, 8.6)
    h *= up / h.sum()

    lead = (-(32 // 2)) % down
    first = (center + lead * up) // down
    x = np.concatenate([np.zeros(lead), clip.samples, np.zeros(32)])
    y = upfirdn(h, x, up, down)
    return dsp.AudioClip(y[first:first + n_out], target_rate)


RATE_PAIRS = [(rate, 16000) for rate in
              (8000, 11025, 22050, 32000, 44100, 48000, 96000, 1000003)] + [(16000, 44100)]


@settings(max_examples=150, deadline=None)
@given(rates=st.sampled_from(RATE_PAIRS),
       length=st.one_of(st.integers(1, 64), st.integers(1, 30000)),
       seed=st.integers(0, 2**32 - 1))
def test_resample_equals_upfirdn_byte_for_byte(rates, length, seed):
    # short lengths give fewer outputs than `up` (160 at 44.1 kHz, 16000
    # at 1,000,003 Hz), so the output grid has fewer columns than phases
    source, target = rates
    c = dsp.AudioClip(np.random.default_rng(seed).uniform(-1, 1, length), source)
    got = dsp.resample(c, target).samples
    want = upfirdn_resample(c, target).samples
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_resample_memory_does_not_grow_with_the_claimed_rate():
    # both rates are coprime with 16 kHz, so both build a 16000-phase
    # filter of the same size; at the higher one the former code zero-padded
    # the clip with 16 million samples
    samples = np.random.default_rng(0).uniform(-1, 1, 2000)
    peaks = []
    for rate in (1_000_003, 16_000_057):
        dsp._resample_filter.cache_clear()   # measure the filter's design too
        tracemalloc.start()
        try:
            out = dsp.resample(dsp.AudioClip(samples, rate), 16000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(out) == round(2000 * 16000 / rate) > 0
    assert peaks[1] <= 1.2 * peaks[0]


def test_clips_at_one_rate_pair_design_the_filter_once(monkeypatch):
    designs = []
    kaiser = np.kaiser
    monkeypatch.setattr(np, "kaiser", lambda *args: designs.append(args) or kaiser(*args))
    dsp._resample_filter.cache_clear()
    rng = np.random.default_rng(5)
    clips = [dsp.AudioClip(rng.uniform(-1, 1, n), 44100) for n in (100, 4410, 30000)]
    got = [dsp.resample(c, 16000).samples for c in clips]
    assert len(designs) == 1
    dsp.resample(dsp.AudioClip(rng.uniform(-1, 1, 100), 48000), 16000)
    assert len(designs) == 2
    assert not dsp._resample_filter(160, 441).flags.writeable
    for c, samples in zip(clips, got):
        assert samples.tobytes() == upfirdn_resample(c, 16000).samples.tobytes()


# --- convolution --------------------------------------------------------

def test_convolve_fft_delta_and_shift():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(500)
    delta = np.zeros(64)
    delta[0] = 1.0
    out = dsp.convolve_fft(x, delta)
    assert np.abs(out[:500] - x).max() < 1e-12
    shifted = np.zeros(64)
    shifted[7] = 1.0
    out = dsp.convolve_fft(x, shifted)
    assert np.abs(out[7:507] - x).max() < 1e-12
    assert np.abs(out[:7]).max() < 1e-12


def test_convolve_fft_matches_direct():
    rng = np.random.default_rng(11)
    for _ in range(50):
        nx = int(rng.integers(1, 400))
        nh = int(rng.integers(1, 200))
        x = rng.standard_normal(nx)
        h = rng.standard_normal(nh)
        a = np.convolve(x, h)
        b = dsp.convolve_fft(x, h)
        scale = np.abs(a).max() + 1e-30
        assert np.abs(a - b).max() / scale < 1e-9


def test_convolve_long_lengths_agree():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(2 ** 17)
    h = rng.standard_normal(321)
    a = np.convolve(x, h)
    b = dsp.convolve_fft(x, h)
    assert np.abs(a - b).max() / np.abs(a).max() < 1e-9


def test_spectra_shared_by_threads_computes_each_length_once(monkeypatch):
    import sys
    import threading
    calls = []
    np_rfft = np.fft.rfft

    def counted(x, n=None, *args, **kwargs):
        calls.append(n)
        return np_rfft(x, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    source = dsp.Spectra(np.random.default_rng(0).standard_normal(3000))
    lengths = [4096, 8192, 16384]
    got = [[] for _ in range(8)]   # more workers than cores

    def work(out):
        for _ in range(20):
            out.extend(source.at(n) for n in lengths)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(out,)) for out in got]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert sorted(calls) == lengths
    for out in got:
        assert len(out) == 60
        assert all(a is source.at(n) for a, n in zip(out, lengths * 20))


def test_convolve_rejects_empty():
    with pytest.raises(ValueError):
        dsp.convolve_fft(np.ones(3), np.empty(0))


# --- STFT / ISTFT -------------------------------------------------------

def test_stft_frame_counts():
    assert dsp.stft(clip(np.zeros(80000))).shape == (313, 257)
    assert dsp.stft(clip(np.zeros(32000))).shape == (126, 257)


def test_stft_frame_count_formula():
    rng = np.random.default_rng(4)
    for n in [1, 5, 255, 256, 257, 1000, 4096, 10000]:
        spec = dsp.stft(clip(rng.standard_normal(n)))
        assert spec.shape[0] == 1 + n // 256


def test_stft_zero_signal():
    spec = dsp.stft(clip(np.zeros(2048)))
    assert np.iscomplexobj(spec) and np.all(spec == 0)


def test_istft_round_trip_random():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal(16000)
        out = dsp.istft(dsp.stft(clip(x)), length=16000)
        assert np.abs(out.samples - x).max() < 1e-6


def test_istft_round_trip_hop_multiple():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(256 * 40)
    out = dsp.istft(dsp.stft(clip(x)))
    assert len(out) == 256 * 40
    assert np.abs(out.samples - x).max() < 1e-6


def test_istft_zero_spec():
    spec = dsp.stft(clip(np.zeros(4096)))
    out = dsp.istft(spec)
    assert np.all(out.samples == 0)


def test_istft_preserves_sine_rms():
    t = np.arange(16000) / 16000
    x = np.sin(2 * np.pi * 440 * t)
    out = dsp.istft(dsp.stft(clip(x)), length=len(x))
    rms_in = np.sqrt((x ** 2).mean())
    rms_out = np.sqrt((out.samples ** 2).mean())
    assert abs(rms_out / rms_in - 1) < 1e-3


# --- magnitudes ---------------------------------------------------------

def test_magnitude_345():
    mag, peak = dsp.normalized_magnitude(np.full((1, 257), 3.0 + 4.0j))
    assert np.all(mag == 1.0) and peak == 5.0


# zeros, subnormal parts, parts near +-1e300, and anything between
PARTS = st.one_of(st.sampled_from([0.0, -0.0]),
                  st.floats(-2.2e-308, 2.2e-308),
                  st.floats(1e299, 1.5e300) | st.floats(-1.5e300, -1e299),
                  st.floats(-1.5e300, 1.5e300))


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(st.tuples(PARTS, PARTS), min_size=1, max_size=64))
@example(parts=[(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)])
def test_magnitude_within_2_ulp_of_hypot(parts):
    spec = np.array([complex(re, im) for re, im in parts])
    hypot = np.hypot(spec.real, spec.imag)
    # a one-value spectrum is its own peak, so the peaks show each magnitude
    peaks = [dsp.normalized_magnitude(spec[i:i + 1])[1] for i in range(len(spec))]
    np.testing.assert_array_max_ulp(np.array(peaks), hypot, maxulp=2)
    mag, peak = dsp.normalized_magnitude(spec)
    if hypot.any():
        np.testing.assert_array_max_ulp(peak, hypot.max(), maxulp=2)
        assert mag.max() == 1.0
    else:
        assert peak == 0.0 and mag.shape == spec.shape and not mag.any()


def test_log_magnitude_floor():
    out = dsp.log_magnitude(np.zeros((2, 2)))
    assert np.allclose(out, np.log(1e-5))


def test_log_magnitude_inverse():
    rng = np.random.default_rng(9)
    m = rng.uniform(1e-4, 1.0, (10, 10))
    np.testing.assert_allclose(np.exp(dsp.log_magnitude(m)), m)


def test_normalize_spectrogram():
    mag, peak = dsp.normalized_magnitude(np.array([[1.0, -4.0j], [2.0j, 0.0]]))
    np.testing.assert_array_equal(mag, [[0.25, 1.0], [0.5, 0.0]])
    assert peak == 4.0


def test_normalize_all_zero():
    mag, peak = dsp.normalized_magnitude(dsp.stft(clip(np.zeros(1024))))
    assert peak == 0.0
    assert mag.shape == (5, 257) and np.all(mag == 0)


# --- alignment ----------------------------------------------------------

def test_delay_detection_delta():
    h = np.zeros(1000)
    h[0] = 1.0
    assert dsp.detect_direct_path_delay(clip(h)) == 0
    h = np.zeros(1000)
    h[480] = 0.7
    assert dsp.detect_direct_path_delay(clip(h)) == 480


def test_delay_detection_synthetic_rir():
    rng = np.random.default_rng(10)
    tail = rng.standard_normal(4000) * np.exp(-np.arange(4000) / 800.0)
    tail[0] = 1.0  # direct path
    h = np.concatenate([np.zeros(480), tail])
    got = dsp.detect_direct_path_delay(clip(h * 0.5))
    assert abs(got - 480) <= 1


def test_delay_detection_shift_equivariant():
    rng = np.random.default_rng(13)
    h = rng.standard_normal(500) * np.exp(-np.arange(500) / 100.0)
    base = dsp.detect_direct_path_delay(clip(h))
    for d in [1, 17, 240]:
        shifted = np.concatenate([np.zeros(d), h])
        assert dsp.detect_direct_path_delay(clip(shifted)) == base + d


def test_delay_detection_all_zero():
    with pytest.raises(AllZeroRir):
        dsp.detect_direct_path_delay(clip(np.zeros(16)))


def test_trim_leading_silence():
    trimmed, offset = dsp.trim_leading_silence(clip([0, 0, 0, 0.5, 0.2]))
    assert offset == 3
    np.testing.assert_array_equal(trimmed.samples, [0.5, 0.2])


def test_trim_loud_start():
    trimmed, offset = dsp.trim_leading_silence(clip([0.9, 0.1, 0.0]))
    assert offset == 0
    assert len(trimmed) == 3


def test_trim_long_prefix():
    rng = np.random.default_rng(14)
    speech = rng.uniform(0.2, 0.8, 500)
    x = np.concatenate([np.zeros(1000), speech])
    _, offset = dsp.trim_leading_silence(clip(x))
    assert offset == 1000


def test_trim_all_silent():
    trimmed, offset = dsp.trim_leading_silence(clip(np.zeros(32)))
    assert offset == 32
    assert len(trimmed) == 0


def test_fix_length():
    c = clip(np.ones(80000))
    assert dsp.fix_length(c, 80000) is c
    assert len(dsp.fix_length(clip(np.ones(90000)), 80000)) == 80000
    padded = dsp.fix_length(clip(np.ones(70000)), 80000)
    assert len(padded) == 80000
    assert np.all(padded.samples[70000:] == 0)


def test_audio_clip_validation():
    with pytest.raises(ValueError):
        dsp.AudioClip(np.array([[0.0, 1.0]]), 16000)
    with pytest.raises(ValueError):
        dsp.AudioClip(np.array([np.nan]), 16000)
    with pytest.raises(ValueError):
        dsp.AudioClip(np.zeros(4), 0)
