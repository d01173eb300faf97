import builtins
import errno
import io
import json
import math
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dereverb import corpus, dsp, evaluation, trainer
from dereverb.errors import (
    DereverbError,
    EmptySplit,
    InsufficientData,
    NoFilesFound,
    ParseError,
    VersionMismatch,
)
from conftest import make_dry_clip, make_rir_clip
from test_dsp import mostly, u32
from test_trainer import DEEP_JSON


def fake_records(sizes):
    """One group per entry in `sizes`, numbered ids, no files behind them."""
    records = []
    for g, size in enumerate(sizes):
        for i in range(size):
            records.append(corpus.RirRecord(
                id=f"g{g:03d}_{i:03d}", path=f"/nowhere/g{g}_{i}.wav",
                group_key=f"group{g:03d}", duration_s=0.5))
    return records


# Synthetic corpus used by the split acceptance criterion: 900 RIRs in 80
# groups with sizes from 1 to 150.
SPLIT_SIZES = ([150, 130, 110, 25, 22]
               + [15] * 20 + [10] * 10 + [2] * 18 + [1] * 27)
assert sum(SPLIT_SIZES) == 900 and len(SPLIT_SIZES) == 80


# --- ingestion -----------------------------------------------------------

def test_ingest_groups_by_pattern(tiny_corpus):
    records = corpus.ingest_rirs(tiny_corpus["rir"], r"^(room[A-Z])")
    assert len(records) == 6
    keys = {r.group_key for r in records}
    assert keys == {"roomA", "roomB"}
    assert all(r.duration_s > 0 for r in records)


def test_ingest_pattern_fallback_is_stem(tmp_path):
    rng = np.random.default_rng(0)
    d = tmp_path / "rirs"
    d.mkdir()
    dsp.write_wav(d / "oddname.wav", make_rir_clip(rng), format="float32")
    records = corpus.ingest_rirs(d, r"^(room[A-Z])")
    assert records[0].group_key == "oddname"


def test_ingest_skips_corrupt_files(tmp_path, caplog):
    rng = np.random.default_rng(1)
    d = tmp_path / "rirs"
    d.mkdir()
    for i in range(9):
        dsp.write_wav(d / f"ok{i}.wav", make_rir_clip(rng), format="float32")
    (d / "broken.wav").write_bytes(b"RIFFgarbage")
    with caplog.at_level("WARNING"):
        records = corpus.ingest_rirs(d, r"(ok)")
    assert len(records) == 9
    assert any("broken" in r.message for r in caplog.records)


def test_ingest_skips_partial_sample_file(tmp_path, caplog):
    rng = np.random.default_rng(2)
    d = tmp_path / "rirs"
    d.mkdir()
    dsp.write_wav(d / "ok.wav", make_rir_clip(rng), format="pcm16")
    raw = (d / "ok.wav").read_bytes()
    # one byte past the last whole PCM16 sample, declared in both sizes
    odd = bytearray(raw + b"\x00")
    odd[4:8] = (len(odd) - 8).to_bytes(4, "little")
    odd[40:44] = (len(odd) - 44).to_bytes(4, "little")
    (d / "odd.wav").write_bytes(bytes(odd))
    with caplog.at_level("WARNING"):
        records = corpus.ingest_rirs(d, r"(.*)")
    assert [r.id for r in records] == ["ok"]
    assert any("odd.wav" in r.message for r in caplog.records)


def test_ingest_empty_dir(tmp_path):
    with pytest.raises(NoFilesFound):
        corpus.ingest_rirs(tmp_path, r"(.*)")


# --- splitting -----------------------------------------------------------

def test_split_invariants_on_synthetic_corpus():
    manifest = corpus.split_groups(fake_records(SPLIT_SIZES),
                                   val_target=200, test_target=200, seed=42)
    counts = manifest.split_counts()
    assert counts["val"] == 200
    assert counts["test"] == 200
    assert counts["train"] == 900 - 200 - 200 - counts["discarded"]

    by_group = {}
    for r in manifest.rirs:
        if r.split == "discarded":
            continue
        by_group.setdefault(r.group_key, set()).add(r.split)
    assert all(len(s) == 1 for s in by_group.values())

    retained = {}
    for r in manifest.rirs:
        if r.split != "discarded":
            retained[r.group_key] = retained.get(r.group_key, 0) + 1
    assert max(retained.values()) <= 100
    for r in manifest.rirs:
        if r.split != "discarded" and retained[r.group_key] > 20:
            assert r.split == "train"


def test_split_caps_large_groups():
    manifest = corpus.split_groups(fake_records([150] + [1] * 400),
                                   val_target=200, test_target=200, seed=0)
    counts = manifest.split_counts()
    assert counts["discarded"] == 50
    big = [r for r in manifest.rirs if r.group_key == "group000"]
    assert sum(1 for r in big if r.split != "discarded") == 100
    assert all(r.split in ("train", "discarded") for r in big)


def test_split_forces_groups_over_twenty_to_train():
    manifest = corpus.split_groups(fake_records([25] + [1] * 400),
                                   val_target=200, test_target=200, seed=0)
    group = [r for r in manifest.rirs if r.group_key == "group000"]
    assert all(r.split == "train" for r in group)


def test_split_insufficient_data():
    with pytest.raises(InsufficientData):
        corpus.split_groups(fake_records([10] * 30),
                            val_target=200, test_target=200, seed=0)


@pytest.mark.parametrize("setting", ["val_target", "test_target", "cap", "big_group"])
def test_split_rejects_a_negative_count(setting):
    with pytest.raises(ValueError, match=f"{setting} must be non-negative"):
        corpus.split_groups(fake_records([3, 3, 1, 1]),
                            **{"val_target": 1, "test_target": 1, setting: -1})


def test_split_deterministic():
    a = corpus.split_groups(fake_records(SPLIT_SIZES), seed=7)
    b = corpus.split_groups(fake_records(SPLIT_SIZES), seed=7)
    assert [(r.id, r.split) for r in a.rirs] == [(r.id, r.split) for r in b.rirs]


# --- pairing -------------------------------------------------------------

def small_manifest():
    records = fake_records([3, 3])
    manifest = corpus.CorpusManifest(rirs=[
        corpus.RirRecord(id=r.id, path=r.path, group_key=r.group_key,
                         split="train", duration_s=r.duration_s)
        for r in records])
    return manifest


def test_make_pairs_counts():
    pairs = corpus.make_pairs(["a.wav", "b.wav", "c.wav"], small_manifest(),
                              rirs_per_dry=2, seed=3)
    assert len(pairs) == 6
    assert {p.dry_path for p in pairs} == {"a.wav", "b.wav", "c.wav"}


def test_make_pairs_deterministic():
    m = small_manifest()
    a = corpus.make_pairs(["a.wav", "b.wav"], m, 5, seed=11)
    b = corpus.make_pairs(["a.wav", "b.wav"], m, 5, seed=11)
    assert [(p.dry_path, p.rir_id, p.seed) for p in a] == \
           [(p.dry_path, p.rir_id, p.seed) for p in b]


def test_make_pairs_seed_changes_selection():
    m = small_manifest()
    a = corpus.make_pairs(["a.wav"], m, 10, seed=1)
    b = corpus.make_pairs(["a.wav"], m, 10, seed=2)
    assert [p.rir_id for p in a] != [p.rir_id for p in b]


def test_make_pairs_empty_split():
    m = small_manifest()
    with pytest.raises(EmptySplit):
        corpus.make_pairs(["a.wav"], m, 1, seed=0, split="val")


def test_pair_seed_reproduces_choice():
    m = small_manifest()
    pairs = corpus.make_pairs(["a.wav"], m, 4, seed=9)
    candidates = m.rirs_in("train")
    for p in pairs:
        idx = int(np.random.default_rng(p.seed).integers(len(candidates)))
        assert candidates[idx].id == p.rir_id


# --- synthesis -----------------------------------------------------------

def setup_synth(tmp_path, rir_clip):
    rng = np.random.default_rng(99)
    dry_path = tmp_path / "dry.wav"
    rir_path = tmp_path / "rir.wav"
    dsp.write_wav(dry_path, make_dry_clip(rng, seconds=2.0), format="float32")
    dsp.write_wav(rir_path, rir_clip, format="float32")
    manifest = corpus.CorpusManifest(rirs=[corpus.RirRecord(
        id="rir0", path=str(rir_path), group_key="g", split="train",
        duration_s=rir_clip.duration_s)])
    pair = corpus.PairRecord(dry_path=str(dry_path), rir_id="rir0", seed=1)
    return pair, manifest


def test_synthesize_shapes(tmp_path):
    rng = np.random.default_rng(5)
    pair, manifest = setup_synth(tmp_path, make_rir_clip(rng, onset=100))
    ex = corpus.synthesize_example(pair, manifest)
    assert ex.input_logmag.shape == (313, 257)
    assert ex.dry_target_logmag.shape == (313, 257)
    assert ex.rir_target_mag.shape == (126, 257)
    assert ex.reverb_target_mag.shape == (313, 257)
    assert ex.reverb_scale > 0 and ex.dry_scale > 0 and ex.rir_scale > 0


def test_synthesize_delta_rir_input_equals_dry_target(tmp_path):
    delta = np.zeros(1000)
    delta[0] = 1.0
    pair, manifest = setup_synth(tmp_path, dsp.AudioClip(delta, 16000))
    ex = corpus.synthesize_example(pair, manifest)
    assert np.abs(ex.input_logmag - ex.dry_target_logmag).max() < 1e-6
    assert np.abs(ex.reverb_target_mag - np.exp(ex.dry_target_logmag)).max() < 1e-6 \
        or np.abs(ex.reverb_target_mag - np.minimum(
            np.exp(ex.dry_target_logmag), ex.reverb_target_mag)).max() < 1e-6


def test_synthesize_delayed_delta_matches_delta_case(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    delta = np.zeros(1000)
    delta[0] = 1.0
    pair0, manifest0 = setup_synth(tmp_path / "a", dsp.AudioClip(delta, 16000))
    delayed = np.zeros(1480)
    delayed[480] = 1.0
    pair1, manifest1 = setup_synth(tmp_path / "b", dsp.AudioClip(delayed, 16000))

    ex0 = corpus.synthesize_example(pair0, manifest0)
    ex1 = corpus.synthesize_example(pair1, manifest1)
    # Alignment removes the RIR delay, so the frame-domain targets coincide.
    assert np.abs(ex0.dry_target_logmag - ex1.dry_target_logmag).max() < 1e-6
    assert np.abs(ex0.input_logmag - ex1.input_logmag).max() < 1e-6


def test_synthesize_deterministic(tmp_path):
    rng = np.random.default_rng(6)
    pair, manifest = setup_synth(tmp_path, make_rir_clip(rng, onset=37))
    a = corpus.synthesize_example(pair, manifest)
    b = corpus.synthesize_example(pair, manifest)
    assert np.array_equal(a.input_logmag, b.input_logmag)
    assert np.array_equal(a.rir_target_mag, b.rir_target_mag)
    assert a.reverb_scale == b.reverb_scale


def synthesize_by_pair(pair, manifest):
    """Reference: one example rendered from scratch, the dry signal delayed
    by the RIR's onset before its leading silence is trimmed."""
    dry = dsp.resample(dsp.read_wav(pair.dry_path), dsp.SAMPLE_RATE)
    rir = dsp.resample(dsp.read_wav(manifest.rir_by_id(pair.rir_id).path),
                       dsp.SAMPLE_RATE)
    onset = dsp.detect_direct_path_delay(rir)
    reverb = dsp.convolve_fft(dry.samples, rir.samples)
    delayed = dsp.AudioClip(np.concatenate([np.zeros(onset), dry.samples]), dsp.SAMPLE_RATE)
    trimmed, offset = dsp.trim_leading_silence(delayed)
    reverb = dsp.AudioClip(reverb[offset:], dsp.SAMPLE_RATE)
    padded = rir if len(rir) >= corpus.RIR_MIN_SAMPLES \
        else dsp.fix_length(rir, corpus.RIR_MIN_SAMPLES)
    mags = [np.abs(spec) for spec in map(dsp.stft, (
        dsp.fix_length(trimmed, corpus.CLIP_SAMPLES),
        dsp.fix_length(reverb, corpus.CLIP_SAMPLES), padded))]
    dry_scale, reverb_scale, rir_scale = (float(m.max()) for m in mags)
    dry_mag, reverb_mag, rir_mag = (m / m.max() for m in mags)
    return (dsp.log_magnitude(reverb_mag), dsp.log_magnitude(dry_mag),
            rir_mag[:corpus.RIR_FRAMES], reverb_mag, dry_scale, rir_scale, reverb_scale)


@pytest.mark.parametrize("onset, seconds, rate", [(0, 0.6, 16000), (300, 0.6, 16000),
                                                  (37, 2.5, 16000), (120, 0.5, 44100)],
                         ids=["no-onset", "onset", "longer-than-2s", "44k1"])
def test_synthesize_equals_reference_bit_for_bit(tmp_path, onset, seconds, rate):
    rng = np.random.default_rng(onset)
    pair, manifest = setup_synth(tmp_path, make_rir_clip(rng, onset=onset,
                                                         seconds=seconds, rate=rate))
    dry = dsp.read_wav(pair.dry_path)   # leading silence for the trim to drop
    dsp.write_wav(pair.dry_path, dsp.AudioClip(np.concatenate([np.zeros(500), dry.samples]),
                                               dry.sample_rate), format="float32")
    ex = corpus.synthesize_example(pair, manifest)
    assert corpus.prepare_dry(pair.dry_path).shift >= 500
    got = (ex.input_logmag, ex.dry_target_logmag, ex.rir_target_mag,
           ex.reverb_target_mag, ex.dry_scale, ex.rir_scale, ex.reverb_scale)
    for a, b in zip(got, synthesize_by_pair(pair, manifest)):
        np.testing.assert_array_equal(a, b)


# --- cache files ---------------------------------------------------------

def test_example_cache_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    pair, manifest = setup_synth(tmp_path, make_rir_clip(rng))
    ex = corpus.synthesize_example(pair, manifest)
    path = tmp_path / corpus.pair_cache_name(pair)
    corpus.save_example(ex, path)
    assert path.read_bytes()[:4] == b"DRVB"
    back = corpus.load_example(path)
    for name in ("dry_target_logmag", "rir_target_mag", "reverb_target_mag"):
        assert getattr(back, name).dtype == np.float32, name   # as the cache stores them
    assert back.input_logmag.dtype == np.float32   # the bits a float32 forward reads
    assert np.abs(back.dry_target_logmag - ex.dry_target_logmag).max() < 1e-5
    assert np.abs(back.reverb_target_mag - ex.reverb_target_mag).max() < 1e-7
    # the log is taken in float64, of the widened target, then cast
    np.testing.assert_array_equal(
        back.input_logmag,
        np.log(np.maximum(back.reverb_target_mag.astype(np.float64), 1e-5)).astype(np.float32))


def test_a_loaded_desk_example_holds_its_arrays_as_float32(tmp_path):
    rng = np.random.default_rng(9)
    reverb = rng.uniform(0.01, 1.0, (corpus.INPUT_FRAMES, corpus.BINS))
    corpus.save_example(corpus.TrainingExample(
        input_logmag=np.log(reverb),
        dry_target_logmag=rng.uniform(-3.0, 0.0, reverb.shape),
        rir_target_mag=rng.uniform(0.0, 1.0, (corpus.RIR_FRAMES, corpus.BINS)),
        reverb_target_mag=reverb, dry_scale=1.0, rir_scale=1.0, reverb_scale=1.0),
        tmp_path / "ex.drvb")
    back = corpus.load_example(tmp_path / "ex.drvb")
    arrays = [getattr(back, name) for name in ("input_logmag", "dry_target_logmag",
                                                "rir_target_mag", "reverb_target_mag")]
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    assert all(a.base is None or a.base.nbytes == a.nbytes for a in arrays)   # no wider base
    assert sum(a.nbytes for a in arrays) <= 1.10e6


def test_example_cache_rejects_truncation(tmp_path):
    rng = np.random.default_rng(8)
    pair, manifest = setup_synth(tmp_path, make_rir_clip(rng))
    ex = corpus.synthesize_example(pair, manifest)
    path = tmp_path / "ex.drvb"
    corpus.save_example(ex, path)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(ParseError):
        corpus.load_example(path)


def cache_bytes(dry_log, rir_mag, reverb_mag):
    """Cache-file bytes for three arrays taken as is, with unit scales."""
    header = struct.pack("<4sI6I", corpus.CACHE_MAGIC, corpus.CACHE_VERSION,
                         *dry_log.shape, *rir_mag.shape, *reverb_mag.shape)
    arrays = b"".join(a.astype("<f4").tobytes() for a in (dry_log, rir_mag, reverb_mag))
    return header + arrays + struct.pack("<3f", 1.0, 1.0, 1.0)


@pytest.mark.parametrize("rir_bins, bad", [(4, np.nan), (4, np.inf), (5, 0.0)],
                         ids=["nan", "inf", "bin-mismatch"])
def test_example_cache_rejects_bad_content(tmp_path, rir_bins, bad):
    dry_log, reverb = np.zeros((6, 4)), np.ones((6, 4))
    dry_log[2, 1] = bad
    path = tmp_path / "ex.drvb"
    path.write_bytes(cache_bytes(dry_log, np.ones((3, rir_bins)), reverb))
    with pytest.raises(ParseError):
        corpus.load_example(path)


def test_example_cache_rejects_bad_version(tmp_path):
    rng = np.random.default_rng(9)
    pair, manifest = setup_synth(tmp_path, make_rir_clip(rng))
    ex = corpus.synthesize_example(pair, manifest)
    path = tmp_path / "ex.drvb"
    corpus.save_example(ex, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch):
        corpus.load_example(path)


def test_example_cache_names_a_checkpoint(tmp_path):
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, 1)
    with pytest.raises(ParseError, match="a checkpoint file"):
        corpus.load_example(path)


@st.composite
def cache_files(draw):
    """Example-cache bytes from fuzzed fields: magic, version and the six
    dimensions mostly as a valid file has them, else anything; a body of
    the size the header implies, else any length."""
    magic = draw(mostly(st.just(corpus.CACHE_MAGIC), st.binary(min_size=4, max_size=4)))
    version = draw(mostly(st.just(corpus.CACHE_VERSION), u32))
    frames, rir_frames, bins = (draw(st.integers(0, 3)) for _ in range(3))
    dims = [frames, bins, rir_frames, bins, frames, bins]
    if draw(st.booleans()):
        dims[draw(st.integers(0, 5))] = draw(u32)
    floats = (dims[0] * dims[1] + dims[2] * dims[3] + dims[4] * dims[5] + 3
              if max(dims) <= 3 else 0)
    body = draw(st.one_of(
        st.lists(st.floats(width=32) | st.floats(0, 1, width=32),
                 min_size=floats, max_size=floats).map(
            lambda xs: np.array(xs, dtype="<f4").tobytes()),
        st.binary(max_size=64)))
    return struct.pack("<4sI6I", magic, version, *dims) + body


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.binary(max_size=96) | cache_files())
def test_any_cache_bytes_load_as_an_example_or_a_dereverb_error(tmp_path, raw):
    path = tmp_path / "fuzz.drvb"
    path.write_bytes(raw)
    try:
        example = corpus.load_example(path)
    except DereverbError:
        return
    assert example.input_logmag.shape == example.reverb_target_mag.shape


# --- manifest persistence -------------------------------------------------

def test_manifest_round_trip(tmp_path):
    manifest = corpus.split_groups(fake_records([5, 3, 25] + [1] * 400),
                                   val_target=200, test_target=200, seed=1)
    manifest.pairs = [corpus.PairRecord("d.wav", manifest.rirs[0].id, 123)]
    path = tmp_path / "manifest.jsonl"
    corpus.save_manifest(manifest, path)
    back = corpus.load_manifest(path)
    assert back.version == manifest.version
    assert [(r.id, r.split, r.group_key) for r in back.rirs] == \
           [(r.id, r.split, r.group_key) for r in manifest.rirs]
    assert [(p.dry_path, p.rir_id, p.seed) for p in back.pairs] == \
           [(p.dry_path, p.rir_id, p.seed) for p in manifest.pairs]


def test_manifest_parse_error_carries_line(tmp_path):
    path = tmp_path / "m.jsonl"
    for bad in [b'this is not json',
                b'{"kind": "pair", "dry_path": "d", "rir_id": "a", "seed": 1, "extra": 0}',
                b'{"kind": "pair", "dry_path": "d", "rir_id": "a"}',
                b'{"kind": "pair", "dry_path": "d\xff", "rir_id": "a", "seed": 1}',
                *DEEP_JSON]:
        path.write_bytes(b'{"version": 1}\n{"kind": "rir", "id": "a", "path": "p", '
                         b'"group_key": "g", "split": "train", "duration_s": 1.0}\n'
                         + bad + b'\n')
        with pytest.raises(ParseError) as err:
            corpus.load_manifest(path)
        assert err.value.line == 3


def test_manifest_version_mismatch(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"version": 99}\n')
    with pytest.raises(VersionMismatch):
        corpus.load_manifest(path)


@pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
def test_manifest_version_must_be_an_integer(tmp_path, version):
    path = tmp_path / "m.jsonl"
    path.write_text(f'{{"version": {version}}}\n')
    with pytest.raises(VersionMismatch):
        corpus.load_manifest(path)


RIR_LINE = {"kind": "rir", "id": "a", "path": "p", "group_key": "g",
            "split": "train", "duration_s": 1.0}
PAIR_LINE = {"kind": "pair", "dry_path": "d", "rir_id": "a", "seed": 1}


def write_manifest_lines(path, *records):
    lines = [{"version": corpus.MANIFEST_VERSION}, *records]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


@pytest.mark.parametrize("record, key, value", [
    (RIR_LINE, "path", 3), (RIR_LINE, "id", None), (RIR_LINE, "group_key", ["g"]),
    (RIR_LINE, "split", ["train"]), (RIR_LINE, "split", "holdout"),
    (RIR_LINE, "duration_s", "1.0"), (RIR_LINE, "duration_s", math.nan),
    (RIR_LINE, "duration_s", math.inf), (RIR_LINE, "duration_s", True),
    (PAIR_LINE, "seed", True), (PAIR_LINE, "seed", 1.0), (PAIR_LINE, "seed", "1"),
    (PAIR_LINE, "dry_path", 0), (PAIR_LINE, "rir_id", {}),
])
def test_manifest_field_of_the_wrong_type_is_a_parse_error(tmp_path, record, key, value):
    path = tmp_path / "m.jsonl"
    write_manifest_lines(path, RIR_LINE, record)
    assert corpus.load_manifest(path)
    write_manifest_lines(path, RIR_LINE, {**record, key: value})
    with pytest.raises(ParseError) as err:
        corpus.load_manifest(path)
    assert err.value.line == 3


def test_manifest_duration_may_be_an_integer(tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifest_lines(path, {**RIR_LINE, "duration_s": 2})
    assert corpus.load_manifest(path).rirs[0].duration_s == 2


json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=4))
json_anything = json_scalars | st.lists(json_scalars, max_size=2) \
    | st.dictionaries(st.text(max_size=3), json_scalars, max_size=2)


@st.composite
def manifest_files(draw):
    """Manifest bytes from fuzzed lines: the header, then records whose kind,
    keys and field values are mostly as `save_manifest` writes them, else
    anything JSON can hold, or now and then a line nested too deep to parse."""
    header = draw(mostly(st.just({"version": corpus.MANIFEST_VERSION}),
                         st.dictionaries(st.just("version") | st.text(max_size=3),
                                         json_anything, max_size=2)))
    lines = [json.dumps(header).encode()]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(mostly(st.sampled_from(sorted(corpus.RECORD_KINDS)), json_anything))
        cls, _ = corpus.RECORD_KINDS.get(kind if isinstance(kind, str) else "",
                                         (corpus.PairRecord, None))
        record = {"kind": kind}
        for f in fields(cls):
            usual = {"str": st.text(max_size=4), "int": st.integers(),
                     "float": st.floats(0, 10)}[f.type]
            if f.name == "split":
                usual = st.sampled_from(corpus.SPLITS)
            record[f.name] = draw(mostly(usual, json_anything))
        if draw(st.integers(0, 7)) == 0:
            record.pop(draw(st.sampled_from(sorted(record))))
        lines.append(json.dumps(record).encode())
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(DEEP_JSON)))
    return b"".join(line + b"\n" for line in lines)


def is_finite_number(value):
    return type(value) is int or (type(value) is float and math.isfinite(value))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.binary(max_size=96) | manifest_files())
def test_any_manifest_bytes_load_well_typed_or_raise_a_dereverb_error(tmp_path, raw):
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(raw)
    try:
        manifest = corpus.load_manifest(path)
    except DereverbError:
        return
    assert type(manifest.version) is int
    for r in manifest.rirs:
        assert all(isinstance(v, str) for v in (r.id, r.path, r.group_key))
        assert r.split in corpus.SPLITS and is_finite_number(r.duration_s)
    for p in manifest.pairs:
        assert isinstance(p.dry_path, str) and isinstance(p.rir_id, str)
        assert type(p.seed) is int


# --- atomic writes -------------------------------------------------------

class DiskFull:
    """A file opened for writing that stores half of its first write and then
    fails as a full disk would."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def write_manifest(path, variant):
    manifest = small_manifest()
    manifest.pairs = [corpus.PairRecord("d.wav", manifest.rirs[0].id, variant)]
    corpus.save_manifest(manifest, path)


def write_example(path, variant):
    ones = np.full((3, 2), float(variant))
    corpus.save_example(corpus.TrainingExample(
        input_logmag=ones, dry_target_logmag=ones, rir_target_mag=ones,
        reverb_target_mag=ones, dry_scale=1.0, rir_scale=1.0, reverb_scale=1.0), path)


def write_checkpoint(path, variant):
    trainer.save_checkpoint(trainer.Checkpoint(
        kind="rir", config={}, epoch=variant, tensors={"w": np.full(3, float(variant))}),
        path)


def write_training_log(path, variant):
    trainer.write_log([(variant, "train", 1.0, 0.5, 0.25, 0.125)], path)


def write_metrics_csv(path, variant):
    report = evaluation.MetricsReport()
    report.add("x", "lsd_db", variant)
    report.to_csv(path)


@pytest.mark.parametrize("write", [write_manifest, write_example, write_checkpoint,
                                   write_training_log, write_metrics_csv],
                         ids=["manifest", "example", "checkpoint", "training-log",
                              "metrics-csv"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out"
    write(path, 1)
    before = path.read_bytes()
    real_open = builtins.open

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return DiskFull(fh) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", full_disk_open)
    monkeypatch.setattr(io, "open", full_disk_open)   # what pathlib's writers call
    with pytest.raises(OSError):
        write(path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
