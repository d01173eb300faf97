import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from dereverb import cli, corpus, dsp, models, trainer
from dereverb.errors import VersionMismatch
from conftest import make_dry_clip, make_rir_clip
from test_trainer import DEEP_JSON, poison_a_gradient


@pytest.fixture
def pipeline_corpus(tmp_path):
    """4 dry WAVs; 10 RIRs in 4 groups (3+3+2+2), enough for val 3 / test 3."""
    rng = np.random.default_rng(777)
    dry_dir = tmp_path / "dry"
    rir_dir = tmp_path / "rir"
    dry_dir.mkdir()
    rir_dir.mkdir()
    for i in range(4):
        dsp.write_wav(dry_dir / f"utt{i}.wav", make_dry_clip(rng, seconds=1.5),
                      format="float32")
    sizes = {"roomA": 3, "roomB": 3, "roomC": 2, "roomD": 2}
    for group, n in sizes.items():
        for mic in range(n):
            clip = make_rir_clip(rng, onset=int(rng.integers(0, 300)),
                                 decay_s=0.15, seconds=0.4)
            dsp.write_wav(rir_dir / f"{group}_m{mic}.wav", clip, format="float32")
    return {"dry": dry_dir, "rir": rir_dir, "root": tmp_path}


def run(args):
    return cli.main(args)


def prepare_args(pc, out, seed=1):
    return ["prepare", "--rir-dir", str(pc["rir"]), "--group-pattern",
            r"^(room[A-Z])", "--val", "3", "--test", "3", "--big-group", "20",
            "--seed", str(seed), "--out", str(out)]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ["--manifest", "--model", "--epochs", "--lr", "--batch",
                 "--weights", "--seed", "--out", "--scale"]:
        assert flag in out
    assert "default" in out


@pytest.mark.parametrize("command", ["prepare", "synth", "train", "gradcheck", "eval", "info"])
def test_only_synth_takes_threads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert ("--threads" in capsys.readouterr().out) == (command == "synth")


@pytest.mark.parametrize("command", ["prepare", "synth", "train", "gradcheck", "eval", "info"])
def test_only_commands_that_draw_random_numbers_take_seed(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert ("--seed" in capsys.readouterr().out) == (command not in ("eval", "info"))


def test_bad_threads_environment_only_stops_synth(monkeypatch, tmp_path):
    monkeypatch.setenv("DEREVERB_THREADS", "abc")
    assert run(["info", "--model", "rir"]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", "--manifest", "m", "--dry-dir", "d", "--out-dir", str(tmp_path)])
    assert exc.value.code == 64


def test_unknown_flag_exits_64():
    with pytest.raises(SystemExit) as exc:
        cli.main(["prepare", "--rir-dir", "x", "--bogus-flag", "1"])
    assert exc.value.code == 64


def test_prepare_missing_dir(tmp_path):
    code = run(["prepare", "--rir-dir", str(tmp_path / "nope"), "--out",
                str(tmp_path / "m.jsonl")])
    assert code == 1


def test_prepare_insufficient_data_exits_2(pipeline_corpus, tmp_path):
    code = run(["prepare", "--rir-dir", str(pipeline_corpus["rir"]),
                "--out", str(tmp_path / "m.jsonl")])  # default 200/200
    assert code == 2


def test_prepare_deterministic(pipeline_corpus, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run(prepare_args(pipeline_corpus, a)) == 0
    assert run(prepare_args(pipeline_corpus, b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_prepare_counts_printed(pipeline_corpus, tmp_path, capsys):
    out = tmp_path / "m.jsonl"
    assert run(prepare_args(pipeline_corpus, out)) == 0
    printed = capsys.readouterr().out
    assert "val 3" in printed and "test 3" in printed


def test_synth_writes_examples_and_manifest(pipeline_corpus, tmp_path):
    manifest_path = tmp_path / "m.jsonl"
    assert run(prepare_args(pipeline_corpus, manifest_path)) == 0
    out_dir = tmp_path / "cache"
    code = run(["synth", "--manifest", str(manifest_path), "--dry-dir",
                str(pipeline_corpus["dry"]), "--rirs-per-dry", "2",
                "--seed", "3", "--out-dir", str(out_dir)])
    assert code == 0
    caches = sorted(out_dir.glob("*.drvb"))
    assert len(caches) == 8
    assert all(p.read_bytes()[:4] == b"DRVB" for p in caches)
    updated = corpus.load_manifest(out_dir / "manifest.jsonl")
    assert len(updated.pairs) == 8


def test_synth_rerun_is_byte_identical(pipeline_corpus, tmp_path):
    manifest_path = tmp_path / "m.jsonl"
    assert run(prepare_args(pipeline_corpus, manifest_path)) == 0
    out_dir = tmp_path / "cache"
    args = ["synth", "--manifest", str(manifest_path), "--dry-dir",
            str(pipeline_corpus["dry"]), "--rirs-per-dry", "1",
            "--seed", "3", "--out-dir", str(out_dir)]
    assert run(args) == 0
    snapshot = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert run(args) == 0
    again = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert snapshot == again


def test_synth_threads_do_not_change_cache_bytes(pipeline_corpus, tmp_path):
    manifest_path = tmp_path / "m.jsonl"
    assert run(prepare_args(pipeline_corpus, manifest_path)) == 0
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert run(["synth", "--manifest", str(manifest_path), "--dry-dir",
                    str(pipeline_corpus["dry"]), "--out-dir", str(out),
                    "--threads", threads]) == 0
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(written[0]) == 9   # 4 dry clips x 2 RIRs, and the manifest
    assert written[0] == written[1]


@pytest.mark.parametrize("threads", ["0", "-1", "env0"])
def test_synth_rejects_threads_below_one(pipeline_corpus, tmp_path, monkeypatch, threads):
    manifest_path = tmp_path / "m.jsonl"
    assert run(prepare_args(pipeline_corpus, manifest_path)) == 0
    args = ["synth", "--manifest", str(manifest_path), "--dry-dir",
            str(pipeline_corpus["dry"]), "--out-dir", str(tmp_path / "cache")]
    if threads == "env0":
        monkeypatch.setenv("DEREVERB_THREADS", "0")
    else:
        args += ["--threads", threads]
    assert run(args) == 64
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_synth_prepares_each_source_once(pipeline_corpus, tmp_path, monkeypatch, threads):
    manifest_path = tmp_path / "m.jsonl"
    assert run(prepare_args(pipeline_corpus, manifest_path)) == 0
    calls = []   # list.append is atomic, so worker threads lose no count

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args[0]))
            return fn(*args, **kwargs)
        return wrapper

    np_rfft = np.fft.rfft

    def forward_fft(x, n=None, *args, **kwargs):
        if np.ndim(x) == 1:   # a convolution operand; STFT frames come 2-D
            calls.append(("rfft", n))
        return np_rfft(x, n, *args, **kwargs)

    for name in ("read_wav", "resample", "stft"):
        monkeypatch.setattr(dsp, name, counted(name, getattr(dsp, name)))
    monkeypatch.setattr(np.fft, "rfft", forward_fft)
    out = tmp_path / "cache"
    assert run(["synth", "--manifest", str(manifest_path), "--dry-dir",
                str(pipeline_corpus["dry"]), "--rirs-per-dry", "2", "--seed", "1",
                "--out-dir", str(out), "--threads", threads]) == 0
    monkeypatch.undo()

    manifest = corpus.load_manifest(out / "manifest.jsonl")
    dry = {p.dry_path for p in manifest.pairs}
    rirs = {manifest.rir_by_id(p.rir_id).path for p in manifest.pairs}
    read = sorted(str(c[1]) for c in calls if c[0] == "read_wav")
    assert read == sorted(dry | rirs)
    assert sum(c[0] == "resample" for c in calls) == len(dry) + len(rirs)
    assert sum(c[0] == "stft" for c in calls) == len(dry) + len(rirs) + len(manifest.pairs)
    # one forward FFT per operand and FFT length
    length = {path: len(dsp.read_wav(path)) for path in dry | rirs}
    operands = set()
    for p in manifest.pairs:
        d, r = length[p.dry_path], length[manifest.rir_by_id(p.rir_id).path]
        n = 1 << (d + r - 2).bit_length()   # next power of two >= d + r - 1
        operands |= {(p.dry_path, n), (p.rir_id, n)}
    assert sorted(c[1] for c in calls if c[0] == "rfft") == sorted(n for _, n in operands)

    for pair in manifest.pairs:   # the per-pair oracle
        oracle = tmp_path / "oracle.drvb"
        corpus.save_example(corpus.synthesize_example(pair, manifest), oracle)
        assert (out / corpus.pair_cache_name(pair)).read_bytes() == oracle.read_bytes()


def test_synth_empty_split_exits_2(pipeline_corpus, tmp_path):
    manifest_path = tmp_path / "m.jsonl"
    assert run(prepare_args(pipeline_corpus, manifest_path)) == 0
    # corrupt the manifest so no RIR is in val... use a split with members, then
    # ask for an impossible one by rewriting every split to train
    m = corpus.load_manifest(manifest_path)
    for r in m.rirs:
        if r.split == "val":
            r.split = "train"
    corpus.save_manifest(m, manifest_path)
    code = run(["synth", "--manifest", str(manifest_path), "--dry-dir",
                str(pipeline_corpus["dry"]), "--split", "val",
                "--out-dir", str(tmp_path / "c")])
    assert code == 2


def write_with_nan_sample(source, path):
    """Copy a float32 WAV written by dsp.write_wav to `path`, one sample made NaN."""
    raw = bytearray(source.read_bytes())
    raw[84:88] = np.array([np.nan], dtype="<f4").tobytes()   # sample 10 after the 44-byte header
    path.write_bytes(bytes(raw))


def test_non_finite_wav_is_skipped_by_prepare_and_stops_synth(pipeline_corpus, tmp_path):
    rir_dir, dry = pipeline_corpus["rir"], pipeline_corpus["dry"] / "utt0.wav"
    write_with_nan_sample(rir_dir / "roomA_m0.wav", rir_dir / "roomE_m0.wav")
    manifest_path = tmp_path / "m.jsonl"
    assert run(prepare_args(pipeline_corpus, manifest_path)) == 0
    ids = [r.id for r in corpus.load_manifest(manifest_path).rirs]
    assert len(ids) == 10 and "roomE_m0" not in ids
    write_with_nan_sample(dry, dry)
    code = run(["synth", "--manifest", str(manifest_path), "--dry-dir",
                str(pipeline_corpus["dry"]), "--out-dir", str(tmp_path / "cache")])
    assert code == 2
    assert not (tmp_path / "cache" / "manifest.jsonl").exists()


def test_bad_rir_stops_synth_before_any_example(pipeline_corpus, tmp_path):
    manifest_path = tmp_path / "m.jsonl"
    assert run(prepare_args(pipeline_corpus, manifest_path)) == 0
    args = ["synth", "--manifest", str(manifest_path), "--dry-dir",
            str(pipeline_corpus["dry"]), "--rirs-per-dry", "2", "--seed", "1"]
    assert run(args + ["--out-dir", str(tmp_path / "good")]) == 0
    manifest = corpus.load_manifest(tmp_path / "good" / "manifest.jsonl")
    # a RIR first needed after the first dry file's examples
    first = {p.rir_id for p in manifest.pairs if p.dry_path == manifest.pairs[0].dry_path}
    late = [p.rir_id for p in manifest.pairs if p.rir_id not in first]
    assert late
    path = Path(manifest.rir_by_id(late[-1]).path)
    write_with_nan_sample(path, path)
    assert run(args + ["--out-dir", str(tmp_path / "bad")]) == 2
    assert list((tmp_path / "bad").iterdir()) == []


def test_train_on_malformed_cache_or_manifest_exits_2(pipeline_corpus, tmp_path):
    manifest_path = tmp_path / "m.jsonl"
    assert run(prepare_args(pipeline_corpus, manifest_path)) == 0
    cache = tmp_path / "cache"
    assert run(["synth", "--manifest", str(manifest_path), "--dry-dir",
                str(pipeline_corpus["dry"]), "--out-dir", str(cache)]) == 0
    train = ["train", "--manifest", str(cache / "manifest.jsonl"), "--model", "rir",
             "--epochs", "1", "--out", str(tmp_path / "model.ckpt")]
    files = sorted(cache.glob("*.drvb"))
    originals = [f.read_bytes() for f in files]
    for f, raw in zip(files, originals):   # NaN as every file's first dry target value
        f.write_bytes(raw[:32] + np.array([np.nan], "<f4").tobytes() + raw[36:])
    assert run(train) == 2
    for f, raw in zip(files, originals):
        f.write_bytes(raw)
    manifest = cache / "manifest.jsonl"
    manifest.write_bytes(manifest.read_bytes().replace(b"utt0", b"utt\xff", 1))
    assert run(train) == 2


def test_manifest_field_of_the_wrong_type_exits_2(pipeline_corpus, tmp_path):
    manifest_path = tmp_path / "m.jsonl"
    assert run(prepare_args(pipeline_corpus, manifest_path)) == 0
    cache = tmp_path / "cache"
    assert run(["synth", "--manifest", str(manifest_path), "--dry-dir",
                str(pipeline_corpus["dry"]), "--out-dir", str(cache)]) == 0
    manifest_path.write_bytes(re.sub(rb'"path": "[^"]*"', b'"path": 3',
                                     manifest_path.read_bytes(), count=1))
    assert run(["synth", "--manifest", str(manifest_path), "--dry-dir",
                str(pipeline_corpus["dry"]), "--out-dir", str(tmp_path / "bad")]) == 2
    cached = cache / "manifest.jsonl"
    cached.write_bytes(cached.read_bytes().replace(b'"split": "train"',
                                                   b'"split": ["train"]', 1))
    assert run(["train", "--manifest", str(cached), "--model", "rir", "--epochs", "1",
                "--out", str(tmp_path / "model.ckpt")]) == 2


def test_train_loads_only_the_validation_examples_it_scores(pipeline_corpus, tmp_path,
                                                            monkeypatch):
    manifest_path = tmp_path / "m.jsonl"
    assert run(prepare_args(pipeline_corpus, manifest_path)) == 0
    cache = tmp_path / "cache"
    assert run(["synth", "--manifest", str(manifest_path), "--dry-dir",
                str(pipeline_corpus["dry"]), "--out-dir", str(cache)]) == 0
    assert run(["synth", "--manifest", str(cache / "manifest.jsonl"), "--dry-dir",
                str(pipeline_corpus["dry"]), "--split", "val", "--out-dir", str(cache)]) == 0
    manifest = corpus.load_manifest(cache / "manifest.jsonl")
    val = trainer.split_cache_paths(manifest, cache, "val")
    assert len(val) > 1
    loaded = []
    real_load = corpus.load_example

    def load(path):
        loaded.append(Path(path))
        return real_load(path)

    monkeypatch.setattr(corpus, "load_example", load)
    monkeypatch.setattr(trainer, "VAL_LIMIT", 1)
    assert run(["train", "--manifest", str(cache / "manifest.jsonl"), "--model", "rir",
                "--epochs", "1", "--out", str(tmp_path / "model.ckpt")]) == 0
    assert [p for p in loaded if p in val] == val[:1]
    rows = (tmp_path / "model.csv").read_text().splitlines()
    assert [row.split(",")[1] for row in rows[1:]] == ["train", "val"]


def test_non_finite_gradient_exits_3(pipeline_corpus, tmp_path, monkeypatch, capsys):
    manifest_path = tmp_path / "m.jsonl"
    assert run(prepare_args(pipeline_corpus, manifest_path)) == 0
    cache = tmp_path / "cache"
    assert run(["synth", "--manifest", str(manifest_path), "--dry-dir",
                str(pipeline_corpus["dry"]), "--out-dir", str(cache)]) == 0
    name = poison_a_gradient(monkeypatch, lambda params: params[0])
    assert run(["train", "--manifest", str(cache / "manifest.jsonl"), "--model", "rir",
                "--epochs", "1", "--out", str(tmp_path / "model.ckpt")]) == 3
    assert f"gradient of {name()} is not finite" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def full_pipeline(pc, root, seed):
    manifest_path = root / "m.jsonl"
    assert run(prepare_args(pc, manifest_path, seed=seed)) == 0
    cache = root / "cache"
    assert run(["synth", "--manifest", str(manifest_path), "--dry-dir",
                str(pc["dry"]), "--rirs-per-dry", "2", "--seed", str(seed),
                "--out-dir", str(cache)]) == 0
    ckpt = root / "model.ckpt"
    assert run(["train", "--manifest", str(cache / "manifest.jsonl"),
                "--model", "rir", "--epochs", "2", "--batch", "4",
                "--lr", "1e-4", "--seed", str(seed), "--out", str(ckpt)]) == 0
    return manifest_path, cache, ckpt


def test_full_pipeline_and_eval(pipeline_corpus, tmp_path):
    root = tmp_path / "run"
    root.mkdir()
    manifest_path, cache, ckpt = full_pipeline(pipeline_corpus, root, seed=5)
    assert ckpt.exists() and ckpt.with_suffix(".csv").exists()

    report = root / "report.csv"
    code = run(["eval", "--ckpt", str(ckpt), "--manifest",
                str(cache / "manifest.jsonl"), "--split", "train",
                "--report", str(report)])
    assert code == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "example_id,metric,value"
    assert any(line.startswith("__mean__,") for line in lines)


def test_eval_empty_split_exits_2(pipeline_corpus, tmp_path):
    root = tmp_path / "run"
    root.mkdir()
    _, cache, ckpt = full_pipeline(pipeline_corpus, root, seed=6)
    code = run(["eval", "--ckpt", str(ckpt), "--manifest",
                str(cache / "manifest.jsonl"), "--split", "test",
                "--report", str(root / "r.csv")])
    assert code == 2


def test_train_epochs_zero_rejected(pipeline_corpus, tmp_path):
    code = run(["train", "--manifest", str(tmp_path / "missing.jsonl"),
                "--epochs", "0"])
    assert code in (1, 64)  # validation fires before/at manifest loading
    root = tmp_path / "run"
    root.mkdir()
    manifest_path, cache, _ = full_pipeline(pipeline_corpus, root, seed=7)
    code = run(["train", "--manifest", str(cache / "manifest.jsonl"),
                "--epochs", "0"])
    assert code == 64


def test_train_rejects_non_finite_or_negative_settings(pipeline_corpus, tmp_path):
    manifest_path = tmp_path / "m.jsonl"
    assert run(prepare_args(pipeline_corpus, manifest_path, seed=9)) == 0
    cache = tmp_path / "cache"
    assert run(["synth", "--manifest", str(manifest_path), "--dry-dir",
                str(pipeline_corpus["dry"]), "--rirs-per-dry", "1", "--seed", "9",
                "--out-dir", str(cache)]) == 0
    for flags in (["--weights", "nan,1,1"], ["--lr", "inf"], ["--checkpoint-every", "-1"],
                  ["--model", "rir", "--weights", "0,0,0"]):
        out = tmp_path / "model.ckpt"
        assert run(["train", "--manifest", str(cache / "manifest.jsonl"), "--model", "joint",
                    "--out", str(out), *flags]) == 64
        assert not out.exists()


def test_train_weights_semantics(pipeline_corpus, tmp_path):
    root = tmp_path / "run"
    root.mkdir()
    manifest_path, cache, _ = full_pipeline(pipeline_corpus, root, seed=8)
    ckpt = root / "dry_only.ckpt"
    code = run(["train", "--manifest", str(cache / "manifest.jsonl"),
                "--model", "joint", "--weights", "1,0,0", "--epochs", "1",
                "--batch", "8", "--seed", "8", "--out", str(ckpt)])
    assert code == 0
    log = ckpt.with_suffix(".csv").read_text().strip().splitlines()
    epoch, split, total, l_dry, l_rir, l_rec = log[1].split(",")
    assert float(total) == pytest.approx(float(l_dry))
    assert float(l_rir) > 0  # logged but unweighted


def test_gradcheck_cli_passes_all_tiny_models():
    assert run(["gradcheck", "--model", "all", "--seed", "1"]) == 0


def test_info_paper_rir_prints_stack(capsys):
    assert run(["info", "--model", "rir", "--scale", "paper"]) == 0
    out = capsys.readouterr().out
    assert "(9x1, 16), (14x1, 32), (27x1, 64), (27x1, 32), (27x1, 16), " \
           "(28x1, 4), (187x1, 126)" in out
    assert "  conv0: 313x257x1 input, columns\n  conv1: 305x257x16 input, spectral\n" in out
    assert "  conv5: 214x257x16 input, spectral\n  conv6: 187x257x4 input, columns\n" in out
    assert "parameters:" in out


# the conv layers `info` lists for a fresh desk model, with the path of each
INFO_CONV_LAYERS = {
    "rir": ["conv0: 313x257x1 input, columns", "conv1: 305x257x8 input, spectral",
            "conv2: 292x257x8 input, spectral", "conv3: 266x257x8 input, spectral",
            "conv4: 240x257x8 input, spectral", "conv5: 214x257x8 input, spectral",
            "conv6: 187x257x4 input, columns"],
    "joint": ["trunk0: 313x257x1 input, columns", "trunk1: 305x257x8 input, spectral",
              "(trunk ends: the dry head reads trunk1)",
              "rir0: 292x257x8 input, spectral", "rir1: 266x257x8 input, spectral",
              "rir2: 240x257x8 input, spectral", "rir3: 214x257x8 input, spectral",
              "rir4: 187x257x4 input, columns"],
}


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_info_fresh_model_of_each_kind(kind, capsys):
    assert run(["info", "--model", kind]) == 0
    out = capsys.readouterr().out
    assert "parameters:" in out
    assert ("conv stack: " in out) == (kind in INFO_CONV_LAYERS)
    listed = [line.strip() for line in out.splitlines()
              if line.endswith((", columns", ", spectral")) or "trunk ends" in line]
    assert listed == INFO_CONV_LAYERS.get(kind, [])


def test_info_malformed_checkpoint_config_exits_2(tmp_path, capsys):
    model = models.build_tiny_model("joint", np.random.default_rng(0))
    ckpt = trainer.checkpoint_from_model(model, 1)
    del ckpt.config["hidden"]
    trainer.save_checkpoint(ckpt, tmp_path / "m.ckpt")
    assert run(["info", "--ckpt", str(tmp_path / "m.ckpt")]) == 2
    assert "hidden" in capsys.readouterr().err


def test_info_malformed_checkpoint_tensor_entry_exits_2(tmp_path, capsys):
    from test_trainer import rewrite_metadata
    model = models.build_tiny_model("rir", np.random.default_rng(0))
    path = tmp_path / "m.ckpt"
    trainer.save_checkpoint(trainer.checkpoint_from_model(model, 1), path)
    rewrite_metadata(path, lambda meta: meta["tensors"].update({"conv0.bias": [-1]}))
    assert run(["info", "--ckpt", str(path)]) == 2
    assert "tensor 'conv0.bias': bad shape [-1]" in capsys.readouterr().err


# each former format's metadata, with one small tensor: v1 and v2 keep Adam's
# settings in an `adam` object and list the tensors, v3 adds `step` and
# `rng_state`; all three prefix parameters and moments with p., m. and v.
RNG_STATE = np.random.default_rng(0).bit_generator.state
ADAM = {"t": 1, "lr": 1e-4, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
FORMER_METADATA = {
    1: {"kind": "rir", "config": {}, "epoch": 1, "adam": ADAM, "rng_state": RNG_STATE,
        "tensors": [{"name": "p.w", "shape": [2], "dtype": "f4"}]},
    2: {"kind": "rir", "config": {}, "epoch": 1, "adam": ADAM, "rng_state": RNG_STATE,
        "tensors": [{"name": "p.w", "shape": [2]}]},
    3: {"kind": "rir", "config": {}, "epoch": 1, "step": 1, "rng_state": RNG_STATE,
        "tensors": {"p.w": [2], "m.w": [2], "v.w": [2]}},
}


@pytest.mark.parametrize("version", sorted(FORMER_METADATA))
def test_info_former_checkpoint_version_exits_2(tmp_path, capsys, version):
    meta = json.dumps(FORMER_METADATA[version], sort_keys=True).encode()
    path = tmp_path / "m.ckpt"
    path.write_bytes(struct.pack("<4sIQ", trainer.CKPT_MAGIC, version, len(meta)) + meta
                     + bytes(24))
    with pytest.raises(VersionMismatch):
        trainer.load_checkpoint(path)
    assert run(["info", "--ckpt", str(path)]) == 2
    assert f"checkpoint version {version}" in capsys.readouterr().err


@pytest.mark.parametrize("body", DEEP_JSON, ids=["objects", "lists"])
def test_deeply_nested_checkpoint_or_manifest_exits_2(tmp_path, capsys, body):
    path = tmp_path / "m.ckpt"
    path.write_bytes(struct.pack("<4sIQ", trainer.CKPT_MAGIC, trainer.CKPT_VERSION,
                                 len(body)) + body)
    assert run(["info", "--ckpt", str(path)]) == 2
    assert "bad metadata" in capsys.readouterr().err
    manifest = tmp_path / "m.jsonl"
    manifest.write_bytes(json.dumps({"version": corpus.MANIFEST_VERSION}).encode()
                         + b"\n" + body + b"\n")
    (tmp_path / "dry").mkdir()
    assert run(["synth", "--manifest", str(manifest), "--dry-dir", str(tmp_path / "dry"),
                "--out-dir", str(tmp_path / "out")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_info_cache_file_is_not_a_checkpoint(tmp_path, capsys):
    example = cli._tiny_loss_example(np.random.default_rng(0), (8, 5), 4)
    corpus.save_example(example, tmp_path / "ex.drvb")
    assert run(["info", "--ckpt", str(tmp_path / "ex.drvb")]) == 2
    assert "not a checkpoint" in capsys.readouterr().err


def test_info_requires_source():
    assert run(["info"]) == 64


def test_resolved_config_printed(capsys):
    run(["info", "--model", "rir"])
    out = capsys.readouterr().out
    assert out.startswith("config: ")
