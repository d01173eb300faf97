"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Numeric tolerances are asserted exactly as pinned; the elapsed time is
printed next to each so budget regressions are visible.
"""

import time

import numpy as np
import pytest

from dereverb import autodiff as ad
from dereverb import cli, corpus, dsp, evaluation, models, nn, trainer
from conftest import make_dry_clip, make_rir_clip
from test_cli import run_cli_in_a_fresh_process
from test_corpus import SPLIT_SIZES, fake_records
from test_models import naive_frame_convolve


class Criterion:
    def __init__(self, name):
        self.name = name
        self.start = time.time()

    def finish(self, ok, detail=""):
        elapsed = time.time() - self.start
        print(f"[{'PASS' if ok else 'FAIL'}] {self.name} ({elapsed:.2f}s) {detail}")
        assert ok, f"{self.name}: {detail}"


def test_criterion_1_shape_closure():
    c = Criterion("1 shape closure")
    extents = [313]
    for kt, _, _ in models.PAPER_RIR_LAYERS:
        extents.append(extents[-1] - kt + 1)
    chain_ok = extents == [313, 305, 292, 266, 240, 214, 187, 1]

    clip = dsp.AudioClip(np.random.default_rng(0).uniform(-0.5, 0.5, 80000), 16000)
    logmag = dsp.log_magnitude(dsp.normalized_magnitude(dsp.stft(clip))[0])
    stft_ok = logmag.shape == (313, 257)

    model = models.build_model("rir", scale="paper", rng=np.random.default_rng(1))
    out = model.forward(logmag)["rir"]
    out_ok = out.data.shape == (126, 257)
    c.finish(chain_ok and stft_ok and out_ok,
             f"chain {extents}, stft {logmag.shape}, estimator {out.data.shape}")


def test_criterion_2_gradient_suite():
    c = Criterion("2 gradient suite")
    rng = np.random.default_rng(2)
    worst = {}

    x = ad.Tensor(rng.standard_normal((6, 5, 2)))
    k = ad.Tensor(rng.standard_normal((3, 2, 2, 3)))
    b = ad.Tensor(rng.standard_normal(3))
    t = rng.standard_normal((4, 4, 3))
    worst["conv2d"] = nn.grad_check(lambda: ad.mse(nn.conv2d(x, k, b), t), [x, k, b])

    xt = ad.Tensor(rng.standard_normal((4, 3, 3)))
    kt = ad.Tensor(rng.standard_normal((3, 2, 2, 3)))
    bt = ad.Tensor(rng.standard_normal(2))
    tt = rng.standard_normal((9, 6, 2))
    worst["conv2d_transposed"] = nn.grad_check(
        lambda: ad.mse(nn.conv2d_transposed(xt, kt, bt, stride=(2, 2)), tt),
        [xt, kt, bt])

    for name, op in [("elu", ad.elu), ("relu", ad.relu)]:
        data = rng.standard_normal(60)
        data = data[np.abs(data) > 1e-3]  # off the kink
        v = ad.Tensor(data)
        coeff = rng.standard_normal(len(data))
        worst[name] = nn.grad_check(
            lambda: ad.mse(op(v), coeff), [v])

    p = nn.GruParams(4, 3, rng)
    gx = ad.Tensor(rng.standard_normal(4))
    gh = ad.Tensor(rng.standard_normal(3))
    gt = rng.standard_normal(3)
    worst["gru_cell"] = nn.grad_check(
        lambda: ad.mse(nn.gru_cell(gx, gh, p), gt), [gx, gh, *p.tensors()])

    fwd = nn.GruParams(3, 2, rng)
    bwd = nn.GruParams(3, 2, rng)
    seq = ad.Tensor(rng.standard_normal((5, 3)))
    st = rng.standard_normal((5, 4))
    worst["bigru"] = nn.grad_check(
        lambda: ad.mse(nn.bigru_layer(seq, fwd, bwd), st),
        [seq, *fwd.tensors(), *bwd.tensors()])

    lw = ad.Tensor(rng.standard_normal((4, 3)))
    lb = ad.Tensor(rng.standard_normal(3))
    lx = ad.Tensor(rng.standard_normal((6, 4)))
    lt = rng.standard_normal((6, 3))
    worst["linear"] = nn.grad_check(
        lambda: ad.mse(nn.linear(lx, lw, lb), lt), [lx, lw, lb])

    ma = ad.Tensor(rng.standard_normal((4, 5)))
    mb = ad.Tensor(rng.standard_normal((4, 5)))
    worst["mse"] = nn.grad_check(lambda: ad.mse(ma, mb), [ma, mb])

    from test_models import tiny_example
    data_rng = np.random.default_rng(3)
    for kind in models.MODEL_KINDS:
        model = models.build_tiny_model(kind, np.random.default_rng(4))
        shape = models.MODELS[kind].tiny_input
        xin = data_rng.standard_normal(shape)
        if kind == "joint":
            example = tiny_example(data_rng, consistent=False)

            def loss_fn():
                est = model.forward(example.input_logmag)
                return models.joint_loss(est["dry"], est["rir"], example)[0]

            err = nn.grad_check(loss_fn, [p for _, p in model.params()], eps=1e-4)
        elif kind == "rir":
            target = data_rng.uniform(0, 1, (models.TINY_RIR_FRAMES, shape[1]))
            err = nn.grad_check(lambda: ad.mse(model.forward(xin)["rir"], target),
                                [p for _, p in model.params()])
        else:
            target = data_rng.standard_normal(shape)
            err = nn.grad_check(lambda: ad.mse(model.forward(xin)["dry"], target),
                                [p for _, p in model.params()])
        worst[f"model:{kind}"] = err

    bad = {k: v for k, v in worst.items() if v >= 1e-5}
    top = max(worst, key=worst.get)
    c.finish(not bad, f"worst {top} = {worst[top]:.2e}" +
             (f", failing: {bad}" if bad else ""))


def test_criterion_3_dsp_oracles(tmp_path):
    c = Criterion("3 dsp oracles")
    rng = np.random.default_rng(5)
    conv_ok = True
    for _ in range(50):
        x = rng.standard_normal(int(rng.integers(1, 500)))
        h = rng.standard_normal(int(rng.integers(1, 300)))
        a = np.convolve(x, h)
        b = dsp.convolve_fft(x, h)
        if np.abs(a - b).max() > 1e-9 * max(np.abs(a).max(), 1e-30):
            conv_ok = False

    istft_ok = True
    for n in [16000, 12345, 256 * 30]:
        sig = rng.standard_normal(n)
        back = dsp.istft(dsp.stft(dsp.AudioClip(sig, 16000)), length=n)
        if np.abs(back.samples - sig).max() >= 1e-6:
            istft_ok = False

    dry_path = tmp_path / "dry.wav"
    rir_path = tmp_path / "delta.wav"
    dsp.write_wav(dry_path, make_dry_clip(np.random.default_rng(6), seconds=2.0),
                  format="float32")
    delta = np.zeros(800)
    delta[0] = 1.0
    dsp.write_wav(rir_path, dsp.AudioClip(delta, 16000), format="float32")
    manifest = corpus.CorpusManifest(rirs=[corpus.RirRecord(
        id="d", path=str(rir_path), group_key="g", split="train", duration_s=0.05)])
    example = corpus.synthesize_example(
        corpus.PairRecord(str(dry_path), "d", 0), manifest)
    delta_err = np.abs(example.input_logmag - example.dry_target_logmag).max()

    c.finish(conv_ok and istft_ok and delta_err < 1e-6,
             f"conv {conv_ok}, istft {istft_ok}, delta-RIR err {delta_err:.1e}")


def test_criterion_4_reconstruction_oracle():
    c = Criterion("4 reconstruction oracle")
    rng = np.random.default_rng(7)
    dry = rng.uniform(0, 1, (313, 257))
    ident = np.zeros((126, 257))
    ident[0] = 1.0
    identity_ok = np.array_equal(models.reconstruct_reverb(ident, dry).data, dry)

    shift = np.zeros((126, 257))
    shift[5] = 1.0
    shifted = models.reconstruct_reverb(shift, dry).data
    shift_ok = np.all(shifted[:5] == 0) and np.array_equal(shifted[5:], dry[:-5])

    naive_ok = True
    worst = 0.0
    for _ in range(20):
        t = int(rng.integers(5, 40))
        k = int(rng.integers(1, 12))
        bins = int(rng.integers(1, 9))
        rir = rng.uniform(0, 1, (k, bins))
        d = rng.uniform(0, 1, (t, bins))
        got = models.reconstruct_reverb(rir, d).data
        err = np.abs(got - naive_frame_convolve(rir, d)).max()
        worst = max(worst, err)
        if err >= 1e-12:
            naive_ok = False
    c.finish(identity_ok and shift_ok and naive_ok,
             f"identity {identity_ok}, shift {shift_ok}, naive err {worst:.1e}")


def test_criterion_5_split_invariants():
    c = Criterion("5 split invariants")
    manifest = corpus.split_groups(fake_records(SPLIT_SIZES),
                                   val_target=200, test_target=200, seed=11)
    counts = manifest.split_counts()
    exact = counts["val"] == 200 and counts["test"] == 200

    splits_per_group = {}
    retained = {}
    for r in manifest.rirs:
        if r.split == "discarded":
            continue
        splits_per_group.setdefault(r.group_key, set()).add(r.split)
        retained[r.group_key] = retained.get(r.group_key, 0) + 1
    no_straddle = all(len(s) == 1 for s in splits_per_group.values())
    cap_ok = max(retained.values()) <= 100
    big_to_train = all(
        next(iter(splits_per_group[g])) == "train"
        for g, n in retained.items() if n > 20)
    c.finish(exact and no_straddle and cap_ok and big_to_train,
             f"counts {dict(counts)}")


def test_criterion_6_overfit_smoke():
    c = Criterion("6 overfit smoke")
    rng = np.random.default_rng(50)
    frames, bins, k = 8, 5, 4
    dry_log = rng.uniform(-3.0, 0.0, (frames, bins))
    rir = rng.uniform(0.0, 1.0, (k, bins)) * np.exp(-np.arange(k) / 2.0)[:, None]
    rir[0] = 1.0
    reverb = models._frame_convolve(rir, np.exp(dry_log))
    example = corpus.TrainingExample(
        input_logmag=np.log(np.maximum(reverb, 1e-5)),
        dry_target_logmag=dry_log, rir_target_mag=rir,
        reverb_target_mag=reverb,
        dry_scale=1.0, rir_scale=1.0, reverb_scale=1.0)

    model = models.build_tiny_model("joint", np.random.default_rng(0))
    opt = nn.Adam([p for _, p in model.params()], lr=1e-3)
    first = last = None
    for _ in range(500):
        opt.zero_grad()
        parts = trainer.example_losses(model, example, (1.0, 1.0, 1.0))
        values = [float(p.data) for p in parts]
        if first is None:
            first = values
        ad.backward(parts[0])
        opt.step()
        last = values
    total_drop = 1 - last[0] / first[0]
    comp_drops = [1 - l / f for f, l in zip(first[1:], last[1:])]
    c.finish(total_drop >= 0.9 and all(d >= 0.5 for d in comp_drops),
             f"total drop {total_drop:.1%}, components "
             f"{[f'{d:.1%}' for d in comp_drops]}")


def test_criterion_7_pipeline_determinism(tmp_path):
    c = Criterion("7 determinism")
    rng = np.random.default_rng(999)
    dry_dir = tmp_path / "dry"
    rir_dir = tmp_path / "rir"
    dry_dir.mkdir()
    rir_dir.mkdir()
    for i in range(4):
        dsp.write_wav(dry_dir / f"utt{i}.wav", make_dry_clip(rng, seconds=1.5),
                      format="float32")
    for group, n in [("roomA", 3), ("roomB", 3), ("roomC", 2), ("roomD", 2)]:
        for mic in range(n):
            clip = make_rir_clip(rng, onset=int(rng.integers(0, 300)),
                                 decay_s=0.15, seconds=0.4)
            dsp.write_wav(rir_dir / f"{group}_m{mic}.wav", clip, format="float32")

    def commands(root):
        """prepare, synth and train command lines writing under `root`."""
        root.mkdir()
        manifest, cache = root / "manifest.jsonl", root / "cache"
        return [["prepare", "--rir-dir", str(rir_dir),
                 "--group-pattern", r"^(room[A-Z])", "--val", "3",
                 "--test", "3", "--seed", "21", "--out", str(manifest)],
                ["synth", "--manifest", str(manifest), "--dry-dir",
                 str(dry_dir), "--rirs-per-dry", "2", "--seed", "21",
                 "--out-dir", str(cache)],
                ["train", "--manifest", str(cache / "manifest.jsonl"),
                 "--model", "joint", "--epochs", "3", "--batch", "4",
                 "--seed", "21", "--out", str(root / "model.ckpt")]]

    def written(root):
        ckpt = root / "model.ckpt"
        return {p.name: p.read_bytes() for p in sorted(
            [root / "manifest.jsonl", *(root / "cache").iterdir(), ckpt,
             ckpt.with_suffix(".csv")])}

    def pipeline(root):
        for argv in commands(root):
            assert cli.main(argv) == 0
        return written(root)

    a = pipeline(tmp_path / "runA")
    b = pipeline(tmp_path / "runB")
    # once more in a fresh process, where scipy.fft is first imported by the
    # first spectral layer of training. It inherits the one BLAS thread that
    # conftest pins for the session: across thread counts the trained bits
    # differ.
    runs = run_cli_in_a_fresh_process(commands(tmp_path / "runC"))
    assert [code for code, _ in runs] == [0, 0, 0]
    assert [("scipy.fft" in loaded) for _, loaded in runs] == [False, False, True]
    fresh = written(tmp_path / "runC")
    same_names = sorted(a) == sorted(b) == sorted(fresh)
    diffs = [name for name in a if not a[name] == b.get(name) == fresh.get(name)]
    n_examples = sum(1 for name in a if name.endswith(".drvb"))
    c.finish(same_names and not diffs,
             f"{n_examples} cached examples, three runs (one in a fresh process), "
             f"differing files: {diffs}")


def test_criterion_8_t60_closed_form():
    c = Criterion("8 T60 closed form")
    frames = np.arange(126, dtype=np.float64)
    t1 = evaluation.t60_estimate(-1.0 * frames, hop_s=0.016)
    t2 = evaluation.t60_estimate(-0.5 * frames, hop_s=0.016)
    ok = abs(t1 - 0.96) <= 0.02 * 0.96 and abs(t2 - 1.92) <= 0.02 * 1.92
    c.finish(ok, f"slope -1 -> {t1:.4f}s, slope -0.5 -> {t2:.4f}s")
