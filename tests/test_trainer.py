import contextlib
import dataclasses
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dereverb import autodiff as ad
from dereverb import corpus, dsp, evaluation, models, nn, trainer
from dereverb.errors import (
    DereverbError,
    NonFiniteLoss,
    ParseError,
    VersionMismatch,
)
from test_dsp import mostly, u32
from test_models import tiny_example


def tiny_config(**kw):
    defaults = dict(model="joint", epochs=3, batch_size=2, lr=1e-3, seed=5)
    defaults.update(kw)
    return trainer.TrainConfig(**defaults)


def tiny_examples(n, seed=0, consistent=True):
    rng = np.random.default_rng(seed)
    return [tiny_example(rng, consistent=consistent) for _ in range(n)]


@pytest.fixture
def tiny_models(monkeypatch):
    import dereverb.models as m
    monkeypatch.setattr(m, "build_model",
                        lambda kind, scale="desk", rng=None: m.build_tiny_model(kind, rng))


def reachable_leaves(root):
    """Every parentless tensor the graph of `root` reaches."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return [t for t in seen.values() if not t.parents]


def one_step(kind, wrap_input):
    """A tiny model of `kind` after one backward pass of its training loss,
    and the leaves that loss's graph reached, collected before the pass
    released the graph; the input is a raw array, or a Tensor leaf when
    `wrap_input`."""
    model = models.build_tiny_model(kind, np.random.default_rng(3))
    example = tiny_example(np.random.default_rng(4), consistent=False)
    if wrap_input:
        example.input_logmag = ad.Tensor(example.input_logmag)
    total = trainer.example_losses(model, example, (0.5, 1.0, 2.0))[0]
    leaves = reachable_leaves(total)
    ad.backward(total)
    return model, leaves, example.input_logmag


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_only_parameters_get_gradients(kind):
    model, leaves, _ = one_step(kind, wrap_input=False)
    wrapped, _, x = one_step(kind, wrap_input=True)
    for (name, p), (_, q) in zip(model.params(), wrapped.params()):
        assert np.array_equal(p.grad, q.grad), name
    assert x.grad is not None and x.grad.shape == x.shape
    with_grad = {id(t) for t in leaves if t.grad is not None}
    assert with_grad == {id(p) for _, p in model.params()}


def desk_example(rng):
    """A training example of the cache's full shapes."""
    reverb = rng.uniform(0.01, 1.0, (corpus.INPUT_FRAMES, corpus.BINS))
    return corpus.TrainingExample(
        input_logmag=np.log(reverb),
        dry_target_logmag=rng.uniform(-3.0, 0.0, reverb.shape),
        rir_target_mag=rng.uniform(0.0, 1.0, (corpus.RIR_FRAMES, corpus.BINS)),
        reverb_target_mag=reverb,
        dry_scale=1.0, rir_scale=1.0, reverb_scale=1.0)


def train_heap_peak(config, examples):
    """tracemalloc's heap peak over `trainer.train(config, examples)`."""
    tracemalloc.start()
    try:
        trainer.train(config, examples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["rir", "joint"])
def test_training_holds_one_example_graph_at_a_time(kind):
    """Backward frees each example's graph before the next forward, so the
    heap peak of one batch of four is that of one example."""
    rng = np.random.default_rng(0)
    examples = [desk_example(rng) for _ in range(4)]
    config = trainer.TrainConfig(model=kind, epochs=1, batch_size=4, seed=0)
    peaks = [train_heap_peak(config, examples[:n]) for n in (1, 4)]
    assert peaks[1] <= 1.05 * peaks[0], [f"{p / 1e6:.1f} MB" for p in peaks]


@pytest.mark.parametrize("kind", ["rir", "joint", "dry-unet"])
def test_training_holds_each_conv_activation_once(kind, monkeypatch):
    """conv2d's activation overwrites the convolution's output, so a step
    holds one buffer per conv layer. Applied out of place, the activation
    keeps every pre-activation on the graph until backward, which must raise
    the heap peak by at least half of those buffers' bytes."""
    examples = [desk_example(np.random.default_rng(0))]
    config = trainer.TrainConfig(model=kind, epochs=1, batch_size=1, seed=0)
    once = train_heap_peak(config, examples)
    conv2d, kept = nn.conv2d, []

    def keeping(*args, activation=None, **kwargs):
        out = conv2d(*args, **kwargs)
        kept.append(out.data.nbytes)
        return out if activation is None else getattr(ad, activation)(out)

    monkeypatch.setattr(nn, "conv2d", keeping)
    twice = train_heap_peak(config, examples)
    assert twice - once >= 0.5 * sum(kept), \
        [f"{b / 1e6:.1f} MB" for b in (once, twice, sum(kept))]


def keeping_padded_inputs(kept):
    """nn.conv2d that, when "same"-padded, keeps a padded copy of its input
    until its rule has run, as a rule reading the padded input would."""
    conv2d = nn.conv2d

    def keeping(x, kernel, bias=None, stride=(1, 1), padding="valid", activation=None):
        out = conv2d(x, kernel, bias, stride, padding, activation)
        if padding == "same":
            pads = [nn._same_padding(n, k, s)
                    for n, k, s in zip(x.data.shape, kernel.data.shape, stride)]
            copy = np.pad(x.data, [(p // 2, p - p // 2) for p in pads] + [(0, 0)])
            kept.append(copy.nbytes)
            conv = out.parents[0] if activation else out
            rule = conv.bwd
            conv.bwd = lambda g, copy=copy: rule(g)
        return out

    return keeping


def out_of_place_elu(kept):
    """autodiff._elu_into that writes into a fresh buffer, as ad.elu does."""
    elu_into = ad._elu_into

    def fresh(a, out):
        kept.append(out.nbytes)
        return elu_into(a, np.empty_like(a.data))

    return fresh


@pytest.mark.parametrize("mutant", ["padded-input-kept", "decoder-elu-out-of-place"])
def test_unet_training_holds_its_padded_inputs_and_decoder_elus_once(mutant, monkeypatch):
    """A same-padded conv keeps only its unpadded input, and the U-net
    decoder's ELU overwrites its transposed conv's output. A mutant that
    keeps the padded copy, or writes the ELU into a fresh buffer, must raise
    the heap peak by at least half of the bytes it keeps."""
    examples = [desk_example(np.random.default_rng(0))]
    config = trainer.TrainConfig(model="dry-unet", epochs=1, batch_size=1, seed=0)
    once, kept = train_heap_peak(config, examples), []
    if mutant == "padded-input-kept":
        monkeypatch.setattr(nn, "conv2d", keeping_padded_inputs(kept))
    else:
        monkeypatch.setattr(ad, "_elu_into", out_of_place_elu(kept))
    twice = train_heap_peak(config, examples)
    assert len(kept) == (4 if mutant == "padded-input-kept" else 3)   # levels; decoder ELUs
    assert twice - once >= 0.5 * sum(kept), \
        [f"{b / 1e6:.2f} MB" for b in (once, twice, sum(kept))]


TARGETS = ("dry_target_logmag", "rir_target_mag", "reverb_target_mag")


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_a_loaded_example_trains_and_scores_as_its_float64_widening(tmp_path, kind):
    """Loaded targets are float32, as the cache stores them, and so is the
    loaded input, the float32 cast of the float64 log of the widened target.
    Training on them and scoring them writes the bytes their float64 forms
    give."""
    corpus.save_example(desk_example(np.random.default_rng(3)), tmp_path / "ex.drvb")
    loaded = corpus.load_example(tmp_path / "ex.drvb")
    assert {getattr(loaded, name).dtype for name in TARGETS} == {np.dtype(np.float32)}
    assert loaded.input_logmag.dtype == np.float32
    widened = dataclasses.replace(
        loaded, **{name: getattr(loaded, name).astype(np.float64) for name in TARGETS},
        input_logmag=dsp.log_magnitude(loaded.reverb_target_mag.astype(np.float64)))
    written = []
    for i, example in enumerate((loaded, widened)):
        out = tmp_path / str(i)
        out.mkdir()
        config = trainer.TrainConfig(model=kind, epochs=1, batch_size=1, seed=0)
        model, _, _ = trainer.train(config, [example], [example],
                                    checkpoint_path=out / "m.ckpt", log_path=out / "m.csv")
        evaluation.evaluate_model(model, [example], ["ex"]).to_csv(out / "report.csv")
        written.append([(out / name).read_bytes() for name in ("m.ckpt", "m.csv", "report.csv")])
    assert written[0] == written[1]


def record_dtypes(monkeypatch):
    """The set of dtypes of every array passed to `_node` or `accumulate` and
    of every gradient passed to a backward rule, from now on."""
    seen = set()
    real_node, real_accumulate = ad._node, ad.accumulate

    def node(data, parents, bwd):
        seen.add(np.asarray(data).dtype)

        def recorded(g):
            seen.add(g.dtype)
            bwd(g)
        return real_node(data, parents, recorded)

    def accumulate(t, g):
        seen.add(np.asarray(g).dtype)
        real_accumulate(t, g)

    for module in (ad, nn):   # nn imports both by name
        monkeypatch.setattr(module, "_node", node)
        monkeypatch.setattr(module, "accumulate", accumulate)
    return seen


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
@pytest.mark.parametrize("dtype", [np.float32, None], ids=["float32", "default"])
def test_a_training_step_computes_in_one_precision(monkeypatch, kind, dtype):
    seen = record_dtypes(monkeypatch)
    with ad.precision(dtype) if dtype else contextlib.nullcontext():
        model, _, _ = one_step(kind, wrap_input=False)
        opt = nn.Adam([p for _, p in model.params()])
        opt.step()
    want = np.dtype(dtype or np.float64)
    assert seen == {want}
    assert {p.data.dtype for _, p in model.params()} == {want}
    assert {a.dtype for a in opt.m + opt.v} == {want}


def test_train_computes_in_float32_and_returns_float32(monkeypatch, tiny_models):
    seen = record_dtypes(monkeypatch)
    model, _, final = trainer.train(tiny_config(epochs=2), tiny_examples(2),
                                    tiny_examples(1, seed=9))
    assert seen == {np.dtype(np.float32)}
    assert {p.data.dtype for _, p in model.params()} == {np.dtype(np.float32)}
    assert final.tensors.keys() == {name for name, _ in model.params()}
    assert {a.dtype.char for a in final.tensors.values()} == {"f"}


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_scoring_runs_at_the_model_precision(monkeypatch, tiny_models, kind):
    examples, ids = tiny_examples(3), ["a", "b", "c"]
    model, _, final = trainer.train(tiny_config(model=kind, epochs=2), examples)
    seen = record_dtypes(monkeypatch)
    report = evaluation.evaluate_model(model, examples, ids)
    assert seen == {np.dtype(np.float32)}

    restored = trainer.restore_model(final)
    assert {p.data.dtype for _, p in restored.params()} == {np.dtype(np.float32)}
    for _, p in restored.params():   # the same parameters, scored in float64
        p.data = p.data.astype(np.float64)
    wide = evaluation.evaluate_model(restored, examples, ids)
    assert [row[:2] for row in report.rows] == [row[:2] for row in wide.rows]
    np.testing.assert_allclose([row[2] for row in report.rows],
                               [row[2] for row in wide.rows], rtol=1e-5)


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_returned_model_scores_as_its_checkpoint(tmp_path, tiny_models, kind):
    examples, ids = tiny_examples(3), ["a", "b", "c"]
    path = tmp_path / "m.ckpt"
    model, _, _ = trainer.train(tiny_config(model=kind, epochs=2), examples,
                                checkpoint_path=path)
    restored = trainer.restore_model(trainer.load_checkpoint(path))
    assert evaluation.evaluate_model(model, examples, ids).rows == \
        evaluation.evaluate_model(restored, examples, ids).rows


def test_training_reduces_loss(tiny_models):
    examples = tiny_examples(1)
    config = tiny_config(epochs=150, batch_size=1)
    _, rows, _ = trainer.train(config, examples)
    train_rows = [r for r in rows if r[1] == "train"]
    assert train_rows[-1][2] < 0.5 * train_rows[0][2]


def test_training_is_deterministic(tiny_models):
    examples = tiny_examples(4)
    a = trainer.train(tiny_config(), examples)[1]
    b = trainer.train(tiny_config(), examples)[1]
    assert a == b


def test_zero_lr_keeps_loss_constant(tiny_models):
    examples = tiny_examples(2)
    _, rows, _ = trainer.train(tiny_config(lr=0.0, epochs=4), examples)
    totals = [r[2] for r in rows if r[1] == "train"]
    assert max(totals) == min(totals)


def test_val_rows_logged(tiny_models):
    _, rows, _ = trainer.train(tiny_config(epochs=2),
                               tiny_examples(3), tiny_examples(2, seed=9))
    assert [r[1] for r in rows] == ["train", "val", "train", "val"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_aborts(tiny_models):
    examples = tiny_examples(1)
    examples[0].input_logmag[:] = 1e308
    with pytest.raises(NonFiniteLoss) as err:
        trainer.train(tiny_config(epochs=1), examples)
    assert "example 0" in str(err.value)


def poison_a_gradient(monkeypatch, pick, clean=0):
    """Make every backward pass after the first `clean` leave a NaN in the
    gradient of the parameter `pick(model.params())` of the model `train`
    builds, and fail any Adam step after the first poisoned pass; returns
    that parameter's name once a model is built."""
    built, passes = [], []
    build = models.build_model
    monkeypatch.setattr(models, "build_model",
                        lambda *a, **kw: built.append(build(*a, **kw)) or built[-1])
    backward, step = ad.backward, nn.Adam.step

    def poisoned(loss):
        backward(loss)
        passes.append(None)
        if len(passes) > clean:
            pick(built[0].params())[1].grad.flat[0] = np.nan

    def guarded_step(self):
        if len(passes) > clean:
            raise AssertionError("Adam stepped on a non-finite gradient")
        step(self)

    monkeypatch.setattr(ad, "backward", poisoned)
    monkeypatch.setattr(nn.Adam, "step", guarded_step)
    return lambda: pick(built[0].params())[0]


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_non_finite_gradient_aborts_before_the_step(monkeypatch, tiny_models, kind):
    name = poison_a_gradient(monkeypatch, lambda params: params[-3])
    with pytest.raises(NonFiniteLoss) as err:
        trainer.train(tiny_config(model=kind, epochs=1), tiny_examples(2))
    assert str(err.value) == f"epoch 1: gradient of {name()} is not finite"


def test_periodic_checkpoint_keeps_the_last_good_epoch(tmp_path, monkeypatch, tiny_models):
    """A run that stops with `NonFiniteLoss` leaves the snapshot of its last
    completed checkpoint epoch, which restores and scores."""
    examples = tiny_examples(2)
    manifest = corpus.CorpusManifest(
        rirs=[corpus.RirRecord("r", "r.wav", "g", split="test")],
        pairs=[corpus.PairRecord(f"d{i}.wav", "r", i) for i in range(2)])
    for pair, ex in zip(manifest.pairs, examples):
        corpus.save_example(ex, tmp_path / corpus.pair_cache_name(pair))
    _, _, epoch_1 = trainer.train(tiny_config(epochs=1), examples)

    path = tmp_path / "m.ckpt"
    name = poison_a_gradient(monkeypatch, lambda params: params[-3], clean=2)
    with pytest.raises(NonFiniteLoss) as err:   # batch 2: epoch 1 is two passes
        trainer.train(tiny_config(epochs=3, checkpoint_every=1), examples,
                      checkpoint_path=path)
    assert str(err.value) == f"epoch 2: gradient of {name()} is not finite"

    ckpt = trainer.load_checkpoint(path)
    assert ckpt.epoch == 1
    assert ckpt.tensors.keys() == epoch_1.tensors.keys()
    for key, arr in epoch_1.tensors.items():
        assert np.array_equal(ckpt.tensors[key], arr), key
    assert trainer.restore_model(ckpt).kind == "joint"
    assert evaluation.evaluate(ckpt, manifest, "test", tmp_path).rows == \
        evaluation.evaluate(epoch_1, manifest, "test", tmp_path).rows


def test_config_validation():
    with pytest.raises(ValueError):
        trainer.TrainConfig(model="joint", epochs=0)
    with pytest.raises(ValueError):
        trainer.TrainConfig(model="nope")
    with pytest.raises(ValueError):
        trainer.TrainConfig(model="rir", lr=-1.0)
    with pytest.raises(ValueError):
        trainer.TrainConfig(model="rir", batch_size=0)


@pytest.mark.parametrize("field, value", [
    ("lr", float("nan")), ("lr", float("inf")),
    ("weights", (float("nan"), 1.0, 1.0)), ("weights", (1.0, float("inf"), 1.0)),
    ("checkpoint_every", -1),
], ids=["lr-nan", "lr-inf", "weights-nan", "weights-inf", "checkpoint-every-negative"])
def test_config_rejects_non_finite_or_negative_settings(field, value):
    with pytest.raises(ValueError):
        trainer.TrainConfig(model="joint", **{field: value})


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
@pytest.mark.parametrize("weights", [(0.0, 0.0, 0.0), (-1.0, 1.0, 1.0), (1.0, 1.0)],
                         ids=["all-zero", "negative", "two"])
def test_config_rejects_loss_weights_of_any_kind(kind, weights):
    with pytest.raises(ValueError, match="loss weights"):
        trainer.TrainConfig(model=kind, weights=weights)


# --- checkpoints -----------------------------------------------------------

@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_checkpoint_round_trip(tmp_path, tiny_models, kind):
    examples = tiny_examples(2)
    path = tmp_path / "model.ckpt"
    model, _, final = trainer.train(tiny_config(model=kind, epochs=2), examples,
                                    checkpoint_path=path)
    back = trainer.load_checkpoint(path)
    assert back.kind == final.kind
    assert back.epoch == final.epoch
    assert back.config == final.config  # JSON-native: lists, not tuples
    for name, arr in final.tensors.items():
        np.testing.assert_array_equal(back.tensors[name], arr)

    trainer.save_checkpoint(back, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_forward_reproducible(tmp_path, tiny_models):
    examples = tiny_examples(2)
    path = tmp_path / "model.ckpt"
    model, _, _ = trainer.train(tiny_config(epochs=2), examples,
                                checkpoint_path=path)
    restored = trainer.restore_model(trainer.load_checkpoint(path))
    x = examples[0].input_logmag
    a = restored.forward(x)
    b = trainer.restore_model(trainer.load_checkpoint(path)).forward(x)
    np.testing.assert_array_equal(a["dry"].data, b["dry"].data)
    np.testing.assert_array_equal(a["rir"].data, b["rir"].data)
    live = model.forward(x)
    np.testing.assert_array_equal(live["dry"].data, a["dry"].data)
    np.testing.assert_array_equal(live["rir"].data, a["rir"].data)


def test_checkpoint_rejects_truncation(tmp_path, tiny_models):
    path = tmp_path / "m.ckpt"
    trainer.train(tiny_config(epochs=1), tiny_examples(1), checkpoint_path=path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(ParseError):
        trainer.load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda path: path.write_bytes(path.read_bytes() + b"garbage!"),
    lambda path: rewrite_metadata(path, lambda meta: meta["tensors"].pop(max(meta["tensors"]))),
], ids=["trailing-bytes", "last-tensor-dropped"])
def test_checkpoint_rejects_bytes_after_the_last_tensor(tmp_path, tiny_models, edit):
    path = tmp_path / "m.ckpt"
    trainer.train(tiny_config(model="rir", epochs=1), tiny_examples(1), checkpoint_path=path)
    edit(path)
    with pytest.raises(ParseError, match="after the last tensor"):
        trainer.load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_tensor_data(tmp_path, value):
    ckpt = trainer.checkpoint_from_model(
        models.build_tiny_model("rir", np.random.default_rng(0)), 1)
    ckpt.tensors["conv2.bias"][-1] = value
    path = tmp_path / "m.ckpt"
    trainer.save_checkpoint(ckpt, path)
    with pytest.raises(ParseError, match="tensor 'conv2.bias' holds a non-finite value"):
        trainer.load_checkpoint(path)


def test_checkpoint_rejects_bad_version(tmp_path, tiny_models):
    path = tmp_path / "m.ckpt"
    trainer.train(tiny_config(epochs=1), tiny_examples(1), checkpoint_path=path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (9).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch):
        trainer.load_checkpoint(path)


def rewrite_metadata(path, edit):
    """Apply `edit` to the JSON metadata of a checkpoint file in place."""
    raw = path.read_bytes()
    magic, version, meta_len = struct.unpack_from("<4sIQ", raw, 0)
    meta = json.loads(raw[16:16 + meta_len])
    edit(meta)
    body = json.dumps(meta, sort_keys=True).encode()
    path.write_bytes(struct.pack("<4sIQ", magic, version, len(body)) + body
                     + raw[16 + meta_len:])


def set_first_shape(meta, shape):
    """Replace the shape of the metadata's first tensor."""
    meta["tensors"][min(meta["tensors"])] = shape


@pytest.mark.parametrize("edit", [
    lambda meta: meta["config"].pop("hidden"),
    lambda meta: meta["config"].update(extra=1),
    lambda meta: meta["config"].update(hidden="64"),
    lambda meta: meta["config"].update(rir_layers=[[1, 1]]),
    lambda meta: meta.update(kind="nope"),
    lambda meta: meta.update(step=1),
    lambda meta: meta.update(adam={"t": 1, "lr": 1e-3}),
    lambda meta: set_first_shape(meta, {"name": "p.x", "shape": [1]}),
    lambda meta: meta.update(tensors=3),
    lambda meta: set_first_shape(meta, [-1]),
    lambda meta: set_first_shape(meta, ["a"]),
    lambda meta: set_first_shape(meta, [0] * 70),
    lambda meta: meta.update(epoch="1"),
    lambda meta: meta.update(epoch=True),
    lambda meta: meta.update(epoch=0),
    lambda meta: meta.update(epoch=-1),
    lambda meta: meta.update(config=[]),
    lambda meta: meta["tensors"].update(zz=[0]),
    lambda meta: meta["tensors"].pop(max(meta["tensors"])),
    lambda meta: meta.update(tensors={"p." + name: shape
                                      for name, shape in meta["tensors"].items()}),
], ids=["missing-key", "extra-key", "bad-type", "bad-layer", "unknown-kind",
        "step-key", "adam-key", "tensor-shape-not-list", "tensors-not-object",
        "tensor-negative-shape", "tensor-shape", "tensor-too-many-axes", "epoch-str",
        "epoch-bool", "epoch-zero", "epoch-negative", "config-not-object",
        "extra-tensor", "missing-tensor", "v3-tensor-names"])
def test_malformed_checkpoint_metadata_is_a_parse_error(tmp_path, tiny_models, edit):
    path = tmp_path / "m.ckpt"
    trainer.train(tiny_config(epochs=1), tiny_examples(1), checkpoint_path=path)
    before = path.read_bytes()
    rewrite_metadata(path, lambda meta: None)
    assert path.read_bytes() == before  # the rewrite alone changes nothing
    rewrite_metadata(path, edit)
    with pytest.raises(ParseError):
        trainer.restore_model(trainer.load_checkpoint(path))


# JSON nested past the interpreter's recursion limit
DEEP_JSON = (b'{"a":' * 100_000, b'{"a":' + b"[" * 100_000)


def json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                         max_size=3)


# small numbers keep every model a config could describe small
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2, 6) | st.text(max_size=3),
    json_containers, max_leaves=12)


def shaped_like(default):
    """Small JSON values with the structure of a config field's default."""
    if isinstance(default, tuple):
        return st.lists(shaped_like(default[0]), min_size=1, max_size=4)
    return st.integers(1, 4)


@st.composite
def config_objects(draw):
    """A kind and a JSON object over its config's field names, now and then
    with a key dropped or added; most values are shaped like the field, the
    rest are any JSON value, so both buildable and broken configs occur."""
    kind = draw(st.sampled_from(models.MODEL_KINDS))
    config = {f.name: draw(st.one_of(*[shaped_like(f.default)] * 3, json_values))
              for f in dataclasses.fields(models.MODELS[kind].config)}
    change = draw(st.sampled_from(["none", "none", "drop", "add"]))
    if change == "drop":
        config.pop(draw(st.sampled_from(sorted(config))))
    elif change == "add":
        config["extra"] = draw(json_values)
    return kind, config


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_objects())
def test_any_json_config_builds_a_model_or_raises_a_dereverb_error(case):
    kind, config = case
    try:
        model = models.build_model_from_config(kind, config)
    except DereverbError:
        return
    assert models.config_to_dict(model.config) == config


CKPT_META = {"kind": "rir", "config": {}, "epoch": 1}
fuzz_values = json_values | st.integers() | st.floats()


def fuzzed(draw, value):
    """`value` mostly as given, else any JSON value or, for an object, the
    object with one entry fuzzed the same way."""
    change = draw(mostly(st.just("none"), st.sampled_from(["any", "entry"])))
    if change == "none":
        return value
    if change == "any" or not isinstance(value, dict) or not value:
        return draw(fuzz_values)
    key = draw(st.sampled_from(sorted(value)))
    return {**value, key: fuzzed(draw, value[key])}


@st.composite
def checkpoint_files(draw):
    """Checkpoint bytes from fuzzed fields: magic, version, metadata length,
    each metadata value and each tensor shape mostly as `save_checkpoint`
    writes them, else anything; metadata now and then nested too deep to
    parse; tensor data of the size the shapes imply, else any length, now
    and then followed by trailing bytes."""
    magic = draw(mostly(st.just(trainer.CKPT_MAGIC), st.binary(min_size=4, max_size=4)))
    version = draw(mostly(st.just(trainer.CKPT_VERSION), u32))
    shapes = draw(st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=3))
    meta = {key: fuzzed(draw, value) for key, value in CKPT_META.items()}
    tensors = {f"t{i}": draw(mostly(st.just(shape), fuzz_values))
               for i, shape in enumerate(shapes)}
    meta["tensors"] = draw(mostly(st.just(tensors), fuzz_values))
    body = draw(mostly(st.just(json.dumps(meta).encode()), st.sampled_from(DEEP_JSON)))
    meta_len = draw(mostly(st.just(len(body)), st.integers(0, 2 ** 64 - 1)))
    count = sum(math.prod(shape) for shape in shapes)
    data = draw(mostly(st.just(bytes(4 * count)), st.binary(max_size=64)))
    trailing = draw(mostly(st.just(b""), st.binary(min_size=1, max_size=8)))
    return struct.pack("<4sIQ", magic, version, meta_len) + body + data + trailing


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.binary(max_size=96) | checkpoint_files())
def test_any_checkpoint_bytes_load_well_typed_or_raise_a_dereverb_error(tmp_path, raw):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(raw)
    try:
        ckpt = trainer.load_checkpoint(path)
    except DereverbError:
        return
    assert isinstance(ckpt.kind, str) and isinstance(ckpt.config, dict)
    assert type(ckpt.epoch) is int and ckpt.epoch >= 1
    assert all(isinstance(name, str) and arr.dtype == np.float32
               for name, arr in ckpt.tensors.items())


def test_log_file_format(tmp_path, tiny_models):
    log = tmp_path / "log.csv"
    trainer.train(tiny_config(epochs=2), tiny_examples(2), log_path=log)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "epoch,split,total,l_dry,l_rir,l_rec"
    assert len(lines) == 3
    assert lines[1].startswith("1,train,")
