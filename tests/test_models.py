import numpy as np
import pytest

from dereverb import autodiff as ad
from dereverb import corpus, models, nn
from dereverb.corpus import TrainingExample
from dereverb.errors import WrongFrameCount
from conftest import total


def naive_frame_convolve(rir, dry):
    """Per-frequency causal convolution, triple loop, the oracle."""
    k, bins = rir.shape
    t_len = dry.shape[0]
    out = np.zeros_like(dry)
    for t in range(t_len):
        for f in range(bins):
            for tau in range(min(t, k - 1) + 1):
                out[t, f] += rir[tau, f] * dry[t - tau, f]
    return out


def tiny_example(rng, frames=8, bins=5, rir_frames=4, consistent=True):
    """Small self-consistent training example for loss/overfit tests."""
    dry_log = rng.uniform(-3.0, 0.0, (frames, bins))
    rir = rng.uniform(0.0, 1.0, (rir_frames, bins)) * \
        np.exp(-np.arange(rir_frames) / 2.0)[:, None]
    rir[0] = 1.0
    if consistent:
        reverb = models._frame_convolve(rir, np.exp(dry_log))
    else:
        reverb = rng.uniform(0.0, 1.0, (frames, bins))
    return TrainingExample(
        input_logmag=np.log(np.maximum(reverb, 1e-5)),
        dry_target_logmag=dry_log,
        rir_target_mag=rir,
        reverb_target_mag=reverb,
        dry_scale=1.0, rir_scale=1.0, reverb_scale=1.0)


# --- RIR estimator --------------------------------------------------------

def test_rir_estimator_extent_chain():
    rng = np.random.default_rng(0)
    model = models.RirEstimator(models.RirEstimatorConfig(), rng)
    extents = [313]
    for kt, _, _ in models.PAPER_RIR_LAYERS:
        extents.append(extents[-1] - kt + 1)
    assert extents == [313, 305, 292, 266, 240, 214, 187, 1]
    out = model.forward(np.zeros((313, 257)))["rir"]
    assert out.data.shape == (126, 257)


def test_rir_estimator_zero_input_zero_output():
    rng = np.random.default_rng(1)
    model = models.build_tiny_model("rir", rng)
    out = model.forward(np.zeros(models.MODELS["rir"].tiny_input))["rir"]
    assert np.all(out.data == 0)


def test_rir_estimator_output_non_negative():
    rng = np.random.default_rng(2)
    model = models.build_tiny_model("rir", rng)
    out = model.forward(rng.standard_normal(models.MODELS["rir"].tiny_input))["rir"]
    assert np.all(out.data >= 0)


def test_rir_estimator_rejects_wrong_frames():
    rng = np.random.default_rng(3)
    model = models.build_tiny_model("rir", rng)
    with pytest.raises(WrongFrameCount):
        model.forward(np.zeros((9, 5)))


def test_rir_estimator_closure_enforced():
    with pytest.raises(ValueError):
        models.RirEstimator(models.RirEstimatorConfig(
            layers=((3, 1, 2), (2, 1, 4)), input_frames=9, bins=5),
            np.random.default_rng(0))


def test_rir_estimator_gradcheck():
    rng = np.random.default_rng(4)
    model = models.build_tiny_model("rir", rng)
    x = rng.standard_normal(models.MODELS["rir"].tiny_input)
    target = rng.uniform(0.0, 1.0, (4, 5))
    loss_fn = lambda: ad.mse(model.forward(x)["rir"], target)
    err = nn.grad_check(loss_fn, [p for _, p in model.params()])
    assert err < 1e-5


# --- dry GRU estimator ------------------------------------------------------

def test_dry_gru_paper_scale_width():
    rng = np.random.default_rng(5)
    model = models.build_model("dry-gru", scale="paper", rng=rng)
    assert model.config.hidden == 380
    assert model.params()[0][1].data.shape == (257, 760)


def test_dry_gru_preserves_frames():
    rng = np.random.default_rng(6)
    model = models.build_tiny_model("dry-gru", rng)
    for t in [1, 2, 7, 40, 400]:
        x = rng.standard_normal((t, 5))
        out = model.forward(x)["dry"]
        assert out.data.shape == (t, 5)


def test_dry_gru_gradcheck():
    rng = np.random.default_rng(7)
    model = models.DryGruEstimator(models.DryGruConfig(hidden=4, layers=1, bins=5), rng)
    x = rng.standard_normal((6, 5))
    target = rng.standard_normal((6, 5))
    loss_fn = lambda: ad.mse(model.forward(x)["dry"], target)
    err = nn.grad_check(loss_fn, [p for _, p in model.params()])
    assert err < 1e-5


# --- U-net ------------------------------------------------------------------

def test_unet_padding_arithmetic():
    rng = np.random.default_rng(8)
    model = models.build_model("dry-unet", rng=rng)
    out = model.forward(rng.standard_normal((313, 257)))["dry"]
    assert out.data.shape == (313, 257)


def test_unet_zero_input_zero_output():
    rng = np.random.default_rng(9)
    model = models.build_tiny_model("dry-unet", rng)
    out = model.forward(np.zeros((16, 16)))["dry"]
    assert np.abs(out.data).max() == 0.0


def test_unet_gradcheck():
    rng = np.random.default_rng(10)
    model = models.build_tiny_model("dry-unet", rng)
    x = rng.standard_normal((16, 16))
    target = rng.standard_normal((16, 16))
    loss_fn = lambda: ad.mse(model.forward(x)["dry"], target)
    err = nn.grad_check(loss_fn, [p for _, p in model.params()])
    assert err < 1e-5


# --- reconstruction ---------------------------------------------------------

def test_reconstruct_delta_identity():
    rng = np.random.default_rng(11)
    dry = rng.uniform(0.0, 1.0, (313, 257))
    rir = np.zeros((126, 257))
    rir[0] = 1.0
    out = models.reconstruct_reverb(rir, dry)
    np.testing.assert_array_equal(out.data, dry)


def test_reconstruct_delta_shift():
    rng = np.random.default_rng(12)
    dry = rng.uniform(0.0, 1.0, (50, 7))
    rir = np.zeros((10, 7))
    rir[3] = 1.0
    out = models.reconstruct_reverb(rir, dry).data
    assert np.all(out[:3] == 0)
    np.testing.assert_array_equal(out[3:], dry[:-3])


def test_reconstruct_matches_naive_loop():
    rng = np.random.default_rng(13)
    for _ in range(20):
        t = int(rng.integers(5, 40))
        k = int(rng.integers(1, 12))
        bins = int(rng.integers(1, 9))
        rir = rng.uniform(0, 1, (k, bins))
        dry = rng.uniform(0, 1, (t, bins))
        got = models.reconstruct_reverb(rir, dry).data
        want = naive_frame_convolve(rir, dry)
        assert np.abs(got - want).max() < 1e-12


def test_reconstruct_is_bilinear():
    rng = np.random.default_rng(14)
    r1 = rng.uniform(0, 1, (6, 4))
    r2 = rng.uniform(0, 1, (6, 4))
    d1 = rng.uniform(0, 1, (20, 4))
    d2 = rng.uniform(0, 1, (20, 4))
    lhs = models.reconstruct_reverb(r1 + r2, d1).data
    rhs = models.reconstruct_reverb(r1, d1).data + models.reconstruct_reverb(r2, d1).data
    assert np.abs(lhs - rhs).max() < 1e-10
    lhs = models.reconstruct_reverb(r1, d1 + d2).data
    rhs = models.reconstruct_reverb(r1, d1).data + models.reconstruct_reverb(r1, d2).data
    assert np.abs(lhs - rhs).max() < 1e-10


def test_reconstruct_gradients_match_fd():
    rng = np.random.default_rng(15)
    rir = ad.Tensor(rng.uniform(0, 1, (5, 3)))
    dry = ad.Tensor(rng.uniform(0, 1, (12, 3)))
    target = rng.uniform(0, 1, (12, 3))
    loss_fn = lambda: ad.mse(models.reconstruct_reverb(rir, dry), target)
    assert nn.grad_check(loss_fn, [rir, dry]) < 1e-6


def dry_adjoint_by_windows(rir, g):
    """The former dry gradient of reconstruct_reverb: windows of g padded at
    its end, against the RIR."""
    g_pad = np.concatenate([g, np.zeros((len(rir) - 1, g.shape[1]))])
    windows = np.lib.stride_tricks.sliding_window_view(g_pad, len(rir), axis=0)
    return np.einsum("tfw,wf->tf", windows, rir)


@pytest.mark.parametrize("frames", [12, 3], ids=["rir-shorter", "rir-longer"])
def test_reconstruct_constant_dry_skips_its_adjoint(frames, monkeypatch):
    calls = []
    convolve = models._frame_convolve
    monkeypatch.setattr(models, "_frame_convolve",
                        lambda *args: calls.append(args) or convolve(*args))
    rng = np.random.default_rng(16)
    rir = rng.uniform(0, 1, (5, 3))
    dry = rng.uniform(0, 1, (frames, 3))
    g = rng.standard_normal((frames, 3))

    def rir_grad(dry_in):
        r = ad.Tensor(rir)
        ad.backward(total(ad.mul(models.reconstruct_reverb(r, dry_in), g)))
        return r.grad

    as_constant = rir_grad(dry)
    assert len(calls) == 1   # the forward only
    d = ad.Tensor(dry)
    as_leaf = rir_grad(d)
    assert len(calls) == 3   # then the forward and the dry adjoint
    np.testing.assert_array_equal(as_constant, as_leaf)
    want = dry_adjoint_by_windows(rir, g)
    assert np.abs(d.grad - want).max() <= 1e-12 * np.abs(want).max()


# --- joint model --------------------------------------------------------------

def test_joint_trunk_arithmetic():
    rng = np.random.default_rng(16)
    model = models.build_model("joint", scale="paper", rng=rng)
    est = model.forward(rng.standard_normal((313, 257)))
    dry, rir = est["dry"].data, est["rir"].data
    assert dry.shape == (313, 257)
    assert rir.shape == (126, 257)
    # the trunk leaves 292 frames: 10 edge copies go before them and 11 after
    assert np.all(dry[:10] == dry[10]) and np.any(dry[10] != dry[11])
    assert np.all(dry[302:] == dry[301]) and np.any(dry[301] != dry[300])


def test_joint_dry_head_param_disconnected_from_rec_loss():
    rng = np.random.default_rng(17)
    model = models.build_tiny_model("joint", rng)
    example = tiny_example(np.random.default_rng(18))
    est = model.forward(example.input_logmag)
    total, _, _, l_rec = models.joint_loss(est["dry"], est["rir"], example,
                                           weights=(0.0, 0.0, 1.0))
    for _, p in model.params():
        p.grad = None
    ad.backward(total)
    by_name = dict(model.params())
    assert by_name["dry.out.weight"].grad is None \
        or np.all(by_name["dry.out.weight"].grad == 0)


def test_joint_trunk_sees_gradient_from_each_loss_term():
    rng = np.random.default_rng(19)
    model = models.build_tiny_model("joint", rng)
    example = tiny_example(np.random.default_rng(20), consistent=False)
    by_name = dict(model.params())
    for idx, weights in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        for _, p in model.params():
            p.grad = None
        est = model.forward(example.input_logmag)
        total, *_ = models.joint_loss(est["dry"], est["rir"], example, weights=weights)
        ad.backward(total)
        g = by_name["trunk0.kernel"].grad
        assert g is not None and np.linalg.norm(g) > 0, f"term {idx}"


def test_joint_loss_weights_semantics():
    rng = np.random.default_rng(21)
    model = models.build_tiny_model("joint", rng)
    example = tiny_example(np.random.default_rng(22), consistent=False)
    est = model.forward(example.input_logmag)
    total, l_dry, _, _ = models.joint_loss(est["dry"], est["rir"], example,
                                           weights=(1.0, 0.0, 0.0))
    assert float(total.data) == pytest.approx(float(l_dry.data))


def test_joint_loss_zero_for_perfect_estimates():
    example = tiny_example(np.random.default_rng(23), consistent=True)
    dry_est = ad.Tensor(example.dry_target_logmag)
    rir_est = ad.Tensor(example.rir_target_mag)
    total, l_dry, l_rir, l_rec = models.joint_loss(dry_est, rir_est, example)
    assert float(l_dry.data) == 0.0
    assert float(l_rir.data) == 0.0
    assert float(l_rec.data) < 1e-28
    assert float(total.data) < 1e-28


def test_joint_loss_constant_offset_closed_form():
    example = tiny_example(np.random.default_rng(24), consistent=True)
    dry_est = ad.Tensor(example.dry_target_logmag + 1.0)
    rir_est = ad.Tensor(example.rir_target_mag)
    total, l_dry, l_rir, l_rec = models.joint_loss(dry_est, rir_est, example)
    assert float(l_dry.data) == pytest.approx(1.0)
    assert float(total.data) == pytest.approx(1.0, abs=1e-12)


def test_joint_end_to_end_gradcheck():
    rng = np.random.default_rng(25)
    model = models.build_tiny_model("joint", rng)
    example = tiny_example(np.random.default_rng(26), consistent=False)

    def loss_fn():
        est = model.forward(example.input_logmag)
        total, *_ = models.joint_loss(est["dry"], est["rir"], example)
        return total

    # eps 1e-4 keeps the difference quotient above float64 rounding noise for
    # the near-zero recurrent-weight gradients of this deep composite
    err = nn.grad_check(loss_fn, [p for _, p in model.params()], eps=1e-4)
    assert err < 1e-5


def test_build_model_rejects_unknown():
    with pytest.raises(ValueError):
        models.build_model("nope")
    with pytest.raises(ValueError):
        models.build_model("rir", scale="huge")


# Which path each conv2d of a forward pass takes at the model's input size:
# the spectral path for the stride-1 layers between the first (one input
# channel) and the 187-frame one (one output row); columns for every U-net
# layer, whose transposed convolutions never consult the selector.
RIR_STACK_PATHS = ["columns"] + ["spectral"] * 5 + ["columns"]


@pytest.mark.parametrize("kind,scale,paths", [
    ("rir", "desk", RIR_STACK_PATHS), ("rir", "paper", RIR_STACK_PATHS),
    ("joint", "desk", RIR_STACK_PATHS), ("joint", "paper", RIR_STACK_PATHS),
    ("dry-unet", "desk", ["columns"] * 4),
])
def test_conv_path_of_each_layer(kind, scale, paths, monkeypatch):
    taken = []
    select = nn.conv_path

    def recording(*args):
        taken.append(select(*args))
        return taken[-1]

    monkeypatch.setattr(nn, "conv_path", recording)
    with ad.precision(np.float32), ad.no_grad():
        models.build_model(kind, scale).forward(np.zeros((corpus.INPUT_FRAMES, 257)))
    assert taken == paths


@pytest.mark.parametrize("scale", models.SCALES)
@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_estimates_have_the_target_shapes(kind, scale):
    shapes = {"dry": (corpus.INPUT_FRAMES, corpus.BINS),
              "rir": (corpus.RIR_FRAMES, corpus.BINS)}
    with ad.precision(np.float32), ad.no_grad():
        out = models.build_model(kind, scale).forward(
            np.zeros((corpus.INPUT_FRAMES, corpus.BINS)))
    heads = {"rir": ("rir",), "dry-gru": ("dry",), "dry-unet": ("dry",),
             "joint": ("dry", "rir")}[kind]
    assert {head: e.data.shape for head, e in out.items()} == \
        {head: shapes[head] for head in heads}
