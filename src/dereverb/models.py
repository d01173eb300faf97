"""Model architectures and the one table of what varies by model kind.

Kinds: a per-frequency RIR estimator (`rir`), a residual Bi-GRU dry estimator
(`dry-gru`), a compact U-net dry estimator (`dry-unet`), and the shared-trunk
joint model (`joint`). Each takes a log-magnitude spectrogram [frames x bins]
and exposes `kind`, `config`, `params()` (stable name order, used by
checkpoints) and `forward`, which returns its estimates by head name:
`{"rir"}`, `{"dry"}`, or `{"dry", "rir"}` for `joint`. `MODELS` maps each
kind to its `ModelSpec`: model class, config dataclass, desk, paper and tiny
config overrides, tiny input shape and the gradient-check step. Builders and
the gradient check look the kind up there; losses and scoring read the heads
`forward` returns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import corpus, nn
from .autodiff import Tensor, as_tensor
from .errors import ParseError, ShapeMismatch, WrongFrameCount, require_keys

# (time extent, freq extent, output channels); the final channel count
# becomes the time axis of the estimated impulse response.
PAPER_RIR_LAYERS = ((9, 1, 16), (14, 1, 32), (27, 1, 64), (27, 1, 32),
                    (27, 1, 16), (28, 1, 4), (187, 1, corpus.RIR_FRAMES))
DESK_RIR_LAYERS = ((9, 1, 8), (14, 1, 8), (27, 1, 8), (27, 1, 8),
                   (27, 1, 8), (28, 1, 4), (187, 1, corpus.RIR_FRAMES))

SCALES = ("desk", "paper")
TINY_RIR_FRAMES = 4  # RIR frames the tiny `rir` and `joint` models estimate


def _check_closure(layers, input_frames):
    span = sum(kt - 1 for kt, _, _ in layers)
    if span != input_frames - 1:
        raise ValueError(
            f"conv stack spans {span + 1} frames but input has {input_frames}; "
            "valid convolutions must reduce the time axis to exactly 1")
    if any(kf != 1 for _, kf, _ in layers):
        raise ValueError("RIR stack kernels must span a single frequency bin")


def _conv_stack_params(rng, layers, c_in, prefix):
    params = []
    for i, (kt, kf, c_out) in enumerate(layers):
        kernel = Tensor(nn.glorot_uniform(rng, (kt, kf, c_in, c_out)))
        bias = Tensor(np.zeros(c_out))
        params.append((f"{prefix}{i}.kernel", kernel))
        params.append((f"{prefix}{i}.bias", bias))
        c_in = c_out
    return params


def _run_conv_stack(h, params, relu_last=True):
    # ELU between layers, ReLU after the last (non-negative magnitudes)
    n_layers = len(params) // 2
    for i in range(n_layers):
        last = relu_last and i == n_layers - 1
        h = nn.conv2d(h, params[2 * i][1], params[2 * i + 1][1],
                      activation="relu" if last else "elu")
    return h


def _framed_input(x, input_frames):
    # [T, F] -> [T, F, 1] with T fixed by the valid conv stack
    x = as_tensor(x)
    if x.data.ndim == 2:
        x = ad.reshape(x, (*x.data.shape, 1))
    if x.data.shape[0] != input_frames:
        raise WrongFrameCount(f"expected {input_frames} frames, got {x.data.shape[0]}")
    return x


def _channels_to_time(h):
    # [1, F, C] -> [C, F]: the channel axis becomes the RIR time axis.
    _, f, c = h.data.shape
    return ad.transpose(ad.reshape(h, (f, c)))


@dataclass
class RirEstimatorConfig:
    layers: tuple = PAPER_RIR_LAYERS
    input_frames: int = corpus.INPUT_FRAMES
    bins: int = corpus.BINS


class RirEstimator:
    """Stack of per-frequency valid convolutions closing the time axis.

    ELU after every layer except the last, which takes a ReLU so magnitudes
    stay non-negative; the surviving channel axis is transposed into the
    impulse-response time axis.
    """

    kind = "rir"

    def __init__(self, config: RirEstimatorConfig, rng):
        _check_closure(config.layers, config.input_frames)
        self.config = config
        self._params = _conv_stack_params(rng, config.layers, 1, "conv")

    def params(self):
        return list(self._params)

    def forward(self, x) -> dict:
        x = _framed_input(x, self.config.input_frames)
        return {"rir": _channels_to_time(_run_conv_stack(x, self._params))}


class ResidualBiGru:
    """Residual bidirectional GRU stack over frames: [T, d_in] -> [T, d_out].

    The input projection lifts each frame to twice the hidden width so the
    concatenated directions can be added back residually; a final projection
    maps to `d_out`. Parameters are drawn and listed in the order
    `{prefix}in.*`, `{prefix}gru{i}.{fwd,bwd}.{w,u,b}`, `{prefix}out.*`.
    """

    def __init__(self, rng, d_in, hidden, layers, d_out, prefix=""):
        width = 2 * hidden
        self.params = [
            (f"{prefix}in.weight", Tensor(nn.glorot_uniform(rng, (d_in, width)))),
            (f"{prefix}in.bias", Tensor(np.zeros(width))),
        ]
        self.grus = []
        for i in range(layers):
            pair = (nn.GruParams(width, hidden, rng), nn.GruParams(width, hidden, rng))
            self.grus.append(pair)
            for direction, p in zip(("fwd", "bwd"), pair):
                name = f"{prefix}gru{i}.{direction}."
                self.params += [(name + "w", p.w), (name + "u", p.u), (name + "b", p.b)]
        self.params += [
            (f"{prefix}out.weight", Tensor(nn.glorot_uniform(rng, (width, d_out)))),
            (f"{prefix}out.bias", Tensor(np.zeros(d_out))),
        ]

    def __call__(self, x) -> Tensor:
        (_, w_in), (_, b_in) = self.params[:2]
        (_, w_out), (_, b_out) = self.params[-2:]
        h = nn.linear(x, w_in, b_in)
        for fwd, bwd in self.grus:
            h = ad.add(h, nn.bigru_layer(h, fwd, bwd))
        return nn.linear(h, w_out, b_out)


@dataclass
class DryGruConfig:
    hidden: int = 64          # per direction; 380 at paper scale
    layers: int = 3
    bins: int = corpus.BINS


class DryGruEstimator:
    """Residual Bi-GRU stack from bins to bins; frame count is preserved for
    any input length."""

    kind = "dry-gru"

    def __init__(self, config: DryGruConfig, rng):
        self.config = config
        self._head = ResidualBiGru(rng, config.bins, config.hidden, config.layers,
                                   config.bins)

    def params(self):
        return list(self._head.params)

    def forward(self, x) -> dict:
        x = as_tensor(x)
        if x.data.ndim != 2 or x.data.shape[1] != self.config.bins:
            raise ShapeMismatch(
                f"expected [T, {self.config.bins}] input, got {x.data.shape}")
        return {"dry": self._head(x)}


@dataclass
class UnetConfig:
    depth: int = 4
    base_channels: int = 8
    kernel: int = 4
    stride: int = 2


class UnetEstimator:
    """Compact encoder/decoder with skip concatenation.

    The input is zero-padded up to multiples of stride**depth, halved per
    encoder level, mirrored back with transposed convolutions, and cropped to
    the original extents. The last decoder layer is linear so negative
    log-magnitudes are reachable.

    Each activation is held once: an encoder ELU overwrites its
    convolution's output (`nn.conv2d(activation=)`), and a decoder ELU its
    slice of the transposed convolution's output, which neither rule reads.
    """

    kind = "dry-unet"

    def __init__(self, config: UnetConfig, rng):
        self.config = config
        k, b = config.kernel, config.base_channels
        self._params = []
        c_in = 1
        self.enc_channels = []
        for i in range(config.depth):
            c_out = b * (2 ** i)
            self._params.append(
                (f"enc{i}.kernel", Tensor(nn.glorot_uniform(rng, (k, k, c_in, c_out)))))
            self._params.append((f"enc{i}.bias", Tensor(np.zeros(c_out))))
            self.enc_channels.append(c_out)
            c_in = c_out
        for i in reversed(range(config.depth)):
            c_out = 1 if i == 0 else self.enc_channels[i - 1]
            # decoder level i consumes the skip-augmented width
            c_dec_in = self.enc_channels[i] if i == config.depth - 1 \
                else 2 * self.enc_channels[i]
            self._params.append(
                (f"dec{i}.kernel", Tensor(nn.glorot_uniform(rng, (k, k, c_out, c_dec_in)))))
            self._params.append((f"dec{i}.bias", Tensor(np.zeros(c_out))))
        self._by_name = dict(self._params)

    def params(self):
        return list(self._params)

    def forward(self, x) -> dict:
        x = as_tensor(x)
        if x.data.ndim != 2:
            raise ShapeMismatch(f"expected [T, F] input, got {x.data.shape}")
        t, f = x.data.shape
        unit = self.config.stride ** self.config.depth
        pad_t = (-t) % unit
        pad_f = (-f) % unit
        h = ad.reshape(x, (t, f, 1))
        if pad_t or pad_f:
            h = ad.pad_tail(h, pad_t, pad_f)

        s = (self.config.stride, self.config.stride)
        skips = []
        for i in range(self.config.depth):
            h = nn.conv2d(h, self._by_name[f"enc{i}.kernel"], self._by_name[f"enc{i}.bias"],
                          stride=s, padding="same", activation="elu")
            skips.append(h)

        trim = (self.config.kernel - self.config.stride) // 2
        for i in reversed(range(self.config.depth)):
            t_in, f_in = h.data.shape[:2]
            h = nn.conv2d_transposed(h, self._by_name[f"dec{i}.kernel"],
                                     self._by_name[f"dec{i}.bias"], stride=s)
            t_up = t_in * self.config.stride
            f_up = f_in * self.config.stride
            h = ad.slice2d(h, trim, trim + t_up, trim, trim + f_up)
            if i > 0:
                h = ad._elu_into(h, h.data)   # over the slice: no rule reads it
                h = ad.concat([h, skips[i - 1]], axis=2)
        h = ad.reshape(h, h.data.shape[:2])
        return {"dry": ad.slice2d(h, 0, t, 0, f)}


@dataclass
class JointConfig:
    rir_layers: tuple = PAPER_RIR_LAYERS
    trunk_depth: int = 2
    hidden: int = 64
    gru_layers: int = 3
    input_frames: int = corpus.INPUT_FRAMES
    bins: int = corpus.BINS


class JointModel:
    """Shared trunk with an impulse-response head and a dry-speech head.

    The trunk is the leading slice of the RIR conv stack; the RIR head runs
    the remainder, and the dry head feeds the trunk features (flattened per
    frame) through a residual Bi-GRU. The trunk's valid convolutions shave
    frames off the time axis, so the dry estimate is edge-replicated back to
    the input frame count before the loss.
    """

    kind = "joint"

    def __init__(self, config: JointConfig, rng):
        _check_closure(config.rir_layers, config.input_frames)
        if not 0 < config.trunk_depth < len(config.rir_layers):
            raise ValueError("trunk depth must split the conv stack")
        self.config = config
        trunk_layers = config.rir_layers[:config.trunk_depth]
        head_layers = config.rir_layers[config.trunk_depth:]
        self._trunk = _conv_stack_params(rng, trunk_layers, 1, "trunk")
        self._rir_head = _conv_stack_params(rng, head_layers, trunk_layers[-1][2], "rir")
        trunk_width = config.bins * trunk_layers[-1][2]
        self._dry_head = ResidualBiGru(rng, trunk_width, config.hidden,
                                       config.gru_layers, config.bins, prefix="dry.")

    def params(self):
        return self._trunk + self._rir_head + self._dry_head.params

    def forward(self, x) -> dict:
        h = _run_conv_stack(_framed_input(x, self.config.input_frames), self._trunk,
                            relu_last=False)
        rir_est = _channels_to_time(_run_conv_stack(h, self._rir_head))

        t, f, c = h.data.shape
        d = self._dry_head(ad.reshape(h, (t, f * c)))
        missing = self.config.input_frames - t
        return {"dry": ad.pad_rows_edge(d, missing // 2, missing - missing // 2),
                "rir": rir_est}


# ---------------------------------------------------------------------------
# Reverberant reconstruction
# ---------------------------------------------------------------------------

def _causal_windows(x: np.ndarray, k: int) -> np.ndarray:
    """[T, F] -> [T, F, k] view whose window t holds rows t-k+1 .. t of x,
    zero before row 0."""
    padded = np.concatenate([np.zeros((k - 1, x.shape[1]), x.dtype), x])
    return np.lib.stride_tricks.sliding_window_view(padded, k, axis=0)


def _frame_convolve(rir_mag: np.ndarray, dry_mag: np.ndarray) -> np.ndarray:
    """out[t,f] = sum_tau rir[tau,f] * dry[t-tau,f], truncated to dry frames."""
    return np.einsum("tfw,wf->tf", _causal_windows(dry_mag, len(rir_mag)), rir_mag[::-1])


def reconstruct_reverb(rir_mag_est, dry_mag) -> Tensor:
    """Per-frequency causal convolution of the estimated RIR magnitude with a
    dry magnitude spectrogram, differentiable in both arguments."""
    rir_mag_est, dry_mag = as_tensor(rir_mag_est), as_tensor(dry_mag)
    if rir_mag_est.data.ndim != 2 or dry_mag.data.ndim != 2 \
            or rir_mag_est.data.shape[1] != dry_mag.data.shape[1]:
        raise ShapeMismatch(
            f"rir {rir_mag_est.data.shape} vs dry {dry_mag.data.shape}")
    rir = rir_mag_est.data
    out = _frame_convolve(rir, dry_mag.data)

    def bwd(g):
        windows = _causal_windows(dry_mag.data, len(rir))
        ad.accumulate(rir_mag_est, np.einsum("tfw,tf->wf", windows, g)[::-1])
        if dry_mag.needs_grad:
            # the adjoint in dry is the same convolution run backwards in time
            ad.accumulate(dry_mag, _frame_convolve(rir, g[::-1])[::-1])

    return ad._node(out, (rir_mag_est, dry_mag), bwd)


def joint_loss(dry_est, rir_est, example, weights=(1.0, 1.0, 1.0)):
    """Weighted three-term objective.

    Returns (total, l_dry, l_rir, l_rec): MSE on the dry log-magnitude, MSE
    on the RIR magnitude, and MSE between the reverberant target and the
    estimated RIR convolved with the exp-domain dry target.
    """
    w_dry, w_rir, w_rec = weights
    l_dry = ad.mse(dry_est, example.dry_target_logmag)
    l_rir = ad.mse(rir_est, example.rir_target_mag)
    # exp in float64 whatever the target's dtype: a loaded example stores it as float32
    reconstruction = reconstruct_reverb(rir_est, np.exp(example.dry_target_logmag,
                                                        dtype=np.float64))
    l_rec = ad.mse(reconstruction, example.reverb_target_mag)
    total = ad.add(ad.add(ad.mul(l_dry, w_dry), ad.mul(l_rir, w_rir)),
                   ad.mul(l_rec, w_rec))
    return total, l_dry, l_rir, l_rec


# ---------------------------------------------------------------------------
# The model table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Everything that varies by model kind."""

    model: type         # built as model(config, rng)
    config: type        # its config dataclass
    desk: dict          # config overrides per scale
    paper: dict
    tiny: dict          # miniature config for gradient checks and smoke training
    tiny_input: tuple   # input shape the tiny model accepts
    grad_eps: float     # finite-difference step of the tiny model's gradient check


MODELS = {spec.model.kind: spec for spec in (
    ModelSpec(RirEstimator, RirEstimatorConfig,
              desk={"layers": DESK_RIR_LAYERS}, paper={"layers": PAPER_RIR_LAYERS},
              tiny={"layers": ((3, 1, 2), (2, 1, 4), (5, 1, TINY_RIR_FRAMES)),
                    "input_frames": 8, "bins": 5},
              tiny_input=(8, 5), grad_eps=1e-5),
    ModelSpec(DryGruEstimator, DryGruConfig,
              desk={"hidden": 64}, paper={"hidden": 380},
              tiny={"hidden": 3, "layers": 2, "bins": 5},
              tiny_input=(6, 5), grad_eps=1e-5),
    ModelSpec(UnetEstimator, UnetConfig, desk={}, paper={},
              tiny={"depth": 2, "base_channels": 2},
              tiny_input=(16, 16), grad_eps=1e-5),
    # deep composite: a larger step keeps the quotient above rounding noise
    ModelSpec(JointModel, JointConfig,
              desk={"rir_layers": DESK_RIR_LAYERS, "hidden": 64},
              paper={"rir_layers": PAPER_RIR_LAYERS, "hidden": 380},
              tiny={"rir_layers": ((3, 1, 2), (3, 1, 2), (3, 1, 2), (2, 1, TINY_RIR_FRAMES)),
                    "trunk_depth": 2, "hidden": 3, "gru_layers": 1,
                    "input_frames": 8, "bins": 5},
              tiny_input=(8, 5), grad_eps=1e-4),
)}
MODEL_KINDS = tuple(MODELS)
HEAD_TARGETS = {"dry": "dry_target_logmag", "rir": "rir_target_mag"}  # example fields


def _spec(kind) -> ModelSpec:
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return MODELS[kind]


def _build(spec: ModelSpec, config, rng):
    return spec.model(config, np.random.default_rng(0) if rng is None else rng)


def build_model(kind: str, scale: str = "desk", rng=None):
    """Construct a model at the given scale ("desk" shrinks widths; "paper" keeps
    every published dimension)."""
    spec = _spec(kind)
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return _build(spec, spec.config(**(spec.desk if scale == "desk" else spec.paper)), rng)


def build_model_from_config(kind: str, config: dict, rng=None):
    """Rebuild a persisted model; a kind or config that describes none is a ParseError."""
    try:
        spec = _spec(kind)
        return _build(spec, config_from_dict(spec.config, config), rng)
    except ValueError as exc:
        raise ParseError(f"{kind!r} model: {exc}") from exc


def build_tiny_model(kind: str, rng=None):
    """Miniature configurations for gradient checking and smoke training."""
    spec = _spec(kind)
    return _build(spec, spec.config(**spec.tiny), rng)


def _convert(value, to):
    # lists <-> tuples, recursively
    return to(_convert(v, to) for v in value) if isinstance(value, (list, tuple)) else value


def config_to_dict(config) -> dict:
    """JSON-native form of a config dataclass: tuples become lists."""
    return {k: _convert(v, list) for k, v in asdict(config).items()}


def _fits(value, default) -> bool:
    # shaped like the field's default: list for tuple, int > 0 for int
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    return type(value) is int and value > 0


def config_from_dict(cls, data):
    """Inverse of `config_to_dict`: every field present, none extra, each
    fitting its default's structure; lists become tuples."""
    require_keys(data, [f.name for f in fields(cls)], cls.__name__)
    for f in fields(cls):
        if not _fits(data[f.name], f.default):
            raise ParseError(f"{cls.__name__}.{f.name}: bad value {data[f.name]!r}")
    return cls(**{k: _convert(v, tuple) for k, v in data.items()})
