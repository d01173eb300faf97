"""Deterministic training loops, checkpointing, and loss logging.

Training computes in float32: parameters, activations, gradients and Adam
moments (Micikevicius et al., *Mixed Precision Training*, arXiv:1710.03740,
without the float64 master copy that only float16 needs). Everything else,
scoring and gradient checks included, computes in float64.

A run is fully determined by (seed, config, example order) when BLAS runs
one thread (OPENBLAS_NUM_THREADS=1; more threads may change GEMM summation
order and so the bytes): initialization and epoch shuffles draw from named
streams of the master seed, batches accumulate gradients in a fixed order,
and the log records every loss component per epoch. Checkpoints capture
parameters and Adam moments, all float32 as training holds them, and the
shuffle RNG, so a resumed run continues the same trajectory exactly.

A batch accumulates gradients one example at a time, and each example's
backward pass frees that example's graph as it walks it, so training holds
one example's activations at a time, whatever the batch size.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import corpus, models
from .autodiff import no_grad
from .errors import (
    EmptySplit,
    KindMismatch,
    NonFiniteLoss,
    ParseError,
    VersionMismatch,
    require_keys,
)
from .nn import Adam
from .seeding import rng_for

CKPT_MAGIC = b"DRVB"
CKPT_VERSION = 2
VAL_LIMIT = 32  # validation examples scored per epoch
ADAM_STATE = ("t", "lr", "beta1", "beta2", "eps")  # optimizer attributes a checkpoint keeps


@dataclass
class TrainConfig:
    model: str = "joint"
    epochs: int = 1
    batch_size: int = 4
    lr: float = 1e-4
    weights: tuple = (1.0, 1.0, 1.0)
    seed: int = 0
    checkpoint_every: int = 0   # 0: only the final checkpoint is written
    scale: str = "desk"

    def __post_init__(self):
        if self.model not in models.MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError("learning rate must be finite and not negative")
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError("loss weights must be finite")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint interval must not be negative")


@dataclass
class Checkpoint:
    kind: str
    config: dict
    epoch: int
    adam: dict                      # t, lr, beta1, beta2, eps
    rng_state: dict
    tensors: dict = field(default_factory=dict)  # name -> ndarray


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------

def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Binary layout: magic, version, u64 JSON length, JSON metadata (each
    tensor's name and shape, sorted by name), then every tensor's data as
    little-endian float32 in metadata order."""
    entries = [{"name": name, "shape": list(ckpt.tensors[name].shape)}
               for name in sorted(ckpt.tensors)]
    meta = json.dumps({
        "kind": ckpt.kind, "config": ckpt.config, "epoch": ckpt.epoch,
        "adam": ckpt.adam, "rng_state": ckpt.rng_state, "tensors": entries,
    }, sort_keys=True).encode()
    with corpus.replacing(path) as fh:
        fh.write(struct.pack("<4sIQ", CKPT_MAGIC, CKPT_VERSION, len(meta)))
        fh.write(meta)
        for e in entries:
            fh.write(np.ascontiguousarray(ckpt.tensors[e["name"]], dtype="<f4").tobytes())


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise ParseError(f"{path}: truncated checkpoint")
    magic, version, meta_len = struct.unpack_from("<4sIQ", raw, 0)
    if magic != CKPT_MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if raw[16:17] not in (b"", b"{"):   # an example cache file shares the magic
        raise ParseError(f"{path}: not a checkpoint (no JSON metadata after the header; "
                         "an example cache file?)")
    if version != CKPT_VERSION:
        raise VersionMismatch(f"{path}: checkpoint version {version}")
    if len(raw) < 16 + meta_len:
        raise ParseError(f"{path}: truncated metadata")
    try:
        meta = json.loads(raw[16:16 + meta_len])
    except ValueError as exc:   # not UTF-8 or not JSON
        raise ParseError(f"{path}: bad metadata: {exc}") from exc
    require_keys(meta, [f.name for f in fields(Checkpoint)], f"{path}: metadata")
    require_keys(meta["adam"], ADAM_STATE, f"{path}: adam")
    if not (isinstance(meta["kind"], str) and isinstance(meta["config"], dict)
            and type(meta["epoch"]) is int and isinstance(meta["rng_state"], dict)):
        raise ParseError(f"{path}: kind must be a string, config and rng_state "
                         "objects, epoch an int")
    adam = meta["adam"]
    if not (type(adam["t"]) is int
            and all(corpus.FIELD_TYPES["float"](adam[key]) for key in ADAM_STATE[1:])):
        raise ParseError(f"{path}: adam: t must be an int, the rest finite numbers, "
                         f"got {adam}")
    if not isinstance(meta["tensors"], list):
        raise ParseError(f"{path}: tensors must be a list of entries")
    tensors = {}
    offset = 16 + meta_len
    for entry in meta["tensors"]:
        require_keys(entry, ("name", "shape"), f"{path}: tensor entry")
        name, shape = entry["name"], entry["shape"]
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in shape)):
            raise ParseError(f"{path}: bad tensor entry {entry}")
        count = math.prod(shape)
        if offset + 4 * count > len(raw):
            raise ParseError(f"{path}: truncated tensor {name}")
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        try:
            tensors[name] = arr.reshape(shape).copy()
        except ValueError as exc:   # more axes, or a larger extent, than numpy allows
            raise ParseError(f"{path}: bad tensor shape {shape}: {exc}") from exc
        offset += 4 * count
    return Checkpoint(**{**meta, "tensors": tensors})


def checkpoint_from_state(model, opt: Adam, epoch: int, shuffle_rng) -> Checkpoint:
    tensors = {}
    for (name, p), m, v in zip(model.params(), opt.m, opt.v):
        tensors["p." + name] = p.data.astype(np.float32)
        tensors["m." + name] = m.astype(np.float32)
        tensors["v." + name] = v.astype(np.float32)
    return Checkpoint(
        kind=model.kind, config=models.config_to_dict(model.config), epoch=epoch,
        adam={key: getattr(opt, key) for key in ADAM_STATE},
        rng_state=shuffle_rng.bit_generator.state,
        tensors=tensors)


def _stored(ckpt: Checkpoint, key, like: np.ndarray) -> np.ndarray:
    """Checkpoint tensor `key` in the dtype of `like`, whose shape it must have."""
    stored = ckpt.tensors.get(key)
    if stored is None or stored.shape != like.shape:
        raise ParseError(f"checkpoint tensor {key!r} is missing or not of shape {like.shape}")
    return stored.astype(like.dtype)


def restore_model(ckpt: Checkpoint):
    """Rebuild the model and overwrite its parameters from the checkpoint, in
    the engine's precision (float64 unless inside `autodiff.precision`)."""
    model = models.build_model_from_config(ckpt.kind, ckpt.config)
    for name, p in model.params():
        p.data = _stored(ckpt, "p." + name, p.data)
    return model


def _restore_optimizer(model, ckpt: Checkpoint) -> Adam:
    opt = Adam([p for _, p in model.params()])
    for key in ADAM_STATE:
        setattr(opt, key, ckpt.adam[key])
    opt.m = [_stored(ckpt, "m." + name, p.data) for name, p in model.params()]
    opt.v = [_stored(ckpt, "v." + name, p.data) for name, p in model.params()]
    return opt


# ---------------------------------------------------------------------------
# Loss per model kind
# ---------------------------------------------------------------------------

def example_losses(model, example, weights):
    """(total, l_dry, l_rir, l_rec) tensors for one example: the joint loss
    for a model with both heads, else the one head's MSE as total and as its
    own component, the others zero."""
    est = models.estimates(model, example.input_logmag)
    if len(est) == 2:
        return models.joint_loss(est["dry"], est["rir"], example, weights)
    zero = ad.as_tensor(0.0)
    losses = {head: ad.mse(value, getattr(example, models.HEAD_TARGETS[head]))
              for head, value in est.items()}
    (total,) = losses.values()
    return total, losses.get("dry", zero), losses.get("rir", zero), zero


def _component_values(parts):
    return np.array([float(p.data) for p in parts])


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def train(config: TrainConfig, train_examples, val_examples=(),
          start: Checkpoint | None = None, checkpoint_path=None,
          log_path=None):
    """Run the epoch loop in float32 and return (model, rows, final checkpoint).

    Rows are (epoch, split, total, l_dry, l_rir, l_rec) with one train row
    per epoch and one val row when validation examples are given. `start`
    resumes from a checkpoint: parameters, Adam moments, shuffle RNG, and
    the epoch counter continue where they left off. A non-finite loss, or a
    non-finite gradient before an Adam step, raises `NonFiniteLoss`. The
    returned model holds float64 parameters equal to the checkpoint's, so it
    scores exactly as `restore_model(final)` does.
    """
    if not train_examples:
        raise EmptySplit("no training examples")
    if start is not None:
        if start.kind != config.model:
            raise KindMismatch(
                f"checkpoint holds {start.kind!r}, config wants {config.model!r}")
        if config.epochs <= start.epoch:
            raise ValueError(f"epochs must be at least {start.epoch + 1} "
                             f"to resume after epoch {start.epoch}")

    with ad.precision(np.float32):
        if start is not None:
            model = restore_model(start)
            opt = _restore_optimizer(model, start)
            shuffle_rng = np.random.default_rng()
            shuffle_rng.bit_generator.state = start.rng_state
            first_epoch = start.epoch + 1
        else:
            model = models.build_model(config.model, scale=config.scale,
                                       rng=rng_for(config.seed, "init"),
                                       weights=config.weights)
            opt = Adam([p for _, p in model.params()], lr=config.lr)
            shuffle_rng = rng_for(config.seed, "shuffle")
            first_epoch = 1
        named = model.params()

        rows = []
        for epoch in range(first_epoch, config.epochs + 1):
            order = shuffle_rng.permutation(len(train_examples))
            epoch_sum = np.zeros(4)
            for lo in range(0, len(order), config.batch_size):
                batch = order[lo:lo + config.batch_size]
                opt.zero_grad()
                for idx in batch:
                    parts = example_losses(model, train_examples[idx], config.weights)
                    values = _component_values(parts)
                    if not np.all(np.isfinite(values)):
                        raise NonFiniteLoss(
                            f"epoch {epoch}, example {idx}: components {values}")
                    ad.backward(ad.mul(parts[0], 1.0 / len(batch)))
                    epoch_sum += values
                for name, p in named:
                    if p.grad is not None and not np.isfinite(p.grad).all():
                        raise NonFiniteLoss(f"epoch {epoch}: gradient of {name} is not finite")
                opt.step()
            rows.append((epoch, "train", *(epoch_sum / len(order))))

            if val_examples:
                val_sum = np.zeros(4)
                subset = val_examples[:VAL_LIMIT]
                with no_grad():
                    for ex in subset:
                        val_sum += _component_values(
                            example_losses(model, ex, config.weights))
                rows.append((epoch, "val", *(val_sum / len(subset))))

            if checkpoint_path and config.checkpoint_every \
                    and epoch % config.checkpoint_every == 0:
                save_checkpoint(
                    checkpoint_from_state(model, opt, epoch, shuffle_rng),
                    checkpoint_path)

        final = checkpoint_from_state(model, opt, config.epochs, shuffle_rng)
    for _, p in named:
        p.data = p.data.astype(np.float64)
    if checkpoint_path:
        save_checkpoint(final, checkpoint_path)
    if log_path:
        write_log(rows, log_path)
    return model, rows, final


def write_log(rows, path) -> None:
    lines = ["epoch,split,total,l_dry,l_rir,l_rec"]
    for epoch, split, total, l_dry, l_rir, l_rec in rows:
        lines.append(f"{epoch},{split},{total:.12g},{l_dry:.12g},"
                     f"{l_rir:.12g},{l_rec:.12g}")
    with corpus.replacing(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# Cached-example lookup
# ---------------------------------------------------------------------------

def split_cache_paths(manifest, examples_dir, split):
    by_id = {r.id: r.split for r in manifest.rirs}
    return [Path(examples_dir) / corpus.pair_cache_name(p)
            for p in manifest.pairs if by_id.get(p.rir_id) == split]


def load_split_examples(manifest, examples_dir, split, limit=None):
    """The cached examples of `split`, only the first `limit` when given."""
    paths = split_cache_paths(manifest, examples_dir, split)[:limit]
    return [corpus.load_example(p) for p in paths]
