"""Deterministic training loops, checkpointing, and loss logging.

Training computes in float32: parameters, activations, gradients and Adam
moments (Micikevicius et al., *Mixed Precision Training*, arXiv:1710.03740,
without the float64 master copy that only float16 needs). Everything else,
scoring and gradient checks included, computes in float64.

A run is fully determined by (seed, config, example order) when BLAS runs
one thread (OPENBLAS_NUM_THREADS=1; more threads may change GEMM summation
order and so the bytes): initialization and epoch shuffles draw from named
streams of the master seed, batches accumulate gradients in a fixed order,
and the log records every loss component per epoch. Every training setting
lives in `TrainConfig`. A run starts from a fresh model; a checkpoint
(format v4) is a snapshot of the model after an epoch: its kind and config,
the epoch, and the parameters as float32, as training holds them. The
optimizer's state is not kept, so a checkpoint is for scoring, not for
continuing a run.

A batch accumulates gradients one example at a time, and each example's
backward pass frees that example's graph as it walks it, so training holds
one example's activations at a time, whatever the batch size.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import corpus, models
from .autodiff import no_grad
from .errors import (
    EmptySplit,
    NonFiniteLoss,
    ParseError,
    VersionMismatch,
    require_record,
)
from .nn import Adam
from .seeding import rng_for

CKPT_MAGIC = b"DRVB"
CKPT_VERSION = 4
VAL_LIMIT = 32  # validation examples scored per epoch


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
        w = self.weights
        if not (len(w) == 3 and all(math.isfinite(x) and x >= 0 for x in w) and any(w)):
            raise ValueError("loss weights must be three finite, non-negative numbers, "
                             "not all zero")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint interval must not be negative")


@dataclass
class Checkpoint:
    kind: str
    config: dict
    epoch: int                      # epochs trained, at least 1
    tensors: dict = field(default_factory=dict)  # parameter name -> ndarray (shape on file)


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------

def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Binary layout: magic, version, u64 JSON length, JSON metadata (the
    `Checkpoint` fields, `tensors` as a {name: shape} object in name order),
    then every tensor's data as little-endian float32 in name order."""
    names = sorted(ckpt.tensors)
    meta = json.dumps({
        "kind": ckpt.kind, "config": ckpt.config, "epoch": ckpt.epoch,
        "tensors": {name: list(ckpt.tensors[name].shape) for name in names},
    }, sort_keys=True).encode()
    with corpus.replacing(path) as fh:
        fh.write(struct.pack("<4sIQ", CKPT_MAGIC, CKPT_VERSION, len(meta)))
        fh.write(meta)
        for name in names:
            fh.write(np.ascontiguousarray(ckpt.tensors[name], dtype="<f4").tobytes())


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
    except (ValueError, RecursionError) as exc:   # not UTF-8, not JSON, or nested too deep
        raise ParseError(f"{path}: bad metadata: {exc}") from exc
    require_record(meta, Checkpoint, f"{path}: metadata")
    if meta["epoch"] < 1:
        raise ParseError(f"{path}: epoch must be at least 1, got {meta['epoch']}")
    tensors = {}
    offset = 16 + meta_len
    for name in sorted(meta["tensors"]):
        shape = meta["tensors"][name]
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ParseError(f"{path}: tensor {name!r}: bad shape {shape!r}")
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


def checkpoint_from_model(model, epoch: int) -> Checkpoint:
    """A float32 snapshot of `model`'s parameters after `epoch` epochs."""
    return Checkpoint(
        kind=model.kind, config=models.config_to_dict(model.config), epoch=epoch,
        tensors={name: p.data.astype(np.float32) for name, p in model.params()})


def restore_model(ckpt: Checkpoint):
    """Rebuild the model and overwrite its parameters from the checkpoint, in
    the engine's precision (float64 unless inside `autodiff.precision`)."""
    model = models.build_model_from_config(ckpt.kind, ckpt.config)
    odd = sorted(ckpt.tensors.keys() ^ {name for name, _ in model.params()})
    if odd:
        raise ParseError(f"checkpoint tensors {odd} do not match the parameters of a "
                         f"{ckpt.kind!r} model")
    for name, p in model.params():
        stored = ckpt.tensors[name]
        if stored.shape != p.data.shape:
            raise ParseError(f"checkpoint tensor {name!r} is not of shape {p.data.shape}")
        p.data = stored.astype(p.data.dtype)
    return model


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
          checkpoint_path=None, log_path=None):
    """Train a fresh model in float32 and return (model, rows, final checkpoint).

    Rows are (epoch, split, total, l_dry, l_rir, l_rec) with one train row
    per epoch, from epoch 1, and one val row when validation examples are
    given. Given a `checkpoint_path`, the model is written there every
    `checkpoint_every` epochs and after the last, so a run that stops early
    leaves its last snapshot there. A non-finite loss, or a non-finite
    gradient before an Adam step, raises `NonFiniteLoss`. The returned model
    holds float64 parameters equal to the checkpoint's, so it scores exactly
    as `restore_model(final)` does.
    """
    if not train_examples:
        raise EmptySplit("no training examples")

    with ad.precision(np.float32):
        model = models.build_model(config.model, scale=config.scale,
                                   rng=rng_for(config.seed, "init"))
        named = model.params()
        opt = Adam([p for _, p in named], lr=config.lr)
        shuffle_rng = rng_for(config.seed, "shuffle")

        rows = []
        for epoch in range(1, config.epochs + 1):
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
                save_checkpoint(checkpoint_from_model(model, epoch), checkpoint_path)

        final = checkpoint_from_model(model, config.epochs)
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
