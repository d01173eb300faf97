"""Checkpoint evaluation: spectral distances for dry estimates, decay
metrics for impulse-response estimates, CSV reports.

Every metric is computed in float64. A loaded example's targets are float32
(`corpus.TrainingExample`); arithmetic with a float64 estimate widens them
exactly, and each `exp` of the dry target is taken in float64 explicitly, so
a report has the same bytes as on the example widened to float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import corpus, dsp, models, trainer
from .autodiff import no_grad, precision
from .errors import EmptySplit, InsufficientDecay, ShapeMismatch, ZeroEnergy

DB_CLAMP = -120.0
_LN_TO_DB = 20.0 / math.log(10.0)


def log_spectral_distance(est_logmag: np.ndarray, ref_logmag: np.ndarray) -> float:
    """Frame-averaged RMS difference of natural-log spectra, in dB."""
    if est_logmag.shape != ref_logmag.shape:
        raise ShapeMismatch(f"{est_logmag.shape} vs {ref_logmag.shape}")
    diff = np.subtract(est_logmag, ref_logmag, dtype=np.float64)   # of float32 inputs too
    per_frame = np.sqrt(np.mean((_LN_TO_DB * diff) ** 2, axis=1))
    return float(per_frame.mean())


def energy_decay_curve(rir_mag: np.ndarray) -> np.ndarray:
    """Backward-integrated frame energy relative to the total, in dB.

    Starts at 0 dB, non-increasing, clamped at -120 dB once the remaining
    energy is zero.
    """
    energy = (np.asarray(rir_mag, dtype=np.float64) ** 2).sum(axis=1)
    remaining = np.cumsum(energy[::-1])[::-1]
    if remaining[0] <= 0.0:
        raise ZeroEnergy("impulse response magnitude is all zero")
    ratio = remaining / remaining[0]
    floor = 10.0 ** (DB_CLAMP / 10.0)
    return 10.0 * np.log10(np.maximum(ratio, floor))


def t60_estimate(edc_curve: np.ndarray, hop_s: float = dsp.HOP / dsp.SAMPLE_RATE) -> float:
    """Reverberation time from a line fit over the -5 dB to -25 dB stretch."""
    curve = np.asarray(edc_curve, dtype=np.float64)
    if curve.min() > -25.0:
        raise InsufficientDecay("curve never reaches -25 dB")
    mask = (curve <= -5.0) & (curve >= -25.0)
    if mask.sum() < 2:
        raise InsufficientDecay("fewer than two frames between -5 and -25 dB")
    frames = np.flatnonzero(mask)
    slope = np.polyfit(frames, curve[mask], 1)[0]  # dB per frame
    if slope >= 0.0:
        raise InsufficientDecay("fitted slope is not decaying")
    return float(-60.0 / slope * hop_s)


@dataclass
class MetricsReport:
    rows: list = field(default_factory=list)  # (example_id, metric, value)

    def add(self, example_id: str, metric: str, value: float):
        self.rows.append((example_id, metric, float(value)))

    def metrics(self):
        return sorted({m for _, m, _ in self.rows})

    def aggregates(self):
        out = {}
        for metric in self.metrics():
            values = np.array([v for _, m, v in self.rows if m == metric])
            out[metric] = (float(values.mean()), float(values.std()))
        return out

    def to_csv(self, path):
        lines = ["example_id,metric,value"]
        for example_id, metric, value in self.rows:
            lines.append(f"{example_id},{metric},{value:.12g}")
        for metric, (mean, std) in self.aggregates().items():
            lines.append(f"__mean__,{metric},{mean:.12g}")
            lines.append(f"__std__,{metric},{std:.12g}")
        with corpus.replacing(path) as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def _dry_metrics(report, example_id, est_logmag, example):
    report.add(example_id, "lsd_db",
               log_spectral_distance(est_logmag, example.dry_target_logmag))
    report.add(example_id, "dry_mag_mse", float(np.mean(
        (np.exp(est_logmag) - np.exp(example.dry_target_logmag, dtype=np.float64)) ** 2)))


def _rir_metrics(report, example_id, rir_est, example):
    report.add(example_id, "rir_mag_mse", float(np.mean(
        (rir_est - example.rir_target_mag) ** 2)))
    try:
        edc_est = energy_decay_curve(rir_est)
        edc_ref = energy_decay_curve(example.rir_target_mag)
        report.add(example_id, "edc_mse_db", float(np.mean((edc_est - edc_ref) ** 2)))
        report.add(example_id, "t60_abs_err_s",
                   abs(t60_estimate(edc_est) - t60_estimate(edc_ref)))
    except (ZeroEnergy, InsufficientDecay):
        pass  # decay undefined for this estimate; row omitted


def evaluate_model(model, examples, example_ids) -> MetricsReport:
    """Forward each example of the iterable `examples` as it comes and score
    each head the model's forward returns; a model with both heads is also
    scored on the reverberant reconstruction. The forward runs at the
    precision of the model's parameters (float32 for a trained or restored
    model; float64 for one without parameters); every metric is computed in
    float64. An example is dropped once scored, so a lazy `examples` is held
    one example at a time."""
    report = MetricsReport()
    ids = iter(example_ids)
    params = model.params() if hasattr(model, "params") else ()
    dtype = next((p.data.dtype for _, p in params), np.float64)
    with no_grad():
        for example in examples:
            with precision(dtype):
                est = model.forward(example.input_logmag)
            _score(report, next(ids), est, example)
            del example   # freed before the next one loads
    if not report.rows:
        raise EmptySplit("no examples to evaluate")
    return report


def _score(report, example_id, est, example):
    est = {head: t.data.astype(np.float64) for head, t in est.items()}
    if "dry" in est:
        _dry_metrics(report, example_id, est["dry"], example)
    if "rir" in est:
        _rir_metrics(report, example_id, est["rir"], example)
    if len(est) == 2:
        # `reconstruct_reverb`'s forward, kept off the engine and its precision
        recon = models._frame_convolve(est["rir"],
                                       np.exp(example.dry_target_logmag, dtype=np.float64))
        report.add(example_id, "reconstruction_mse", float(np.mean(
            (recon - example.reverb_target_mag) ** 2)))


def evaluate(checkpoint: trainer.Checkpoint, manifest, split: str,
             examples_dir) -> MetricsReport:
    """Score a checkpoint on every cached example of one split, loading each
    as it is scored."""
    model = trainer.restore_model(checkpoint)
    paths = trainer.split_cache_paths(manifest, examples_dir, split)
    if not paths:
        raise EmptySplit(f"split {split!r} has no cached examples")
    return evaluate_model(model, (corpus.load_example(p) for p in paths),
                          [p.stem for p in paths])
