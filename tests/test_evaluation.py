import math
import weakref

import numpy as np
import pytest

from dereverb import corpus, evaluation, models, trainer
from dereverb.errors import EmptySplit, InsufficientDecay, ShapeMismatch, ZeroEnergy
from test_models import tiny_example


# --- log-spectral distance --------------------------------------------------

def test_lsd_zero_for_equal():
    x = np.random.default_rng(0).standard_normal((10, 20))
    assert evaluation.log_spectral_distance(x, x) == 0.0


def test_lsd_constant_offset_closed_form():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal((30, 40))
    est = ref + math.log(10) / 20.0
    assert evaluation.log_spectral_distance(est, ref) == pytest.approx(1.0)


def test_lsd_frame_permutation_invariant():
    rng = np.random.default_rng(2)
    est = rng.standard_normal((12, 8))
    ref = rng.standard_normal((12, 8))
    perm = rng.permutation(12)
    assert evaluation.log_spectral_distance(est, ref) == pytest.approx(
        evaluation.log_spectral_distance(est[perm], ref[perm]))


def lsd_in_the_operands_dtype(est, ref):
    """The former `log_spectral_distance`, which computed in the operands' dtype."""
    per_frame = np.sqrt(np.mean((evaluation._LN_TO_DB * (est - ref)) ** 2, axis=1))
    return float(per_frame.mean())


def test_lsd_computes_in_float64_whatever_its_inputs():
    rng = np.random.default_rng(3)
    est = rng.uniform(-11.0, 0.0, (313, 257))
    ref = rng.uniform(-11.0, 0.0, (313, 257)).astype(np.float32)
    # float64 estimates keep their bits
    for a, b in ((est, ref), (est, ref.astype(np.float64)), (ref, est)):
        assert evaluation.log_spectral_distance(a, b) == lsd_in_the_operands_dtype(a, b)
    # two float32 operands are scored as their float64 widenings, not in float32
    est32 = est.astype(np.float32)
    got = evaluation.log_spectral_distance(est32, ref)
    assert got == lsd_in_the_operands_dtype(est32.astype(np.float64), ref.astype(np.float64))
    assert got != lsd_in_the_operands_dtype(est32, ref)


def test_lsd_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        evaluation.log_spectral_distance(np.zeros((2, 3)), np.zeros((3, 2)))


# --- energy decay curve -------------------------------------------------------

def test_edc_single_frame_impulse():
    mag = np.zeros((126, 257))
    mag[0] = 1.0
    curve = evaluation.energy_decay_curve(mag)
    assert curve[0] == 0.0
    assert np.all(curve[1:] == -120.0)


def test_edc_exponential_slope():
    # e[t] = e0 * 10^(-6t/T) hits -60 dB at frame T, so the backward
    # integral decays at -60/T dB per frame away from the truncated tail.
    t60_frames = 40.0
    frames = 126
    energy = 10.0 ** (-6.0 * np.arange(frames) / t60_frames)
    mag = np.sqrt(energy)[:, None] * np.ones((frames, 5)) / math.sqrt(5)
    curve = evaluation.energy_decay_curve(mag)
    slopes = np.diff(curve[1:60])
    assert np.abs(slopes - (-60.0 / t60_frames)).max() < 0.02


def test_edc_monotone_non_increasing():
    rng = np.random.default_rng(3)
    for _ in range(10):
        mag = rng.uniform(0, 1, (30, 7))
        curve = evaluation.energy_decay_curve(mag)
        assert curve[0] == 0.0
        assert np.all(np.diff(curve) <= 1e-12)


def test_edc_zero_energy():
    with pytest.raises(ZeroEnergy):
        evaluation.energy_decay_curve(np.zeros((10, 4)))


# --- T60 ----------------------------------------------------------------------

def test_t60_constructed_slopes():
    frames = np.arange(126)
    assert evaluation.t60_estimate(-1.0 * frames) == pytest.approx(0.96, rel=0.02)
    assert evaluation.t60_estimate(-0.5 * frames) == pytest.approx(1.92, rel=0.02)


def test_t60_flat_curve_raises():
    with pytest.raises(InsufficientDecay):
        evaluation.t60_estimate(np.zeros(126))


def test_t60_shallow_curve_raises():
    with pytest.raises(InsufficientDecay):
        evaluation.t60_estimate(-0.1 * np.arange(126)[:100] * 0 - 10.0)


# --- evaluate ----------------------------------------------------------------

class OracleModel:
    """Echoes back the stored targets; every error metric must vanish."""

    kind = "joint"

    def __init__(self, examples):
        self.examples = list(examples)
        self.calls = 0

    def forward(self, x):
        from dereverb.autodiff import Tensor
        ex = self.examples[self.calls]
        self.calls += 1
        return {"dry": Tensor(ex.dry_target_logmag), "rir": Tensor(ex.rir_target_mag)}


def decaying_examples(n, frames=8, bins=5, rir_frames=6):
    rng = np.random.default_rng(7)
    out = []
    for _ in range(n):
        ex = tiny_example(rng, frames=frames, bins=bins, rir_frames=rir_frames)
        # exponential decay deep enough for a T60 fit
        profile = 10.0 ** (-3.0 * np.arange(rir_frames) / rir_frames)
        ex.rir_target_mag[:] = rng.uniform(0.5, 1.0, (rir_frames, bins)) * profile[:, None]
        ex.reverb_target_mag[:] = models._frame_convolve(
            ex.rir_target_mag, np.exp(ex.dry_target_logmag))
        ex.input_logmag[:] = np.log(np.maximum(ex.reverb_target_mag, 1e-5))
        out.append(ex)
    return out


def test_evaluate_oracle_scores_zero():
    examples = decaying_examples(3)
    model = OracleModel(examples)
    report = evaluation.evaluate_model(model, examples, [f"e{i}" for i in range(3)])
    for _, metric, value in report.rows:
        assert value == pytest.approx(0.0, abs=1e-10), metric


def test_evaluate_row_count():
    examples = decaying_examples(4)
    report = evaluation.evaluate_model(OracleModel(examples), examples,
                                       [f"e{i}" for i in range(4)])
    assert len(report.rows) == 4 * len(report.metrics())


def test_evaluate_constant_zero_dry_model_matches_direct_lsd():
    examples = decaying_examples(2)

    class ZeroModel:
        kind = "dry-gru"

        def forward(self, x):
            from dereverb.autodiff import Tensor
            return {"dry": Tensor(np.zeros_like(x if isinstance(x, np.ndarray) else x.data))}

    report = evaluation.evaluate_model(ZeroModel(), examples, ["a", "b"])
    # independent recomputation of the same metric
    want = [evaluation.log_spectral_distance(
        np.zeros_like(ex.dry_target_logmag), ex.dry_target_logmag)
        for ex in examples]
    got = [v for _, m, v in report.rows if m == "lsd_db"]
    np.testing.assert_allclose(got, want)


def test_evaluate_holds_one_loaded_example_at_a_time(tmp_path, monkeypatch):
    examples = decaying_examples(3)
    manifest = corpus.CorpusManifest(
        rirs=[corpus.RirRecord("r", "r.wav", "g", split="test")],
        pairs=[corpus.PairRecord(f"d{i}.wav", "r", i) for i in range(3)])
    for pair, ex in zip(manifest.pairs, examples):
        corpus.save_example(ex, tmp_path / corpus.pair_cache_name(pair))
    monkeypatch.setattr(trainer, "restore_model", lambda ckpt: OracleModel(examples))
    loaded, alive_at_load = [], []
    real_load = corpus.load_example

    def load(path):
        alive_at_load.append(sum(ref() is not None for ref in loaded))
        example = real_load(path)
        loaded.append(weakref.ref(example))
        return example

    monkeypatch.setattr(corpus, "load_example", load)
    report = evaluation.evaluate(None, manifest, "test", tmp_path)
    assert alive_at_load == [0, 0, 0]
    assert len(report.rows) == 3 * len(report.metrics())


def test_evaluate_model_takes_any_iterable():
    examples = decaying_examples(2)
    ids = ["a", "b"]
    from_list = evaluation.evaluate_model(OracleModel(examples), examples, ids)
    from_iter = evaluation.evaluate_model(OracleModel(examples), iter(examples), iter(ids))
    assert from_iter.rows == from_list.rows
    with pytest.raises(EmptySplit):
        evaluation.evaluate_model(OracleModel([]), iter([]), [])


def test_evaluate_empty_raises():
    with pytest.raises(EmptySplit):
        evaluation.evaluate_model(OracleModel([]), [], [])


def test_report_csv_layout(tmp_path):
    examples = decaying_examples(2)
    report = evaluation.evaluate_model(OracleModel(examples), examples, ["a", "b"])
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "example_id,metric,value"
    n_metrics = len(report.metrics())
    assert len(lines) == 1 + 2 * n_metrics + 2 * n_metrics  # rows + mean/std


def test_report_aggregates():
    report = evaluation.MetricsReport()
    report.add("a", "m", 1.0)
    report.add("b", "m", 3.0)
    mean, std = report.aggregates()["m"]
    assert mean == 2.0 and std == 1.0
