"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dereverb import autodiff, models, nn  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*.wav"))}


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        inputs.make_tree(tmp_path / name, seed, n_dry=2, n_rooms=2, mics_per_room=2)
    a, b, c = (_tree_bytes(tmp_path / n) for n in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert all(a[k] != c[k] for k in a)


def test_rir_lengths_and_rates_cover_padding_and_truncation(tmp_path):
    inputs.make_tree(tmp_path, 3, n_dry=1, n_rooms=3, mics_per_room=2)
    from dereverb import dsp
    clips = [dsp.read_wav(p) for p in sorted((tmp_path / "rir").glob("*.wav"))]
    assert {c.sample_rate for c in clips} == set(inputs.RIR_RATES)
    seconds = [c.duration_s for c in clips]
    assert min(seconds) < 2.0 < max(seconds)
    dry = dsp.read_wav(next((tmp_path / "dry").glob("*.wav")))
    assert dry.sample_rate == 16000 and 5.0 < dry.duration_s < 5.5


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert set(names[:len(SPEC["workloads"])]) == set(workloads.WORKLOADS)


def test_every_per_layer_metric_names_a_real_function():
    for metric in SPEC["per_layer"]:
        if metric["name"] == tracing.NODES:
            continue
        qual, _ = tracing.split_metric(metric["name"])
        obj = __import__("dereverb." + qual.split(".")[0], fromlist=["_"])
        for part in qual.split(".")[1:]:
            obj = getattr(obj, part)
        assert callable(obj), qual


def test_wrapper_on_by_name_import_catches_calls():
    original = autodiff.row
    tracer = tracing.Tracer()
    tracer.install(["autodiff.row"])
    try:
        assert nn.row is not original  # nn's own binding was replaced
        rng = np.random.default_rng(0)
        params = nn.GruParams(3, 2, rng), nn.GruParams(3, 2, rng)
        nn.bigru_layer(rng.standard_normal((5, 3)), *params)
    finally:
        tracer.uninstall()
    assert nn.row is original and autodiff.row is original
    assert [s[0] for s in tracer.spans].count("autodiff.row") == 5


def test_span_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.install(["nn.bigru_layer", "nn.gru_cell"])
    try:
        tracer.set_phase("run1")
        rng = np.random.default_rng(0)
        params = nn.GruParams(3, 2, rng), nn.GruParams(3, 2, rng)
        nn.bigru_layer(rng.standard_normal((4, 3)), *params)
        tracer.set_phase("check")
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    layer = totals[("run1", "nn.bigru_layer")]
    cells = totals[("run1", "nn.gru_cell")]
    assert cells[0] == 8
    assert layer[2] == pytest.approx(layer[1] - cells[1], abs=1e-9)


def test_directional_check_tells_a_wrong_backward():
    p = autodiff.Tensor(np.arange(1.0, 4.0))

    def squares(scale):
        # sum(p^2) with a backward rule of scale * p; the right one is 2 * p
        return lambda: autodiff._node(
            np.array(np.sum(p.data ** 2)), (p,),
            lambda g: autodiff.accumulate(p, scale * float(g) * p.data))

    assert workloads.directional_error(squares(2.0), [p], 0) < 1e-8
    assert workloads.directional_error(squares(1.8), [p], 0) > workloads.GRAD_RTOL


def _forward_counts(model, shape):
    tracer = tracing.Tracer()
    tracer.install(["nn.gru_cell", "nn.conv2d", "nn.conv2d_transposed"])
    try:
        tracer.set_phase("run1")
        model.forward(np.random.default_rng(0).standard_normal(shape))
        tracer.set_phase("check")
    finally:
        tracer.uninstall()
    return {name: calls for (_, name), (calls, _, _) in tracer.totals().items()}


def test_seed_program_counts_per_forward():
    counts = REFERENCE["counts"]
    joint = _forward_counts(models.build_model("joint"), workloads.INPUT_SHAPE)
    assert joint == counts["joint_forward"]
    unet = _forward_counts(models.build_model("dry-unet"), workloads.INPUT_SHAPE)
    assert unet == counts["dry_unet_forward"]
    assert workloads.CACHE_BYTES == counts["cache_file_bytes"]


@pytest.mark.parametrize("name", ["train-unet", "train-joint"])
def test_traced_and_untraced_rounds_are_bit_identical(tmp_path, name):
    workload = workloads.WORKLOADS[name]()
    check = workloads.Checks()
    workload.generate(tmp_path, 5, check)
    assert check.attempted and not check.failed
    workload.start()
    plain = workload.round()
    tracer = tracing.Tracer()
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    tracer.install(*tracing.wrapped_names(per_layer))
    try:
        tracer.set_phase("run1")
        traced = workload.round()
        tracer.set_phase("check")
    finally:
        tracer.uninstall()
    assert traced.train_loss == plain.train_loss
    assert traced.fingerprint == plain.fingerprint
    nodes = tracer.nodes["run1"]
    assert nodes == REFERENCE["counts"]["nodes_per_round"][name]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
