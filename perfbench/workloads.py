"""The benchmark workloads: train-joint, train-unet and synth.

Each workload has four parts:

- `generate`: the benchmark's own input generation, never timed. The train
  workloads also run the program's synthesis here, because the example
  cache it writes is their input.
- `setup`: the program's work before its first example. `probe.py` times
  it in fresh processes, so that imports count.
- `round`: one timed unit of work: a main phase (training, or the program's
  `synth` command) and a read phase (scoring held-out examples, or reading
  the cache back).
- `check`: correctness checks after the timed rounds.

The program's own seeds are fixed; only the generated WAV files depend on
the benchmark seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from dereverb import autodiff, cli, corpus, evaluation, models, trainer
from dereverb.seeding import rng_for

import inputs

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

PREPARE_SEED = 0
PAIR_SEED = 1
TRAIN_SEED = 2
PROGRAM_SEED = 0           # --seed of the commands the synth workload runs
INPUT_SHAPE = (313, 257)   # 5 s clip at hop 256, 512-point frames
RIR_SHAPE = (126, 257)     # 2 s RIR window
CACHE_BYTES = 32 + 4 * (2 * INPUT_SHAPE[0] * INPUT_SHAPE[1]
                        + RIR_SHAPE[0] * RIR_SHAPE[1] + 3)
CKPT_RTOL = 1e-5  # trained float64 model vs. its float32 checkpoint
QUALITY_RTOL = 0.1  # train_loss and eval_lsd_db vs. reference.json
GRAD_EPS = 1e-5     # step of the directional central difference
GRAD_RTOL = 1e-2    # its agreement with the analytic directional derivative


class Checks:
    """Counts attempted and failed checks; keeps what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def __call__(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed.append(what)


@dataclass
class Round:
    main_n: int
    main_s: float
    read_n: int
    read_s: float
    lsd_db: float
    fingerprint: object     # exact results and exit codes; equal across rounds
    processed: int          # distinct examples the round went through
    train_loss: float | None = None


def prepare(rir_dir):
    """The program's `prepare` step: ingest the RIR tree and split it by room."""
    records = corpus.ingest_rirs(rir_dir, inputs.GROUP_PATTERN)
    return corpus.split_groups(records, val_target=2, test_target=2,
                               seed=PREPARE_SEED)


def dry_paths(wav_dir):
    return sorted((Path(wav_dir) / "dry").glob("*.wav"))


def check_cached(check, example, path):
    """The cache file has the format's size and reads back the synthesised
    arrays and scales at float32 precision."""
    check(path.stat().st_size == CACHE_BYTES, f"{path.name}: size")
    loaded = corpus.load_example(path)
    for name in ("dry_target_logmag", "rir_target_mag", "reverb_target_mag"):
        want = getattr(example, name).astype(np.float32).astype(np.float64)
        check(np.array_equal(getattr(loaded, name), want), f"{path.name}: {name}")
    for name in ("dry_scale", "rir_scale", "reverb_scale"):
        check(getattr(loaded, name) == float(np.float32(getattr(example, name))),
              f"{path.name}: {name}")
    check(loaded.input_logmag.shape == INPUT_SHAPE
          and loaded.rir_target_mag.shape == RIR_SHAPE, f"{path.name}: shapes")


def check_reference(check, workload, name, value):
    ref = REFERENCE["quality"][workload][name]
    check(abs(value - ref) <= QUALITY_RTOL * abs(ref),
          f"{name} {value:.6g} not within {QUALITY_RTOL:g} of reference {ref:.6g}")


def run_command(argv):
    """The program's command-line entry point, its output swallowed; returns
    the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def directional_error(loss_fn, params, seed):
    """Relative error between the loss's analytic derivative along a random
    direction of all parameters and its central difference, on the
    workload's own model and shapes. A wrong backward rule shows here unless
    the gradient it spoils is a small part of the whole; the program's
    per-entry `gradcheck` of the tiny model covers that case."""
    for p in params:
        p.grad = None
    autodiff.backward(loss_fn())
    rng = np.random.default_rng(seed)
    direction = [rng.standard_normal(p.data.shape) for p in params]
    analytic = sum(float(np.vdot(p.grad, d)) for p, d in zip(params, direction)
                   if p.grad is not None)
    original = [p.data.copy() for p in params]
    values = []
    with autodiff.no_grad():
        for step in (GRAD_EPS, -GRAD_EPS):
            for p, o, d in zip(params, original, direction):
                p.data[...] = o + step * d
            values.append(float(loss_fn().data))
    for p, o in zip(params, original):
        p.data[...] = o
    numeric = (values[0] - values[1]) / (2 * GRAD_EPS)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def median_rate(rounds, n, s):
    return statistics.median(getattr(r, n) / getattr(r, s) for r in rounds)


class TrainWorkload:
    """Train a desk-scale model on cached examples, then score a held-out
    split. Eight dry clips and six two-microphone rooms: four rooms train
    (4 clips x 2 RIRs = 8 examples), one room is held out for test
    (4 other clips x 1 RIR = 4 examples)."""

    TRAIN_DRY = 4

    def __init__(self, name, kind):
        self.name = name
        self.kind = kind
        self.config = trainer.TrainConfig(model=kind, epochs=1, batch_size=4,
                                          lr=1e-4, seed=TRAIN_SEED, scale="desk")

    def generate(self, workdir, seed, check):
        dry_dir, rir_dir = inputs.make_tree(workdir / "wav", seed, n_dry=8,
                                            n_rooms=6, mics_per_room=2)
        manifest = prepare(rir_dir)
        dry = dry_paths(workdir / "wav")
        pairs = (corpus.make_pairs(dry[:self.TRAIN_DRY], manifest, 2,
                                   PAIR_SEED, "train")
                 + corpus.make_pairs(dry[self.TRAIN_DRY:], manifest, 1,
                                     PAIR_SEED, "test"))
        self.cache = workdir / "cache"
        self.cache.mkdir()
        for pair in pairs:
            path = self.cache / corpus.pair_cache_name(pair)
            example = corpus.synthesize_example(pair, manifest)
            corpus.save_example(example, path)
            check_cached(check, example, path)
        manifest.pairs = pairs
        corpus.save_manifest(manifest, self.cache / "manifest.jsonl")
        self.ckpt = workdir / "model.ckpt"
        return self.cache

    def setup(self, cache):
        """Manifest load, example loading and model build."""
        manifest = corpus.load_manifest(Path(cache) / "manifest.jsonl")
        train = trainer.load_split_examples(manifest, cache, "train")
        test = trainer.load_split_examples(manifest, cache, "test")
        ids = [p.stem for p in trainer.split_cache_paths(manifest, cache, "test")]
        models.build_model(self.kind, scale="desk", rng=rng_for(TRAIN_SEED, "init"))
        return train, test, ids

    def start(self):
        self.train, self.test, self.test_ids = self.setup(self.cache)
        return len(self.train) + len(self.test)

    def round(self):
        t0 = perf_counter()
        model, rows, final = trainer.train(self.config, self.train,
                                           checkpoint_path=self.ckpt)
        t1 = perf_counter()
        report = evaluation.evaluate_model(model, self.test, self.test_ids)
        t2 = perf_counter()
        self.last = final, report
        return Round(len(self.train), t1 - t0, len(self.test), t2 - t1,
                     report.aggregates()["lsd_db"][0], (rows, report.rows),
                     len(self.train) + len(self.test), train_loss=rows[-1][2])

    def check(self, rounds, check):
        rows = [row for r in rounds for row in r.fingerprint[0]]
        check(all(np.all(np.isfinite(row[2:])) for row in rows),
              "a loss component is not finite")
        check(all(r.fingerprint == rounds[0].fingerprint for r in rounds),
              "rounds differ: training or scoring is not deterministic")

        final, report = self.last
        loaded = trainer.load_checkpoint(self.ckpt)
        check(loaded.kind == final.kind and loaded.epoch == final.epoch
              and loaded.config == final.config
              and loaded.tensors.keys() == final.tensors.keys()
              and all(np.array_equal(loaded.tensors[k], v)
                      for k, v in final.tensors.items()),
              "checkpoint file does not round-trip")
        model = trainer.restore_model(loaded)
        restored = evaluation.evaluate_model(model, self.test, self.test_ids)
        check([row[:2] for row in restored.rows] == [row[:2] for row in report.rows]
              and np.allclose([row[2] for row in restored.rows],
                              [row[2] for row in report.rows], rtol=CKPT_RTOL),
              "restored checkpoint scores differently")

        example = self.train[0]
        err = directional_error(
            lambda: trainer.example_losses(model, example, self.config.weights)[0],
            [p for _, p in model.params()], TRAIN_SEED)
        check(err <= GRAD_RTOL,
              f"directional derivative off by {err:.3g} on a cached example")
        check(run_command(["gradcheck", "--model", self.kind]) == cli.EXIT_OK,
              f"the program's gradcheck of the tiny {self.kind} model fails")

        check_reference(check, self.name, "train_loss", rounds[-1].train_loss)
        check_reference(check, self.name, "eval_lsd_db", rounds[-1].lsd_db)


class SynthWorkload:
    """Run the program's `prepare` command, then its `synth` command, over a
    WAV tree: eight dry clips, eight two-microphone rooms; each dry clip
    meets four training RIRs, so one round renders and caches 32 examples,
    re-reading every WAV several times. The read phase loads each cached
    example back and scores the unprocessed reverberant input against the
    dry target (LSD)."""

    N_DRY = 8
    RIRS_PER_DRY = 4

    def __init__(self, name):
        self.name = name

    def generate(self, workdir, seed, check):
        inputs.make_tree(workdir / "wav", seed, n_dry=self.N_DRY, n_rooms=8,
                         mics_per_room=2)
        self.workdir = workdir
        self.out = workdir / "cache"
        return workdir

    def setup(self, workdir):
        """The `prepare` command: ingest, split, manifest write."""
        return run_command(["prepare", "--rir-dir", workdir / "wav" / "rir",
                            "--group-pattern", inputs.GROUP_PATTERN,
                            "--val", 2, "--test", 2,
                            "--out", workdir / "manifest.jsonl",
                            "--seed", PROGRAM_SEED])

    def start(self):
        self.prepare_code = self.setup(self.workdir)
        return self.N_DRY * self.RIRS_PER_DRY

    def round(self):
        t0 = perf_counter()
        code = run_command(["synth", "--manifest", self.workdir / "manifest.jsonl",
                            "--dry-dir", self.workdir / "wav" / "dry",
                            "--rirs-per-dry", self.RIRS_PER_DRY,
                            "--split", "train", "--out-dir", self.out,
                            "--seed", PROGRAM_SEED, "--threads", 1])
        t1 = perf_counter()
        pairs = corpus.load_manifest(self.out / "manifest.jsonl").pairs
        lsd = [evaluation.log_spectral_distance(ex.input_logmag, ex.dry_target_logmag)
               for ex in (corpus.load_example(self.out / corpus.pair_cache_name(p))
                          for p in pairs)]
        t2 = perf_counter()
        return Round(len(pairs), t1 - t0, len(pairs), t2 - t1,
                     float(np.mean(lsd)), (code, lsd), len(pairs))

    def check(self, rounds, check):
        check(self.prepare_code == cli.EXIT_OK, "prepare fails")
        check(all(r.fingerprint[0] == cli.EXIT_OK for r in rounds), "synth fails")
        check(all(r.main_n == self.N_DRY * self.RIRS_PER_DRY for r in rounds),
              "synth renders the wrong number of examples")
        check(all(np.all(np.isfinite(r.fingerprint[1])) for r in rounds),
              "an LSD is not finite")
        check(all(r.fingerprint == rounds[0].fingerprint for r in rounds),
              "rounds differ: synthesis is not deterministic")
        prepared = corpus.load_manifest(self.workdir / "manifest.jsonl")
        cached = corpus.load_manifest(self.out / "manifest.jsonl")
        check(cached.rirs == prepared.rirs
              and {r.id for r in prepared.rirs_in("train")}
              >= {p.rir_id for p in cached.pairs},
              "the cached manifest lost RIRs or pairs a non-training RIR")
        for pair in cached.pairs:
            check_cached(check, corpus.synthesize_example(pair, cached),
                         self.out / corpus.pair_cache_name(pair))
        check_reference(check, self.name, "eval_lsd_db", rounds[-1].lsd_db)


WORKLOADS = {
    "train-joint": lambda: TrainWorkload("train-joint", "joint"),
    "train-unet": lambda: TrainWorkload("train-unet", "dry-unet"),
    "synth": lambda: SynthWorkload("synth"),
}


def end_to_end(rounds, setup_s, peak_rss_mb):
    return {
        "setup_s": setup_s,
        "ex_per_s": median_rate(rounds, "main_n", "main_s"),
        "eval_ex_per_s": median_rate(rounds, "read_n", "read_s"),
        "peak_rss_mb": peak_rss_mb,
        "eval_lsd_db": rounds[-1].lsd_db,
    }
