"""Command-line entry point: prepare / synth / train / gradcheck / eval / info.

Exit codes: 0 ok, 1 I/O failure, 2 data problem, 3 numeric failure,
64 usage. prepare, synth, train and gradcheck draw random numbers and take
--seed; all their randomness fans out from it through named streams. Every
subcommand is bit-reproducible when BLAS runs one thread
(OPENBLAS_NUM_THREADS=1); with more, GEMM summation order and so training
bytes may change. train and eval compute in float32; gradcheck in float64.
gradcheck compares finite differences with the gradient of
`trainer.example_losses`, the loss train differentiates, for each kind's
tiny model on one random example. Only synth takes --threads, its worker
count (at least 1). synth reads and analyses each dry file and each RIR
once, however many pairs use it, and writes each example as soon as it is
mixed.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import groupby
from pathlib import Path

import numpy as np

from . import corpus, evaluation, models, nn, trainer
from .errors import (
    DereverbError,
    IoFailure,
    NonFiniteLoss,
)
from .seeding import derive_seed

EXIT_OK = 0
EXIT_IO = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

GRADCHECK_LIMIT = 1e-4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _add_seed(p):
    p.add_argument("--seed", type=int, default=0, help="master random seed")


def _print_config(args):
    shown = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config: {shown}")


def build_parser() -> _Parser:
    parser = _Parser(prog="dereverb",
                     description="speech dereverberation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("prepare", formatter_class=fmt,
                       help="ingest a RIR directory and write a split manifest")
    p.add_argument("--rir-dir", required=True)
    p.add_argument("--group-pattern", default="",
                   help="regex over file names; first capture group is the "
                        "group key (default: file stem)")
    p.add_argument("--val", type=int, default=200, help="validation RIR count")
    p.add_argument("--test", type=int, default=200, help="test RIR count")
    p.add_argument("--cap", type=int, default=100, help="max retained per group")
    p.add_argument("--big-group", type=int, default=20,
                   help="groups larger than this go to train")
    p.add_argument("--out", default="manifest.jsonl")
    _add_seed(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("synth", formatter_class=fmt,
                       help="pair dry speech with RIRs and cache training examples",
                       description="Each dry file and each RIR is read and "
                                   "analysed once; each example is written as "
                                   "soon as it is mixed. A failure stops synth "
                                   "before the manifest is written; examples "
                                   "already written remain.")
    p.add_argument("--manifest", required=True)
    p.add_argument("--dry-dir", required=True)
    p.add_argument("--rirs-per-dry", type=int, default=2)
    p.add_argument("--split", default="train",
                   choices=["train", "val", "test"])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads, at least 1; one dry file each")
    _add_seed(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", formatter_class=fmt,
                       help="train a model on cached examples")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", default="joint", choices=list(models.MODEL_KINDS))
    p.add_argument("--scale", default="desk", choices=list(models.SCALES))
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--weights", default="1,1,1",
                   help="w_dry,w_rir,w_rec for the joint loss")
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--out", default="model.ckpt")
    _add_seed(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", formatter_class=fmt,
                       help="finite-difference check of each tiny model's training loss")
    p.add_argument("--model", default="all",
                   choices=["all", *models.MODEL_KINDS])
    _add_seed(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("eval", formatter_class=fmt,
                       help="score a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--report", default="report.csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("info", formatter_class=fmt,
                       help="describe a checkpoint or a fresh model")
    p.add_argument("--ckpt", default=None)
    p.add_argument("--model", default=None, choices=list(models.MODEL_KINDS))
    p.add_argument("--scale", default="desk", choices=list(models.SCALES))
    p.set_defaults(func=cmd_info)
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_prepare(args) -> int:
    if not Path(args.rir_dir).is_dir():
        print(f"error: {args.rir_dir} is not a directory", file=sys.stderr)
        return EXIT_IO
    records = corpus.ingest_rirs(args.rir_dir, args.group_pattern)
    manifest = corpus.split_groups(
        records, val_target=args.val, test_target=args.test, cap=args.cap,
        big_group=args.big_group, seed=derive_seed(args.seed, "prepare"))
    corpus.save_manifest(manifest, args.out)
    counts = manifest.split_counts()
    print(f"wrote {args.out}: train {counts.get('train', 0)}, "
          f"val {counts.get('val', 0)}, test {counts.get('test', 0)}, "
          f"discarded {counts.get('discarded', 0)}")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    manifest = corpus.load_manifest(args.manifest)
    dry_dir = Path(args.dry_dir)
    if not dry_dir.is_dir():
        print(f"error: {dry_dir} is not a directory", file=sys.stderr)
        return EXIT_IO
    dry_paths = sorted(p for p in dry_dir.rglob("*") if p.suffix.lower() == ".wav")
    if not dry_paths:
        print(f"error: no WAV files under {dry_dir}", file=sys.stderr)
        return EXIT_DATA

    pairs = corpus.make_pairs(dry_paths, manifest, args.rirs_per_dry,
                              seed=derive_seed(args.seed, "synth"),
                              split=args.split)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # memory holds every RIR the pairs use and one dry file per worker
    rirs = {rir_id: corpus.prepare_rir(manifest.rir_by_id(rir_id))
            for rir_id in dict.fromkeys(p.rir_id for p in pairs)}
    # make_pairs emits each dry file's pairs together
    groups = [list(group) for _, group in groupby(pairs, key=lambda p: p.dry_path)]

    def render(group):
        dry = corpus.prepare_dry(group[0].dry_path)
        for pair in group:
            corpus.save_example(corpus.mix(dry, rirs[pair.rir_id]),
                                out_dir / corpus.pair_cache_name(pair))

    # one worker renders in this thread: a fresh worker thread can find the
    # last one's malloc arena not yet released and fault in a new one
    if args.threads == 1:
        for group in groups:
            render(group)
    else:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            list(pool.map(render, groups))

    # replace this split's pairings, keep any other split's
    by_id = {r.id: r.split for r in manifest.rirs}
    kept = [p for p in manifest.pairs if by_id.get(p.rir_id) != args.split]
    manifest.pairs = kept + pairs
    corpus.save_manifest(manifest, out_dir / "manifest.jsonl")
    print(f"wrote {len(pairs)} examples to {out_dir} "
          f"({len(dry_paths)} dry files x {args.rirs_per_dry} RIRs, "
          f"split {args.split})")
    return EXIT_OK


def _parse_weights(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected w_dry,w_rir,w_rec, got {text!r}")
    return tuple(float(p) for p in parts)


def cmd_train(args) -> int:
    manifest = corpus.load_manifest(args.manifest)
    examples_dir = Path(args.manifest).parent
    config = trainer.TrainConfig(
        model=args.model, epochs=args.epochs, batch_size=args.batch,
        lr=args.lr, weights=_parse_weights(args.weights),
        seed=derive_seed(args.seed, "train"),
        checkpoint_every=args.checkpoint_every, scale=args.scale)
    train_examples = trainer.load_split_examples(manifest, examples_dir, "train")
    val_examples = trainer.load_split_examples(manifest, examples_dir, "val",
                                               limit=trainer.VAL_LIMIT)
    log_path = Path(args.out).with_suffix(".csv")
    _, rows, _ = trainer.train(config, train_examples, val_examples,
                               checkpoint_path=args.out, log_path=log_path)
    last = [r for r in rows if r[1] == "train"][-1]
    print(f"wrote {args.out} and {log_path}")
    print(f"final train loss: total {last[2]:.6g} "
          f"(dry {last[3]:.6g}, rir {last[4]:.6g}, rec {last[5]:.6g})")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    kinds = list(models.MODEL_KINDS) if args.model == "all" else [args.model]
    weights = trainer.TrainConfig().weights
    worst = 0.0
    rng_data = np.random.default_rng(derive_seed(args.seed, "gradcheck-data"))
    for kind in kinds:
        spec = models.MODELS[kind]
        model = models.build_tiny_model(
            kind, np.random.default_rng(derive_seed(args.seed, f"gradcheck-{kind}")))
        example = _tiny_loss_example(rng_data, spec.tiny_input, models.TINY_RIR_FRAMES)
        err = nn.grad_check(lambda: trainer.example_losses(model, example, weights)[0],
                            [p for _, p in model.params()], eps=spec.grad_eps)
        worst = max(worst, err)
        print(f"gradcheck {kind}: max rel err {err:.3e}")
    if worst > GRADCHECK_LIMIT:
        print(f"FAIL: {worst:.3e} exceeds {GRADCHECK_LIMIT:.0e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _tiny_loss_example(rng, input_shape, rir_frames):
    # drawn in field order: input and dry target ~ N(0, 1), targets ~ U(0, 1)
    return corpus.TrainingExample(
        input_logmag=rng.standard_normal(input_shape),
        dry_target_logmag=rng.standard_normal(input_shape),
        rir_target_mag=rng.uniform(0.0, 1.0, (rir_frames, input_shape[1])),
        reverb_target_mag=rng.uniform(0.0, 1.0, input_shape),
        dry_scale=1.0, rir_scale=1.0, reverb_scale=1.0)


def cmd_eval(args) -> int:
    checkpoint = trainer.load_checkpoint(args.ckpt)
    manifest = corpus.load_manifest(args.manifest)
    examples_dir = Path(args.manifest).parent
    report = evaluation.evaluate(checkpoint, manifest, args.split, examples_dir)
    report.to_csv(args.report)
    print(f"wrote {args.report}")
    for metric, (mean, std) in report.aggregates().items():
        print(f"{metric}: mean {mean:.6g}, std {std:.6g}")
    return EXIT_OK


def cmd_info(args) -> int:
    if args.ckpt:
        checkpoint = trainer.load_checkpoint(args.ckpt)
        model = trainer.restore_model(checkpoint)
        print(f"kind: {checkpoint.kind} (epoch {checkpoint.epoch})")
    elif args.model:
        model = models.build_model(args.model, scale=args.scale)
        print(f"kind: {model.kind} (fresh, scale {args.scale})")
    else:
        print("error: pass --ckpt or --model", file=sys.stderr)
        return EXIT_USAGE
    config = models.config_to_dict(model.config)
    print(f"config: {config}")
    stack = config.get("rir_layers", config.get("layers"))
    if isinstance(stack, list):   # a conv stack, not a GRU depth
        print("conv stack: " + ", ".join(f"({kt}x{kf}, {c})" for kt, kf, c in stack))
        # each layer's input and the path conv2d takes for it
        names = [n[:-len(".kernel")] for n, _ in model.params() if n.endswith(".kernel")]
        frames, c_in = config["input_frames"], 1
        for i, (name, (kt, kf, c_out)) in enumerate(zip(names, stack), 1):
            path = nn.conv_path((frames, config["bins"], c_in), (kt, kf, c_in, c_out))
            print(f"  {name}: {frames}x{config['bins']}x{c_in} input, {path}")
            if i == config.get("trunk_depth"):
                print(f"  (trunk ends: the dry head reads {name})")
            frames, c_in = frames - kt + 1, c_out
    # each Bi-GRU layer, and how its scan steps at the float32 of train and eval
    params = dict(model.params())
    for name in params:
        if name.endswith(".fwd.u"):
            layer = name[:-len(".fwd.u")]
            widths = params[name].data.shape[0], params[layer + ".bwd.u"].data.shape[0]
            steps = "both directions" if nn.bigru_stacks(*widths, np.float32) else "one direction"
            print(f"  {layer}: {widths[0]} + {widths[1]} hidden, {steps} per loop")
    total = 0
    for name, p in model.params():
        print(f"  {name}: {tuple(p.data.shape)}")
        total += p.data.size
    print(f"parameters: {total}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _print_config(args)
    corpus.keep_freed_memory()
    try:
        return args.func(args)
    except NonFiniteLoss as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (IoFailure, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DereverbError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
