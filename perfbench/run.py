"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Generates the workload's inputs from the
seed under .perfbench/, times the program's set-up in fresh processes,
then runs timed rounds of the workload until S seconds are used (at least
two rounds), checks the outputs, and prints one JSON line as the last line
of standard output: `correct`, `attempted`, `failed` and `metrics`. With
--trace 0 the metrics are BENCHMARK.json's end_to_end ones; with --trace 1
the program's public functions are wrapped from here and the metrics are
its per_layer ones, per processed example. A line before it records the
environment and the per-round figures. BLAS is pinned to one thread.
"""

import os

# before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
MIN_ROUNDS = 2
PROBE_TIMEOUT_S = 60


def parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def probe_setup(workload, directory):
    """Set-up seconds in each of SETUP_REPEATS fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(directory)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run(args, spec):
    import environment
    import tracing
    import workloads

    env = environment.describe()
    check = workloads.Checks()
    # None: the loaded BLAS exports no thread-count query; the pin stands
    check(env["blas_threads"] in (1, None),
          f"BLAS runs {env['blas_threads']} threads")
    workload = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = None
    try:
        setup_dir = workload.generate(workdir, args.seed, check)
        setup_runs = probe_setup(args.workload, setup_dir)

        per_layer = [m["name"] for m in spec["per_layer"]]
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(*tracing.wrapped_names(per_layer))
            tracer.set_phase("setup")
        setup_examples = workload.start()

        rounds = []
        start = perf_counter()
        while True:
            if tracer:
                tracer.set_phase(f"run{len(rounds) + 1}")
            rounds.append(workload.round())
            elapsed = perf_counter() - start
            if len(rounds) >= MIN_ROUNDS \
                    and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.set_phase("check")
        workload.check(rounds, check)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"workload": args.workload, "seed": args.seed,
              "environment": env, "setup_runs": setup_runs,
              "rounds": [[r.main_n, r.main_s, r.read_n, r.read_s] for r in rounds],
              "train_loss": rounds[-1].train_loss, "lsd_db": rounds[-1].lsd_db,
              "failed_checks": check.failed}
    if tracer:
        values = tracer.per_example(per_layer, setup_examples,
                                    sum(r.processed for r in rounds))
        counts = tracer.exact_counts(per_layer)
        for name, per_round in counts.items():
            check(len(set(per_round)) == 1, f"{name} differs between rounds")
        detail["counts_per_round"] = counts
        detail["trace_file"] = str(
            Path(".perfbench") / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.dump(ROOT / detail["trace_file"])
        declared = spec["per_layer"]
    else:
        values = workloads.end_to_end(rounds, statistics.median(setup_runs),
                                      peak_rss_mb)
        declared = spec["end_to_end"]
    print(json.dumps(detail))

    attempted = check.attempted + sum(r.main_n + r.read_n for r in rounds)
    return {"correct": not check.failed, "attempted": attempted,
            "failed": len(check.failed),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "dereverb" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'dereverb'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
