"""Time one workload's set-up in a fresh process.

    python3 perfbench/probe.py WORKLOAD DIR

DIR is what the workload's `generate` returned. Prints the seconds from
before the program is imported until its set-up has finished.
"""

import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(workload, directory):
    t0 = perf_counter()
    import workloads
    workloads.WORKLOADS[workload]().setup(Path(directory))
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main(*sys.argv[1:])
