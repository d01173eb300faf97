"""Outside-in tracing: wrap the program's public functions from here.

A wrapper records a span (name, phase, start, end, id, parent id) around
each call; an op that returns a graph node also gets its backward rule wrapped,
so the backward pass is timed as a span named `<op>.bwd` inside the
`autodiff.backward` span. Spans stay in memory until `dump`. A span's self
time is its duration minus the part its child spans cover.

A wrapper is installed at every lookup site: every module of the package
that binds the original function under any name gets the wrapper, so calls
through a by-name import (`from .autodiff import row`) are caught too.
Methods (`nn.Adam.step`) are patched on their class.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

PACKAGE = "dereverb"
STATS = ("calls", "fwd_s", "bwd_s", "s", "self_s", "bytes", "repeat_share")
NODES = "autodiff.nodes"


def split_metric(name):
    """'nn.gru_cell.fwd_s' -> ('nn.gru_cell', 'fwd_s')."""
    qual, _, stat = name.rpartition(".")
    if stat not in STATS:
        raise ValueError(f"metric {name!r} has no known stat")
    return qual, stat


def wrapped_names(metrics):
    """The functions a list of per-layer metrics needs wrapped, and those
    whose backward is timed too."""
    quals, backward = set(), set()
    for name in metrics:
        if name != NODES:
            qual, stat = split_metric(name)
            quals.add(qual)
            if stat == "bwd_s":
                backward.add(qual)
    return sorted(quals), backward


# qualified name -> observer(args) called after the call; its values feed
# the `bytes` (file written) and `repeat_share` (file read) stats
OBSERVERS = {
    "corpus.save_example": lambda args: Path(args[1]).stat().st_size,
    "dsp.read_wav": lambda args: str(args[0]),
}


def _node_count(autodiff):
    # itertools.count shows its next value in its repr; reading it consumes
    # nothing, so tensor sequence numbers stay as they would untraced
    return int(repr(autodiff._counter)[len("count("):-1])


class Tracer:
    def __init__(self):
        self.autodiff = importlib.import_module(f"{PACKAGE}.autodiff")
        # finished spans: (name, phase, start, end, id, parent id, covered);
        # tuples of atoms, which the garbage collector stops tracking
        self.spans = []
        self.stack = []
        self.ids = itertools.count()
        self.observed = defaultdict(list)   # (phase, qual) -> observed values
        self.nodes = Counter()              # phase -> tensors created
        self.phases = []
        self.phase = None
        self._phase_start_nodes = 0
        self._patches = []
        self.t0 = perf_counter()

    # -- spans --------------------------------------------------------------

    def set_phase(self, phase):
        """Attribute later spans and tensor creations to `phase`; the node
        count of the previous phase is final once this returns."""
        now = _node_count(self.autodiff)
        if self.phase is not None:
            self.nodes[self.phase] += now - self._phase_start_nodes
        self.phases.append(phase)
        self.phase = phase
        self._phase_start_nodes = now

    def _wrap(self, qual, fn, backward):
        spans, stack, ids = self.spans, self.stack, self.ids
        observe = OBSERVERS.get(qual)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]    # span id, time covered by children
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append((qual, tracer.phase, start, end, frame[0],
                              parent[0] if parent else -1, frame[1]))
            if backward and getattr(out, "bwd", None) is not None:
                out.bwd = tracer._wrap(qual + ".bwd", out.bwd, False)
            if observe is not None:
                tracer.observed[(tracer.phase, qual)].append(observe(args))
            return out

        return wrapper

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self, quals, backward=()):
        """Wrap each qualified name ('nn.conv2d', 'nn.Adam.step') at every
        lookup site; names in `backward` also get their backward timed."""
        for qual in quals:
            mod_name, *path = qual.split(".")
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if len(path) == 2:
                owner = getattr(module, path[0])
                sites = [(owner, path[1])]
                original = owner.__dict__[path[1]]
            else:
                original = getattr(module, path[0])
                sites = [(m, attr) for m in self._modules()
                         for attr, value in vars(m).items() if value is original]
            wrapper = self._wrap(qual, original, qual in backward)
            for owner, attr in sites:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def totals(self):
        """{(phase, name): [calls, seconds, self seconds]} over all spans."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, phase, start, end, _, _, covered in self.spans:
            row = out[(phase, name)]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return out

    def phase_value(self, totals, phase, metric):
        if metric == NODES:
            return self.nodes[phase]
        qual, stat = split_metric(metric)
        if stat == "bytes":
            return sum(self.observed[(phase, qual)])
        if stat == "repeat_share":
            keys = self.observed[(phase, qual)]
            return 100.0 * (1.0 - len(set(keys)) / len(keys)) if keys else 0.0
        name = qual + ".bwd" if stat == "bwd_s" else qual
        calls, seconds, self_seconds = totals.get((phase, name), (0, 0.0, 0.0))
        return {"calls": calls, "fwd_s": seconds, "bwd_s": seconds,
                "s": seconds, "self_s": self_seconds}[stat]

    def run_phases(self):
        return [p for p in self.phases if p.startswith("run")]

    def per_example(self, metrics, setup_examples, run_examples):
        """Each metric per processed example: the set-up phase's total over
        the examples set-up prepared plus the timed rounds' total over the
        examples they processed. A repeat share is the mean over rounds."""
        totals = self.totals()
        runs = self.run_phases()
        out = {}
        for metric in metrics:
            values = [self.phase_value(totals, p, metric) for p in runs]
            if metric.endswith(".repeat_share"):
                out[metric] = sum(values) / len(values)
            else:
                out[metric] = (self.phase_value(totals, "setup", metric)
                               / setup_examples + sum(values) / run_examples)
        return out

    def exact_counts(self, metrics):
        """{metric: [value per round]} for the metrics that are counts."""
        totals = self.totals()
        return {m: [self.phase_value(totals, p, m) for p in self.run_phases()]
                for m in metrics
                if m == NODES or split_metric(m)[1] in ("calls", "bytes",
                                                        "repeat_share")}

    def dump(self, path):
        """Write every span as one JSON line (gzip), times relative to the
        tracer's creation."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, phase, start, end, span_id, parent, covered in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "phase": phase, "start": round(start - self.t0, 7),
                    "end": round(end - self.t0, 7),
                    "self": round(end - start - covered, 7)}) + "\n")
