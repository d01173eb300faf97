"""Impulse-response corpus handling: ingestion, leakage-free splits,
dry/RIR pairing, reverberant synthesis, and manifest persistence.

Recordings of the same room configuration share a group key; a group is
never divided between splits, so validation and test rooms stay unseen.

Every example has the shapes the STFT framing of `dsp` gives its fixed
lengths: a 5 s clip is INPUT_FRAMES x BINS (313 x 257) and an RIR target
is RIR_FRAMES x BINS (126 x 257). The model configs default to these
constants.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import logging
import os
import re
import struct
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import dsp
from .errors import (
    DereverbError,
    EmptyAfterTrim,
    EmptySplit,
    InsufficientData,
    NoFilesFound,
    ParseError,
    VersionMismatch,
    require_record,
)

log = logging.getLogger(__name__)

MANIFEST_VERSION = 1
CACHE_MAGIC = b"DRVB"
CACHE_VERSION = 1

CLIP_SAMPLES = 5 * dsp.SAMPLE_RATE      # speech fixed to 5 s
RIR_MIN_SAMPLES = 2 * dsp.SAMPLE_RATE   # impulse responses padded to >= 2 s
INPUT_FRAMES = 1 + CLIP_SAMPLES // dsp.HOP      # 313
RIR_FRAMES = 1 + RIR_MIN_SAMPLES // dsp.HOP     # 126
BINS = dsp.FRAME_LEN // 2 + 1                   # 257

SPLITS = ("train", "val", "test", "discarded")


@dataclass
class RirRecord:
    id: str
    path: str
    group_key: str
    split: str = "train"
    duration_s: float = 0.0


@dataclass
class PairRecord:
    dry_path: str
    rir_id: str
    seed: int


@dataclass
class CorpusManifest:
    version: int = MANIFEST_VERSION
    rirs: list = field(default_factory=list)
    pairs: list = field(default_factory=list)

    def split_counts(self) -> Counter:
        return Counter(r.split for r in self.rirs)

    def rirs_in(self, split: str) -> list:
        return [r for r in self.rirs if r.split == split]

    def rir_by_id(self, rir_id: str) -> RirRecord:
        for r in self.rirs:
            if r.id == rir_id:
                return r
        raise KeyError(f"no RIR with id {rir_id!r}")


@dataclass
class TrainingExample:
    """All supervised targets for one dry/RIR pairing.

    `input_logmag` is the log of `reverb_target_mag`; both views of the
    reverberant spectrogram are kept because the heads consume different
    domains. Scales are the per-spectrogram maxima divided out.

    A loaded example (`load_example`) keeps its three targets as float32, as
    the cache stores them: losses and metrics widen them exactly, so a
    float64 copy would only take memory. Its `input_logmag` is the float32
    cast of the float64 log of the widened target: those are the bits a
    float32 forward reads, which casts its input anyway. The log and every
    `exp` of the dry target are taken in float64, since numpy's float32
    `log` and `exp` round differently. A synthesised example is float64
    throughout.
    """

    input_logmag: np.ndarray
    dry_target_logmag: np.ndarray
    rir_target_mag: np.ndarray
    reverb_target_mag: np.ndarray
    dry_scale: float
    rir_scale: float
    reverb_scale: float

    def __post_init__(self):
        if self.input_logmag.shape != self.reverb_target_mag.shape:
            raise ValueError("input and reverberant target shapes differ")
        if self.input_logmag.shape != self.dry_target_logmag.shape:
            raise ValueError("input and dry target shapes differ")
        if self.rir_target_mag.shape[1] != self.input_logmag.shape[1]:
            raise ValueError("bin count mismatch between targets")
        for name in ("input_logmag", "dry_target_logmag", "rir_target_mag",
                     "reverb_target_mag"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite values")


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def ingest_rirs(directory, group_pattern: str) -> list:
    """Scan a directory tree for WAV impulse responses.

    `group_pattern` is a regex applied to each file name; its first capture
    group (or whole match) becomes the group key, falling back to the file
    stem when it does not match; a pattern that does not compile is a
    ValueError. Unreadable files are skipped with a warning.
    """
    try:
        pattern = re.compile(group_pattern)
    except re.error as exc:
        raise ValueError(f"bad group pattern {group_pattern!r}: {exc}") from exc
    directory = Path(directory)
    paths = sorted(p for p in directory.rglob("*") if p.suffix.lower() == ".wav")
    if not paths:
        raise NoFilesFound(f"no WAV files under {directory}")
    records = []
    skipped = 0
    for p in paths:
        try:
            clip = dsp.read_wav(p)
        except DereverbError as exc:
            log.warning("skipping %s: %s", p, exc)
            skipped += 1
            continue
        m = pattern.search(p.name)
        if m:
            key = m.group(1) if m.groups() else m.group(0)
        else:
            key = p.stem
        n16 = round(len(clip) * dsp.SAMPLE_RATE / clip.sample_rate)
        rid = str(p.relative_to(directory).with_suffix("")).replace("\\", "/")
        records.append(RirRecord(id=rid, path=str(p), group_key=key,
                                 duration_s=n16 / dsp.SAMPLE_RATE))
    if skipped:
        log.warning("skipped %d unreadable file(s)", skipped)
    return records


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def split_groups(records, val_target: int = 200, test_target: int = 200,
                 cap: int = 100, big_group: int = 20, seed: int = 0) -> CorpusManifest:
    """Assign whole groups to train/val/test.

    Rules, in order: members beyond `cap` per group are discarded (random
    order under `seed`); groups retaining more than `big_group` go to train;
    the rest are walked largest first (ties shuffled under `seed`) and placed
    whole on whichever of val/test has the largest remaining deficit that
    still fits the group, otherwise train. Largest-first ordering lets the
    single-record groups land on the exact targets; InsufficientData is
    raised when they cannot. A negative count is a ValueError.
    """
    for name, value in (("val_target", val_target), ("test_target", test_target),
                        ("cap", cap), ("big_group", big_group)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    rng = np.random.default_rng(seed)
    by_group = defaultdict(list)
    for r in records:
        by_group[r.group_key].append(r)

    retained = {}
    dropped = {}
    for key in sorted(by_group):
        members = by_group[key]
        if len(members) > cap:
            order = rng.permutation(len(members))
            keep = set(order[:cap].tolist())
            retained[key] = [m for i, m in enumerate(members) if i in keep]
            dropped[key] = [m for i, m in enumerate(members) if i not in keep]
        else:
            retained[key] = list(members)
            dropped[key] = []

    total_retained = sum(len(v) for v in retained.values())
    if total_retained < val_target + test_target:
        raise InsufficientData(
            f"{total_retained} retained RIRs cannot fill val={val_target} "
            f"and test={test_target}")

    assignment = {}
    small = []
    for key in sorted(retained):
        if len(retained[key]) > big_group:
            assignment[key] = "train"
        else:
            small.append(key)

    order = rng.permutation(len(small))
    order = sorted(order, key=lambda i: -len(retained[small[i]]))
    deficit = {"val": val_target, "test": test_target}
    for idx in order:
        key = small[idx]
        n = len(retained[key])
        target = max(("val", "test"), key=lambda s: deficit[s])
        if deficit[target] >= n:
            assignment[key] = target
            deficit[target] -= n
        else:
            assignment[key] = "train"
    if deficit["val"] or deficit["test"]:
        raise InsufficientData(
            f"group sizes leave val short {deficit['val']} and test short "
            f"{deficit['test']} of their targets")

    dropped_ids = {id(m) for members in dropped.values() for m in members}
    out = []
    for r in records:
        if id(r) in dropped_ids:
            out.append(replace(r, split="discarded"))
        else:
            out.append(replace(r, split=assignment[r.group_key]))
    return CorpusManifest(rirs=out)


# ---------------------------------------------------------------------------
# Pairing and synthesis
# ---------------------------------------------------------------------------

def make_pairs(dry_paths, manifest: CorpusManifest, rirs_per_dry: int,
               seed: int, split: str = "train") -> list:
    """Pair each dry recording with `rirs_per_dry` RIRs drawn uniformly from
    one split. Each pair carries its own seed, which alone reproduces the
    draw."""
    if rirs_per_dry < 1:
        raise ValueError("rirs_per_dry must be at least 1")
    candidates = manifest.rirs_in(split)
    if not candidates:
        raise EmptySplit(f"split {split!r} has no RIRs")
    rng = np.random.default_rng(seed)
    pairs = []
    for dry in dry_paths:
        for _ in range(rirs_per_dry):
            pair_seed = int(rng.integers(0, 2 ** 63, dtype=np.int64))
            idx = int(np.random.default_rng(pair_seed).integers(len(candidates)))
            pairs.append(PairRecord(dry_path=str(dry),
                                    rir_id=candidates[idx].id,
                                    seed=pair_seed))
    return pairs


@dataclass(frozen=True)
class Source:
    """A dry recording or an impulse response, ready for every pair that
    uses it: the resampled signal to convolve, the samples it drops from the
    head of the reverberant signal (the dry's leading silence, the RIR's
    direct-path onset), and its target spectrogram with the scale divided
    out. The target is shared by the pairs' examples, so it is read-only."""

    signal: dsp.Spectra
    shift: int
    target: np.ndarray
    scale: float

    def __post_init__(self):
        self.target.setflags(write=False)


def prepare_dry(path) -> Source:
    """Read and resample a dry recording; its target is the log spectrogram
    of its first 5 s after leading silence. Delaying the dry signal by a
    RIR's onset, then trimming it, drops that onset plus this same leading
    silence, so the trim needs no RIR."""
    dry = dsp.resample(dsp.read_wav(path), dsp.SAMPLE_RATE)
    trimmed, lead = dsp.trim_leading_silence(dry)
    if len(trimmed) == 0:
        raise EmptyAfterTrim(f"{path} is silent")
    mag, scale = dsp.normalized_magnitude(dsp.stft(dsp.fix_length(trimmed, CLIP_SAMPLES)))
    return Source(dsp.Spectra(dry.samples), lead, dsp.log_magnitude(mag), scale)


def prepare_rir(record: RirRecord) -> Source:
    """Read and resample an impulse response and find its direct-path onset;
    its target is the first RIR_FRAMES frames of the spectrogram of the
    response zero-padded to at least 2 s, scaled by that whole spectrogram's
    max."""
    rir = dsp.resample(dsp.read_wav(record.path), dsp.SAMPLE_RATE)
    onset = dsp.detect_direct_path_delay(rir)
    padded = rir if len(rir) >= RIR_MIN_SAMPLES else dsp.fix_length(rir, RIR_MIN_SAMPLES)
    mag, scale = dsp.normalized_magnitude(dsp.stft(padded))
    return Source(dsp.Spectra(rir.samples), onset, mag[:RIR_FRAMES].copy(), scale)


def mix(dry: Source, rir: Source) -> TrainingExample:
    """The example of one pair: the full convolution, aligned to the dry
    target and fixed to 5 s; its spectrogram is the reverberant target and,
    log-compressed, the network input."""
    reverb = dsp.convolve(dry.signal, rir.signal)[dry.shift + rir.shift:]
    mag, scale = dsp.normalized_magnitude(dsp.stft(
        dsp.fix_length(dsp.AudioClip(reverb, dsp.SAMPLE_RATE), CLIP_SAMPLES)))
    return TrainingExample(
        input_logmag=dsp.log_magnitude(mag),
        dry_target_logmag=dry.target,
        rir_target_mag=rir.target,
        reverb_target_mag=mag,
        dry_scale=dry.scale,
        rir_scale=rir.scale,
        reverb_scale=scale,
    )


def synthesize_example(pair: PairRecord, manifest: CorpusManifest) -> TrainingExample:
    """Render one supervised example from a dry/RIR pairing: `mix` of
    `prepare_dry` and `prepare_rir`, the steps `synth` runs once per pair,
    dry file and RIR. Both signals are resampled to 16 kHz; the dry signal
    is aligned to the reverberant one and both are fixed to 5 s; each
    magnitude is normalized by its own max; the network input and the dry
    target are log-compressed."""
    return mix(prepare_dry(pair.dry_path),
               prepare_rir(manifest.rir_by_id(pair.rir_id)))


def pair_cache_name(pair: PairRecord) -> str:
    """Stable cache file name derived from the pair identity."""
    digest = hashlib.sha1(
        f"{pair.dry_path}|{pair.rir_id}|{pair.seed}".encode()).hexdigest()
    return f"ex_{digest[:16]}.drvb"


# ---------------------------------------------------------------------------
# Allocator thresholds, set by every command
# ---------------------------------------------------------------------------

# glibc's mallopt parameters (malloc.h) and the values its dynamic thresholds
# reach at their ceiling on 64-bit: mmap at 32 MiB, trim at twice that
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20


def keep_freed_memory():
    """Have the C allocator keep what one example frees for the next.

    Every command works one example at a time on arrays of about 1 MB
    (spectra, convolutions, STFT frames, a training step's graph). At glibc's
    default thresholds each is returned to the OS when it is freed (mmapped
    blocks, a trimmed heap top) and faulted in again for the next example: a
    32-example benchmark `synth` round made about 38,000 minor page faults,
    and fewer than 10 with these thresholds. Fixed thresholds also keep that
    from depending on what the process allocated before. `cli.main` calls
    this for every command, and `trainer.train` for callers without the
    command line. A no-op where the C library has no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


# ---------------------------------------------------------------------------
# Atomic writes, used by every persisted format
# ---------------------------------------------------------------------------

@contextmanager
def replacing(path):
    """Binary handle on a temporary file beside `path` that replaces `path`
    only when the block completes, so a write that fails midway leaves the
    previous file intact and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Example cache files
# ---------------------------------------------------------------------------

def save_example(example: TrainingExample, path) -> None:
    """Write the three target arrays as float32 after a 32-byte header
    (magic, version, three shape pairs); the three scales follow the data."""
    header = struct.pack(
        "<4sI6I", CACHE_MAGIC, CACHE_VERSION,
        *example.dry_target_logmag.shape,
        *example.rir_target_mag.shape,
        *example.reverb_target_mag.shape)
    with replacing(path) as fh:
        fh.write(header)
        for arr in (example.dry_target_logmag, example.rir_target_mag,
                    example.reverb_target_mag):
            fh.write(arr.astype("<f4").tobytes())
        fh.write(struct.pack("<3f", example.dry_scale, example.rir_scale,
                             example.reverb_scale))


def load_example(path) -> TrainingExample:
    raw = Path(path).read_bytes()
    if len(raw) < 32:
        raise ParseError(f"{path}: truncated header")
    magic, version, *dims = struct.unpack_from("<4sI6I", raw, 0)
    if magic != CACHE_MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if version != CACHE_VERSION:
        if raw[16:17] == b"{":   # a checkpoint shares the magic; its JSON metadata starts here
            raise ParseError(f"{path}: not an example cache (JSON metadata after the header; "
                             "a checkpoint file?)")
        raise VersionMismatch(f"{path}: cache version {version}")
    shapes = [(dims[0], dims[1]), (dims[2], dims[3]), (dims[4], dims[5])]
    counts = [a * b for a, b in shapes]
    expected = 32 + 4 * (sum(counts) + 3)
    if len(raw) != expected:
        raise ParseError(f"{path}: expected {expected} bytes, found {len(raw)}")
    offset = 32
    arrays = []
    for (rows, cols), count in zip(shapes, counts):
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        arrays.append(arr.astype(np.float32).reshape(rows, cols))   # one writable copy
        offset += 4 * count
    dry_scale, rir_scale, reverb_scale = struct.unpack_from("<3f", raw, offset)
    dry_log, rir_mag, reverb_mag = arrays
    try:
        return TrainingExample(
            input_logmag=dsp.log_magnitude(reverb_mag.astype(np.float64)).astype(np.float32),
            dry_target_logmag=dry_log,
            rir_target_mag=rir_mag,
            reverb_target_mag=reverb_mag,
            dry_scale=dry_scale,
            rir_scale=rir_scale,
            reverb_scale=reverb_scale,
        )
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Manifest persistence (one JSON object per line)
# ---------------------------------------------------------------------------

# record kind -> (record dataclass, the CorpusManifest list holding it),
# in the order the records are written
RECORD_KINDS = {"rir": (RirRecord, "rirs"), "pair": (PairRecord, "pairs")}


def save_manifest(manifest: CorpusManifest, path) -> None:
    with replacing(path) as fh:
        fh.write(json.dumps({"version": manifest.version}, sort_keys=True).encode() + b"\n")
        for kind, (_, attr) in RECORD_KINDS.items():
            for r in getattr(manifest, attr):
                line = json.dumps({"kind": kind, **asdict(r)}, sort_keys=True)
                fh.write(line.encode() + b"\n")


def load_manifest(path) -> CorpusManifest:
    manifest = CorpusManifest()
    header_seen = False
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, nested too deep
            raise ParseError(str(exc), line=lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", line=lineno)
        if not header_seen:
            if "version" not in obj:
                raise ParseError("missing version header", line=lineno)
            if type(obj["version"]) is not int or obj["version"] != MANIFEST_VERSION:
                raise VersionMismatch(f"manifest version {obj['version']!r}")
            manifest.version = obj["version"]
            header_seen = True
            continue
        kind = obj.pop("kind", None)
        if not isinstance(kind, str) or kind not in RECORD_KINDS:
            raise ParseError(f"unknown record kind {kind!r}", line=lineno)
        cls, attr = RECORD_KINDS[kind]
        require_record(obj, cls, f"{kind} record", line=lineno)
        if kind == "rir" and obj["split"] not in SPLITS:
            raise ParseError(f"rir record: split must be one of {SPLITS}, "
                             f"got {obj['split']!r}", line=lineno)
        getattr(manifest, attr).append(cls(**obj))
    if not header_seen:
        raise ParseError("empty manifest", line=1)
    return manifest
