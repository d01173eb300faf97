"""Exception types shared across the toolkit, and the one check that turns a
malformed persisted JSON record (a manifest record, checkpoint metadata)
into a `ParseError`."""

import math
from dataclasses import fields


class DereverbError(Exception):
    """Base class for all toolkit errors."""


# --- audio I/O ---
class UnsupportedFormat(DereverbError):
    """WAV encoding we do not handle (compressed, 24-bit, ...)."""


class CorruptHeader(DereverbError):
    """File is not a parseable RIFF/WAVE container, or its data chunk holds
    no valid samples."""


class EmptyAudio(DereverbError):
    """Audio file contains no samples."""


class IoFailure(DereverbError):
    """Underlying read/write failed."""


# --- signal processing ---
class NonColaParams(DereverbError):
    """STFT parameters do not satisfy the overlap-add inversion condition."""


class AllZeroRir(DereverbError):
    """Impulse response has no energy; onset undefined."""


# --- corpus ---
class NoFilesFound(DereverbError):
    """Ingestion directory contains no WAV files."""


class InsufficientData(DereverbError):
    """Not enough retained impulse responses to fill the requested splits."""


class EmptySplit(DereverbError):
    """Requested split contains no records."""


class EmptyAfterTrim(DereverbError):
    """Signal is entirely silent after alignment and trimming."""


class VersionMismatch(DereverbError):
    """Persisted file carries an unsupported format version."""


class ParseError(DereverbError):
    """Persisted file is malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def require_keys(obj, keys, what, line=None):
    """Raise ParseError unless `obj` is a JSON object with exactly `keys`."""
    if not isinstance(obj, dict) or obj.keys() != set(keys):
        got = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
        raise ParseError(f"{what}: expected keys {sorted(keys)}, got {got}", line=line)


# field annotation -> whether a JSON value can be that field
_JSON_TYPES = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: type(v) is int,    # not a bool
    "float": lambda v: type(v) is int or (type(v) is float and math.isfinite(v)),
    "dict": lambda v: isinstance(v, dict),
}


def require_record(obj, cls, what, line=None):
    """Raise ParseError unless `obj` is a JSON object with exactly the fields
    of dataclass `cls`, each a JSON value of its annotated type: `str`, `int`,
    `float` (finite) or `dict`. The annotations must be strings, as under
    `from __future__ import annotations`."""
    require_keys(obj, [f.name for f in fields(cls)], what, line=line)
    for f in fields(cls):
        if not _JSON_TYPES[f.type](obj[f.name]):
            raise ParseError(f"{what}: {f.name} must be a {f.type}, got {obj[f.name]!r}",
                             line=line)


# --- tensors / models ---
class ShapeMismatch(DereverbError):
    """Operand shapes do not conform."""


class NotScalarLoss(DereverbError):
    """Backward pass requires a scalar root node."""


class GraphReleased(DereverbError):
    """Backward pass through a graph an earlier backward pass has freed."""


class WrongFrameCount(DereverbError):
    """Model input does not have the frame count its layer stack closes over."""


# --- training ---
class NonFiniteLoss(DereverbError):
    """A loss component became NaN or infinite."""


# --- evaluation ---
class ZeroEnergy(DereverbError):
    """Decay curve undefined for an all-zero impulse response."""


class InsufficientDecay(DereverbError):
    """Decay curve never falls far enough to fit a slope."""
