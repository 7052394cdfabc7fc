"""Exception types, and the value check of every config setting.

Everything raised on bad inputs or bad files derives from KnowfuseError so
callers (and the CLI) can distinguish contract violations from genuine I/O
failures such as a missing path.
"""
import dataclasses
import numbers
import sys
import typing

_KIND_WORDS = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false"}


def check_value(name: str, value, kind: type, *, choices=None, min=None, max=None,
                open=False, even=False) -> None:
    """Raise ValueError naming `name` unless `value` is a `kind` that keeps the rules.

    int is an integral and float a finite real number (an int passes as given),
    neither a bool; str and bool are those types. `min` and `max` are bounds,
    inclusive unless `open`; `choices` and `even` are what they say."""
    ok = isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(kind, kind))
    if ok and kind is float:  # rejects NaN, infinities and ints too large for a float
        ok = abs(value) <= sys.float_info.max
    if not ok or (kind is not bool and isinstance(value, bool)):
        raise ValueError(f"{name} must be {_KIND_WORDS[kind]}, got {value!r}")
    if choices is not None and value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    if not ((min is None or (value > min if open else value >= min))
            and (max is None or (value < max if open else value <= max))):
        bound = (f"{'>' if open else '>='} {min}" if max is None
                 else f"in {'(' if open else '['}{min}, {max}{')' if open else ']'}")
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    if even and value % 2:
        raise ValueError(f"{name} must be even, got {value!r}")


def check_fields(cfg) -> None:
    """check_value on each field of dataclass cfg: its annotation is the
    kind and its metadata holds the rules."""
    kinds = typing.get_type_hints(type(cfg))
    for f in dataclasses.fields(cfg):
        check_value(f.name, getattr(cfg, f.name), kinds[f.name], **f.metadata)


class KnowfuseError(Exception):
    """Base class for all validation and format errors raised by knowfuse."""


class TripleLoadError(KnowfuseError):
    """A triples file could not be parsed (malformed row, empty file)."""


class CorruptionError(KnowfuseError):
    """Negative sampling found no filtered corruption: every candidate is a
    known true triple."""


class NonFiniteScoreError(KnowfuseError):
    """A model scored a link-prediction query as NaN or infinity."""


class TrainingDivergedError(KnowfuseError):
    """A trainer's loss became NaN or infinite."""


class StoreFormatError(KnowfuseError):
    """Base class for binary store and checkpoint format problems."""


class BadMagicError(StoreFormatError):
    """File does not start with the expected magic bytes."""


class TruncatedStoreError(StoreFormatError):
    """File ended before the declared payload was complete."""


class DimMismatchError(StoreFormatError):
    """Declared dimensionality disagrees with what the caller expects."""


class DuplicateNameError(StoreFormatError):
    """Two rows in a store carry the same name."""


class NonFiniteError(StoreFormatError):
    """A stored vector contains NaN or infinity."""
