"""Exception types, and the integer check of the config dataclasses.

Everything raised on bad inputs or bad files derives from KnowfuseError so
callers (and the CLI) can distinguish contract violations from genuine I/O
failures such as a missing path.
"""
import dataclasses
import numbers


def check_int_fields(cfg) -> None:
    """Raise ValueError naming the first int field of dataclass cfg that holds a float or bool."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")


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
