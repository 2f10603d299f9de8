"""Exception types shared across the package."""

from contextlib import contextmanager


class AlarmHmmError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AlarmHmmError, ValueError):
    """An input violates an operation's contract."""


class UnknownSymbolError(DomainError):
    """An alarm symbol is not covered by the model's codebook."""


class InferenceError(AlarmHmmError, RuntimeError):
    """A probabilistic computation failed, e.g. zero total probability."""


class SchemaError(AlarmHmmError, ValueError):
    """A file does not match its documented schema."""


class ModelFormatError(SchemaError):
    """A model file is malformed or violates model invariants."""


@contextmanager
def located(where: str):
    """Re-raise a package error from the block with ``<where>: `` in front of
    its message, keeping its type."""
    try:
        yield
    except AlarmHmmError as exc:
        raise type(exc)(f"{where}: {exc}") from None
