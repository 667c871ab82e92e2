"""Exception types shared across the package.

Each class carries the CLI's process exit code as ``exit_code``: input and
format problems exit 2, range violations 3, checkpoint mismatches 4. The CLI
maps a ``MemoryError``, an argument too large for the host, to 3 as well.
"""


class ZsplatError(Exception):
    """Base class for package errors."""

    exit_code = 2


class ShapeError(ZsplatError, ValueError):
    """Operands have incompatible dimensions."""


class InputError(ZsplatError, ValueError):
    """Input data violates a precondition (empty, non-finite, inconsistent)."""


class RangeError(ZsplatError, ValueError):
    """A value is outside its permitted range (coordinate, depth, shift)."""

    exit_code = 3


class ConfigError(ZsplatError, ValueError):
    """A configuration value or key is invalid."""


class NumericError(ZsplatError, ArithmeticError):
    """A numeric probe produced a non-finite value."""


class FormatError(ZsplatError, ValueError):
    """A serialized container is malformed. ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CheckpointError(ZsplatError, ValueError):
    """Checkpoint contents do not match the requested model configuration."""

    exit_code = 4


class ValidationError(ZsplatError, ValueError):
    """A produced primitive violates its invariants."""
