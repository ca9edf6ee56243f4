"""Exception taxonomy shared by every module.

Undefined operation results are *values* (``None``), never exceptions;
these classes cover genuine error conditions only.
"""


class MultiSpaceError(Exception):
    """Base class for all library errors."""


class SizeLimitError(MultiSpaceError):
    """An exhaustive procedure was asked to exceed its stated size bound."""


class ContractError(MultiSpaceError):
    """A documented precondition of an operation was violated.  A failed check's
    witness (universe indices) ends the message and stays on ``witness``."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message if witness is None else f"{message}: {witness}")
        self.message, self.witness = message, witness


class UnknownNameError(KeyError):
    """A lookup by name found nothing; the argument is a message, which
    ``str()`` shows as it is (a plain KeyError shows the repr of its key)."""

    def __str__(self) -> str:
        return str(self.args[0])


class CapacityError(MultiSpaceError):
    """A generator was asked for more objects than exist."""


class ShapeError(MultiSpaceError):
    """Mismatched dimensions or malformed grids."""


class PartitionError(MultiSpaceError):
    """A partition-shaped input or output failed to be a partition."""


class InputError(MultiSpaceError):
    """Malformed user input (files, sequence specs, parameters)."""


class UnknownOperationError(MultiSpaceError):
    """An expression referenced an operation name the space does not bind."""


class CombinatorError(MultiSpaceError):
    """A metric combinator failed one of its admissibility hypotheses."""


class InternalCheckError(MultiSpaceError):
    """Two independent criteria that must agree disagreed.

    This is a self-check failure of the library, not a property of the
    input; tests treat it as a bug, never as an expected outcome.
    """
