"""Typed errors shared across the package.

Exit codes (used by the CLI): 2 domain error, 3 budget, 4 parse.
"""


class HorocalcError(Exception):
    exit_code = 2


class GroupKindMismatchError(HorocalcError):
    """Operands belong to different group kinds or parameters."""


class UnknownLabelError(HorocalcError):
    """A word uses a label outside the marked group's generating set."""


class DegenerateInputError(HorocalcError):
    """Input violates a geometric precondition (dimension, interior, ...)."""


class SpecNotGeodesicError(HorocalcError):
    """A ray description failed geodesic validation."""


class BudgetExceededError(HorocalcError):
    """A declared budget (radius, states, memory) was exhausted."""

    exit_code = 3


class ParseError(HorocalcError):
    exit_code = 4
