"""Error taxonomy shared by all modules.

The class of a refusal decides the CLI exit code; its message names the
failure (a dimension mismatch, a collapsed message, an enumeration budget).
A new refusal raises one of the three classes below, never a class of its
own, so ``cli.main`` maps every engine error without a list to keep.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class InputError(EngineError):
    """Exit 2: an input, file, option or network that the engine refuses."""


class NumericalError(EngineError):
    """Exit 3: a numerical degeneracy (a message collapsed to zero, an
    inner product or local factor below its floor, a log off its branch)."""


class BudgetError(EngineError):
    """Exit 4: an enumeration budget or a size cap was exceeded; the oracle
    or the expansion is inapplicable at this size, not wrong."""
