"""Error taxonomy shared by all modules.

Every failure mode the engine can report deliberately has its own class so
callers (and the CLI exit-code mapping) can tell configuration problems,
numerical degeneracies and combinatorial budget overruns apart.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


# --- configuration / structural errors -------------------------------------

class DimensionMismatch(EngineError):
    """Shared leg ids with unequal dimensions."""


class LegCollision(EngineError):
    """Outer product of tensors with a common leg id."""


class MissingPhysicalLeg(EngineError):
    """Norm-network construction from a network without physical legs."""


class RegionMismatch(EngineError):
    """Operator insertion on a vertex that does not exist or is not
    physical, or with the wrong dims."""


class InvalidNetworkFile(EngineError):
    """Interchange-file validation failure; message is path-qualified."""


# --- resource / budget errors ----------------------------------------------

class TooLarge(EngineError):
    """Exact contraction intermediate exceeds the configured cap.

    Signals that the oracle is inapplicable, not a numerical failure.
    """


class CombinatorialBudgetExceeded(EngineError):
    """Subgraph/cluster enumeration surpassed its configured cap."""


class CapExceeded(EngineError):
    """A hard size cap (Ursell n_loops, restricted-partition |B|) exceeded."""


class PCapExceeded(EngineError):
    """p-point correlators are capped at p <= 3."""


# --- numerical degeneracies ------------------------------------------------

class NumericalCollapse(EngineError):
    """A BP message update collapsed to (numerical) zero."""


class DegenerateInnerProduct(EngineError):
    """|I_vw| below floor; message pair (numerically) orthogonal."""


class ZeroLocalFactor(EngineError):
    """Some z_v below floor; normalized excitation weights undefined."""


class BranchCrossing(EngineError):
    """A principal-branch log left the cut plane (Xi or region value <= 0)."""


class FieldNonzero(EngineError):
    """The analytic paramagnetic fixed point needs zero field."""


class InsufficientPoints(EngineError):
    """Correlation-length fit needs at least three usable distances."""
