"""Exception types shared across the package."""


class ConeBarrierError(Exception):
    """Base class for all package errors."""


class BoundaryError(ConeBarrierError):
    """A point that must be strictly interior to the cone is not."""


class FactorizationError(ConeBarrierError):
    """A factorization failed: a pivot is non-positive or not finite."""


class ParamError(ConeBarrierError):
    """A solver or algorithm parameter violates its admissible range."""


class ZeroGradient(ConeBarrierError):
    """The right-hand side of the damped Newton system is zero."""


class ZeroDirection(ConeBarrierError):
    """A direction that must be nonzero is zero."""


class HardCapExceeded(ConeBarrierError):
    """The capped CG safety cap was hit.

    Either the operator is not symmetric, or it is symmetric but so
    ill-conditioned (a spectrum spanning about 1e-6 to 1e6, say) that
    floating-point error stalls the CG recurrences.
    """


class LineSearchFailure(ConeBarrierError):
    """Backtracking exhausted the trial budget without sufficient decrease."""


class CallbackError(ConeBarrierError):
    """An objective callback returned a NaN value or a non-finite or wrong-shape vector."""


class InfeasibleStart(ConeBarrierError):
    """The starting point is not strictly feasible."""


class DivergenceError(ConeBarrierError):
    """An iterate left the cone where exact arithmetic keeps it interior.

    A line-search trial point in the Dikin ellipsoid lost its interiority to roundoff,
    or the least-squares re-projection onto Ax = b left the cone.  Likely causes:
    iterates that grow without bound (an objective unbounded below on the feasible
    set), an ill-conditioned A, or a badly scaled objective.
    """


class UnknownProblem(ConeBarrierError):
    """Requested builtin problem name does not exist."""


class ParseError(ConeBarrierError):
    """A problem file could not be parsed."""


class SchemaError(ConeBarrierError):
    """A problem file parsed but violates the schema."""


class SizeError(ConeBarrierError):
    """Dense certification requested beyond the desk-scale limit."""
