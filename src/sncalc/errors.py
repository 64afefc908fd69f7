"""Exception types shared across the package."""


class SncalcError(Exception):
    """Base class for all errors raised by this package."""


class GraphParseError(SncalcError, ValueError):
    """Malformed graph or arrangement file.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class NonTreeError(SncalcError, ValueError):
    """An operation that requires a tree (or forest) got a graph with a cycle."""


class NonAdmissibleError(SncalcError, ValueError):
    """A chain or twig has a component of self-intersection > -2 where
    admissibility is required."""


class NotMinimalError(SncalcError, ValueError):
    """The divisor contains a contractible (-1)-vertex; the requested
    operation is only defined for snc-minimal divisors."""


class SingularMatrixError(SncalcError, ValueError):
    """Linear solve against a singular matrix."""


class NotAFiberError(SncalcError, ValueError):
    """The graph does not contract to a smooth 0-curve."""


class LatticeError(SncalcError, ValueError):
    """Invalid operation on a surface lattice or blow-up program."""


class ExcessIntersectionError(LatticeError):
    """A blow-up center names curves whose pairwise intersection at that
    point is already exhausted."""


class UnderconstrainedError(LatticeError):
    """A curve-class search has an infinite solution family.

    ``free_directions`` lists lattice vectors spanning the unbounded part.
    """

    def __init__(self, message: str, free_directions=()):
        self.free_directions = tuple(tuple(v) for v in free_directions)
        super().__init__(message)


class InvariantError(SncalcError, AssertionError):
    """An internal invariant failed: a defect in this package, not in the
    input.  Raised instead of ``assert`` so the check survives ``python -O``."""
