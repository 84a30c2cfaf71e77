"""Exception hierarchy shared by all porodiff modules."""


class PorodiffError(Exception):
    """Base class for all porodiff errors."""


class InvalidGeometryError(PorodiffError):
    """Inclusion or domain specification is geometrically inadmissible."""


class MeshFailureError(PorodiffError):
    """Triangulation produced degenerate or inverted elements."""


class ResourceLimitError(PorodiffError):
    """Estimated mesh size exceeds the configured node cap."""


class UnmatchedNodeError(PorodiffError):
    """A periodic face node has no partner on the opposite face."""

    def __init__(self, coordinate, message=None):
        self.coordinate = tuple(float(c) for c in coordinate)
        super().__init__(message or f"unmatched periodic node at {self.coordinate}")


class SingularSystemError(PorodiffError):
    """Linear system is singular (usually a constraint-setup bug)."""


class NoConvergenceError(PorodiffError):
    """Iterative solve failed to meet the residual contract."""

    def __init__(self, iterations, residual, message=None):
        self.iterations = int(iterations)
        self.residual = float(residual)
        super().__init__(
            message
            or f"no convergence after {self.iterations} iterations "
            f"(residual {self.residual:.3e})"
        )


class NonFiniteValueError(PorodiffError):
    """A rate or exchange coefficient evaluated to a non-finite value."""


class MeshMismatchError(PorodiffError):
    """Solution and coefficient arguments refer to different meshes."""


class UnknownNameError(PorodiffError):
    """Requested builtin kinetics name does not exist."""


class TableRangeError(PorodiffError):
    """Concentration left the range covered by the dispersion table."""


class PositivityViolationError(PorodiffError):
    """A nodal value dropped below the positivity tolerance (policy REJECT)."""


class PointOutsideDomainError(PorodiffError):
    """Interpolation point lies outside the source mesh."""


class DegenerateDataError(PorodiffError):
    """Rate fit needs at least three positive error values."""


class ConfigError(PorodiffError):
    """Run configuration failed schema validation."""
