"""Exception types shared across the package.

Every error raised by the library derives from ClusterKitError so callers
(and the CLI) can catch domain errors uniformly.
"""


class ClusterKitError(Exception):
    """Base class for all library errors."""


class VertexOutOfRange(ClusterKitError):
    pass


class FrozenVertex(ClusterKitError):
    pass


class DisconnectedQuiver(ClusterKitError):
    pass


class NotTypeA(ClusterKitError):
    pass


class NotLinearSubquiver(ClusterKitError):
    pass


class NegativeInput(ClusterKitError):
    pass


class NotInW(ClusterKitError):
    """The integer vector violates the parity condition on oriented 3-cycles."""


class PositivePartNotInW(ClusterKitError):
    pass


class InexactDivision(ClusterKitError):
    """Exchange-relation division left a remainder; indicates a bug, never bad input."""


class ExplosionGuard(ClusterKitError):
    """Seed enumeration exceeded its bound; the input is likely not of finite type."""


class NotAClusterVariableDVector(ClusterKitError):
    pass


class AssumptionViolated(ClusterKitError):
    """The quiver has an edge lying in no oriented 3-cycle."""


class Unreachable(ClusterKitError):
    """Some vertex admits no directed path from the chosen base vertex."""


class NotInitialTriangulation(ClusterKitError):
    pass


class CoordinateOutOfRange(ClusterKitError):
    """A direction-vector coordinate fell outside {-1, 0, 1}."""


class OddRankWithoutPrincipal(ClusterKitError):
    """Broken lines in odd rank require the principal-coefficient construction."""


class PositivityViolation(ClusterKitError):
    """A bend-point travel parameter failed to be positive."""


class EndpointRejected(ClusterKitError):
    """The endpoint places some bend point on more than one wall."""


class InvalidInput(ClusterKitError):
    """Malformed quiver file, d-vector, or CLI argument."""
