"""clusterkit: cluster variables of type-A quivers, five ways.

The same Laurent polynomial is produced by seed mutation, two compatibility
formulas (bit sequences and lattice-path collections), perfect matchings of
a snake diagram, T-paths on a polygon triangulation, and broken-line theta
sums; a differential harness certifies exact agreement.
"""

from .errors import ClusterKitError
from .laurent import LaurentPoly, canonical_string, rational_string
from .quiver import (
    CompletelyExtendedLinearQuiver,
    LinearQuiver,
    Quiver,
    complete_extension,
    is_type_a,
    linear_full_subquivers,
    mutate,
)

# every model that `harness` can run, in crosscheck order; the command line
# offers them without loading any model module
MODELS = ("mutation", "gcs", "gcc", "linear-gcc", "gcs-variable", "matching", "tpath",
          "broken-line")

__all__ = [
    "MODELS",
    "ClusterKitError",
    "LaurentPoly",
    "canonical_string",
    "rational_string",
    "Quiver",
    "LinearQuiver",
    "CompletelyExtendedLinearQuiver",
    "mutate",
    "is_type_a",
    "linear_full_subquivers",
    "complete_extension",
]

__version__ = "0.1.0"
