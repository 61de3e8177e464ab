"""Exact divisor theory on metric graphs.

Tropical Jacobians, theta characteristics, unramified double covers,
Prym varieties, and the mod-2 pairing, all in exact rational arithmetic.
"""

from .covers import (
    DoubleCover,
    cover_class,
    covers_with_dilation,
    free_cover,
    free_covers,
    involution_divisor,
    pullback,
    pushforward,
    verify_cover,
)
from .divisors import (
    Divisor,
    PLFunction,
    canonical_divisor,
    divisor_of,
    effective_representative,
    equivalent,
    is_principal,
    principal_function,
    reduce_at,
)
from .errors import (
    AugmentedGraphError,
    CoverError,
    CycleError,
    DegreeError,
    MalformedGraphError,
    PointError,
    PrymError,
    SlopeError,
    TropcoverError,
)
from .graphs import (
    CycleSpace,
    MetricGraph,
    Point,
    cut_at,
    distance_field,
    is_even_subgraph,
    refine,
    virtualize,
)
from .jacobian import (
    PeriodLattice,
    abel_jacobi,
    canonical,
    lattice_contains,
    period_lattice,
    torsion_points,
)
from .prym import (
    HomologyAction,
    homology_action,
    kernel_component_count,
    pairing_table,
    prym_contains,
    pullback_kernel,
    weil_pairing,
)
from .theta import (
    ThetaCharacteristic,
    enumerate_theta,
    theta_characteristic,
    two_torsion_divisor,
)

__version__ = "0.1.0"
