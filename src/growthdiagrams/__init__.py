"""Growth-diagram combinatorics on Young's lattice.

Up/down operator combinatorics, the four local (dual) growth rules, RSK-type
correspondences via rectangular growth diagrams, projection bijections for the
five Littlewood families, triangular growth diagrams, and exact truncated
power-series verification of the (skew) Cauchy and Littlewood identities.
"""

from .partitions import (
    EMPTY,
    Family,
    FrobeniusCoords,
    Partition,
    conjugate,
    contains,
    enumerate_partitions,
    frobenius,
    from_frobenius,
    is_horizontal_strip,
    is_vertical_strip,
    join,
    meet,
    meet_join,
    member,
    partition,
    size,
)
from .interlacing import (
    CapacityError,
    Direction,
    DomainError,
    INFINITE,
    ProfileKind,
    RibbonProfile,
    decode,
    down_set,
    encode,
    profile,
    up_set,
)
from .rules import Rule, apply_rule, unapply_rule
from .tableaux import StepKind, TableauChain
from .growth import (
    GrowthGrid,
    build_growth,
    check_traceable,
    enumerate_growths,
    extract_PQ,
    insert,
    pieri,
    pieri_inverse,
    rsk,
    rsk_inverse,
)
from .projections import (
    LittlewoodVariant,
    StarVariant,
    halves,
    littlewood_variant,
    phi_double,
    phi_halve,
    proj_apply,
    proj_unapply,
)
from .triangular import (
    TriangularArray,
    TriGrid,
    build_triangular,
    enumerate_triangular_growths,
    extract_P,
    littlewood_insert,
    littlewood_inverse,
    littlewood_map,
    triangular_array,
    triangular_insert,
)
from .series import (
    Report,
    TruncatedPolynomial,
    count_syt,
    product_side,
    schur,
    verify_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
