"""Finite semigroups of full contraction maps on a chain.

Enumeration of the map families, brute-force oracles and characterized fast
paths for regularity and (starred) Green's relations, abundance and
unipotence verdicts, and Rees factors of the regular order-preserving
families.
"""

import os

# No BLAS routine is called, so let numpy start no BLAS worker thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .maps import (
    ChainMap,
    FamilyTag,
    compose,
    fix_points,
    height,
    identity_map,
    image,
    is_contraction,
    is_idempotent,
    is_isometry_map,
    is_order_decreasing,
    is_order_preserving,
    is_order_reversing,
    make_map,
    map_from_json,
    map_from_text,
    map_to_json,
    map_to_text,
)
from .partitions import (
    KernelPartition,
    Transversal,
    collapse_map,
    convex_refinement_transversals,
    has_convex_transversal,
    is_admissible,
    is_convex,
    is_isometry_on,
    is_relatively_convex,
    kernel,
    make_partition,
    max_convex_refinement,
    partition_from_json,
    partition_to_json,
    partition_to_text,
    refinements,
    transversals,
)
from .semigroups import (
    FiniteSemigroup,
    enumerate_family,
    generated_subsemigroup,
    idempotents,
    idempotents_commute,
    is_orthodox,
    is_subsemigroup,
    regular_elements,
    regular_subsemigroup,
    subsemigroup,
)
from .relations import (
    RelationPartition,
    abundance_witness,
    d_char,
    green_oracle,
    is_l_unipotent,
    is_left_abundant,
    is_r_unipotent,
    is_right_abundant,
    l_char,
    r_char,
    regular_char_ct,
    regular_char_oct,
    regular_char_orct,
    starred_char,
    starred_partition,
    unipotence_witness,
)
from .rees import (
    HeightIdeal,
    InverseVerification,
    ReesQuotient,
    height_ideal,
    is_inverse,
    rees_quotient,
    verify_inverse,
)
from .checks import CHECK_IDS, VerifyReport, first_counterexample, run_check

__version__ = "0.1.0"
