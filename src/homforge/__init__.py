"""Product homomorphism problem toolkit.

Finite relational structures, a deterministic homomorphism solver, the
exponential-tiling encoding into PHP, reductions down to a single binary
relation, and a CQ-definability decider with certificates.
"""

from .core import (
    Homomorphism,
    PhpInstance,
    PointedStructure,
    Signature,
    Structure,
    digraph,
    load_structure,
    parse,
    product,
    save_structure,
    serialize,
)
from .cq import (
    ConjunctiveQuery,
    canonical_query,
    canonical_structure,
    evaluate,
)
from .cqdef import (
    CqDefReduction,
    Definable,
    NotDefinable,
    decide_cq_definability,
    reduce_php_to_nondefinability,
)
from .homsolver import (
    PhpVerdict,
    decide_php,
    find_homomorphism,
    image_set,
)
from .normalform import (
    digraph_transform,
    gadget_digraph,
    merge_relations,
    pad_first_coordinate,
    restrict_hom_digraph,
    single_relation_transform,
    star_transform,
)
from .tiling import (
    TileSystem,
    TilingInstance,
    brute_force_tiling,
    check_tiling,
    decode_hom_to_tiling,
    encode_tiling_php,
)

__version__ = "0.1.0"
