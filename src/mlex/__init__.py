"""Exact extension and cohomology calculator for finite Z/m-modules
expanded by multilinear operations."""

from .modcore import Element, LinMap, ZmModule, mod_elements
from .algebra import (
    Algebra,
    Ideal,
    MultilinearOp,
    commutator,
    find_isomorphism,
    ideal_generated,
    is_homomorphism,
    quotient,
    series,
    subalgebra,
)
from .termlang import (
    Identity,
    Signature,
    Variety,
    counterexample,
    eval_term,
    holds,
    in_variety,
    parse_identity,
    parse_term,
    print_term,
)
from .cocycle import (
    Action,
    Cocycle,
    ExtensionRecord,
    SemidirectProduct,
    coboundary,
    decompose,
    equivalent,
    extract_cocycle,
    is_compatible,
    is_h2_morphism,
    kernel_kind,
    mlf_variety,
    realizes_raw,
)
from .cohomology import (
    derivations,
    enumerate_h2,
    h1,
    h2_affine,
    principal_derivations,
)
from .derlie import (
    compatible_pairs,
    derivations_of,
    ideal_preserving,
    project_pair,
    verify_wells,
    wells_map,
)
from .hs import HSDatum, null_submodule, transgression, verify_hs
from .expander import (
    action_identity,
    general_identity,
    split,
    strict_identity,
)

__version__ = "0.1.0"
