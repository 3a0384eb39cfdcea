"""lppkit: exact computations with Artinian monomial ideals.

Monomial ideal arithmetic, Hilbert function growth bounds, the recursive
vector encoding of lex-plus-powers ideals, graded Betti numbers via
multigraded Koszul homology, and exhaustive desk-scale verification sweeps.
"""

from .monomials import (
    DegreeList,
    DimensionError,
    HilbertFunction,
    Monomial,
    MonomialIdeal,
    NotArtinianError,
    add_maximal_power,
    colon,
    format_ideal,
    format_monomial,
    is_lex_segment,
    is_lpp,
    minimalize,
    parse_ideal,
)
from .growth import (
    GKExpansion,
    MacaulayExpansion,
    ci_hilbert_function,
    classical_bound,
    classical_expansion,
    gk_coefficients,
    gk_expansion,
    is_lpp_sequence,
    lpp_bound,
)
from .vectors import (
    EMPTY,
    Empty,
    Leaf,
    Node,
    VectorStats,
    ci_vector,
    decompose,
    dual,
    enumerate_vectors,
    format_vector,
    hf_of_vector,
    ideal_of_vector,
    parse_vector,
    stats,
    validate,
    vector_of_hf,
)
from .betti import (
    BettiDiagram,
    FieldSpec,
    betti_diagram,
    mapping_cone_check,
)
from .harness import (
    CheckReport,
    GuardExceeded,
    enumerate_ideals,
    growth_check,
    lexseg_lemma_check,
    lpp_dominance_check,
    residual_lpp_check,
    socle_equivalence_check,
    valid_hilbert_functions,
)

__version__ = "0.1.0"
