"""Exact quotient rings of labeled simple polytopes, with tower and word
constructions on top, all over rational arithmetic."""

from .errors import (
    BudgetExceededError,
    InfiniteDimensionError,
    KtoricError,
    NoBaseVertexError,
    NonSquareError,
    NotAUnitError,
    OrderPropertyError,
    RankDeficientError,
    TieError,
    ValidationFailedError,
)
from .validation import CheckResult, ValidationReport
from .polytope import (
    SimplePolytope,
    VertexOrder,
    ascending_faces,
    cube,
    minimal_nonfaces,
    order_vertices,
    product,
    simplex,
    validate_polytope,
)
from .charmap import (
    CharacteristicMap,
    Covector,
    dual_basis,
    product_charmap,
    reindex_to_base,
    simplex_charmap,
    validate_charmap,
)
from .polyring import (
    DegRevLex,
    GroebnerBasis,
    Monomial,
    Poly,
    buchberger,
    render_poly,
    standard_monomials,
)
from .kring import (
    BasisResult,
    CoefficientSpec,
    IsoReport,
    KRingPresentation,
    build_presentation,
    compute_basis,
    covector_relation,
    evaluate_in_quotient,
    invert_unit,
    quotient_basis,
    ring_map_check,
)
from .bott import (
    BottMatrix,
    CartanWord,
    LaurentPresentation,
    bott_charmap,
    bott_equivalence,
    bott_presentation,
    bott_samelson_presentation,
    cartan_matrix,
    cartan_word_matrix,
    involution_check,
    laurent_rank,
)

__version__ = "0.1.0"
