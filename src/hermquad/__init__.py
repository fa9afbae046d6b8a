"""Exact invariants of quadrics, hermitian quadrics and rational quadratic forms.

Four layers, all over exact integer arithmetic: polynomial generating
functions (poly), formal motivic direct sums and their verification
(motives), Rost numbers and the incompressibility criterion (rost), and
local-global quadratic form theory over Q (quadforms).  The cli module puts
every operation behind one subcommand.
"""

from .errors import (
    DivisionByZero,
    HermquadError,
    InconsistentDecomposition,
    InputTooLarge,
    InvalidExtension,
    InvalidRank,
    NonExactDivision,
    UnsupportedDimension,
    ZeroValue,
)
from .motives import (
    MotiveBase,
    MotiveExpression,
    VerificationReport,
    VishikReport,
    core,
    decompose_hermitian,
    decompose_quadric,
    expand_projective_bundle,
    hermitian_quadric,
    pfister_quadric,
    proj_f,
    proj_l,
    realize_base,
    realize_split,
    solve_core,
    spec_l,
    split_quadric,
    tate,
    verify_krashen,
    vishik_core,
    vishik_solve,
)
from .poly import (
    IntPolynomial,
    exact_div,
    poincare_projective,
    poincare_quadric_of_dim,
    poincare_split_hermitian,
    poincare_split_quadric,
)
from .quadforms import (
    DiagonalQuadraticForm,
    HermitianSpace,
    MHReport,
    Place,
    SquareClass,
    Witness,
    determinant_class,
    essential_dimension,
    first_witt_index_special,
    global_witt_index,
    hasse_invariant,
    hilbert_symbol,
    is_anisotropic_hermitian,
    is_hyperbolic_over_extension,
    is_isotropic_global,
    is_local_square,
    local_witt_index,
    milnor_husemoller_check,
    normalize_square_class,
    relevant_places,
    trace_form,
)
from .rost import (
    INCOMPRESSIBLE,
    UNKNOWN,
    RostReport,
    central_binom_valuation,
    congrel_equivalence,
    congruence_counterexample,
    degree_formula_filter,
    eta2_parity,
    incompressibility_verdict,
    is_power_case,
)

__version__ = "0.1.0"
