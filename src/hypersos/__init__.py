"""Exact certificates for hyperbolic polynomials.

The package decides hyperbolicity, interlacing, and hyperbolicity-cone
membership with exact rational arithmetic, certifies sums-of-squares
relaxations of hyperbolicity cones (numeric search, exact rational
certificates), and builds definite determinantal representations of
multiaffine stable polynomials.
"""

from .polycore import (
    Polynomial,
    UniPoly,
    parse_poly,
    format_poly,
    evaluate,
    partial_derivative,
    directional_derivative,
    restrict_to_line,
    poly_determinant,
    poly_adjugate,
    exact_divide,
    perfect_square_root,
)
from .realroots import (
    IsolatingInterval,
    RootList,
    SturmSequence,
    is_real_rooted,
    isolate_real_roots,
    roots_interlace,
    sturm_root_count,
)
from .verdicts import Status, Verdict
from .hypercone import (
    HyperbolicityInstance,
    SampleConfig,
    check_hyperbolic,
    cone_membership,
    delta_ij,
    int_cone_membership_by_derivative,
    interlaces,
    wronskian_delta,
)
from .soscert import (
    GramSystem,
    SosCertificate,
    assemble_gram_system,
    certify_sos,
    certify_sos_mod_f,
    solve_sdp,
    sos_cone_membership,
)
from .detrep import (
    DeterminantalRep,
    InterlacerMatrix,
    NoRep,
    bordered_determinant_identity,
    build_detrep_multiaffine,
    check_multiaffine_stable,
    interlacer_from_detrep,
    verify_detrep,
)
from . import corpus

__all__ = [
    "Polynomial",
    "UniPoly",
    "parse_poly",
    "format_poly",
    "evaluate",
    "partial_derivative",
    "directional_derivative",
    "restrict_to_line",
    "poly_determinant",
    "poly_adjugate",
    "exact_divide",
    "perfect_square_root",
    "IsolatingInterval",
    "RootList",
    "SturmSequence",
    "is_real_rooted",
    "isolate_real_roots",
    "roots_interlace",
    "sturm_root_count",
    "Status",
    "Verdict",
    "HyperbolicityInstance",
    "SampleConfig",
    "check_hyperbolic",
    "cone_membership",
    "delta_ij",
    "int_cone_membership_by_derivative",
    "interlaces",
    "wronskian_delta",
    "GramSystem",
    "SosCertificate",
    "assemble_gram_system",
    "certify_sos",
    "certify_sos_mod_f",
    "solve_sdp",
    "sos_cone_membership",
    "DeterminantalRep",
    "InterlacerMatrix",
    "NoRep",
    "bordered_determinant_identity",
    "build_detrep_multiaffine",
    "check_multiaffine_stable",
    "interlacer_from_detrep",
    "verify_detrep",
    "corpus",
]
