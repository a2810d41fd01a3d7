"""Exact tools for quadratic form definiteness via the polynomial det(A - L).

A symmetric matrix A is paired with a skew-symmetric matrix L whose strict
upper entries act as independent variables.  The package expands det(A - L)
exactly over the rationals, evaluates it, certifies its positivity for
positive definite A, and classifies definiteness with explicit sign-change
witnesses for everything else.
"""

from .analyzer import (
    AnisotropicForm,
    ClassificationReport,
    NotIndefinite,
    PredictedSign,
    ProbeReport,
    Verdict,
    Witness,
    WitnessSearchExhausted,
    classify,
    sign_probe,
    witness_indefinite,
)
from .engine import (
    DEFAULT_MAX_DIM,
    Certificate,
    ExpansionTooLarge,
    NotPositiveDefinite,
    OddSubset,
    certify_positive,
    eval_skewchar,
    expand_skewchar,
    pfaffian,
    sub_pfaffian_poly,
)
from .matrices import (
    DimensionMismatch,
    MatrixParseError,
    Signature,
    SkewMatrix,
    SymmetricMatrix,
    TransitionMatrix,
    congruence_skew,
    congruence_sym,
    det_rational,
    lagrange_diagonalize,
    random_skew,
    signature,
)
from .polynomials import (
    MissingVariable,
    MultiPoly,
    PolyParseError,
    Var,
    lam,
)

__version__ = "0.1.0"

__all__ = [
    "AnisotropicForm",
    "Certificate",
    "ClassificationReport",
    "DEFAULT_MAX_DIM",
    "DimensionMismatch",
    "ExpansionTooLarge",
    "MatrixParseError",
    "MissingVariable",
    "MultiPoly",
    "NotIndefinite",
    "NotPositiveDefinite",
    "OddSubset",
    "PolyParseError",
    "PredictedSign",
    "ProbeReport",
    "Signature",
    "SkewMatrix",
    "SymmetricMatrix",
    "TransitionMatrix",
    "Var",
    "Verdict",
    "Witness",
    "WitnessSearchExhausted",
    "certify_positive",
    "classify",
    "congruence_skew",
    "congruence_sym",
    "det_rational",
    "eval_skewchar",
    "expand_skewchar",
    "lagrange_diagonalize",
    "lam",
    "pfaffian",
    "random_skew",
    "sign_probe",
    "signature",
    "sub_pfaffian_poly",
    "witness_indefinite",
]
