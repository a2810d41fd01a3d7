"""Exact tools for quadratic form definiteness via the polynomial det(A - L).

A symmetric matrix A is paired with a skew-symmetric matrix L whose strict
upper entries act as independent variables.  The package expands det(A - L)
exactly over the rationals, evaluates it, certifies its positivity for
positive definite A, and classifies definiteness with explicit sign-change
witnesses for everything else.
"""

from .analyzer import (
    ClassificationReport,
    NotIndefinite,
    PredictedSign,
    ProbeReport,
    Verdict,
    Witness,
    classify,
    sign_probe,
    witness_indefinite,
)
from .engine import (
    DEFAULT_MAX_DIM,
    Certificate,
    ExpansionTooLarge,
    NotPositiveDefinite,
    certify_positive,
    eval_skewchar,
    expand_skewchar,
)
from .matrices import (
    DimensionMismatch,
    MatrixParseError,
    Signature,
    SkewMatrix,
    SymmetricMatrix,
    congruence_sym,
    det_rational,
    lagrange_diagonalize,
    random_skew,
    signature,
)
from .polynomials import (
    MissingVariable,
    MultiPoly,
    Var,
)

__version__ = "0.1.0"

__all__ = [
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
    "PredictedSign",
    "ProbeReport",
    "Signature",
    "SkewMatrix",
    "SymmetricMatrix",
    "Var",
    "Verdict",
    "Witness",
    "certify_positive",
    "classify",
    "congruence_sym",
    "det_rational",
    "eval_skewchar",
    "expand_skewchar",
    "lagrange_diagonalize",
    "random_skew",
    "sign_probe",
    "signature",
    "witness_indefinite",
]
