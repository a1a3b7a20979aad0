"""Exact toolkit for superelliptic curves y**n = f(x) with an extra automorphism.

The pipeline: validate a curve, detect the decimated normal form, compute the
dihedral invariants of its interior coefficients, decide whether the field of
moduli already carries a model, and rebuild an explicit equation over the
minimal field (at worst a quadratic extension).  Everything is exact, and
no float enters any result.

>>> from superelliptic import parse_equation, validate, invariants_for_curve
>>> n, f = parse_equation("y^2 = x^6 + 2x^4 + 3x^2 + 1")
>>> nf, inv = invariants_for_curve(validate(n, f))
>>> [str(v) for v in inv.values]
['35', '12']
"""

from .curve import (
    G_DELTA,
    XG_DELTA,
    CurveValidationError,
    NormalForm,
    SuperellipticCurve,
    classify_normal_form,
    genus,
    validate,
)
from .dihedral import (
    DegenerateLocusError,
    DihedralInvariants,
    FieldReport,
    NoExtraAutomorphismError,
    ReconstructedCurve,
    RoundtripReport,
    UnsupportedFormError,
    compute_invariants,
    dihedral_discriminant,
    field_of_definition,
    invariants_for_curve,
    leading_coefficients,
    reconstruct,
    roundtrip_verify,
)
from .equations import (
    MAX_DEGREE,
    EquationSyntaxError,
    InputTooLargeError,
    parse_equation,
    render_equation,
    render_polynomial,
)
from .exact import (
    FactorBoundExceededError,
    QuadExt,
    RadicandMismatchError,
    Rational,
    SquarefreeDecomposition,
    integer_nth_root,
    is_perfect_square,
    rational_nth_root,
    squarefree_decompose,
)
from .poly import DeltaSupport, Poly, delta_support, discriminant

__version__ = "0.1.0"

__all__ = [
    "CurveValidationError",
    "DegenerateLocusError",
    "DeltaSupport",
    "DihedralInvariants",
    "EquationSyntaxError",
    "FactorBoundExceededError",
    "FieldReport",
    "G_DELTA",
    "InputTooLargeError",
    "MAX_DEGREE",
    "NoExtraAutomorphismError",
    "NormalForm",
    "Poly",
    "QuadExt",
    "RadicandMismatchError",
    "Rational",
    "ReconstructedCurve",
    "RoundtripReport",
    "SquarefreeDecomposition",
    "SuperellipticCurve",
    "UnsupportedFormError",
    "XG_DELTA",
    "classify_normal_form",
    "compute_invariants",
    "delta_support",
    "dihedral_discriminant",
    "discriminant",
    "field_of_definition",
    "genus",
    "integer_nth_root",
    "invariants_for_curve",
    "is_perfect_square",
    "leading_coefficients",
    "parse_equation",
    "rational_nth_root",
    "reconstruct",
    "render_equation",
    "render_polynomial",
    "roundtrip_verify",
    "squarefree_decompose",
    "validate",
]
