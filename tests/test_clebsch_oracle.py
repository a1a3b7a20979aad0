"""The genus-2 Clebsch oracle: its own invariance checks, then the pins it proves.

Only genus 2 is in scope (n = delta = s = 2, so deg f = 6): there equal
Clebsch points prove two curves isomorphic over Q̄, and unequal points prove
them not isomorphic.  The points come from sympy in ``clebsch_oracle``; the
package computes none.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clebsch_oracle import clebsch_point, same_point, sextic, x, z
from superelliptic.dihedral import (DihedralInvariants, ReconstructedCurve, compute_invariants, dihedral_discriminant,
                                    reconstruct)
from superelliptic.exact import QuadExt

GOLDEN = (1, 0, 2, 0, 1, 0, 1)  # x^6 + x^4 + 2x^2 + 1, invariants (9, 4)
CONTROL = (1, 0, 1, 0, 1, 0, 1)  # x^6 + x^4 + x^2 + 1
#: A model over Q of the curve that field --invariants 1,1 rebuilds over Q(sqrt 2).
MODEL_OVER_Q = (16, -52, 88, -76, 44, -13, 2)

integer_sextics = st.lists(st.integers(-9, 9), min_size=7, max_size=7)


def to_sympy(c):
    """A Fraction, or a QuadExt ``a + b*sqrt(d)``, as a sympy number."""
    if isinstance(c, QuadExt):
        return to_sympy(c.a) + to_sympy(c.b) * sympy.sqrt(c.d)
    return sympy.Rational(c.numerator, c.denominator)


def rebuilt_point(curve: ReconstructedCurve) -> tuple:
    return clebsch_point(sextic([to_sympy(c) for c in curve.polynomial().coeffs]))


@settings(max_examples=10, deadline=None)
@given(integer_sextics, st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool))
def test_scaling_f_by_c_scales_the_point_by_c_to_its_weights(coefficients, c):
    point = clebsch_point(sextic(coefficients))
    scaled = clebsch_point(sextic([c * coefficient for coefficient in coefficients]))
    c = sympy.Rational(c.numerator, c.denominator)
    assert scaled == tuple(c**weight * value for weight, value in zip((2, 4, 6, 10), point))


@settings(max_examples=10, deadline=None)
@given(integer_sextics, st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_an_integer_gl2_change_of_x_and_z_keeps_the_point(coefficients, matrix):
    a, b, c, d = matrix
    det = a * d - b * c
    assume(det)
    form = sextic(coefficients)
    point = clebsch_point(form)
    assume(any(point))
    moved = sympy.Poly(form.as_expr().subs({x: a * x + b * z, z: c * x + d * z}, simultaneous=True), x, z)
    moved_point = clebsch_point(moved)
    # an invariant of degree k in the coefficients of a sextic has weight 3k: it scales by det^(3k)
    assert moved_point == tuple(det ** (3 * k) * value for k, value in zip((2, 4, 6, 10), point))
    assert same_point(point, moved_point)


def test_the_golden_sextic_shares_its_point_with_its_three_affine_models():
    golden = clebsch_point(sextic(GOLDEN))
    assert golden[0] == sympy.Rational(34, 15)  # A = 2 + s_2/15 at s_2 = 4
    X = sympy.Symbol("X")
    shifted = sympy.Poly(sum(c * (X + 1) ** e for e, c in enumerate(GOLDEN)), X).all_coeffs()[::-1]
    models = [(1, 0, 4, 0, 4, 0, 8), tuple(5 * c for c in GOLDEN), shifted]
    for model in models:
        assert same_point(golden, clebsch_point(sextic(model))), model
    assert not same_point(golden, clebsch_point(sextic(CONTROL)))


@pytest.mark.parametrize("root", ["plus", "minus"])
def test_the_rebuilt_1_1_curve_over_q_sqrt_2_has_a_model_over_q(root):
    inv = DihedralInvariants((Fraction(1), Fraction(1)), 2, 2)
    point = rebuilt_point(reconstruct(inv, root))
    assert any(value.has(sympy.sqrt(2)) for value in point)
    assert same_point(point, clebsch_point(sextic(MODEL_OVER_Q)))
    assert not same_point(point, clebsch_point(sextic(CONTROL)))


@settings(max_examples=10, deadline=None)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5), min_size=2, max_size=2))
def test_each_rebuild_of_an_s_2_tuple_is_its_source_curve(a):
    inv = compute_invariants(a, 2, 2)
    assume(dihedral_discriminant(inv) != 0)
    source = clebsch_point(sextic([1, 0, a[0], 0, a[1], 0, 1]))
    rebuilt = [reconstruct(inv, root) for root in ("plus", "minus")]
    nonzero = [curve for curve in rebuilt if curve.leading_coefficient]  # a root of 0 rebuilds no curve
    assert len(nonzero) == (2 if inv.values[1] else 1)
    for curve in nonzero:
        assert same_point(source, rebuilt_point(curve)), curve.root_choice
