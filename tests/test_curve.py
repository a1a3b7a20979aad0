import math
import random
import sys
import time
import types
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from superelliptic.curve import (
    G_DELTA,
    XG_DELTA,
    CurveValidationError,
    SuperellipticCurve,
    classify_normal_form,
    genus,
    validate,
)
from superelliptic.poly import Poly

GENUS2_SEXTIC = Poly([1, 0, 3, 0, 2, 0, 1])  # x^6 + 2x^4 + 3x^2 + 1


def violation_codes(n, f):
    try:
        validate(n, f)
    except CurveValidationError as e:
        return [code for code, _ in e.violations]
    return []


def test_genus_worked_values():
    assert genus(2, 6) == 2
    assert genus(2, 5) == 2
    assert genus(3, 4) == 3


def test_genus_exhaustive_integrality_and_coprime_form():
    for n in range(2, 41):
        for d in range(n + 1, 41):
            g = genus(n, d)
            assert g >= 1
            if math.gcd(n, d) == 1:
                assert g == (n - 1) * (d - 1) // 2


def test_genus_rejects_out_of_range_shapes():
    with pytest.raises(ValueError):
        genus(1, 5)
    with pytest.raises(ValueError):
        genus(2, 2)
    with pytest.raises(ValueError):
        genus(3, 3)
    with pytest.raises(ValueError):
        genus(2, True)


def test_validate_accepts_the_reference_curve():
    curve = validate(2, GENUS2_SEXTIC)
    assert curve.n == 2 and curve.d == 6 and curve.genus == 2
    assert curve.f == GENUS2_SEXTIC


def test_validate_rejects_planted_square_factor():
    square = Poly([-1, 0, 1])
    f = square * square * Poly([-4, 0, 1])
    assert violation_codes(2, f) == ["zero_discriminant"]


def test_validate_rejects_low_genus():
    assert violation_codes(2, Poly([1, 1, 0, 1])) == ["genus_below_two"]


def test_validate_collects_every_violation():
    assert violation_codes(1, Poly([1, 1])) == ["invalid_n", "degree_not_above_n"]
    assert violation_codes(0, Poly.zero()) == ["invalid_n", "degree_not_above_n"]
    square = Poly([1, 1]) * Poly([1, 1])
    codes = violation_codes(2, square)
    assert codes == ["degree_not_above_n", "zero_discriminant"]
    assert violation_codes("2", GENUS2_SEXTIC) == ["invalid_n"]


def test_validation_conditions_toggle_independently():
    # good curve, then each condition broken one at a time
    assert violation_codes(2, GENUS2_SEXTIC) == []
    assert violation_codes(1, GENUS2_SEXTIC) == ["invalid_n"]
    assert violation_codes(6, GENUS2_SEXTIC) == ["degree_not_above_n"]
    square = Poly([-1, 0, 1])
    assert violation_codes(2, square * square * Poly([-4, 0, 1])) == ["zero_discriminant"]
    assert violation_codes(2, Poly([1, 1, 0, 1])) == ["genus_below_two"]


def test_direct_construction_also_validates():
    with pytest.raises(CurveValidationError):
        SuperellipticCurve(2, Poly([1, 1]))


def test_classify_reference_curves():
    nf = classify_normal_form(validate(2, GENUS2_SEXTIC))
    assert (nf.kind, nf.delta, nf.s) == (G_DELTA, 2, 2)
    assert nf.a == (Fraction(3), Fraction(2))
    assert nf.rescale == 1 and nf.diagnostic is None

    nf = classify_normal_form(validate(3, Poly([0, 1, 0, 0, 5, 0, 0, 1])))
    assert (nf.kind, nf.delta, nf.s) == (XG_DELTA, 3, 2)
    assert nf.a == (Fraction(5),)

    nf = classify_normal_form(validate(2, Poly([1, 1, 0, 1, 0, 1])))
    assert nf.kind is None
    assert "no extra automorphism" in nf.diagnostic


def test_classify_applies_rational_rescale():
    nf = classify_normal_form(validate(2, Poly([1, 0, 8, 0, 0, 0, 64])))
    assert nf.kind == G_DELTA and nf.rescale == Fraction(1, 2)
    assert nf.a == (Fraction(2), Fraction(0))


def test_classify_refuses_irrational_rescale():
    # leading coefficient 2 has no rational 6th root
    nf = classify_normal_form(validate(2, Poly([1, 0, 3, 0, 2, 0, 2])))
    assert nf.kind is None
    assert "irrational" in nf.diagnostic


def test_classify_refuses_bad_constant():
    nf = classify_normal_form(validate(2, Poly([2, 0, 3, 0, 2, 0, 1])))
    assert nf.kind is None
    assert "constant term" in nf.diagnostic


def test_classify_names_a_coefficient_too_long_to_write_by_its_size():
    # every numeral of an equation fits the interpreter's limit on writing an integer; a sum of two need not
    big = 2 * (10**4300 - 1)
    cases = [
        (2, Poly([1, 0, 1, 0, 1, 0, big]), "leading coefficient {} needs an irrational rescale"),
        (2, Poly([1, 0, 1, 0, 1, 0, Fraction(1, big)]), "leading coefficient {} needs an irrational rescale"),
        (2, Poly([big, 0, 1, 0, 1, 0, 1]), "constant term {} != 1;"),
        (3, Poly([0, 1, 0, 0, 5, 0, 0, big]), "coefficient 1 on x; got {} and 1"),
        (3, Poly([0, big, 0, 0, 5, 0, 0, 1]), "coefficient 1 on x; got 1 and {}"),
    ]
    sized = f"(a {big.bit_length()}-bit integer)", f"(a ratio of a 1-bit and a {big.bit_length()}-bit integer)"
    saved = sys.get_int_max_str_digits()
    try:
        for limit in (4300, 0):  # CPython's default, and no limit
            sys.set_int_max_str_digits(limit)
            whole, ratio = sized if limit else (str(big), f"1/{big}")
            for n, f, diagnostic in cases:
                value = ratio if f.leading_coefficient().denominator != 1 else whole
                nf = classify_normal_form(validate(n, f))
                assert nf.kind is None and diagnostic.format(value) in nf.diagnostic
    finally:
        sys.set_int_max_str_digits(saved)


def test_classify_delta_override():
    curve = validate(2, Poly([1, 0, 0, 0, 5, 0, 0, 0, 1]))  # x^8 + 5x^4 + 1
    assert classify_normal_form(curve).delta == 4
    pinned = classify_normal_form(curve, delta=2)
    assert (pinned.kind, pinned.delta, pinned.s) == (G_DELTA, 2, 3)
    assert pinned.a == (Fraction(0), Fraction(5), Fraction(0))
    missing = classify_normal_form(curve, delta=3)
    assert missing.kind is None and "does not fit" in missing.diagnostic
    with pytest.raises(ValueError):
        classify_normal_form(curve, delta=1)


def test_classify_xgdelta_requires_pinned_ends():
    bad_lead = classify_normal_form(validate(3, Poly([0, 1, 0, 0, 5, 0, 0, 2])))
    assert bad_lead.kind is None and "leading coefficient" in bad_lead.diagnostic
    bad_inner = classify_normal_form(validate(3, Poly([0, 3, 0, 0, 5, 0, 0, 1])))
    assert bad_inner.kind is None


def test_classify_recovers_synthesized_normal_forms():
    rng = random.Random(23)
    recovered = 0
    while recovered < 60:
        delta = rng.randint(2, 4)
        s = rng.randint(2, 4)
        interior = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(s)]
        if interior[0] == 0:
            interior[0] = Fraction(1)
        coeffs = [Fraction(0)] * (delta * (s + 1) + 1)
        coeffs[0] = Fraction(1)
        for i, a in enumerate(interior, start=1):
            coeffs[delta * i] = a
        coeffs[delta * (s + 1)] = Fraction(1)
        try:
            curve = validate(2, Poly(coeffs))
        except CurveValidationError:
            continue  # the random polynomial happened to have a repeated root
        nf = classify_normal_form(curve)
        assert (nf.kind, nf.delta, nf.s) == (G_DELTA, delta, s)
        assert nf.a == tuple(interior)
        recovered += 1


@st.composite
def rescaled_normal_forms(draw):
    """(delta, s, interior a, r0, f) with f(x) = F(x/r0) for the normal form F of interior a."""
    delta = draw(st.integers(2, 5))
    s = draw(st.integers(2, 6))
    a = draw(st.lists(st.fractions(-9, 9, max_denominator=6), min_size=s, max_size=s))
    r0 = draw(st.fractions(-9, 9, max_denominator=9).filter(bool))
    coeffs = [Fraction(0)] * (delta * (s + 1) + 1)
    for i, c in enumerate([Fraction(1), *a, Fraction(1)]):
        coeffs[delta * i] = c / r0 ** (delta * i)
    return delta, s, tuple(a), r0, Poly(coeffs)


@given(rescaled_normal_forms())
def test_classify_undoes_a_rational_rescale(drawn):
    delta, s, a, r0, f = drawn
    try:
        curve = validate(2, f)
    except CurveValidationError:
        assume(False)  # a repeated root
    nf = classify_normal_form(curve, delta=delta)
    r = abs(r0) if f.degree % 2 == 0 else r0
    assert (nf.kind, nf.delta, nf.s, nf.rescale) == (G_DELTA, delta, s, r)
    assert nf.a == tuple(c * (r / r0) ** (delta * i) for i, c in enumerate(a, 1))


def test_classify_reads_a_huge_rescaled_curve_quickly():
    # 2^9996*x^9996 + x^4998 + 1: a rescale by 1/2, and 3 of 9997 coefficients to read.  The curve
    # is squarefree, but validating it takes seconds and classify reads only f, so it is not validated.
    curve = types.SimpleNamespace(n=2, f=Poly.from_terms([(2**9996, 9996), (1, 4998), (1, 0)]))
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        nf = classify_normal_form(curve)
        timings.append(time.perf_counter() - start)
    assert (nf.kind, nf.delta, nf.s, nf.a, nf.rescale) == (G_DELTA, 4998, 1, (Fraction(1, 2**4998),), Fraction(1, 2))
    assert min(timings) < 0.02
