import random
from fractions import Fraction

import numpy
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from superelliptic.exact import QuadExt
from superelliptic.poly import (
    DeltaSupport,
    Poly,
    delta_support,
    discriminant,
    resultant,
)

small_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys = st.lists(small_coeffs, min_size=0, max_size=6).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def poly_gcd(p, q):
    """Euclidean gcd over Q; independent oracle for repeated-root detection."""
    while not q.is_zero():
        p, q = q, p % q
    return p


def numpy_resultant(p, q):
    """Numeric oracle: res(p, q) = lc(p)^deg q * prod q(root_i of p)."""
    roots = numpy.roots([float(c) for c in reversed(p.coeffs)])
    qc = [float(c) for c in reversed(q.coeffs)]
    value = complex(float(p.leading_coefficient())) ** q.degree
    for root in roots:
        value *= numpy.polyval(qc, root)
    return value


def test_construction_trims_and_normalizes():
    assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([]).is_zero()
    assert Poly([0, 0]).is_zero()
    assert Poly.zero().degree == -1
    assert Poly.monomial(3, 4) == Poly([0, 0, 0, 0, 3])
    assert Poly.from_terms([(1, 4), (2, 0), (1, 4)]) == Poly([2, 0, 0, 0, 2])
    with pytest.raises(ValueError):
        Poly.monomial(1, -1)


def test_evaluation_and_str():
    p = Poly([1, 0, 3, 0, 2, 0, 1])
    assert p(0) == 1
    assert p(1) == 7
    assert p(Fraction(1, 2)) == Fraction(121, 64)
    assert str(p) == "x^6 + 2*x^4 + 3*x^2 + 1"
    assert str(Poly([Fraction(-1, 2), 1])) == "x - 1/2"
    assert str(Poly.zero()) == "0"
    lead = QuadExt(Fraction(1, 2), Fraction(1, 4), 2)
    assert str(Poly([1, 0, Fraction(1, 2), 0, lead])) == "(1/2 + 1/4*sqrt(2))*x^4 + 1/2*x^2 + 1"
    assert str(Poly([QuadExt(-1, 0, 2), QuadExt(0, -1, 2)])) == "(-sqrt(2))*x - 1"


@given(polys, polys, small_coeffs)
def test_ring_operations_agree_with_evaluation(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p - q)(x) == p(x) - q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (-p)(x) == -p(x)


@given(polys, nonzero_polys)
def test_divmod_is_euclidean(p, q):
    quotient, remainder = divmod(p, q)
    assert quotient * q + remainder == p
    assert remainder.is_zero() or remainder.degree < q.degree


@given(polys, small_coeffs, small_coeffs)
def test_scale_x_is_substitution(p, r, x):
    assert p.scale_x(r)(x) == p(r * x)


def test_derivative():
    assert Poly([1, 0, 3, 0, 2, 0, 1]).derivative() == Poly([0, 6, 0, 8, 0, 6])
    assert Poly([5]).derivative().is_zero()


@given(polys, polys)
def test_derivative_product_rule(p, q):
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs == rhs


def test_resultant_sign_convention():
    # res(x - a, x - b) = a - b
    assert resultant(Poly([-3, 1]), Poly([-5, 1])) == -2
    assert resultant(Poly([-5, 1]), Poly([-3, 1])) == 2
    assert resultant(Poly([1, 0, 1]), Poly([-1, 1])) == 2
    # lc(p)**5 * q(-1) with p = x + 1, q = x^5 - 3x: both degrees odd, p the lower
    assert resultant(Poly([1, 1]), Poly([0, -3, 0, 0, 0, 1])) == 2
    with pytest.raises(ValueError):
        resultant(Poly.zero(), Poly([1, 1]))


def test_resultant_degree_zero_cases():
    assert resultant(Poly([3]), Poly([1, 2, 1])) == 9
    assert resultant(Poly([1, 2, 1]), Poly([3])) == 9
    assert resultant(Poly([5]), Poly([7])) == 1


def test_resultant_matches_numpy_roots_oracle():
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        p = Poly([rng.randint(-8, 8) for _ in range(rng.randint(2, 5))] + [rng.randint(1, 8)])
        q = Poly([rng.randint(-8, 8) for _ in range(rng.randint(2, 5))] + [rng.randint(1, 8)])
        exact = resultant(p, q)
        numeric = numpy_resultant(p, q)
        assert abs(complex(exact) - numeric) <= 1e-6 * max(1.0, abs(complex(exact)))
        checked += 1


def to_sympy(p):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, sympy.Symbol("x"), domain="QQ")


def from_sympy(value):
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def sympy_resultant(p, q):
    """sympy.resultant(p, q), asked with the larger degree first.

    sympy 1.14 gets the sign wrong whenever deg p < deg q and both degrees
    are odd: res(x + 1, x^5 - 3x) is 1 * q(-1) = 2, but it returns -2.  Its
    answers with deg p >= deg q agree with the Sylvester determinant, so the
    swap rule res(p, q) = (-1)**(m*n) * res(q, p) covers the other order.
    """
    m, n = p.degree, q.degree
    if m < n:
        return (-1) ** (m * n) * sympy_resultant(q, p)
    return from_sympy(sympy.resultant(to_sympy(p), to_sympy(q)))


def random_poly(rng, degree):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)]
    lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
    return Poly(coeffs + [lead])


def substitute_power(g, k):
    """g(x^k)."""
    return Poly([g.coeffs[i // k] if i % k == 0 else 0 for i in range(k * g.degree + 1)])


def oracle_polys():
    """Seeded rational polynomials of degree 1..12 in the shapes validation sees."""
    rng = random.Random(2014)
    out = [random_poly(rng, rng.randint(1, 12)) for _ in range(30)]
    for _ in range(15):
        delta = rng.randint(2, 4)
        g = random_poly(rng, rng.randint(1, 11 // delta))
        f = substitute_power(g, delta)
        out.append(f)  # g(x^delta)
        out.append(Poly([0, *f.coeffs]))  # x*g(x^delta)
    for _ in range(15):
        square = random_poly(rng, rng.randint(1, 3))
        out.append(square * square * random_poly(rng, rng.randint(0, 6)))
    return out


def test_resultant_matches_sympy_exactly():
    rng = random.Random(1405)
    polys = oracle_polys()
    constants = [Poly([Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))]) for _ in range(6)]
    pairs = [(rng.choice(polys), rng.choice(polys)) for _ in range(60)]
    for _ in range(10):
        # a shared factor makes the remainder sequence stop on a zero remainder
        shared = random_poly(rng, rng.randint(1, 3))
        p, q = random_poly(rng, rng.randint(0, 9)), random_poly(rng, rng.randint(0, 9))
        pairs.append((shared * p, shared * q))
    pairs += [(c, p) for c, p in zip(constants, polys)] + [(p, c) for c, p in zip(constants, polys[6:])]
    pairs += [(constants[0], constants[1])]
    # large rational content on either side, so content * primitive part is checked
    big, small = Poly([Fraction(10**9, 7)]), Poly([Fraction(-7, 10**9 + 7)])
    pairs += [(big * p, q) for p, q in pairs[:10]] + [(p, small * q) for p, q in pairs[10:20]]
    pairs += [(big * p, small * q) for p, q in pairs[60:70]] + [(big, small * polys[0]), (big * polys[1], small)]
    gapped = gapped_polys()
    pairs += list(zip(gapped, gapped[1:]))
    for p, q in pairs:
        assert resultant(p, q) == sympy_resultant(p, q), (p, q)


def decimated_polys():
    """The shapes the g(x^k) reduction of ``discriminant`` takes apart.

    g(x^k) for k in 2..5, with g(0) = 0, with a square planted inside g, and
    times x (which is not reduced); monomials c*x^d, including degree 1.
    """
    rng = random.Random(2026)
    out = []
    for k in range(2, 6):
        for _ in range(4):
            g = random_poly(rng, rng.randint(1, 4))
            square = random_poly(rng, rng.randint(1, 2))
            out.append(substitute_power(g, k))
            out.append(substitute_power(Poly([0, *g.coeffs]), k))  # g(0) = 0
            out.append(substitute_power(square * square * random_poly(rng, rng.randint(0, 2)), k))
            out.append(Poly([0, *substitute_power(g, k).coeffs]))  # x*g(x^k)
    out += [Poly.monomial(Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 6)), d) for d in range(1, 9)]
    return out


def gapped_polys():
    """Sparse polynomials with large degree gaps, whose remainder sequences skip degrees."""
    rng = random.Random(500)
    out = [Poly.from_terms([(1, d), (rng.randint(1, 9), d // 2), (1, 1), (rng.randint(1, 9), 0)]) for d in (12, 21, 40)]
    for _ in range(12):
        d = rng.randint(8, 30)
        out.append(Poly.from_terms([(1, d)] + [(rng.randint(-9, 9), rng.randint(0, d - 1)) for _ in range(3)]))
    return out


def dense_polys():
    """Dense monic polynomials of degree 24 and 48 with coefficients up to 10^6."""
    rng = random.Random(48)
    return [Poly([rng.randint(-(10**6), 10**6) for _ in range(d)] + [1]) for d in (24, 48)]


def test_discriminant_matches_sympy_exactly():
    for f in oracle_polys() + decimated_polys() + gapped_polys() + dense_polys():
        assert discriminant(f) == from_sympy(sympy.discriminant(to_sympy(f))), f


def test_resultant_and_discriminant_are_defined_over_q_only():
    root2 = QuadExt(0, 1, 2)
    line = Poly([1, 1])
    for quad in (Poly([root2, 1, 1]), Poly([1, root2]), Poly([QuadExt(3, 0, 2), 0, 1])):
        with pytest.raises(TypeError):
            resultant(quad, line)
        with pytest.raises(TypeError):
            resultant(line, quad)
        with pytest.raises(TypeError):
            discriminant(quad)
    for bad in (Poly.zero(), Poly([3])):
        with pytest.raises(ValueError):
            discriminant(bad)
    with pytest.raises(ValueError):
        resultant(line, Poly.zero())


def test_resultant_is_multiplicative_in_each_slot():
    rng = random.Random(5)
    for _ in range(25):
        a = Poly([rng.randint(-5, 5) for _ in range(3)] + [1])
        b = Poly([rng.randint(-5, 5) for _ in range(2)] + [1])
        c = Poly([rng.randint(-5, 5) for _ in range(2)] + [1])
        assert resultant(a, b * c) == resultant(a, b) * resultant(a, c)
        assert resultant(b * c, a) == resultant(b, a) * resultant(c, a)


def test_discriminant_closed_forms():
    rng = random.Random(3)
    for _ in range(50):
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        assert discriminant(Poly([c, b, 1])) == b * b - 4 * c
    for _ in range(50):
        p = Fraction(rng.randint(-9, 9))
        q = Fraction(rng.randint(-9, 9))
        assert discriminant(Poly([q, p, 0, 1])) == -4 * p**3 - 27 * q**2
    assert discriminant(Poly([7, 2])) == 1
    with pytest.raises(ValueError):
        discriminant(Poly([3]))


def test_discriminant_vanishes_exactly_on_repeated_roots():
    rng = random.Random(19)
    for trial in range(200):
        base = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 3))] + [1])
        other = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 2))] + [1])
        plant_square = trial % 2 == 0
        f = base * base * other if plant_square else base * other
        if f.degree < 1:
            continue
        disc_zero = discriminant(f) == 0
        gcd = poly_gcd(f, f.derivative())
        assert disc_zero == (gcd.degree >= 1)
        if plant_square:
            assert disc_zero


def test_delta_support_examples():
    assert delta_support(Poly([1, 0, 3, 0, 2, 0, 1]))[0] == DeltaSupport(2, 0, 2)
    assert delta_support(Poly([0, 1, 0, 0, 5, 0, 0, 1]))[0] == DeltaSupport(3, 1, 2)
    assert delta_support(Poly([1, 1, 0, 1, 0, 1])) == (DeltaSupport(1, 0, 4),)
    assert DeltaSupport(1, 0, 5) in delta_support(Poly([1, 0, 3, 0, 2, 0, 1]))
    with pytest.raises(ValueError):
        delta_support(Poly.zero())


def test_delta_support_candidate_ordering():
    # support 0, 4, 8: divisors 4, 2, 1 all fit, largest first
    fits = delta_support(Poly([1, 0, 0, 0, 5, 0, 0, 0, 1]))
    assert [c.delta for c in fits] == [4, 2, 1]
    assert [c.s for c in fits] == [1, 3, 7]


def test_delta_support_no_constant_term():
    # x^9 + x^5 + x: residue 1 with delta 4, 2, 1
    fits = delta_support(Poly([0, 1, 0, 0, 0, 1, 0, 0, 0, 1]))
    assert fits == (DeltaSupport(4, 1, 2), DeltaSupport(2, 1, 4), DeltaSupport(1, 1, 8))


@given(
    st.integers(min_value=2, max_value=5),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=2, max_size=5),
)
def test_delta_support_detects_synthesized_decimation(delta, interior):
    # build f = g(x^delta) with nonzero a_1 so the gcd cannot exceed delta
    if interior[0] == 0:
        interior[0] = Fraction(1)
    s = len(interior)
    coeffs = [Fraction(0)] * (delta * (s + 1) + 1)
    coeffs[0] = Fraction(1)
    for i, a in enumerate(interior, start=1):
        coeffs[delta * i] = a
    coeffs[delta * (s + 1)] = Fraction(1)
    fits = delta_support(Poly(coeffs))
    assert DeltaSupport(delta, 0, s) in fits
    # a_1 != 0 puts delta*1 in the support, so no larger step can fit
    best = fits[0]
    assert best.delta == delta and best.s == s


def test_polynomials_over_quadratic_extension():
    root2 = QuadExt(0, 1, 2)
    p = Poly([root2, Fraction(1)])
    assert p(root2) == QuadExt(0, 2, 2)
    square = p * p
    assert square(1) == (1 + root2) * (1 + root2)
