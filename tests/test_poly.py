import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from superelliptic.equations import MAX_DEGREE, render_polynomial
from superelliptic.exact import QuadExt
from superelliptic.poly import (
    DeltaSupport,
    Poly,
    delta_support,
    discriminant,
)

small_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys = st.lists(small_coeffs, min_size=0, max_size=6).map(Poly)


def evaluate(p, x):
    return sum(c * x**i for i, c in enumerate(p.coeffs))


def test_construction_trims_and_normalizes():
    assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([]).is_zero()
    assert Poly([0, 0]).is_zero()
    assert Poly.zero().degree == -1
    assert Poly.from_terms([(1, 4), (2, 0), (1, 4)]) == Poly([2, 0, 0, 0, 2])
    assert Poly.from_terms([]).is_zero()
    with pytest.raises(ValueError):
        Poly.from_terms([(1, -1)])


def test_refusals_and_edges_of_the_accessors():
    # a Poly combines only with a Poly: a plain number is refused on either side
    for operand in (1, Fraction(1, 2), 1.5):
        with pytest.raises(TypeError):
            Poly([1]) + operand
        with pytest.raises(TypeError):
            Poly([1]) * operand
        with pytest.raises(TypeError):
            operand * Poly([1])
    with pytest.raises(ValueError, match="the zero polynomial has no leading coefficient"):
        Poly.zero().leading_coefficient()
    p = Poly([3, 0, Fraction(1, 2)])
    assert p.leading_coefficient() == Fraction(1, 2)
    assert p.coefficient(-1) == p.coefficient(3) == p.coefficient(1) == 0
    assert type(p.coefficient(-1)) is Fraction and p.coefficient(0) == 3
    assert repr(p) == "Poly([Fraction(3, 1), Fraction(0, 1), Fraction(1, 2)])"
    assert repr(Poly.zero()) == "Poly([])"
    assert Poly([1]) != (1,)  # __eq__ leaves a non-Poly to the other side, and the tuple says unequal


def test_evaluation_and_str():
    p = Poly([1, 0, 3, 0, 2, 0, 1])
    assert evaluate(p, 0) == 1
    assert evaluate(p, 1) == 7
    assert evaluate(p, Fraction(1, 2)) == Fraction(121, 64)
    assert render_polynomial(p) == "1*x^6 + 2*x^4 + 3*x^2 + 1"
    assert render_polynomial(Poly([Fraction(-1, 2), 1])) == "1*x^1 - 1/2"
    assert render_polynomial(Poly.zero()) == "0"
    # an irrational coefficient joins with '+' whatever its sign; rational ones keep theirs
    lead = QuadExt(Fraction(1, 2), Fraction(1, 4), 2)
    assert render_polynomial(Poly([1, 0, Fraction(1, 2), 0, lead])) == "(1/2 + 1/4*sqrt(2))*x^4 + 1/2*x^2 + 1"
    assert render_polynomial(Poly([QuadExt(-1, 0, 2), QuadExt(0, -1, 2)])) == "(-sqrt(2))*x^1 - 1"


@given(polys, polys, small_coeffs)
def test_ring_operations_agree_with_evaluation(p, q, x):
    assert evaluate(p + q, x) == evaluate(p, x) + evaluate(q, x)
    assert evaluate(p * q, x) == evaluate(p, x) * evaluate(q, x)
    assert p + q == q + p and hash(p + q) == hash(q + p)  # equal polynomials built apart hash equal


def test_construction_refuses_floats_and_keeps_exact_coefficients():
    with pytest.raises(TypeError, match="floats are not exact; pass a Fraction or an int"):
        Poly([0.5, 0, 0, 0, 0, 0, 1])
    with pytest.raises(TypeError, match="floats are not exact"):
        Poly.from_terms([(1, 6), (0.5, 0)])
    half = Fraction(1, 2)
    root = QuadExt(half, Fraction(1, 4), 2)
    p = Poly([half, root, 3])
    assert p.coeffs == (half, root, Fraction(3))
    assert p.coeffs[0] is half and p.coeffs[1] is root and type(p.coeffs[2]) is Fraction
    # from_terms keeps an exponent's only coefficient as it is and adds repeats
    q = Poly.from_terms([(half, 2), (root, 1), (3, 0), (half, 0)])
    assert q.coeffs[2] is half and q.coeffs[1] is root and q.coeffs[0] == Fraction(7, 2)


def to_sympy(p):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, sympy.Symbol("x"), domain="QQ")


def from_sympy(value):
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


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
    out += [Poly.from_terms([(Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 6)), d)]) for d in range(1, 9)]
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


def abnormal_polys():
    """Integer polynomials whose remainder sequence drops more than one degree below an a that has a
    nonzero coefficient strictly between deg b and deg a, the step of ``_next_subresultant`` that adds
    such a coefficient in.

    A random.Random(5) sweep over degrees 4-7 and coefficients in [-3, 3] met 60 of them in 20,662 draws.
    These four have discriminants -6600205620, 29986108, 22352 and -953904867.
    """
    return [
        Poly([-1, 3, -3, 1, 0, -3, -2, 3]),
        Poly([2, -2, -3, 0, 0, -1, -2, -1]),
        Poly([1, -1, 2, 2, -1, -1]),
        Poly([3, 2, 1, -2, 3, -3, 2]),
    ]


def test_discriminant_matches_sympy_exactly():
    for f in oracle_polys() + decimated_polys() + gapped_polys() + dense_polys() + abnormal_polys():
        assert discriminant(f) == from_sympy(sympy.discriminant(to_sympy(f))), f


def test_discriminant_matches_sympy_on_integer_polynomials():
    """Integer f of degree 3..16 with coefficients up to 10^6, the height validation sees.

    Dense f takes a normal step (degree drop 1) at every remainder; a planted
    square gives 0.  x^d + h with deg h = d - 3 drops two degrees at its
    first remainder, so one defective step comes before the normal ones.
    """
    rng = random.Random(27)

    def integers(degree):
        return [rng.randint(-(10**6), 10**6) for _ in range(degree)] + [rng.choice((-1, 1)) * rng.randint(1, 10**6)]

    for d in range(3, 17):
        dense = Poly(integers(d))
        square = Poly(integers(rng.randint(1, d // 2)))
        planted = square * square * Poly(integers(d - 2 * square.degree))
        gapped = Poly(integers(d - 3) + [0, 0, 1])
        assert discriminant(planted) == 0, planted
        for f in (dense, planted, gapped):
            assert discriminant(f) == from_sympy(sympy.discriminant(to_sympy(f))), f



def test_discriminant_is_defined_over_q_only():
    root2 = QuadExt(0, 1, 2)
    for quad in (Poly([root2, 1, 1]), Poly([1, root2]), Poly([QuadExt(3, 0, 2), 0, 1])):
        with pytest.raises(TypeError, match="discriminants are defined over Q here, not for the coefficient QuadExt"):
            discriminant(quad)
    for bad in (Poly.zero(), Poly([3])):
        with pytest.raises(ValueError):
            discriminant(bad)


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
        gcd = to_sympy(f).gcd(to_sympy(f).diff())
        assert disc_zero == (gcd.degree() >= 1)
        if plant_square:
            assert disc_zero


def test_delta_support_examples():
    assert delta_support(Poly([1, 0, 3, 0, 2, 0, 1]))[0] == DeltaSupport(2, 0, 2)
    assert delta_support(Poly([0, 1, 0, 0, 5, 0, 0, 1]))[0] == DeltaSupport(3, 1, 2)
    assert delta_support(Poly([1, 1, 0, 1, 0, 1])) == ()
    assert delta_support(Poly([0, 1])) == ()
    with pytest.raises(ValueError):
        delta_support(Poly.zero())


def test_delta_support_candidate_ordering():
    # support 0, 4, 8: divisors 4 and 2 fit, largest first
    fits = delta_support(Poly([1, 0, 0, 0, 5, 0, 0, 0, 1]))
    assert [c.delta for c in fits] == [4, 2]
    assert [c.s for c in fits] == [1, 3]


def test_delta_support_no_constant_term():
    # x^9 + x^5 + x: residue 1 with delta 4 and 2
    fits = delta_support(Poly([0, 1, 0, 0, 0, 1, 0, 0, 0, 1]))
    assert fits == (DeltaSupport(4, 1, 2), DeltaSupport(2, 1, 4))


@pytest.mark.parametrize(
    "terms, residue, count",
    [([(1, MAX_DEGREE), (1, 0)], 0, 24), ([(1, MAX_DEGREE), (1, 1)], 1, 11)],
    ids=["x^MAX_DEGREE + 1", "x^MAX_DEGREE + x"],
)
def test_delta_support_at_max_degree_lists_every_divisor(terms, residue, count):
    fits = delta_support(Poly.from_terms(terms))
    deltas = [d for d in sympy.divisors(MAX_DEGREE - residue) if d >= 2]
    assert fits == tuple(DeltaSupport(d, residue, (MAX_DEGREE - residue) // d - 1 + residue) for d in reversed(deltas))
    assert len(fits) == count


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


@given(st.lists(st.sampled_from([0, 0, 0, 1, -2]), min_size=1, max_size=40).filter(any))
def test_delta_support_lists_exactly_the_fits_with_delta_at_least_two(coeffs):
    p = Poly(coeffs)
    support = p.support()
    d = support[-1]
    expected = {
        DeltaSupport(delta, r, (d - r) // delta - 1 + r)
        for r in (0, 1)
        for delta in range(2, d + 1)
        if d > r and all((e - r) % delta == 0 for e in support)
    }
    fits = delta_support(p)
    assert set(fits) == expected and len(fits) == len(expected)
    assert [c.delta for c in fits] == sorted((c.delta for c in fits), reverse=True)


def test_polynomials_over_quadratic_extension():
    root2 = QuadExt(0, 1, 2)
    p = Poly([root2, Fraction(1)])
    assert evaluate(p, root2) == QuadExt(0, 2, 2)
    square = p * p
    assert evaluate(square, 1) == (1 + root2) * (1 + root2)
