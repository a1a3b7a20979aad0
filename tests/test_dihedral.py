import collections
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superelliptic import dihedral
from superelliptic.cli import main
from superelliptic.curve import validate
from superelliptic.dihedral import (
    DegenerateLocusError,
    DihedralInvariants,
    NoExtraAutomorphismError,
    UnsupportedFormError,
    compute_invariants,
    dihedral_discriminant,
    field_of_definition,
    invariants_for_curve,
    leading_coefficients,
    reconstruct,
    roundtrip_verify,
)
from superelliptic.exact import FactorBoundExceededError, QuadExt, is_perfect_square, squarefree_decompose
from superelliptic.poly import Poly

entries = st.fractions(min_value=-12, max_value=12, max_denominator=8)
tuples = st.lists(entries, min_size=2, max_size=6)


def roots_or_none(inv):
    """Both quadratic roots, or None when the radicand is out of factoring reach.

    The factor bound on squarefree decomposition is a documented boundary of
    the library, not a defect; property tests simply discard such draws.
    """
    try:
        return leading_coefficients(inv)
    except FactorBoundExceededError:
        return None


def quadratic_value(inv, root):
    """The defining quadratic evaluated at the root; must be exactly 0."""
    s = inv.s
    head, tail = inv.values[0], inv.values[-1]
    return 2 ** (s + 1) * root * root - 2 ** (s + 1) * head * root + tail ** (s + 1)


def test_invariants_worked_examples():
    assert compute_invariants([2, 1], 2, 2).values == (Fraction(9), Fraction(4))
    assert compute_invariants([1, 1], 2, 2).values == (Fraction(2), Fraction(2))
    assert compute_invariants([0, 3], 2, 2).values == (Fraction(27), Fraction(0))


def test_invariants_shape_validation():
    with pytest.raises(ValueError):
        compute_invariants([1], 2, 2)
    with pytest.raises(ValueError):
        compute_invariants([1, 2], 1, 2)
    with pytest.raises(ValueError):
        compute_invariants([1, 2], 2, 1)
    with pytest.raises(TypeError):
        compute_invariants([0.5, 1], 2, 2)
    with pytest.raises(ValueError):
        DihedralInvariants((Fraction(1),), 2, 2)


@given(tuples)
def test_swap_invariance(a):
    forward = compute_invariants(a, 2, 2)
    backward = compute_invariants(list(reversed(a)), 2, 2)
    assert forward.values == backward.values


def test_discriminant_worked_examples():
    assert dihedral_discriminant(compute_invariants([2, 1], 2, 2)) == 3136
    assert dihedral_discriminant(compute_invariants([1, 1], 2, 2)) == 0
    assert dihedral_discriminant(DihedralInvariants((Fraction(1), Fraction(1)), 2, 2)) == 32


@given(tuples)
def test_discriminant_is_the_quadratic_discriminant(a):
    inv = compute_invariants(a, 2, 2)
    s = inv.s
    head, tail = inv.values[0], inv.values[-1]
    quad_disc = (2 ** (s + 1) * head) ** 2 - 4 * 2 ** (s + 1) * tail ** (s + 1)
    assert dihedral_discriminant(inv) == quad_disc


def test_discriminant_is_computed_once_per_tuple(monkeypatch):
    inv = DihedralInvariants((Fraction(3, 2), Fraction(-5, 7), Fraction(2)), 2, 2)
    first = dihedral_discriminant(inv)
    rec = reconstruct(inv, "plus")
    with monkeypatch.context() as m:
        # later calls read the kept values: building a Fraction again would raise
        m.setattr(dihedral, "Fraction", None)
        assert dihedral_discriminant(inv) is first
        assert field_of_definition(inv).discriminant is first
        assert reconstruct(inv, "plus") == rec
    assert dihedral_discriminant(DihedralInvariants(inv.values, 2, 2)) == first


def test_roots_worked_examples():
    assert leading_coefficients(compute_invariants([2, 1], 2, 2)) == (Fraction(8), Fraction(1))
    plus, minus = leading_coefficients(compute_invariants([1, 1], 2, 2))
    assert plus == minus == 1  # double root on the degenerate locus
    plus, minus = leading_coefficients(DihedralInvariants((Fraction(1), Fraction(1)), 2, 2))
    assert plus == QuadExt(Fraction(1, 2), Fraction(1, 4), 2)
    assert minus == QuadExt(Fraction(1, 2), Fraction(-1, 4), 2)


@given(tuples)
def test_roots_satisfy_quadratic_and_vieta(a):
    inv = compute_invariants(a, 2, 2)
    plus, minus = leading_coefficients(inv)
    assert quadratic_value(inv, plus) == 0
    assert quadratic_value(inv, minus) == 0
    s = inv.s
    assert plus + minus == inv.values[0]
    assert plus * minus == inv.values[-1] ** (s + 1) / 2 ** (s + 1)


@given(tuples)
def test_root_gap_squares_to_scaled_discriminant(a):
    inv = compute_invariants(a, 2, 2)
    plus, _ = leading_coefficients(inv)
    s = inv.s
    gap = inv.values[0] - 2 * plus
    assert gap * gap == dihedral_discriminant(inv) / 2 ** (2 * (s + 1))


@given(st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=5), min_size=2, max_size=4))
def test_squareness_matches_root_field(vals):
    inv = DihedralInvariants(tuple(vals), 2, 2)
    pair = roots_or_none(inv)
    if pair is None:
        return
    report = field_of_definition(inv)
    plus, minus = pair
    rational_roots = isinstance(plus, Fraction) and isinstance(minus, Fraction)
    assert report.is_square == rational_roots
    assert report.is_square == is_perfect_square(dihedral_discriminant(inv))[0]
    assert report.discriminant == (report.squarefree_radicand or 1) * report.square_part**2


def test_field_reports():
    square = field_of_definition(compute_invariants([2, 1], 2, 2))
    assert square.is_square and not square.is_degenerate
    assert square.field_description == "F"
    assert square.squarefree_radicand is None
    assert "field of moduli is a field of definition" in square.note

    ext = field_of_definition(DihedralInvariants((Fraction(1), Fraction(1)), 2, 2))
    assert not ext.is_square and ext.squarefree_radicand == 2
    assert ext.field_description == "F(sqrt(2))"

    degenerate = field_of_definition(compute_invariants([1, 1], 2, 2))
    assert degenerate.is_degenerate and degenerate.field_description == "F"
    assert "field of moduli is a field of definition" in degenerate.note


def test_reconstruct_worked_examples():
    rec = reconstruct(compute_invariants([2, 1], 2, 2), "minus")
    assert rec.leading_coefficient == 1
    assert rec.interior_coefficients == (Fraction(2),)
    assert rec.polynomial() == Poly([1, 0, 2, 0, 1, 0, 1])

    rec = reconstruct(compute_invariants([0, 3], 2, 2), "plus")
    assert rec.leading_coefficient == 27
    assert rec.interior_coefficients == (Fraction(0),)

    # delta = 3: the vector [1, c_1, ..., c_(s-1), L, L] at every third exponent
    rec = reconstruct(compute_invariants([2, 5, 1], 2, 3), "minus")
    assert rec.polynomial() == Poly([1, 0, 0, 2, 0, 0, 5, 0, 0, 1, 0, 0, 1])
    rec = reconstruct(DihedralInvariants((Fraction(1), Fraction(1)), 2, 3), "minus")
    poly = rec.polynomial()
    assert isinstance(rec.leading_coefficient, QuadExt) and poly.degree == 9
    assert poly.coefficient(6) == poly.coefficient(9) == rec.leading_coefficient
    # an interior tuple of other than s - 1 entries has no place in the vector
    with pytest.raises(ValueError):
        dataclasses.replace(rec, interior_coefficients=()).polynomial()

    with pytest.raises(DegenerateLocusError):
        reconstruct(compute_invariants([1, 1], 2, 2))
    with pytest.raises(ValueError):
        reconstruct(compute_invariants([2, 1], 2, 2), "best")


def test_reconstruct_on_quadratic_extension():
    inv = DihedralInvariants((Fraction(1), Fraction(1)), 2, 2)
    rec = reconstruct(inv, "minus")
    lead = rec.leading_coefficient
    assert isinstance(lead, QuadExt) and lead.d == 2
    assert quadratic_value(inv, lead) == 0
    # the rebuilt polynomial really has those coefficients at delta-spaced slots
    poly = rec.polynomial()
    assert poly.coefficient(0) == 1
    assert poly.coefficient(4) == lead and poly.coefficient(6) == lead
    assert rec.invariant_values() == inv.values


def oracle_reconstruction(inv, sign):
    """Root L = s_1/2 + sign*sqrt(D)/2**(s+2) and the per-root identity, evaluated directly.

    c_i = (s_s**i * s_i / 2**i - L * s_{s+1-i}) / (s_1 - 2L), in Fractions when
    the discriminant D is a square and in QuadExt otherwise.
    """
    s, v = inv.s, inv.values
    disc = dihedral_discriminant(inv)
    square, root = is_perfect_square(disc)
    if square:
        lead = v[0] / 2 + sign * root / 2 ** (s + 2)
    else:
        dec = squarefree_decompose(disc)
        lead = QuadExt(v[0] / 2, sign * dec.square_part / 2 ** (s + 2), dec.squarefree_part)
    interior = tuple((v[-1] ** i * v[i - 1] / 2**i - lead * v[s - i]) / (v[0] - 2 * lead) for i in range(1, s))
    return lead, interior


def oracle_cases():
    """Seeded tuples for s = 2..12 and delta = 2, 3: random, square by construction, s_s = 0, degenerate."""
    rng = random.Random(1301)

    def q(height):
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    for s in range(2, 13):
        for delta in (2, 3):
            for kind in ("random", "random", "random", "square", "tail_zero", "degenerate"):
                middle = [q(9) for _ in range(s - 2)]
                if kind == "square":  # roots w and u**(s+1)/w
                    u, w = q(9), q(9) or Fraction(1)
                    values = (w + u ** (s + 1) / w, *middle, 2 * u)
                elif kind == "tail_zero":
                    values = (q(9), *middle, Fraction(0))
                elif kind == "degenerate":  # a double root v**(s+1)
                    v = q(5) or Fraction(1)
                    values = (2 * v ** (s + 1), *middle, 2 * v * v)
                else:
                    values = (q(9), *middle, q(9))
                yield kind, DihedralInvariants(values, 2, delta)


def test_both_roots_match_the_per_root_oracle():
    seen = collections.Counter()
    for kind, inv in oracle_cases():
        try:
            report = field_of_definition(inv)
        except FactorBoundExceededError:
            continue
        if report.is_degenerate:
            half = inv.values[0] / 2
            assert leading_coefficients(inv) == (half, half)
            for root in ("plus", "minus"):
                with pytest.raises(DegenerateLocusError):
                    reconstruct(inv, root)
            seen["degenerate"] += 1
            continue
        recs = {}
        for root, sign in (("plus", 1), ("minus", -1)):
            rec = recs[root] = reconstruct(inv, root)
            lead, interior = oracle_reconstruction(inv, sign)
            assert rec.leading_coefficient == lead and rec.interior_coefficients == interior
            assert repr(rec.leading_coefficient) == repr(lead)
            assert [repr(c) for c in rec.interior_coefficients] == [repr(c) for c in interior]
            if lead != 0:
                assert rec.invariant_values() == inv.values
        if not report.is_square:
            minus = recs["minus"].interior_coefficients
            assert recs["plus"].interior_coefficients == tuple(c.conjugate() for c in minus)
        seen["square" if report.is_square else "non-square"] += 1
        seen[f"s={inv.s}"] += 1
        seen[f"delta={inv.delta}"] += 1
        seen[kind] += 1
    assert all(seen[f"s={s}"] >= 4 for s in range(2, 13)), seen
    assert min(seen[key] for key in ("square", "non-square", "tail_zero", "degenerate", "delta=2", "delta=3")) >= 10, seen


def test_roots_and_split_are_shared_by_every_reader(monkeypatch):
    calls = count_analysis_calls(monkeypatch)
    inv = DihedralInvariants((Fraction(1), Fraction(1)), 2, 2)  # discriminant 32, not a square
    roots = leading_coefficients(inv)
    assert leading_coefficients(inv) is roots
    field_of_definition(inv)
    minus, plus = reconstruct(inv, "minus"), reconstruct(inv, "plus")
    assert minus.leading_coefficient is leading_coefficients(inv)[1]
    assert plus.leading_coefficient is leading_coefficients(inv)[0]
    assert calls["squarefree_decompose"] == 1


@pytest.mark.parametrize("values", [(9, 4), (1, 1), (1, 0)], ids=["square", "non-square", "zero-root"])
def test_reconstruct_returns_the_same_coefficients_on_every_call(values):
    inv = DihedralInvariants(tuple(map(Fraction, values)), 2, 2)
    for choice in ("plus", "minus"):
        first, again = reconstruct(inv, choice), reconstruct(inv, choice)
        assert again.interior_coefficients is first.interior_coefficients
        assert again.leading_coefficient is first.leading_coefficient
    degenerate = compute_invariants([1, 1], 2, 2)
    for _ in range(2):
        with pytest.raises(DegenerateLocusError):
            reconstruct(degenerate)


def count_analysis_calls(monkeypatch):
    """Count the square tests and squarefree decompositions the dihedral module runs."""
    calls = {"is_perfect_square": 0, "squarefree_decompose": 0}
    for name in calls:
        original = getattr(dihedral, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dihedral, name, counted)
    return calls


def test_each_tuple_is_analysed_once_whatever_the_order(monkeypatch):
    calls = count_analysis_calls(monkeypatch)
    steps = [
        field_of_definition,
        leading_coefficients,
        lambda inv: reconstruct(inv, "plus"),
        lambda inv: reconstruct(inv, "minus"),
        lambda inv: reconstruct(inv, "plus").invariant_values(),
    ]
    for order in itertools.permutations(steps):
        inv = DihedralInvariants((Fraction(1), Fraction(1)), 2, 2)  # discriminant 32, not a square
        for step in order:
            step(inv)
        assert calls == {"is_perfect_square": 1, "squarefree_decompose": 1}
        calls.update(dict.fromkeys(calls, 0))


def test_cli_reconstruct_analyses_the_tuple_once(monkeypatch, capsys):
    calls = count_analysis_calls(monkeypatch)
    assert main(["reconstruct", "--invariants", "1,1"]) == 0
    assert '"F(sqrt(2))"' in capsys.readouterr().out
    assert calls == {"is_perfect_square": 1, "squarefree_decompose": 1}


def test_roundtrip_worked_examples():
    assert roundtrip_verify([2, 1], 2, 2).status == "pass"
    assert roundtrip_verify([0, 3], 2, 2).status == "pass"
    skipped = roundtrip_verify([1, 1], 2, 2)
    assert skipped.status == "skipped" and "degenerate" in skipped.reason


def test_roundtrip_s1_zero_regression():
    # head invariant 0 is harmless: the root gap is -2*root, nonzero off the locus
    inv = compute_invariants([1, -1], 2, 2)
    assert inv.values == (Fraction(0), Fraction(-2))
    assert dihedral_discriminant(inv) == 256
    assert roundtrip_verify([1, -1], 2, 2).status == "pass"


def assert_each_fail(monkeypatch, a, reasons, shift_index=1, shift=1):
    """Break the root, coefficient ``shift_index + 1`` and s_1 in turn; ``reasons`` are the three texts."""
    assert roundtrip_verify(a, 2, 2) == dihedral.RoundtripReport("pass", None, "minus", 5)
    with monkeypatch.context() as m:
        m.setattr(dihedral, "leading_coefficients", lambda inv: (Fraction(5), Fraction(7)))
        assert roundtrip_verify(a, 2, 2) == dihedral.RoundtripReport("fail", reasons[0], None, 0)
    with monkeypatch.context() as m:
        def off(inv, choice):
            rec = reconstruct(inv, choice)
            c = list(rec.interior_coefficients)
            c[shift_index] += shift
            return dataclasses.replace(rec, interior_coefficients=tuple(c))

        m.setattr(dihedral, "reconstruct", off)
        checks = shift_index + 1  # the root and the coefficients before the broken one
        assert roundtrip_verify(a, 2, 2) == dihedral.RoundtripReport("fail", reasons[1], "minus", checks)
    with monkeypatch.context() as m:
        values = compute_invariants(a, 2, 2).values
        wrong = tuple((v.numerator, v.denominator) for v in (values[0] + 1, *values[1:]))
        m.setattr(dihedral.ReconstructedCurve, "_invariant_pairs", lambda rec: wrong)
        assert roundtrip_verify(a, 2, 2) == dihedral.RoundtripReport("fail", reasons[2], "minus", 3)


def test_roundtrip_reports_each_fail(monkeypatch):
    # a = (2, 3, 1) rebuilds with L = 1 and c = (2, 3): 1 root check, 2 coefficients, s_1 and s_2
    assert_each_fail(monkeypatch, [2, 3, 1], (
        "neither quadratic root equals the forward value 1",
        "coefficient 2: reconstructed 4, forward value 3",
        "certificate: the rebuilt equation gives s_1 = 18, not 17",
    ))


def test_roundtrip_reports_each_fail_with_denominators(monkeypatch):
    # a = (2/3, -5/7, 1/2) rebuilds with L = 1/16 and c = (1/3, -5/28); the coefficient
    # check compares a_i * a_s**i by cross-multiplication and prints the reduced Fraction
    a = [Fraction(2, 3), Fraction(-5, 7), Fraction(1, 2)]
    assert_each_fail(monkeypatch, a, (
        "neither quadratic root equals the forward value 1/16",
        "coefficient 2: reconstructed 23/28, forward value -5/28",
        "certificate: the rebuilt equation gives s_1 = 1633/1296, not 337/1296",
    ))
    assert_each_fail(monkeypatch, a, (
        "neither quadratic root equals the forward value 1/16",
        "coefficient 1: reconstructed 8/15, forward value 1/3",
        "certificate: the rebuilt equation gives s_1 = 1633/1296, not 337/1296",
    ), shift_index=0, shift=Fraction(1, 5))


@settings(max_examples=300)
@given(tuples)
def test_roundtrip_passes_or_skips(a):
    report = roundtrip_verify(a, 2, 2)
    assert report.status in ("pass", "skipped")
    if report.status == "pass":
        assert report.checks >= len(a)


@given(tuples)
def test_other_root_rebuilds_the_reversed_tuple(a):
    inv = compute_invariants(a, 2, 2)
    if dihedral_discriminant(inv) == 0:
        return
    s = inv.s
    target = a[-1] ** (s + 1)
    plus, minus = leading_coefficients(inv)
    choice = "plus" if plus == target else "minus"
    other = "minus" if choice == "plus" else "plus"
    mirrored = reconstruct(inv, other)
    reversed_a = list(reversed(a))
    assert mirrored.leading_coefficient == reversed_a[-1] ** (s + 1)
    for i in range(1, s):
        assert mirrored.interior_coefficients[i - 1] == reversed_a[i - 1] * reversed_a[-1] ** i


def test_degenerate_family_is_detected():
    # a_1 = a_s forces equal quadratic roots for any interior filling
    rng = random.Random(71)
    for _ in range(40):
        s = rng.randint(2, 6)
        edge = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        a = [edge] + [Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(s - 2)] + [edge]
        inv = compute_invariants(a, 2, 2)
        assert dihedral_discriminant(inv) == 0
        with pytest.raises(DegenerateLocusError):
            reconstruct(inv)
        assert field_of_definition(inv).is_degenerate


def test_certificate_cases():
    inv = compute_invariants([2, 1], 2, 2)
    assert reconstruct(inv, "minus").invariant_values() == inv.values
    ext = DihedralInvariants((Fraction(1), Fraction(1)), 2, 2)
    for choice in ("plus", "minus"):
        assert reconstruct(ext, choice).invariant_values() == ext.values
    # (27, 0): the minus root is 0 and rebuilds y^2 = 1; only the plus root is a curve
    zero_root = compute_invariants([0, 3], 2, 2)
    assert reconstruct(zero_root, "plus").invariant_values() == zero_root.values
    with pytest.raises(ValueError, match="leading coefficient 0"):
        reconstruct(zero_root, "minus").invariant_values()
    with pytest.raises(DegenerateLocusError):
        reconstruct(compute_invariants([1, 1], 2, 2))


def test_certificate_rejects_a_wrong_equation():
    inv = DihedralInvariants((Fraction(1), Fraction(5), Fraction(-2), Fraction(1)), 2, 2)
    assert not field_of_definition(inv).is_square
    plus, minus = leading_coefficients(inv)
    rec = reconstruct(inv, "plus")
    assert rec.invariant_values() == inv.values

    c = rec.interior_coefficients
    perturbed = dataclasses.replace(rec, interior_coefficients=(c[0], c[1] + Fraction(1, 3), c[2]))
    assert perturbed.invariant_values() != inv.values
    # for s >= 3 the interior coefficients pin the root; for s = 2 they do not (c_1 = s_2/2 for both)
    swapped = dataclasses.replace(rec, leading_coefficient=minus)
    assert swapped.invariant_values() != inv.values
    with pytest.raises(ValueError, match="leading coefficient 0"):
        dataclasses.replace(rec, leading_coefficient=Fraction(0)).invariant_values()


def reference_invariant_values(rec):
    """s_i = c_1**(s+1-i) * c_i / L + c_{s+1-i} on Fractions, for a rational rebuilt equation."""
    c = (*rec.interior_coefficients, rec.leading_coefficient)
    s = rec.s
    return tuple(c[0] ** (s + 1 - i) * c[i - 1] / c[-1] + c[s - i] for i in range(1, s + 1))


@given(st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=8), min_size=1, max_size=6),
       st.fractions(min_value=-12, max_value=12, max_denominator=8).filter(bool))
def test_invariant_pairs_reduce_to_the_invariant_values(interior, lead):
    # every rational equation with L != 0, negative L and zero c_i included: the rational
    # reconstructions and every wrong equation the certificate must refuse
    rec = dihedral.ReconstructedCurve(lead, tuple(interior), 2, 2, len(interior) + 1, "plus")
    pairs = rec._invariant_pairs()
    assert all(den != 0 for _, den in pairs)
    assert tuple(Fraction(num, den) for num, den in pairs) == rec.invariant_values() == reference_invariant_values(rec)


@settings(max_examples=300)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=2, max_size=5))
def test_certificate_on_sampled_invariants(vals):
    inv = DihedralInvariants(tuple(vals), 2, 2)
    if dihedral_discriminant(inv) == 0 or roots_or_none(inv) is None:
        return
    for choice in ("plus", "minus"):
        rec = reconstruct(inv, choice)
        if rec.leading_coefficient == 0:
            with pytest.raises(ValueError):
                rec.invariant_values()
        else:
            assert rec.invariant_values() == inv.values


def test_invariants_for_curve_chains_classification():
    nf, inv = invariants_for_curve(validate(2, Poly([1, 0, 3, 0, 2, 0, 1])))
    assert nf.delta == 2 and inv.values == (Fraction(35), Fraction(12))

    with pytest.raises(NoExtraAutomorphismError):
        invariants_for_curve(validate(2, Poly([1, 1, 0, 1, 0, 1])))
    with pytest.raises(UnsupportedFormError):
        invariants_for_curve(validate(3, Poly([0, 1, 0, 0, 5, 0, 0, 1])))
    with pytest.raises(UnsupportedFormError):
        invariants_for_curve(validate(2, Poly([1, 0, 0, 0, 5, 0, 0, 0, 1])))
    # the delta override unlocks the s >= 2 reading of the same support
    nf, inv = invariants_for_curve(validate(2, Poly([1, 0, 0, 0, 5, 0, 0, 0, 1])), delta=2)
    assert nf.s == 3 and inv.values[-1] == 0
