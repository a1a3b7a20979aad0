"""The dihedral layer against its formulas written out in Fraction arithmetic.

``dihedral`` computes the invariants, their discriminant, the root split and
the certificate on integers, each term from its own operands' numerators
and denominators.  The oracles below are the same formulas on Fractions,
one operation at a time.  Fractions are canonical, so the two must agree bit
for bit: the tests compare ``repr``, which also tells an int from a
Fraction.  Besides the drawn short tuples, explicit examples of 40 and 60
entries check the long tuples that per-term clearing is for.
"""

import operator
import random
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from superelliptic.dihedral import (
    DihedralInvariants,
    compute_invariants,
    dihedral_discriminant,
    leading_coefficients,
    reconstruct,
)
from superelliptic.exact import FactorBoundExceededError, QuadExt


def oracle_invariants(a):
    s = len(a)
    first, last = a[0], a[-1]
    return tuple([
        first ** (s + 1 - i) * a[i - 1] + last ** (s + 1 - i) * a[s - i]
        for i in range(1, s + 1)
    ])


def oracle_discriminant(values):
    s = len(values)
    head, tail = values[0], values[-1]
    return 2 ** (s + 1) * (2 ** (s + 1) * head**2 - 4 * tail ** (s + 1))


def oracle_root_split(values, report):
    s, head, tail = len(values), values[0], values[-1]
    half = head / 2
    sigma = report.square_part / 2 ** (s + 2)
    d = report.squarefree_radicand or 1
    if report.is_square:
        roots = half + sigma, half - sigma
    else:
        shift = QuadExt(0, sigma, d)
        roots = half + shift, half - shift
    if report.is_degenerate:
        return roots, None, None
    scale = 1 / (2 * sigma * d)
    step, gap, power = tail / 2, head * scale, scale
    halves, parts = [], []
    for i in range(1, s):
        power *= step
        half_b = values[s - i] / 2
        halves.append(half_b)
        parts.append(power * values[i - 1] - half_b * gap)
    return roots, halves, parts


def oracle_interior(split, d, root_choice):
    _, halves, parts = split
    if d is None:
        return tuple(map(operator.sub if root_choice == "plus" else operator.add, halves, parts))
    if root_choice == "plus":
        parts = [-q for q in parts]
    return tuple([QuadExt._of(r, q, d) for r, q in zip(halves, parts)])


def oracle_invariant_values(rec):
    lead = rec.leading_coefficient
    inverse = 1 / lead
    c = (*rec.interior_coefficients, lead)
    s = rec.s
    return tuple(c[0] ** (s + 1 - i) * c[i - 1] * inverse + c[s - i] for i in range(1, s + 1))


def seeded_entries(count, seed):
    """``count`` entries p/q with 1 <= p, q <= 999, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [Fraction(rng.randint(1, 999), rng.randint(1, 999)) for _ in range(count)]


LONG_TUPLE = seeded_entries(60, 14)
# s_1 = 3/7 and s_s = 2 give the discriminant -2**(2s+2) * 187 / 49: radicand -187
LONG_INVARIANTS = [Fraction(3, 7), *seeded_entries(38, 15), Fraction(2)]


def same(got, expected):
    assert repr(got) == repr(expected)


entries = st.builds(Fraction, st.integers(-(10**3), 10**3), st.integers(1, 10**3))


@st.composite
def coefficient_tuples(draw):
    """s = 2..12 entries with denominators up to 10**3, with a_1 or a_s pinned to 0 at times."""
    a = draw(st.lists(entries, min_size=2, max_size=12))
    zero = draw(st.sampled_from((None, None, 0, -1)))
    if zero is not None:
        a[zero] = Fraction(0)
    return a


def check_tuple(inv):
    """Everything the integer routines compute for ``inv``, against the oracles."""
    same(dihedral_discriminant(inv), oracle_discriminant(inv.values))
    try:
        report = inv.field_report
    except FactorBoundExceededError:
        assume(False)
    split = oracle_root_split(inv.values, report)
    interiors = None if report.is_degenerate else {
        root: oracle_interior(split, report.squarefree_radicand, root) for root in ("plus", "minus")
    }
    same(inv._root_split, (split[0], interiors))
    same(leading_coefficients(inv), split[0])
    if report.is_degenerate:
        return
    for root, lead in zip(("plus", "minus"), split[0]):
        rec = reconstruct(inv, root)
        same(rec.leading_coefficient, lead)
        same(rec.interior_coefficients, interiors[root])
        if lead != 0:
            same(rec.invariant_values(), oracle_invariant_values(rec))


@settings(max_examples=150, deadline=None)
@given(coefficient_tuples())
@example([Fraction(2), Fraction(1)])
@example([Fraction(0), Fraction(3)])
@example([Fraction(5, 7), Fraction(0), Fraction(-3, 1000)])
@example(LONG_TUPLE)
@example([*LONG_TUPLE[:-1], Fraction(0)])
def test_forward_tuples_match_the_fraction_formulas(a):
    inv = compute_invariants(a, 2, 2)
    same(inv.values, oracle_invariants(a))
    check_tuple(inv)


@settings(max_examples=150, deadline=None)
@given(coefficient_tuples())
@example([Fraction(1), Fraction(2)])  # discriminant -192 = -3 * 8**2
@example([Fraction(1), Fraction(1)])  # discriminant 32 = 2 * 4**2
@example([Fraction(2), Fraction(2)])  # degenerate: 8 * (32 - 32) = 0
@example([Fraction(-7, 3), Fraction(5, 999), Fraction(11, 2)])
@example(LONG_INVARIANTS)
def test_invariant_tuples_match_the_fraction_formulas(values):
    # read as invariants, random tuples give non-square discriminants of both signs
    check_tuple(DihedralInvariants(values, 3, 2))


def test_negative_radicands_are_drawn():
    inv = DihedralInvariants((Fraction(1), Fraction(2)), 2, 2)
    assert inv.field_report.squarefree_radicand == -3
    rec = reconstruct(inv, "plus")
    assert all(isinstance(c, QuadExt) for c in rec.interior_coefficients)
    same(rec.invariant_values(), oracle_invariant_values(rec))
