"""End-to-end acceptance checks, one per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion with its elapsed time.  Every comparison here is exact.
"""

import contextlib
import functools
import io
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from superelliptic.cli import main
from superelliptic.curve import genus
from superelliptic.dihedral import (
    DegenerateLocusError,
    DihedralInvariants,
    compute_invariants,
    dihedral_discriminant,
    field_of_definition,
    leading_coefficients,
    reconstruct,
    roundtrip_verify,
)
from superelliptic.equations import parse_equation, render_equation
from superelliptic.exact import QuadExt, is_perfect_square
from superelliptic.poly import Poly, discriminant


def criterion(number, label, budget=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL  {label}")
                raise
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed >= budget:
                print(f"criterion {number}: FAIL  {label} ({elapsed:.2f}s, budget {budget:.0f}s)")
                raise AssertionError(f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s")
            print(f"criterion {number}: PASS  {label} ({elapsed:.2f}s)")

        return run

    return wrap


def _run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@criterion(1, "worked example a=(2,1): invariants, roots, rebuild, field", budget=1.0)
def test_criterion_1_worked_example():
    inv = compute_invariants((Fraction(2), Fraction(1)), 2, 2)
    assert inv.values == (Fraction(9), Fraction(4))

    disc = dihedral_discriminant(inv)
    assert disc == 3136
    assert is_perfect_square(disc) == (True, Fraction(56))

    plus, minus = leading_coefficients(inv)
    assert {plus, minus} == {Fraction(1), Fraction(8)}

    rebuilt = reconstruct(inv, "minus")
    assert rebuilt.leading_coefficient == Fraction(1)
    assert rebuilt.interior_coefficients == (Fraction(2),)

    report = field_of_definition(inv)
    assert report.is_square and not report.is_degenerate
    assert report.field_description == "F"


@criterion(2, "roundtrip suite: 1000 nondegenerate seeded tuples rebuild exactly", budget=30.0)
def test_criterion_2_roundtrip_suite():
    rng = random.Random(1009)
    passed = 0
    attempts = 0
    while passed < 1000:
        attempts += 1
        assert attempts <= 5000, "the degenerate locus should be thin for random tuples"
        size = rng.randint(2, 8)
        a = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(size))
        report = roundtrip_verify(a, 2, 2)
        if report.status == "skipped":
            continue
        assert report.status == "pass", (a, report.reason)
        passed += 1

    # The alternative closed form for the rebuilt coefficients that circulates
    # is wrong, and the reference tuple a=(2,1) is the witness: it yields
    # 144/65 where the true interior coefficient is 2.  The README must keep
    # that witness on record next to the identity this library uses.
    s1, ss, chosen_root = Fraction(9), Fraction(4), Fraction(1)
    s, i = 2, 1
    alternative = (
        2 ** (s - i) * s1 * (ss**i * s1 - chosen_root * ss)
        / (2**s * s1**2 - ss ** (s + 1))
    )
    assert alternative == Fraction(144, 65)
    assert alternative != reconstruct(compute_invariants((2, 1), 2, 2), "minus").interior_coefficients[0]

    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert "144/65" in readme.read_text(encoding="utf-8")


@criterion(3, "quadratic-field path (1,1): F(sqrt(2)), exact roots, exact certificate", budget=1.0)
def test_criterion_3_quadratic_field_path():
    inv = DihedralInvariants((Fraction(1), Fraction(1)), 2, 2)
    assert dihedral_discriminant(inv) == 32

    report = field_of_definition(inv)
    assert not report.is_square
    assert report.squarefree_radicand == 2
    assert report.field_description == "F(sqrt(2))"

    s = inv.s
    plus, minus = leading_coefficients(inv)
    for root in (plus, minus):
        assert isinstance(root, QuadExt) and root.d == 2
        value = 2 ** (s + 1) * root * root - 2 ** (s + 1) * inv.values[0] * root + inv.values[-1] ** (s + 1)
        assert value == 0

    for choice in ("plus", "minus"):
        rec = reconstruct(inv, choice)
        assert isinstance(rec.leading_coefficient, QuadExt)
        assert rec.invariant_values() == inv.values


@criterion(4, "degenerate locus: 100 constructed tuples, zero discriminant throughout")
def test_criterion_4_degenerate_locus():
    rng = random.Random(404)
    for index in range(100):
        size = rng.randint(2, 6)
        end = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        first = end
        if (size + 1) % 2 == 0 and rng.random() < 0.5:
            first = -end
        middle = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size - 2)]
        a = (first, *middle, end)
        assert a[0] ** (size + 1) == a[-1] ** (size + 1)

        inv = compute_invariants(a, 2, 2)
        assert dihedral_discriminant(inv) == 0

        with pytest.raises(DegenerateLocusError):
            reconstruct(inv)

        report = field_of_definition(inv)
        assert report.is_degenerate
        assert "field of moduli is a field of definition" in report.note


@criterion(5, "genus formula: exhaustive over 2 <= n < d <= 40", budget=1.0)
def test_criterion_5_genus_exhaustive():
    pairs = 0
    for n in range(2, 41):
        for d in range(n + 1, 41):
            g = genus(n, d)
            assert isinstance(g, int) and g >= 0
            assert g == 1 + Fraction(n * d - n - d - math.gcd(n, d), 2)
            if math.gcd(n, d) == 1:
                assert g == (n - 1) * (d - 1) // 2
            pairs += 1
    assert pairs == 741


@criterion(6, "swap invariance on 500 sampled tuples, exact")
def test_criterion_6_swap_invariance():
    rng = random.Random(606)
    for _ in range(500):
        size = rng.randint(2, 8)
        a = [Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(size)]
        forward = compute_invariants(a, 2, 2)
        backward = compute_invariants(a[::-1], 2, 2)
        assert forward.values == backward.values


def _has_repeated_root(f):
    """deg gcd(f, f') >= 1, by sympy over Q."""
    g = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], sympy.Symbol("x"))
    return g.gcd(g.diff()).degree() >= 1


@criterion(7, "discriminant zero iff gcd(f, f') nonconstant, 200 polynomials")
def test_criterion_7_discriminant_agrees_with_gcd():
    rng = random.Random(707)
    for trial in range(200):
        degree = rng.randint(2, 7)
        coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(degree)]
        coeffs.append(Fraction(rng.randint(1, 6)))
        f = Poly(coeffs)
        if trial % 2:
            root = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            factor = Poly([-root, Fraction(1)])
            f = f * factor * factor
        zero_disc = discriminant(f) == 0
        assert zero_disc == _has_repeated_root(f)


@criterion(8, "CLI byte determinism plus parse/render identity on 100 equations")
def test_criterion_8_cli_determinism_and_grammar_identity():
    fixed = [
        ["invariants", "y^2 = x^6 + x^4 + 2x^2 + 1"],
        ["invariants", "y^2 = x^6 + 2x^4 + 3x^2 + 1"],
        ["classify", "y^3 = x^7 + 5*x^4 + x"],
        ["genus", "--n", "2", "--d", "6"],
        ["field", "--invariants", "1,1"],
        ["reconstruct", "--invariants", "9,4", "--root", "minus"],
        ["roundtrip", "--random", "40", "--seed", "7"],
    ]
    for argv in fixed:
        first_code, first = _run_cli(argv)
        second_code, second = _run_cli(argv)
        assert first_code == second_code == 0, argv
        assert first == second, argv
        json.loads(first)

    code, out = _run_cli(["genus", "--n", "2", "--d", "6"])
    assert code == 0 and json.loads(out)["genus"] == 2

    rng = random.Random(808)
    for _ in range(100):
        n = rng.randint(2, 9)
        degree = rng.randint(1, 9)
        coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(degree)]
        coeffs.append(Fraction(rng.randint(1, 30), rng.randint(1, 12)))
        f = Poly(coeffs)
        text = render_equation(n, f)
        parsed_n, parsed_f = parse_equation(text)
        assert parsed_n == n and parsed_f == f
        assert render_equation(parsed_n, parsed_f) == text
