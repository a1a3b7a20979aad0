"""Superelliptic curves y**n = f(x): validation, genus, normal-form detection.

A curve is accepted only when it is honestly superelliptic of genus at least
2: f squarefree (nonzero discriminant), n >= 2, deg f > n.  Validation
collects every violated condition instead of stopping at the first, so a
caller can show the user the whole list at once.

Normal-form detection looks for an extra automorphism through the support of
f: an equation y**n = g(x**delta) (kind ``GDelta``) or y**n = x*g(x**delta)
(kind ``XGDelta``) with delta >= 2.  Only the GDelta shape feeds the dihedral
invariant machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import _sized_text, rational_nth_root
from .poly import Poly, delta_support, discriminant

G_DELTA = "GDelta"
XG_DELTA = "XGDelta"


class CurveValidationError(ValueError):
    """Invalid curve data; ``violations`` holds every (code, message) pair."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(message for _, message in self.violations))


def _integer_at_least(value, low: int) -> bool:
    """True for an int that is not a bool and is at least ``low``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _n_message(n) -> str:
    return f"the exponent n must be an integer >= 2, got {n!r}"


def genus(n: int, d: int) -> int:
    """Genus of y**n = f(x) with f squarefree of degree d, for d > n >= 2.

    The value is 1 + (n*d - n - d - gcd(n, d))/2, an integer for all n, d;
    it reduces to (n - 1)*(d - 1)/2 when n and d are coprime.
    """
    if not _integer_at_least(n, 2):
        raise ValueError(_n_message(n))
    if not _integer_at_least(d, n + 1):
        raise ValueError(f"the degree d must be an integer > n = {n}, got {d!r}")
    return 1 + (n * d - n - d - math.gcd(n, d)) // 2


def _violations(n, f: Poly) -> tuple[tuple[str, str], ...]:
    out = []
    n_ok = _integer_at_least(n, 2)
    if not n_ok:
        out.append(("invalid_n", _n_message(n)))
    d = f.degree
    # deg f must exceed n only when n is an int; any other n is reported above
    d_ok = not f.is_zero() and not _integer_at_least(n, d)
    if not d_ok:
        if f.is_zero():
            out.append(("degree_not_above_n", "f is the zero polynomial"))
        else:
            out.append(("degree_not_above_n", f"deg f = {d} must exceed n = {n}"))
    if not f.is_zero() and d >= 1 and discriminant(f) == 0:
        out.append(("zero_discriminant", "f has a repeated root (discriminant 0)"))
    if n_ok and d_ok:
        g = genus(n, d)
        if g < 2:
            out.append(("genus_below_two", f"genus {g} < 2 for (n, d) = ({n}, {d})"))
    return tuple(out)


@dataclass(frozen=True)
class SuperellipticCurve:
    """The curve y**n = f(x); construction validates and raises on bad data."""

    n: int
    f: Poly

    def __post_init__(self):
        bad = _violations(self.n, self.f)
        if bad:
            raise CurveValidationError(bad)

    @property
    def d(self) -> int:
        return self.f.degree

    @property
    def genus(self) -> int:
        return genus(self.n, self.d)


def validate(n: int, f: Poly) -> SuperellipticCurve:
    """Build a curve, raising CurveValidationError listing every violation."""
    return SuperellipticCurve(n, f)


@dataclass(frozen=True)
class NormalForm:
    """Outcome of normal-form detection.

    kind GDelta: f(r*x) = x**(delta*(s+1)) + a_s*x**(delta*s) + ... + a_1*x**delta + 1,
    with ``a`` the interior coefficients (a_1, ..., a_s) and ``rescale`` the r
    that made the leading coefficient 1 (r = 1 when none was needed).

    kind XGDelta: f = x*g(x**delta) with g monic of degree s and constant
    term 1; ``a`` holds the s - 1 interior coefficients of g.

    kind None: no extra automorphism was detected, or the equation is not in
    normal form and no rational rescale fixes it; ``diagnostic`` says why.
    """

    kind: str | None
    delta: int | None = None
    s: int | None = None
    a: tuple = ()
    rescale: Fraction = field(default_factory=lambda: Fraction(1))
    diagnostic: str | None = None


def classify_normal_form(curve: SuperellipticCurve, delta: int | None = None) -> NormalForm:
    """Detect the maximal-delta normal form of the curve, if any.

    The largest delta >= 2 the support fits wins; at equal delta the
    g(x**delta) reading is preferred over x*g(x**delta).  Pass ``delta`` to
    pin a smaller divisor when the detected one over-shoots (possible when
    a_1 = 0 thins the support).  A shape that needs a coordinate change
    outside Q comes back as kind None with a diagnostic rather than a lie.
    """
    patterns = delta_support(curve.f)
    if delta is not None:
        if not _integer_at_least(delta, 2):
            raise ValueError(f"the delta override must be an integer >= 2, got {delta!r}")
        matching = [p for p in patterns if p.delta == delta]
        if not matching:
            fits = ", ".join(str(p.delta) for p in patterns) or "none"
            return NormalForm(
                kind=None,
                diagnostic=f"the support does not fit delta = {delta} (available: {fits})",
            )
        patterns = matching
    if not patterns:
        return NormalForm(
            kind=None,
            diagnostic="no delta >= 2 fits the support; no extra automorphism is visible",
        )
    best = patterns[0]
    f = curve.f
    if best.residue == 0:
        lc = f.leading_coefficient()
        r = Fraction(1) if lc == 1 else rational_nth_root(1 / lc, f.degree)
        if r is None:
            return NormalForm(
                kind=None,
                diagnostic=(
                    f"leading coefficient {_sized_text(lc)} needs an irrational rescale to reach "
                    "the monic normal form; supply the curve rescaled by hand"
                ),
            )
        # f(r*x) has the coefficient f_e * r**e on x**e; its constant term is f's
        if f.coefficient(0) != 1:
            return NormalForm(
                kind=None,
                diagnostic=(
                    f"constant term {_sized_text(f.coefficient(0))} != 1; the g(x^delta) normal form "
                    "pins it to 1 and no x-rescale can change it"
                ),
            )
        a = tuple([f.coefficient(best.delta * i) for i in range(1, best.s + 1)])
        if r != 1:
            a = tuple([c * r ** (best.delta * i) for i, c in enumerate(a, 1)])
        return NormalForm(G_DELTA, best.delta, best.s, a, r)
    if f.leading_coefficient() != 1 or f.coefficient(1) != 1:
        return NormalForm(
            kind=None,
            diagnostic=(
                "the x*g(x^delta) form needs leading coefficient 1 and coefficient 1 on x; "
                f"got {_sized_text(f.leading_coefficient())} and {_sized_text(f.coefficient(1))}"
            ),
        )
    a = tuple(f.coefficient(best.delta * i + 1) for i in range(1, best.s))
    return NormalForm(XG_DELTA, best.delta, best.s, a, Fraction(1))
