"""Dense univariate polynomials over an exact field, plus resultants.

Coefficients live in whatever exact field the caller supplies: Fraction for
most of the library, :class:`~superelliptic.exact.QuadExt` for reconstructed
equations.  The only requirements are exact +, -, *, / and an honest
``__eq__`` against 0.

The resultant is the exact Euclidean one: a polynomial remainder sequence
over the coefficient field, O(deg p * deg q) field operations and no
matrix.  ``delta_support`` is the support analysis used to spot equations
of the shape g(x**delta) or x*g(x**delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import QuadExt


class Poly:
    """Immutable dense polynomial; ``coeffs[i]`` multiplies x**i.

    >>> p = Poly([1, 0, 1])
    >>> print(p)
    x^2 + 1
    >>> p(2)
    Fraction(5, 1)
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if not isinstance(c, int) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls([])

    @classmethod
    def monomial(cls, coefficient, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls([0] * exponent + [coefficient])

    @classmethod
    def from_terms(cls, terms) -> "Poly":
        """Build from (coefficient, exponent) pairs; repeated exponents add."""
        coeffs: dict[int, object] = {}
        for c, e in terms:
            if e < 0:
                raise ValueError("exponent must be nonnegative")
            coeffs[e] = coeffs.get(e, 0) + c
        if not coeffs:
            return cls.zero()
        out = [0] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            out[e] = c
        return cls(out)

    @property
    def degree(self) -> int:
        """Degree as an int; the zero polynomial gets -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, exponent: int):
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return Fraction(0)

    def support(self) -> tuple[int, ...]:
        return tuple([i for i, c in enumerate(self.coeffs) if c])

    def __call__(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return Fraction(0) if acc is None else acc

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([a[i] + b[i] if i < len(b) else a[i] for i in range(len(a))])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        lead = den[-1]
        if len(rem) < len(den):
            return Poly.zero(), self
        quo = [Fraction(0)] * (len(rem) - len(den) + 1)
        for i in range(len(quo) - 1, -1, -1):
            q = rem[i + len(den) - 1] / lead
            quo[i] = q
            if q:
                for j, d in enumerate(den):
                    rem[i + j] = rem[i + j] - q * d
        return Poly(quo), Poly(rem[: len(den) - 1])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def scale_x(self, r) -> "Poly":
        """The polynomial p(r*x)."""
        out = []
        power = Fraction(1)
        for c in self.coeffs:
            out.append(c * power)
            power = power * r
        return Poly(out)

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def join_terms(self, body) -> str:
        """The nonzero terms, highest exponent first, joined with signs.

        ``body(magnitude, exponent)`` writes one term without its sign.  The
        sign comes from the rational part; an irrational QuadExt coefficient
        is passed as ``"(a + b*sqrt(d))"`` and always joins with ``+``.
        """
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if isinstance(c, QuadExt) and c.b:
                neg, text = False, body(f"({c})", e)
            else:
                c = c.a if isinstance(c, QuadExt) else c
                neg, text = c < 0, body(abs(c), e)
            if parts:
                parts.append(f"- {text}" if neg else f"+ {text}")
            else:
                parts.append(f"-{text}" if neg else text)
        return " ".join(parts) if parts else "0"

    def __str__(self):
        return self.join_terms(_short_term)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def _short_term(magnitude, exponent: int) -> str:
    """A term for ``str(Poly)``: a coefficient of 1 and the exponent 1 are left out."""
    if exponent == 0:
        return str(magnitude)
    power = "x" if exponent == 1 else f"x^{exponent}"
    return power if magnitude == 1 else f"{magnitude}*{power}"


def resultant(p: Poly, q: Poly) -> Fraction:
    """res(p, q) with the standard sign convention: res(x - a, x - b) = a - b.

    Computed by the Euclidean remainder sequence over the coefficient field:
    with m = deg p >= n = deg q >= 1 and r = p mod q,

        res(p, q) = (-1)**(m*n) * lc(q)**(m - deg r) * res(q, r),

    and res(p, c) = c**m for a constant c.  The result is 0 as soon as a
    remainder vanishes while its divisor still has positive degree.

    Zero inputs are refused: their resultant is a matter of convention and
    always signals an upstream bug in this library.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial is not defined here")
    m, n = p.degree, q.degree
    factor = 1
    if m < n:
        p, q, m, n = q, p, n, m
        factor = (-1) ** (m * n)
    while n > 0:
        r = p % q
        if r.is_zero():
            return Fraction(0)
        k = r.degree
        factor *= (-1) ** (m * n) * q.leading_coefficient() ** (m - k)
        p, q, m, n = q, r, n, k
    return factor * q.coeffs[0] ** m


def discriminant(p: Poly) -> Fraction:
    """disc(p) = (-1)**(d(d-1)/2) * res(p, p') / lc(p); zero iff p has a repeated root."""
    d = p.degree
    if p.is_zero() or d < 1:
        raise ValueError("the discriminant needs degree >= 1")
    if d == 1:
        return Fraction(1)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.leading_coefficient()


@dataclass(frozen=True)
class DeltaSupport:
    """One way a polynomial fits a decimated shape.

    residue 0 means f(x) = g(x**delta); residue 1 means f(x) = x*g(x**delta).
    ``s`` counts the interior coefficients of g between its pinned ends:
    deg(g) - 1 for residue 0, deg(g) for residue 1 (whose inner constant term
    is the pinned coefficient of x in f).
    """

    delta: int
    residue: int
    s: int


def delta_support(p: Poly) -> tuple[DeltaSupport, ...]:
    """All decimation patterns the support of p fits, best (largest delta) first.

    Entries with delta = 1 are included so callers can see the trivial fit,
    but anything useful needs delta >= 2.  A polynomial with a nonzero
    constant term can only fit residue 0.  Without one, residue 0 is
    reported only for delta >= 2 and residue 1 for every delta; support
    {1} fits neither (g would be constant) and gives ().
    """
    support = p.support()
    if not support:
        raise ValueError("the zero polynomial has no support pattern")
    d = support[-1]
    constant = support[0] == 0
    out = []
    for r in (0,) if constant else (0, 1):
        g = math.gcd(*(e - r for e in support))
        out += [
            DeltaSupport(delta, r, (d - r) // delta - 1 + r)
            for delta in _divisors(g)
            if delta >= 2 or r == 1 or constant
        ]
    out.sort(key=lambda c: (-c.delta, c.residue))
    return tuple(out)


def _divisors(n: int) -> list[int]:
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return sorted(out)
