"""Dense univariate polynomials over an exact field, plus discriminants.

Coefficients live in whatever exact field the caller supplies: Fraction for
most of the library, :class:`~superelliptic.exact.QuadExt` for reconstructed
equations.  The only requirements are exact +, -, * and an honest
``__eq__`` against 0; an int becomes a Fraction and a float raises
TypeError.  ``Poly`` holds coefficients and offers ``+`` and ``*``;
:func:`~superelliptic.equations.render_polynomial` writes it out.

Discriminants are exact over Q by the integer subresultant PRS of f and
f', which computes res(f, f') only; there is no general resultant.  Rational
content is pulled out, and the remainder sequence runs on primitive integer
coefficients with exact divisions, so no Fraction arithmetic and no matrix.
A step of that sequence that lowers the degree by one, which is every step
on dense input, is one pass over the coefficients.  A discriminant of
f = g(x**k) is computed from g.  ``delta_support`` is the support analysis
used to spot equations of the shape g(x**delta) or x*g(x**delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import _exact


class Poly:
    """Immutable dense polynomial; ``coeffs[i]`` multiplies x**i.

    >>> from superelliptic.equations import render_polynomial
    >>> p = Poly([1, 0, 1])
    >>> p.coeffs
    (Fraction(1, 1), Fraction(0, 1), Fraction(1, 1))
    >>> render_polynomial(p * p)
    '1*x^4 + 2*x^2 + 1'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if type(c) is Fraction else _exact(c) if isinstance(c, (int, float)) else c for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls([])

    @classmethod
    def from_terms(cls, terms) -> "Poly":
        """Build from (coefficient, exponent) pairs; repeated exponents add."""
        coeffs: dict[int, object] = {}
        for c, e in terms:
            if e < 0:
                raise ValueError("exponent must be nonnegative")
            coeffs[e] = coeffs[e] + c if e in coeffs else c
        if not coeffs:
            return cls.zero()
        out = [Fraction(0)] * (max(coeffs) + 1)
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

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def _primitive(p: Poly) -> tuple[Fraction, list[int]]:
    """(content, P) with p = content * P, P a primitive integer coefficient list."""
    for c in p.coeffs:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"discriminants are defined over Q here, not for the coefficient {c!r}")
    den = math.lcm(*[c.denominator for c in p.coeffs])
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    num = math.gcd(*ints)
    return Fraction(num, den), ints if num == 1 else [c // num for c in ints]


def _subresultant(f: list[int]) -> int:
    """res(f, f') for an integer coefficient list f (low degree first) of degree d >= 2.

    The subresultant PRS of Cohen, *A Course in Computational Algebraic
    Number Theory*, Alg. 3.3.7, with Ducos' two optimizations (L. Ducos,
    "Optimizations of the subresultant algorithm", J. Pure Appl. Algebra 145,
    2000): x**n / y**(n-1) is taken by ``_lazard``, and each subresultant
    after the first comes from ``_next_subresultant``, not from a
    pseudo-remainder divided by g * h**delta.  That pseudo-remainder is
    lc**(delta+1) times too large before its division, which on sparse
    input with a large degree gap, like x^1000 + x^500 + x + 1, costs
    seconds where this takes a fraction of one.

    A normal step, where b has degree q = deg a - 1 (every step for dense
    f), is ``_next_subresultant`` with z = b and its loop empty, fused into
    one pass: with lb = lc(b), aq = a[q] and t = b[q-1],

        out_j = (lb * ((lb*a_j - aq*b_j) // s - b_(j-1)) + t*b_j) // s   for j < q, b_(-1) = 0.

    Both steps divide by s, which is lc(a) at the top of every iteration: s
    starts as lc(f') with a = f', and after every step a is the new z and s
    is set to its leading coefficient.  The classical prem(a, b) // s**2
    gives the same integers, but its lb**2 factor widens every product,
    which costs a third more at degree 96.

    The second polynomial is always f', of degree d - 1, so the sign starts
    at 1 (d and d - 1 are never both odd), s at lc(f'), and the first
    pseudo-remainder lc(f')**2 * f mod f' is deg f - deg f' + 1 = 2 plain
    reduction steps, each cancelling the leading term.
    """
    b = [i * c for i, c in enumerate(f)][1:]
    s = b[-1]
    r = [s * f[0]] + [s * x - f[-1] * y for x, y in zip(f[1:-1], b)]
    r = [s * x - r[-1] * y for x, y in zip(r[:-1], b)]
    while r and not r[-1]:
        r.pop()
    sign, a, b = 1, b, r
    while len(b) > 1:
        if (len(a) - 1) & (len(b) - 1) & 1:
            sign = -sign
        if len(a) - len(b) == 1:
            lb, aq, t = b[-1], a[-2], b[-2]
            a, b = b, [(lb * ((lb * x - aq * y) // s - w) + t * y) // s for x, y, w in zip(a, b[:-1], [0] + b)]
        else:
            z = [c * _lazard(b[-1], s, len(a) - len(b) - 1) // s for c in b]
            a, b = z, _next_subresultant(a, b, z, s)
        while b and not b[-1]:
            b.pop()
        s = a[-1]
    if not b:
        return 0
    return sign * _lazard(b[0], s, len(a) - 1)


def _lazard(x: int, y: int, n: int) -> int:
    """x**n // y**(n-1) for n >= 1, by squaring with an exact division at every step."""
    bit = 1 << (n.bit_length() - 1)
    c = x
    n -= bit
    while bit > 1:
        bit >>= 1
        c = c * c // y
        if n >= bit:
            c = c * x // y
            n -= bit
    return c


def _next_subresultant(a: list[int], b: list[int], z: list[int], s: int) -> list[int]:
    """The subresultant after b (degree q) from its predecessor a (degree p > q).

    z is the subresultant of degree q, b * (lc b / s)**(p-q-1), and s = lc(a)
    (see ``_subresultant``).  ``h`` runs through the reductions of
    lc(z) * x**j modulo b for j = q .. p-1, each kept integral by one exact
    division by lc(b); ``acc`` sums a's coefficients against them.  The list
    has q entries; the caller strips its zero top coefficients.
    """
    p, q = len(a) - 1, len(b) - 1
    lead_b = b[q]
    tail_b = b[:q]
    h = [-c for c in z[:q]]
    acc = [a[q] * c for c in h]
    for j in range(q + 1, p):
        top = h[-1]
        h = [0] + h[:-1]
        if top:
            h = [x - top * y // lead_b for x, y in zip(h, tail_b)]
        if a[j]:
            acc = [x + a[j] * y for x, y in zip(acc, h)]
    acc = [(x + z[q] * y) // s for x, y in zip(acc, a)]
    top = h[-1]
    return [(lead_b * (x + y) - top * w) // s for x, y, w in zip([0] + h[:-1], acc, tail_b)]


def discriminant(p: Poly) -> Fraction:
    """disc(p) = (-1)**(d(d-1)/2) * res(p, p') / lc(p); zero iff p has a repeated root.

    With p = c * P, c its rational content, disc(p) = c**(2d-2) * disc(P),
    and disc(P) is computed over Z (see ``_integer_discriminant``).  A
    coefficient that is not an int or a Fraction raises TypeError.
    """
    d = p.degree
    if p.is_zero() or d < 1:
        raise ValueError("the discriminant needs degree >= 1")
    content, a = _primitive(p)
    return content ** (2 * d - 2) * _integer_discriminant(a)


def _integer_discriminant(a: list[int]) -> int:
    """disc(a) for an integer coefficient list of degree >= 1, low degree first.

    When a = g(x**k) with k = gcd(support(a)) >= 2 and m = deg g, the
    resultant runs on g alone:

        disc(a) = (-1)**(k(k-1)m/2) * k**(km) * (lc(g) * g(0))**(k-1) * disc(g)**k,

    which is 0 when g(0) = 0 (x**k divides a), monomials of degree >= 2 included.
    """
    d = len(a) - 1
    k = math.gcd(*(i for i, c in enumerate(a) if c))
    if k > 1:
        g = a[::k]
        m = d // k
        sign = -1 if (k * (k - 1) * m // 2) % 2 else 1
        return sign * k ** (k * m) * (g[-1] * g[0]) ** (k - 1) * _integer_discriminant(g) ** k
    if d == 1:
        return 1
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * _subresultant(a) // a[-1]


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
    """All decimation patterns with delta >= 2 the support of p fits, best (largest delta) first.

    A polynomial with a nonzero constant term can only fit residue 0.
    Support {1} fits neither (g would be constant) and gives ().
    """
    support = p.support()
    if not support:
        raise ValueError("the zero polynomial has no support pattern")
    d = support[-1]
    out = []
    for r in (0,) if support[0] == 0 else (0, 1):
        g = math.gcd(*(e - r for e in support))
        out += [DeltaSupport(delta, r, (d - r) // delta - 1 + r) for delta in range(2, g + 1) if g % delta == 0]
    out.sort(key=lambda c: (-c.delta, c.residue))
    return tuple(out)
