"""Clebsch invariants of a binary sextic in sympy: an exact isomorphism test at genus 2.

The scope ends at genus 2: ``y^2 = f(x)`` with ``deg f`` 5 or 6, read as the
binary sextic ``z^6·f(x/z)``.  There the Clebsch point ``(A, B, C, D)`` of
``P(2,4,6,10)`` decides isomorphism over Q̄ both ways: equal points mean
isomorphic curves, unequal points mean curves that are not (Igusa, 1960;
Mestre, 1991).  The point is built from transvectants,

    i = (f,f)_4,  Δ = (i,i)_2,  y1 = (f,i)_4,  y2 = (i,y1)_2,  y3 = (i,y2)_2,
    A = (f,f)_6,  B = (i,i)_4,  C = (i,Δ)_4,   D = (y3,y1)_2,

and two points are compared by exact cross-multiplication.  Coefficients may
be anything sympy reads exactly, such as Rationals or ``a + b*sqrt(d)``.  The
forms are ``sympy.Poly`` objects over the coefficients' field, and
``sympy.expand`` writes an element of ``Q(sqrt(d))`` in one way, so a zero
test is exact.  The package never imports this module or sympy, so its
results are checked against an independent computation.
"""

import math

import sympy

x, z = sympy.symbols("x z")

#: The weights of A, B, C, D in P(2,4,6,10), with their common factor 2 taken out.
WEIGHTS = (1, 2, 3, 5)


def sextic(coefficients) -> sympy.Poly:
    """The binary sextic ``z^6·f(x/z)`` of ``f = Σ coefficients[e]·x^e``, lowest degree first.

    Its domain is the smallest field sympy finds for the coefficients, such as ``QQ<sqrt(2)>``.
    """
    terms = [sympy.sympify(c) * x**e * z ** (6 - e) for e, c in enumerate(coefficients)]
    return sympy.Poly(sum(terms), x, z, extension=True)


def transvectant(f, m, g, n, k) -> sympy.Poly:
    """``(f,g)_k`` of forms ``f``, ``g`` of degrees ``m``, ``n`` in ``(x, z)``."""
    total = sum(
        (-1) ** i * math.comb(k, i) * f.diff((x, k - i), (z, i)) * g.diff((x, i), (z, k - i))
        for i in range(k + 1)
    )
    return total * sympy.Rational(math.factorial(m - k) * math.factorial(n - k), math.factorial(m) * math.factorial(n))


def clebsch_point(form: sympy.Poly) -> tuple:
    """``(A, B, C, D)`` of a binary sextic ``form``, as sympy numbers."""
    i = transvectant(form, 6, form, 6, 4)
    delta = transvectant(i, 4, i, 4, 2)
    y1 = transvectant(form, 6, i, 4, 4)
    y2 = transvectant(i, 4, y1, 2, 2)
    y3 = transvectant(i, 4, y2, 2, 2)
    invariants = (
        transvectant(form, 6, form, 6, 6),
        transvectant(i, 4, i, 4, 4),
        transvectant(i, 4, delta, 4, 4),
        transvectant(y3, 2, y1, 2, 2),
    )
    return tuple(invariant.as_expr() for invariant in invariants)


def same_point(p, q) -> bool:
    """Whether ``q = (λ^2·A, λ^4·B, λ^6·C, λ^10·D)`` for ``p = (A, B, C, D)`` and some λ ≠ 0 in Q̄.

    The zero entries must match, and every pair of entries must satisfy
    ``p_i^(w_j)·q_j^(w_i) = q_i^(w_j)·p_j^(w_i)`` with ``w = WEIGHTS``.  Any
    two of 1, 2, 3, 5 are coprime, so these pairs leave one λ.
    """
    zero = [[sympy.expand(v) == 0 for v in point] for point in (p, q)]
    if all(zero[0]) or all(zero[1]):
        raise ValueError("(0, 0, 0, 0) is not a point of P(2,4,6,10): the sextic is in the null cone")
    if zero[0] != zero[1]:
        return False
    return all(
        sympy.expand(p[i] ** WEIGHTS[j] * q[j] ** WEIGHTS[i] - q[i] ** WEIGHTS[j] * p[j] ** WEIGHTS[i]) == 0
        for i in range(4)
        for j in range(i + 1, 4)
    )
