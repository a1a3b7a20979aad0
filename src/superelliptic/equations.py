"""Parse and render curve equations in a small text grammar.

The accepted form is ``y^N = POLY`` where POLY is a sum of terms
``[COEF][*]x[^EXP]`` plus optional constants; COEF is an integer or a
rational ``p/q``; numerals are ASCII digits ``0-9``; Unicode whitespace
(``str.isspace``) may separate tokens but never splits a numeral, so
``y^2 = x^6 + 1 2`` is two numerals and a syntax error; ``-`` binds to the
term that follows it.  An exponent of x above ``MAX_DEGREE``, or any numeral
of more than 4300 digits (or of more than the interpreter's integer
conversion limit, when that is lower), is refused with
:class:`InputTooLargeError` before any polynomial is built.

One reader.  It first refuses the first character outside the grammar,
wherever it is in the text; then a regex for the head ``y^N =``, then a
regex for each term.  Every piece of both is optional, so where a match
leaves the grammar shows what went wrong, and the reader raises there with
the position of the problem.  Examples:

    >>> render_equation(*parse_equation("y^2 = x^6 + 2x^4 + 3x^2 + 1"))
    'y^2 = 1*x^6 + 2*x^4 + 3*x^2 + 1'
    >>> render_equation(*parse_equation("y^3 = x^7 + 5*x^4 + x"))
    'y^3 = 1*x^7 + 5*x^4 + 1*x^1'
    >>> render_equation(*parse_equation("y^2 = -1/2*x^4 + x^2 - 3"))
    'y^2 = -1/2*x^4 + 1*x^2 - 3'
    >>> parse_equation("y^2 = x^6 + x^²")
    Traceback (most recent call last):
    superelliptic.equations.EquationSyntaxError: unexpected character '²' (at position 14)

Rendering produces a canonical string: descending exponents, every
coefficient written explicitly (so ``1*x^6``, not ``x^6``), every exponent
written explicitly (``x^1``), rationals as ``p/q``.  Parsing a canonical
string and rendering it back is the identity.  Coefficients from a quadratic
extension render as ``(a + b*sqrt(d))*x^e``; the parser does not read those
back (reconstruction output is the only producer).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .exact import QuadExt, _ratio_text
from .poly import Poly


#: Largest exponent of x the parser accepts.  Polynomials are stored dense,
#: so a term x^e costs e + 1 coefficients before any check can run.
MAX_DEGREE = 10_000

#: Longest numeral the parser converts, or the interpreter's integer
#: conversion limit when that is lower (0 there means no limit): CPython's
#: int() refuses longer decimal text with a message that carries no position.
_MAX_DIGITS = 4300


class EquationSyntaxError(ValueError):
    """Bad equation text; ``position`` is the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class InputTooLargeError(EquationSyntaxError):
    """An exponent of x above MAX_DEGREE or an over-long numeral; ``position`` is where it starts."""


def _digit_limit() -> int:
    """The most digits a numeral may have, in equation text and in every CLI input."""
    return min(_MAX_DIGITS, sys.get_int_max_str_digits() or _MAX_DIGITS)


#: ``y^N =`` and one term ``[sign] [p[/q]] [*] [x|y[^e]]``.  Every piece is
#: optional, so a match never fails, and the first missing group is where the
#: text leaves the grammar.  Each piece takes the whitespace after it, and the
#: groups of ``y``, ``^``, ``=``, ``/`` and ``*`` include it, so the next token
#: starts where such a group, or the whole match, ends.  ``\s`` is exactly
#: ``str.isspace`` and numerals are ``[0-9]``; the exponent group drops leading
#: zeros.  No piece can start where the one before it goes on, so a match backs
#: up at most over one zero and is linear in the text it reads.
_HEAD = re.compile(r"\s*(?:(y\s*)(?:(\^\s*)(?:([0-9]+)\s*(=\s*)?)?)?)?")
_TERM = re.compile(r"([+-]?)\s*(?:([0-9]+)\s*(?:(/\s*)([0-9]+)?\s*)?(\*\s*)?)?(?:([xy])\s*(?:(\^\s*)(?:0*([0-9]+))?\s*)?)?")
#: A character outside the grammar; the regexes above never take one.
_STRAY = re.compile(r"[^\s0-9xy^=+*/-]")


def parse_equation(text: str):
    """Parse ``y^N = POLY`` into (n, Poly); repeated exponents are summed.

    One search for a stray character, then the head regex, then the term
    regex once per term.  The checks run on the groups of each match in the
    order of the grammar, each before the int() or the polynomial it guards,
    and raise where the problem starts.
    """
    stray = _STRAY.search(text)
    if stray:
        raise EquationSyntaxError(f"unexpected character {stray[0]!r}", stray.start())
    limit = _digit_limit()
    head = _HEAD.match(text)
    if head[3] is None:
        message = ("expected the exponent N" if head[2] else "expected '^' after y" if head[1]
                   else "the equation must start with y^N")
        raise EquationSyntaxError(message, head.end())
    if len(head[3]) > limit:
        raise InputTooLargeError(f"a numeral has more than {limit} digits", head.start(3))
    n = int(head[3])
    if n < 2:
        raise EquationSyntaxError(f"the exponent must be at least 2, got {n}", head.start(3))
    if head[4] is None:
        raise EquationSyntaxError("expected '='", head.end())
    terms = []
    cap = len(str(MAX_DEGREE))
    pos, end = head.end(), len(text)
    while True:
        term = _TERM.match(text, pos)
        sign, numeral, slash, denominator, star, name, caret, exponent = term.groups()
        if terms and not sign:
            raise EquationSyntaxError(f"expected '+' or '-', got {numeral or text[pos]!r}", pos)
        if numeral is not None:
            if len(numeral) > limit:
                raise InputTooLargeError(f"a numeral has more than {limit} digits", term.start(2))
            if slash is None:
                coeff = Fraction(int(sign + numeral))
            else:
                if denominator is None:
                    raise EquationSyntaxError("expected a denominator", term.end(3))
                if len(denominator) > limit:
                    raise InputTooLargeError(f"a numeral has more than {limit} digits", term.start(4))
                if not int(denominator):
                    raise EquationSyntaxError("zero denominator", term.start(4))
                coeff = Fraction(int(sign + numeral), int(denominator))
        elif name is None:
            raise EquationSyntaxError("expected a term", term.end())
        else:
            coeff = Fraction(-1 if sign == "-" else 1)
        if name is None:
            if star is not None:
                raise EquationSyntaxError("expected x", term.end(5))
            e = 0
        elif name == "y":
            raise EquationSyntaxError("only x may appear on the right side", term.start(6))
        elif exponent is not None:
            # compared as text first: int() refuses numerals of over 4300 digits
            e = int(exponent) if len(exponent) <= cap else MAX_DEGREE + 1
            if e > MAX_DEGREE:
                raise InputTooLargeError(f"the exponent exceeds MAX_DEGREE = {MAX_DEGREE}", term.end(7))
        elif caret is None:
            e = 1
        else:
            raise EquationSyntaxError("expected an exponent", term.end(7))
        terms.append((coeff, e))
        pos = term.end()
        if pos == end:
            return n, Poly.from_terms(terms)


def render_polynomial(poly: Poly) -> str:
    """Canonical text for a polynomial over Q or a quadratic extension.

    The nonzero terms, highest exponent first, each joined by the sign of
    its rational part; an irrational QuadExt coefficient is written
    ``(a + b*sqrt(d))`` and always joins with ``+``.  A rational coefficient
    is written from its integer numerator and denominator: its sign joins
    the term and its magnitude is ``p`` or ``p/q``, as ``str`` of a Fraction.
    """
    parts = []
    for e in range(poly.degree, -1, -1):
        c = poly.coeffs[e]
        if isinstance(c, QuadExt):
            if c.b.numerator:
                text = f"({c})*x^{e}" if e else f"({c})"
                parts.append(f"+ {text}" if parts else text)
                continue
            c = c.a
        num = c.numerator
        if not num:
            continue
        text = _ratio_text(abs(num), c.denominator)
        if e:
            text = f"{text}*x^{e}"
        if parts:
            parts.append(f"- {text}" if num < 0 else f"+ {text}")
        else:
            parts.append(f"-{text}" if num < 0 else text)
    return " ".join(parts) if parts else "0"


def render_equation(n: int, poly: Poly) -> str:
    """The full curve equation in the grammar, e.g. ``y^2 = 1*x^4 + 1``."""
    return f"y^{n} = {render_polynomial(poly)}"
