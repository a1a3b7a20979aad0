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

Two compiled regexes read the text: one the head ``y^N =``, one a term at a
time.  Text they do not take whole, or that fails a check, goes to a token
parser, the only source of syntax errors, which reads it again and raises
with the position of the problem.  Examples:

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

from .exact import QuadExt
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


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch in "xy^=+-*/":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise EquationSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


def _digit_limit() -> int:
    """The most digits a numeral may have, in equation text and in every CLI input."""
    return min(_MAX_DIGITS, sys.get_int_max_str_digits() or _MAX_DIGITS)


def _numeral(token) -> int:
    limit = _digit_limit()
    if len(token[1]) > limit:
        raise InputTooLargeError(f"a numeral has more than {limit} digits", token[2])
    return int(token[1])


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def _accept(self, *kinds):
        """Consume and return the next token if its kind is one of ``kinds``, else None."""
        token = self.tokens[self.index]
        if token[0] not in kinds:
            return None
        self.index += 1
        return token

    def _fail(self, message: str):
        raise EquationSyntaxError(message, self.tokens[self.index][2])

    def _expect(self, what: str, *kinds):
        return self._accept(*kinds) or self._fail(f"expected {what}")

    def parse(self):
        if not self._accept("y"):
            self._fail("the equation must start with y^N")
        self._expect("'^' after y", "^")
        token = self._expect("the exponent N", "int")
        n = _numeral(token)
        if n < 2:
            raise EquationSyntaxError(f"the exponent must be at least 2, got {n}", token[2])
        self._expect("'='", "=")
        terms = []
        while True:
            if self._accept("-"):
                sign = -1
            elif self._accept("+") or not terms:
                sign = 1
            elif self._accept("end"):
                return n, Poly.from_terms(terms)
            else:
                self._fail(f"expected '+' or '-', got {self.tokens[self.index][1]!r}")
            terms.append(self._term(sign))

    def _term(self, sign: int):
        numeral = self._accept("int")
        if not numeral:
            return Fraction(sign), self._power(self._expect("a term", "x", "y"))
        coeff = Fraction(sign * _numeral(numeral))
        if self._accept("/"):
            token = self._expect("a denominator", "int")
            denominator = _numeral(token)
            if denominator == 0:
                raise EquationSyntaxError("zero denominator", token[2])
            coeff /= denominator
        if self._accept("*"):
            return coeff, self._power(self._expect("x", "x", "y"))
        name = self._accept("x", "y")
        return coeff, (self._power(name) if name else 0)

    def _power(self, name) -> int:
        """The exponent after ``name``, the x or y token just read; y is refused here."""
        if name[0] == "y":
            raise EquationSyntaxError("only x may appear on the right side", name[2])
        if not self._accept("^"):
            return 1
        token = self._expect("an exponent", "int")
        digits = token[1].lstrip("0") or "0"
        # compared as text first: int() refuses numerals of over 4300 digits
        if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
            raise InputTooLargeError(f"the exponent exceeds MAX_DEGREE = {MAX_DEGREE}", token[2])
        return int(digits)


#: ``y^N =`` and one term ``[sign] [p[/q]] [*] [x[^e]]``, each with the
#: whitespace after it; the exponent group drops leading zeros.  ``\s`` is
#: exactly ``str.isspace`` and numerals are ``[0-9]``, as in ``_tokenize``.
#: All of a term after its sign is optional, so a match never fails; it backs
#: up at most over one whitespace run (the lookahead after ``*``) or one zero,
#: so it is linear in the text it reads.
_HEAD = re.compile(r"\s*y\s*\^\s*([0-9]+)\s*=\s*")
_TERM = re.compile(r"([+-]?)\s*(?:([0-9]+)\s*(?:/\s*([0-9]+)\s*)?(?:\*\s*(?=x))?)?(x\s*(?:\^\s*0*([0-9]+)\s*)?)?")


def _read_terms(text: str):
    """(n, Poly) if the regexes take ``text`` whole and every check passes, else None.

    The checks of ``_Parser``, each before the int() or the polynomial it
    guards, but a failed one returns None instead of raising: the parser
    then reads the text again and raises the error with its position.
    """
    head = _HEAD.match(text)
    if head is None:
        return None
    limit = _digit_limit()
    if len(head[1]) > limit:
        return None
    n = int(head[1])
    if n < 2:
        return None
    terms = []
    cap = len(str(MAX_DEGREE))
    pos, end = head.end(), len(text)
    while True:
        term = _TERM.match(text, pos)
        sign, numeral, denominator, power, exponent = term.groups()
        if terms and not sign:
            return None
        if numeral is not None:
            if len(numeral) > limit:
                return None
            if denominator is None:
                coeff = Fraction(int(sign + numeral))
            else:
                if len(denominator) > limit or not int(denominator):
                    return None
                coeff = Fraction(int(sign + numeral), int(denominator))
        elif power is not None:
            coeff = Fraction(-1 if sign == "-" else 1)
        else:
            return None
        if power is None:
            e = 0
        elif exponent is None:
            e = 1
        else:
            # compared as text first: int() refuses numerals of over 4300 digits
            if len(exponent) > cap:
                return None
            e = int(exponent)
            if e > MAX_DEGREE:
                return None
        terms.append((coeff, e))
        pos = term.end()
        if pos == end:
            return n, Poly.from_terms(terms)


def parse_equation(text: str):
    """Parse ``y^N = POLY`` into (n, Poly); repeated exponents are summed.

    The regex term path reads every text the grammar accepts; anything else
    goes to ``_Parser``, the one source of syntax errors.
    """
    return _read_terms(text) or _Parser(text).parse()


def render_polynomial(poly: Poly) -> str:
    """Canonical text for a polynomial over Q or a quadratic extension.

    The nonzero terms, highest exponent first, each joined by the sign of
    its rational part; an irrational QuadExt coefficient is written
    ``(a + b*sqrt(d))`` and always joins with ``+``.
    """
    parts = []
    for e in range(poly.degree, -1, -1):
        c = poly.coeffs[e]
        if not c:
            continue
        if isinstance(c, QuadExt) and c.b:
            neg, magnitude = False, f"({c})"
        else:
            c = c.a if isinstance(c, QuadExt) else c
            neg, magnitude = c < 0, abs(c)
        text = f"{magnitude}*x^{e}" if e else str(magnitude)
        if parts:
            parts.append(f"- {text}" if neg else f"+ {text}")
        else:
            parts.append(f"-{text}" if neg else text)
    return " ".join(parts) if parts else "0"


def render_equation(n: int, poly: Poly) -> str:
    """The full curve equation in the grammar, e.g. ``y^2 = 1*x^4 + 1``."""
    return f"y^{n} = {render_polynomial(poly)}"
