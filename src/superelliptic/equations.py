"""Parse and render curve equations in a small text grammar.

The accepted form is ``y^N = POLY`` where POLY is a sum of terms
``[COEF][*]x[^EXP]`` plus optional constants; COEF is an integer or a
rational ``p/q``; whitespace is ignored everywhere; ``-`` binds to the term
that follows it.  An exponent of x above ``MAX_DEGREE``, or any numeral of
more than 4300 digits, is refused with :class:`InputTooLargeError` before
any polynomial is built.  Examples:

    y^2 = x^6 + 2x^4 + 3x^2 + 1
    y^3 = x^7 + 5*x^4 + x
    y^2 = -1/2*x^4 + x^2 - 3

Rendering produces a canonical string: descending exponents, every
coefficient written explicitly (so ``1*x^6``, not ``x^6``), every exponent
written explicitly (``x^1``), rationals as ``p/q``.  Parsing a canonical
string and rendering it back is the identity.  Coefficients from a quadratic
extension render as ``(a + b*sqrt(d))*x^e``; the parser does not read those
back (reconstruction output is the only producer).
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly


#: Largest exponent of x the parser accepts.  Polynomials are stored dense,
#: so a term x^e costs e + 1 coefficients before any check can run.
MAX_DEGREE = 10_000

#: Longest numeral the parser converts: CPython's int() refuses longer
#: decimal text by default, with a message that carries no position.
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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch in "xy":
            tokens.append(("name", ch, i))
            i += 1
            continue
        if ch in "^=+-*/":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise EquationSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def _numeral(token) -> int:
    if len(token[1]) > _MAX_DIGITS:
        raise InputTooLargeError(f"a numeral has more than {_MAX_DIGITS} digits", token[2])
    return int(token[1])


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def _peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def _advance(self):
        token = self._peek()
        if token is not None:
            self.index += 1
        return token

    def _here(self) -> int:
        token = self._peek()
        return token[2] if token is not None else len(self.text)

    def _fail(self, message: str):
        raise EquationSyntaxError(message, self._here())

    def _expect(self, kind: str, what: str):
        token = self._peek()
        if token is None or token[0] != kind:
            self._fail(f"expected {what}")
        return self._advance()

    def _integer(self, what: str) -> int:
        return _numeral(self._expect("int", what))

    def parse(self):
        token = self._peek()
        if token is None or token[0] != "name" or token[1] != "y":
            self._fail("the equation must start with y^N")
        self._advance()
        self._expect("^", "'^' after y")
        exponent_token = self._peek()
        n = self._integer("the exponent N")
        if n < 2:
            raise EquationSyntaxError(f"the exponent must be at least 2, got {n}", exponent_token[2])
        self._expect("=", "'='")
        terms = [self._term(allow_sign=True)]
        while True:
            token = self._peek()
            if token is None:
                break
            if token[0] not in ("+", "-"):
                self._fail(f"expected '+' or '-', got {token[1]!r}")
            self._advance()
            term = self._term(allow_sign=False)
            coeff, exp = term
            terms.append((-coeff if token[0] == "-" else coeff, exp))
        return n, Poly.from_terms(terms)

    def _term(self, allow_sign: bool):
        sign = 1
        token = self._peek()
        if allow_sign and token is not None and token[0] in ("+", "-"):
            self._advance()
            if token[0] == "-":
                sign = -1
            token = self._peek()
        if token is None:
            self._fail("expected a term")
        if token[0] == "int":
            self._advance()
            numerator = _numeral(token)
            coeff = Fraction(numerator)
            if self._peek() is not None and self._peek()[0] == "/":
                self._advance()
                denominator_token = self._peek()
                denominator = self._integer("a denominator")
                if denominator == 0:
                    raise EquationSyntaxError("zero denominator", denominator_token[2])
                coeff = Fraction(numerator, denominator)
            following = self._peek()
            if following is not None and following[0] == "*":
                self._advance()
                return sign * coeff, self._power()
            if following is not None and following[0] == "name":
                return sign * coeff, self._power()
            return sign * coeff, 0
        if token[0] == "name":
            return sign * Fraction(1), self._power()
        self._fail("expected a term")

    def _power(self) -> int:
        token = self._peek()
        if token is None or token[0] != "name":
            self._fail("expected x")
        if token[1] != "x":
            raise EquationSyntaxError("only x may appear on the right side", token[2])
        self._advance()
        if self._peek() is not None and self._peek()[0] == "^":
            self._advance()
            token = self._expect("int", "an exponent")
            digits = token[1].lstrip("0") or "0"
            # compared as text first: int() refuses numerals of over 4300 digits
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                raise InputTooLargeError(f"the exponent exceeds MAX_DEGREE = {MAX_DEGREE}", token[2])
            return int(digits)
        return 1


def parse_equation(text: str):
    """Parse ``y^N = POLY`` into (n, Poly); repeated exponents are summed."""
    return _Parser(text).parse()


def _term_body(magnitude, exponent: int) -> str:
    if exponent == 0:
        return str(magnitude)
    return f"{magnitude}*x^{exponent}"


def render_polynomial(poly: Poly) -> str:
    """Canonical text for a polynomial over Q or a quadratic extension."""
    return poly.join_terms(_term_body)


def render_equation(n: int, poly: Poly) -> str:
    """The full curve equation in the grammar, e.g. ``y^2 = 1*x^4 + 1``."""
    return f"y^{n} = {render_polynomial(poly)}"
