"""The token parser that ``superelliptic.equations`` once used, kept as a test oracle.

It tokenizes the whole text first, so a character outside the grammar
anywhere wins over every other error, and then reads the tokens with one
method per grammar rule.  ``parse_equation`` must answer exactly as
``_Parser(text).parse()`` does: the same result, or the same exception type,
message and position.  The numeral limit is read through
``equations._digit_limit``, so a test that patches it caps both readers.
"""

from fractions import Fraction

from superelliptic import equations
from superelliptic.equations import MAX_DEGREE, EquationSyntaxError, InputTooLargeError
from superelliptic.poly import Poly


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


def _numeral(token) -> int:
    limit = equations._digit_limit()
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
