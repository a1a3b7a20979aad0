"""Exact arithmetic: rationals, squarefree decomposition, quadratic field elements.

The base field is Q, represented by :class:`fractions.Fraction` (re-exported
as ``Rational``), which already keeps every value in canonical form: positive
denominator, gcd(numerator, denominator) = 1.  On top of that this module
supplies the two pieces the rest of the library needs and the standard
library does not have:

* exact squareness tests and squarefree decompositions of rationals, used to
  present a quadratic extension Q(sqrt(d)) with a canonical radicand, and
* :class:`QuadExt`, an exact element a + b*sqrt(d) of such an extension.

Squarefree decomposition is described in :func:`squarefree_decompose`.

No floats appear anywhere in this module: a float input raises TypeError,
every operation is exact and every value is immutable.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

Rational = Fraction
_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Largest prime the trial-division pass strips.
DEFAULT_FACTOR_BOUND = 10**6

#: Longest cofactor (in bits) that the Miller-Rabin pass is asked to test.
MAX_COFACTOR_BITS = 2048

#: The 13 prime bases up to 41, by which ``_is_probable_prime`` trial-divides
#: and to which it runs Miller-Rabin, and the smallest strong pseudoprime to
#: all of them, the product 1287836182261 * 2575672364521 (Sorenson & Webster,
#: "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981


class RadicandMismatchError(ValueError):
    """Raised when combining elements of Q(sqrt(d)) and Q(sqrt(d')) with d != d'."""


class FactorBoundExceededError(ArithmeticError):
    """Raised when squarefree decomposition cannot finish within the factor bound."""


def _exact(value) -> Fraction:
    """Coerce ``value`` to Fraction, rejecting floats (they are not exact).

    A value whose type is exactly Fraction is already canonical and immutable,
    so it is returned as it is; ints and Fraction subclasses are converted.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction or an int")
    return Fraction(value)


def _ratio_text(num: int, den: int) -> str:
    """The text of the rational num/den, as ``str`` of its Fraction: ``num`` or ``num/den``.

    ``num/den`` must be in lowest terms with ``den > 0``, as the parts of a
    Fraction are.  The renderers write coefficients with it straight from
    those integer parts, with no Fraction arithmetic for a sign or a
    magnitude.
    """
    return str(num) if den == 1 else f"{num}/{den}"


def _sized_text(x) -> str:
    """``str(x)`` of an int or Fraction, or its size when a part of it is too long to write.

    ``str()`` refuses an integer of more than ``sys.get_int_max_str_digits()``
    digits; such a value is named by its length in bits instead, so a
    message that quotes it still reads, and echoes no digits.
    """
    try:
        return str(x)
    except ValueError:
        num, den = abs(x.numerator).bit_length(), x.denominator.bit_length()
        return f"(a {num}-bit integer)" if den == 1 else f"(a ratio of a {num}-bit and a {den}-bit integer)"


def _is_probable_prime(n: int) -> bool:
    # Miller-Rabin to the 13 ``_BASES``: a proof of primality for
    # n < _PSI13 = 3317044064679887385961981 (~81 bits), the least strong
    # pseudoprime to all 13 bases (Sorenson & Webster, Math. Comp. 86, 2017);
    # a probable-prime test from there on.
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_nth_root(n: int, k: int) -> tuple[int, bool]:
    """Floor of the k-th root of a nonnegative integer, plus an exactness flag."""
    if n < 0:
        raise ValueError("integer_nth_root needs a nonnegative input")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if k == 1 or n in (0, 1):
        return n, True
    if k == 2:
        root = math.isqrt(n)
    else:
        # Newton's iteration from 2**ceil(bits/k), above the root: it falls
        # strictly until it reaches the floor of the root, then stops falling.
        root = 1 << -(-n.bit_length() // k)
        while (lower := ((k - 1) * root + n // root ** (k - 1)) // k) < root:
            root = lower
    return root, root**k == n


def rational_nth_root(x, k: int) -> Fraction | None:
    """The exact rational k-th root of x, or None when no such rational exists.

    For even k the input must be nonnegative and the nonnegative root is
    returned; for odd k the sign of the root follows the sign of x.  Because
    Fraction keeps numerator and denominator coprime, |x| has a rational k-th
    root exactly when both parts are integer k-th powers.
    """
    x = _exact(x)
    if k < 1:
        raise ValueError("root order must be >= 1")
    if x < 0 and k % 2 == 0:
        return None
    num, num_exact = integer_nth_root(abs(x.numerator), k)
    den, den_exact = integer_nth_root(x.denominator, k)
    if num_exact and den_exact:
        return Fraction(-num if x < 0 else num, den)
    return None


def is_perfect_square(x) -> tuple[bool, Fraction | None]:
    """Decide whether x is the square of a rational; return the root >= 0 if so.

    Zero counts as a square with root 0.
    """
    root = rational_nth_root(x, 2)
    return root is not None, root


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """A nonzero rational written as squarefree_part * square_part**2.

    ``squarefree_part`` is a squarefree integer carrying the sign of the
    input; ``square_part`` is a positive rational.  The squarefree part is 1
    exactly when the input is the square of a rational.
    """

    squarefree_part: int
    square_part: Fraction

    @property
    def value(self) -> Fraction:
        return self.squarefree_part * self.square_part**2


def _tree_product(values: list[int]) -> int:
    """The product of ``values``: runs of 32, then a balanced tree, so operands of similar length meet."""
    # math.prod over short runs of small values beats tree levels made of one-word products:
    # the whole table builds ~15 ms faster, and runs of 16 to 128 time alike
    width = 32
    while len(values) > 1:
        values = [math.prod(values[i : i + width]) for i in range(0, len(values), width)]
        width = 2
    return values[0]


#: Segment k holds the primes in [_EDGES[k], _EDGES[k + 1]); see squarefree_decompose.
_EDGES = (0, 4096, 8192, 16384, 32768, *range(65536, DEFAULT_FACTOR_BOUND - 65536, 65536), DEFAULT_FACTOR_BOUND + 1)
#: Width in bits of the chunks a segment product is kept in; see squarefree_decompose.
_CHUNK_BITS = 6144


@functools.cache
def _segment_chunks(k: int) -> tuple[int, ...]:
    """The product of the primes in segment k, sieved from its own range alone, in _CHUNK_BITS-bit chunks, low first."""
    lo, hi = _EDGES[k], _EDGES[k + 1]
    # flags[i] stands for the odd number lo + 2*i + 1 (lo is even: only the last edge is odd);
    # 1 keeps its flag in segment 0, where as a factor it changes nothing
    size = (hi - lo) // 2
    flags = bytearray(b"\x01") * size
    for m in range(3, math.isqrt(hi - 1) + 1, 2):
        if m < 9 or m % 3 and m % 5 and m % 7:  # skips m >= 9 with a factor 3, 5 or 7, which crosses out nothing new
            start = max(m * m - lo, (m - lo) % (2 * m)) // 2  # the first odd multiple of m from lo and m*m on
            flags[start::m] = bytes((size - 1 - start) // m + 1)
    product = (2 if lo == 0 else 1) * _tree_product(list(compress(range(lo + 1, hi, 2), flags)))
    return tuple(product >> i & (1 << _CHUNK_BITS) - 1 for i in range(0, product.bit_length(), _CHUNK_BITS))


def _residue(chunks: tuple[int, ...], n: int, powers: list[int]) -> int:
    """A nonnegative number congruent mod n to the product cut into ``chunks``, so with the same gcd with n.

    It is sum(c_i * (2**(W*i) mod n)) with W = ``_CHUNK_BITS``, at most len(n) + W + 5 bits for up to 20 chunks,
    and the product itself when that is below n.  ``powers[i]`` holds 2**(W*i) mod n for this n only:
    start it as [1]; its first new entry is 2**W mod n and each later one powers[-1] * powers[1] mod n.
    """
    while len(powers) < len(chunks):
        powers.append(powers[-1] * (powers[1] if len(powers) > 1 else 1 << _CHUNK_BITS) % n)
    return sum(map(operator.mul, chunks, powers))


def squarefree_decompose(x) -> SquarefreeDecomposition:
    """Write nonzero rational x as d * r**2 with d a squarefree integer, r > 0.

    Every prime up to ``DEFAULT_FACTOR_BOUND`` is stripped by batch trial
    division over 19 segments: the primes below 4096, then ranges doubling
    in width up to 65536, then ranges 65536 wide, the last one taking the
    tail up to the bound.  One gcd of what is left against the product of a
    segment's primes finds all of them that divide it, and a chain of gcds
    then reads off their exponents.  Each product is kept as 6144-bit
    chunks and is first reduced to a number congruent to it mod what is
    left by one multiply-accumulate (:func:`_residue`), which gives the
    same gcd at a fraction of the cost of long division; a product below
    what is left comes back whole.  The walk stops early once the
    next segment starts above the square root of what is left.  It also
    stops after segment 0, or after a segment that divided something out,
    when what is left lies below ``_PSI13`` (~81 bits) and passes the
    13-base Miller-Rabin test, which there proves it prime.  Each segment's
    chunks are built on first use, from a sieve of the segment's own range,
    and kept (~200 KB for all 19); nothing is built at import.

    A cofactor with no factor up to the bound is still handled when it is a
    prime or the square of a prime.  Below ``_PSI13`` the 13-base
    Miller-Rabin test that decides this is deterministic; from there on it
    is a probable-prime test.  A cofactor longer than ``MAX_COFACTOR_BITS``
    that is not the square of a shorter prime is not tested, and anything
    harder raises :class:`FactorBoundExceededError` instead of silently
    grinding.
    """
    x = _exact(x)
    if x == 0:
        raise ValueError("0 has no radicand; handle the zero case separately")
    # p/q = (p*q)/q**2, so decomposing the integer p*q decomposes x.
    n = abs(x.numerator) * x.denominator
    sign = -1 if x < 0 else 1
    squarefree = 1
    root = 1
    powers = [1]  # 2**(_CHUNK_BITS*i) mod n for _residue; they start over whenever n changes
    for k, reach in enumerate(_EDGES[1:]):  # every prime below reach is divided out after segment k
        product = _residue(_segment_chunks(k), n, powers)
        # g holds the primes of the segment with exponent >= j in n, for j = 1, 2, ...
        g = math.gcd(n, product)
        divided = k == 0 or g > 1  # segment 0 counts as dividing: the first chance to stop
        odd = True
        while g > 1:
            n //= g
            powers = [1]
            deeper = math.gcd(n, g)
            if odd:
                squarefree *= g // deeper  # exponent exactly j, j odd
            else:
                root *= g
            g = deeper
            odd = not odd
        # n is 1 or a prime if it is below reach**2 (it has no prime factor below reach), or if it passes
        # the test below _PSI13, which proves it prime there: the rest of the walk would only multiply it in
        if reach * reach > n or (divided and n < _PSI13 and _is_probable_prime(n)):
            squarefree *= n
            break
    else:  # every segment read, and n is at least reach**2
        s = math.isqrt(n)
        if s * s == n and s.bit_length() <= MAX_COFACTOR_BITS and _is_probable_prime(s):
            root *= s
        elif n.bit_length() > MAX_COFACTOR_BITS:
            raise FactorBoundExceededError(
                f"a {n.bit_length()}-bit cofactor has no factor <= {DEFAULT_FACTOR_BOUND} and is "
                f"longer than the {MAX_COFACTOR_BITS}-bit limit of the primality test"
            )
        elif _is_probable_prime(n):
            squarefree *= n
        else:
            # described by size: str() of a cofactor over 4300 digits raises ValueError
            raise FactorBoundExceededError(
                f"a {n.bit_length()}-bit cofactor has no factor <= {DEFAULT_FACTOR_BOUND} "
                "and is neither prime nor a prime square"
            )
    return SquarefreeDecomposition(sign * squarefree, Fraction(root, x.denominator))


class QuadExt:
    """Exact element a + b*sqrt(d) of the quadratic field Q(sqrt(d)).

    ``d`` must be a non-square integer, and by convention a squarefree one
    (use :func:`squarefree_decompose` to canonicalize a radicand before
    building elements).  Negative d, an imaginary quadratic field, needs no
    special casing.  Elements of extensions with different radicands never
    combine; mixing them raises :class:`RadicandMismatchError`.  Plain ints
    and Fractions coerce into any extension, so expressions like
    ``Fraction(1, 2) - A`` work.

    >>> x = QuadExt(1, 1, 2)
    >>> print(x * x.conjugate())
    -1
    >>> print(1 / QuadExt(3, 1, 2))
    3/7 - 1/7*sqrt(2)
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        if isinstance(d, bool) or not isinstance(d, int):
            raise TypeError("the radicand must be a Python int")
        if d in (0, 1) or (d > 1 and math.isqrt(d) ** 2 == d):
            raise ValueError(f"the radicand must be a non-square integer, got {d}")
        self.a = _exact(a)
        self.b = _exact(b)
        self.d = d

    @classmethod
    def _of(cls, a: Fraction, b: Fraction, d: int) -> "QuadExt":
        """An element from parts already checked: Fractions a, b and a valid radicand d.

        Arithmetic results use this to skip the radicand and exactness checks
        of ``__init__``, which cost more than the arithmetic itself.
        """
        x = object.__new__(cls)
        x.a = a
        x.b = b
        x.d = d
        return x

    def _lift(self, other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise RadicandMismatchError(
                    f"cannot combine elements of Q(sqrt({self.d})) and Q(sqrt({other.d}))"
                )
            return other
        if isinstance(other, Fraction) or (isinstance(other, int) and not isinstance(other, bool)):
            return QuadExt._of(Fraction(other), _ZERO, self.d)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt._of(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt._of(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt._of(o.a - self.a, o.b - self.b, self.d)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt._of(
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError(f"division by zero in Q(sqrt({self.d}))")
        # x/y = x * conj(y) / norm(y); norm vanishes only at 0 because d is not a square
        num = self * o.conjugate()
        return QuadExt._of(num.a / n, num.b / n, self.d)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return QuadExt._of(-self.a, -self.b, self.d)

    def __pow__(self, k: int):
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        if k < 0:
            return (QuadExt._of(_ONE, _ZERO, self.d) / self) ** (-k)
        result = QuadExt._of(_ONE, _ZERO, self.d)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "QuadExt":
        return QuadExt._of(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """The field norm a**2 - d*b**2; multiplicative, zero only at zero."""
        return self.a * self.a - self.d * self.b * self.b

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                # equal only if both sides are plain rationals
                return self.b == 0 and other.b == 0 and self.a == other.a
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __str__(self):
        a, b = self.a, self.b
        if not b.numerator:
            return _ratio_text(a.numerator, a.denominator)
        magnitude = _ratio_text(abs(b.numerator), b.denominator)
        scaled = f"sqrt({self.d})" if magnitude == "1" else f"{magnitude}*sqrt({self.d})"
        if not a.numerator:
            return scaled if b.numerator > 0 else f"-{scaled}"
        sign = " + " if b.numerator > 0 else " - "
        return f"{_ratio_text(a.numerator, a.denominator)}{sign}{scaled}"

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"
