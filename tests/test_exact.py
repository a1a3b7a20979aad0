import math
import operator
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import superelliptic
from superelliptic import exact
from superelliptic.exact import (
    DEFAULT_FACTOR_BOUND,
    MAX_COFACTOR_BITS,
    FactorBoundExceededError,
    QuadExt,
    RadicandMismatchError,
    SquarefreeDecomposition,
    _exact,
    integer_nth_root,
    is_perfect_square,
    rational_nth_root,
    squarefree_decompose,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
nonzero_rationals = rationals.filter(bool)


def naive_squarefree_part(n):
    """Trial-division oracle for small integers."""
    assert n != 0
    out = 1
    n = abs(n)
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k % 2:
            out *= p
        p += 1
    return out * n


def test_exact_keeps_a_fraction_and_converts_everything_else():
    q = Fraction(-7, 3)
    assert _exact(q) is q

    class SubFraction(Fraction):
        pass

    for value, expected in ((5, Fraction(5)), (True, Fraction(1)), (SubFraction(1, 2), Fraction(1, 2))):
        got = _exact(value)
        assert type(got) is Fraction and got == expected
    with pytest.raises(TypeError, match="floats are not exact; pass a Fraction or an int"):
        _exact(0.5)


def test_integer_nth_root_examples():
    assert integer_nth_root(0, 3) == (0, True)
    assert integer_nth_root(1, 7) == (1, True)
    assert integer_nth_root(3136, 2) == (56, True)
    assert integer_nth_root(3137, 2) == (56, False)
    assert integer_nth_root(3**40, 40) == (3, True)
    assert integer_nth_root(3**40 - 1, 40) == (2, False)
    # a short root of a high order, where the start 2**ceil(bits/k) lies furthest above the root
    assert integer_nth_root(2**100 - 1, 32) == (8, False)
    assert integer_nth_root(9**32, 32) == (9, True)
    assert integer_nth_root(2**64 - 1, 64) == (1, False)
    with pytest.raises(ValueError):
        integer_nth_root(-1, 2)
    with pytest.raises(ValueError):
        integer_nth_root(4, 0)


@given(st.integers(min_value=0, max_value=2**4096), st.integers(min_value=1, max_value=64))
def test_integer_nth_root_is_floor(n, k):
    root, exact = integer_nth_root(n, k)
    assert root**k <= n < (root + 1) ** k
    assert exact == (root**k == n)


@given(st.integers(min_value=2, max_value=2**256), st.integers(min_value=2, max_value=64), st.sampled_from([-1, 0, 1]))
def test_integer_nth_root_of_planted_powers(r, k, offset):
    # r**k and its neighbours, where an off-by-one in the root would show
    assert integer_nth_root(r**k + offset, k) == (r - 1 if offset < 0 else r, offset == 0)


def test_rational_nth_root():
    assert rational_nth_root(Fraction(27, 8), 3) == Fraction(3, 2)
    assert rational_nth_root(Fraction(-27, 8), 3) == Fraction(-3, 2)
    assert rational_nth_root(Fraction(49, 4), 2) == Fraction(7, 2)
    assert rational_nth_root(2, 2) is None
    assert rational_nth_root(-4, 2) is None
    assert rational_nth_root(0, 5) == 0
    with pytest.raises(ValueError):
        rational_nth_root(2, 0)


@given(rationals, st.integers(min_value=1, max_value=6))
def test_rational_nth_root_inverts_powers(x, k):
    if k % 2 == 0:
        x = abs(x)
    root = rational_nth_root(x**k, k)
    assert root is not None
    assert root**k == x**k


def test_is_perfect_square():
    assert is_perfect_square(Fraction(3136)) == (True, Fraction(56))
    assert is_perfect_square(Fraction(49, 4)) == (True, Fraction(7, 2))
    assert is_perfect_square(0) == (True, Fraction(0))
    assert is_perfect_square(32) == (False, None)
    assert is_perfect_square(-4) == (False, None)
    assert is_perfect_square(Fraction(2, 3)) == (False, None)


@given(rationals)
def test_is_perfect_square_agrees_with_squaring(x):
    square, root = is_perfect_square(x * x)
    assert square and root == abs(x)


def test_squarefree_decompose_examples():
    assert squarefree_decompose(3136) == SquarefreeDecomposition(1, Fraction(56))
    assert squarefree_decompose(32) == SquarefreeDecomposition(2, Fraction(4))
    assert squarefree_decompose(-8) == SquarefreeDecomposition(-2, Fraction(2))
    assert squarefree_decompose(Fraction(9, 2)) == SquarefreeDecomposition(2, Fraction(3, 2))
    with pytest.raises(ValueError):
        squarefree_decompose(0)


@given(nonzero_rationals)
def test_squarefree_decompose_reconstructs(x):
    dec = squarefree_decompose(x)
    assert dec.value == x
    assert dec.square_part > 0
    assert (dec.squarefree_part < 0) == (x < 0)


@given(st.integers(min_value=1, max_value=200000))
def test_squarefree_part_matches_naive_oracle(n):
    dec = squarefree_decompose(n)
    assert dec.squarefree_part == naive_squarefree_part(n)
    # squarefree means no prime square divides it
    part = dec.squarefree_part
    p = 2
    while p * p <= part:
        assert part % (p * p) != 0
        p += 1


def test_squarefree_decompose_large_cofactors():
    prime = 10**6 + 3  # just above the trial bound
    assert prime > DEFAULT_FACTOR_BOUND
    dec = squarefree_decompose(4 * prime)
    assert dec == SquarefreeDecomposition(prime, Fraction(2))
    dec = squarefree_decompose(3 * prime * prime)
    assert dec == SquarefreeDecomposition(3, Fraction(prime))
    two_primes = (10**7 + 19) * (10**7 + 79)
    with pytest.raises(FactorBoundExceededError):
        squarefree_decompose(two_primes)


def expected_decomposition(x, factors, bound):
    """The decomposition of x from a factorization of |p|*q, or None for a refusal.

    ``squarefree_decompose`` refuses exactly when the primes above the bound
    do not multiply to 1, a prime or a prime square.
    """
    squarefree = root = 1
    for p, k in factors.items():
        root *= p ** (k // 2)
        if k % 2:
            squarefree *= p
    above = sorted(k for p, k in factors.items() if p > bound)
    if above not in ([], [1], [2]):
        return None
    return SquarefreeDecomposition((1 if x > 0 else -1) * squarefree, Fraction(root, x.denominator))


#: Edges of the trial-division segments: the primes below 4096, then ranges doubling in width
#: up to 65536, then ranges 65536 wide, the last one taking the tail up to the default bound.
SEGMENT_EDGES = (0, 4096, 8192, 16384, 32768, *range(65536, 983040, 65536), DEFAULT_FACTOR_BOUND + 1)

#: The primes on both sides of every segment edge, 4093/4099 up to 999983/1000003.
EDGE_PRIMES = tuple(q for edge in SEGMENT_EDGES[1:] for q in (sympy.prevprime(edge), sympy.nextprime(edge - 1)))

#: Smallest strong pseudoprime to the 13 prime bases up to 41 (Sorenson & Webster 2017).
PSI13 = 1287836182261 * 2575672364521

#: A 40-bit prime, the largest prime below PSI13, and two primes inside the segments.
LARGE_PLANTS = (sympy.prevprime(2**40), sympy.prevprime(PSI13), 524287, 999331)

# a large plant is at most squared, so what lies above the bound stays under MAX_COFACTOR_BITS
planted = st.tuples(
    st.sampled_from(EDGE_PRIMES) | st.integers(min_value=2, max_value=5000),
    st.integers(min_value=1, max_value=3),
) | st.tuples(st.sampled_from(LARGE_PLANTS), st.integers(min_value=1, max_value=2))


def planted_factors(plants):
    """The factorization of the product of p**k over ``plants``, as a Counter."""
    factors = Counter()
    for p, k in plants:
        for q, e in sympy.factorint(p).items():
            factors[q] += e * k
    return factors


@settings(max_examples=300, deadline=None)
@given(st.lists(planted, max_size=5), st.lists(planted, max_size=4), st.sampled_from([1, -1]))
def test_squarefree_decompose_matches_sympy_factorint(numerator, denominator, sign):
    x = Fraction(sign * math.prod(p**k for p, k in numerator), math.prod(p**k for p, k in denominator))
    # factored plant by plant, since factorint of a product of large plants can take long
    above, below = planted_factors(numerator), planted_factors(denominator)
    factors = {q: abs(above[q] - below[q]) for q in above | below if above[q] != below[q]}  # of |p|*q
    expected = expected_decomposition(x, factors, DEFAULT_FACTOR_BOUND)
    if expected is None:
        with pytest.raises(FactorBoundExceededError, match="neither prime nor a prime square"):
            squarefree_decompose(x)
    else:
        assert squarefree_decompose(x) == expected


def env_with_src():
    """os.environ with this package's source directory first on PYTHONPATH, for subprocesses."""
    src = os.path.dirname(os.path.dirname(superelliptic.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_small_radicand_builds_only_the_first_prime_window():
    # a fresh interpreter: the import builds no segment, and a radicand below 4096**2 builds segment 0 only;
    # 3 * 4099 * 4111 has no prime below 4096 and stops after segment 1, which builds segment 1 alone, not all 19
    code = (
        "import tracemalloc\n"
        "from superelliptic import exact\n"
        "print(exact._segment_chunks.cache_info().currsize)\n"
        "tracemalloc.start()\n"
        "exact.squarefree_decompose(4 * (10**6 + 3))\n"
        "print(tracemalloc.get_traced_memory()[1], exact._segment_chunks.cache_info().currsize)\n"
        "exact.squarefree_decompose(3 * 4099 * 4111)\n"
        "print(exact._segment_chunks.cache_info().currsize)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env_with_src(), timeout=30)
    assert done.returncode == 0, done.stderr
    before, peak, after, past_segment_0 = map(int, done.stdout.split())
    assert (before, after, past_segment_0) == (0, 1, 2)
    assert peak < 64_000


@pytest.mark.parametrize("touched_first", [0, 18], ids=["ascending", "last_segment_first"])
def test_segment_products_match_sympy_primes(touched_first):
    # a fresh interpreter, so the table is built from empty in the given access order; one line of chunks per segment
    code = (
        "from superelliptic import exact\n"
        f"exact._segment_chunks({touched_first})\n"
        "for k in range(len(exact._EDGES) - 1):\n"
        "    print(*(hex(chunk) for chunk in exact._segment_chunks(k)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env_with_src(), timeout=60)
    assert done.returncode == 0, done.stderr
    chunks = [[int(word, 16) for word in line.split()] for line in done.stdout.splitlines()]
    expected = [math.prod(sympy.primerange(lo, hi)) for lo, hi in zip(SEGMENT_EDGES, SEGMENT_EDGES[1:])]
    assert len(chunks) == len(expected) == 19
    assert [k for k, segment in enumerate(chunks) if not all(0 <= c < 2**exact._CHUNK_BITS for c in segment)] == []
    assert [k for k, (segment, want) in enumerate(zip(chunks, expected)) if joined(segment) != want] == []


def reads(monkeypatch, x):
    """(result or refusal, segments read) of squarefree_decompose(x)."""
    segments = []
    kept = exact._segment_chunks
    monkeypatch.setattr(exact, "_segment_chunks", lambda k: segments.append(k) or kept(k))
    try:
        result = squarefree_decompose(x)
    except FactorBoundExceededError as exc:
        result = exc
    monkeypatch.undo()
    return result, segments


def test_walk_stops_at_a_proven_prime_or_reads_every_segment(monkeypatch):
    for prime in (2**61 - 1, sympy.prevprime(PSI13)):
        # segment 0 divides out the 3, and what is left is proven prime below PSI13
        assert reads(monkeypatch, 3 * prime) == (SquarefreeDecomposition(3 * prime, Fraction(1)), [0])
    p = sympy.nextprime(10**40)
    refused, segments = reads(monkeypatch, 3 * p * sympy.nextprime(p))
    assert isinstance(refused, FactorBoundExceededError)
    assert segments == list(range(19))
    # below 4096**2 the walk ends after segment 0
    assert reads(monkeypatch, 4 * (10**6 + 3)) == (SquarefreeDecomposition(10**6 + 3, Fraction(2)), [0])


def test_no_early_exit_at_psi13(monkeypatch):
    assert exact._PSI13 == PSI13
    assert exact._is_probable_prime(PSI13)  # composite, yet a strong pseudoprime to all 13 bases
    result, segments = reads(monkeypatch, 3 * PSI13)
    # the full walk ran; accepting PSI13 as a prime is right here only because it is squarefree
    assert segments == list(range(19))
    assert result == SquarefreeDecomposition(3 * PSI13, Fraction(1))


def test_primality_test_agrees_with_sympy_below_and_at_its_bases():
    # callers pass only cofactors with no prime below 4096, so the returns for n < 2 and for a multiple
    # of a base run here alone; without them Miller-Rabin to base a = n would reject each base prime.
    # The range holds each base, each base squared and each product of two bases (all below 41**2).
    assert max(exact._BASES) == 41
    for n in range(-5, 20_000):
        assert exact._is_probable_prime(n) == sympy.isprime(n), n


def test_cofactor_length_limit():
    assert MAX_COFACTOR_BITS == 2048
    prime = 2**1279 - 1
    assert squarefree_decompose(3 * prime) == SquarefreeDecomposition(3 * prime, Fraction(1))
    assert squarefree_decompose(Fraction(prime**2, 5)) == SquarefreeDecomposition(5, Fraction(prime, 5))
    with pytest.raises(FactorBoundExceededError, match="a 2203-bit cofactor .* 2048-bit limit"):
        squarefree_decompose(2**2203 - 1)


def test_factor_bound_error_on_a_cofactor_too_long_to_print():
    # str() of an int over 4300 digits raises ValueError; the message gives the size instead
    too_long = "a 19932-bit cofactor has no factor <= 1000000 and is longer"
    with pytest.raises(FactorBoundExceededError, match=too_long):
        squarefree_decompose((10**6 + 3) ** 1000)


def joined(chunks):
    """The number whose little-endian ``exact._CHUNK_BITS``-bit chunks are ``chunks``."""
    return sum(chunk << exact._CHUNK_BITS * i for i, chunk in enumerate(chunks))


def cut(p):
    """p as its little-endian ``exact._CHUNK_BITS``-bit chunks, the form a segment product is kept in."""
    width = exact._CHUNK_BITS
    return tuple(p >> i & (1 << width) - 1 for i in range(0, max(p.bit_length(), 1), width))


def segment_product(k):
    """The product of the primes in segment k, from its kept chunks."""
    return joined(exact._segment_chunks(k))


_residue = exact._residue  # the package's own, for residue() while a test patches residue() in


def residue(chunks, n, powers):
    """exact._residue(chunks, n, powers), checked: nonnegative, congruent mod n, short, powers for this very n.

    The product is given whole when it is no longer than 2*len(n) + 8192 bits; otherwise the result is at most
    len(n) + W + bit_length(len(chunks)) bits, and ``powers`` grows to one entry per chunk if it was shorter.
    ``powers`` must hold 2**(W*i) mod this very n; powers mod an earlier, larger n are still congruent mod its
    divisor n, but they are as long as that n, and so is the result.
    """
    width = exact._CHUNK_BITS
    assert powers == [pow(2, width * i, n) for i in range(len(powers))]
    before = len(powers)
    result = _residue(chunks, n, powers)
    product = joined(chunks)
    assert result >= 0
    assert (result - product) % n == 0
    if product.bit_length() <= 2 * n.bit_length() + 8192:
        assert result == product
        assert len(powers) == before
    else:
        assert result.bit_length() <= n.bit_length() + width + len(chunks).bit_length()
        assert len(powers) == max(before, len(chunks))
    assert powers == [pow(2, width * i, n) for i in range(len(powers))]
    return result


#: Length of the longest segment product (~118 kbit), the last segment's.
LONGEST_PRODUCT_BITS = 118_300


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=27, max_value=2048) | st.integers(min_value=2048, max_value=60_000),
    st.lists(st.integers(min_value=0, max_value=LONGEST_PRODUCT_BITS) | st.sampled_from(range(-19, 0)), max_size=4),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_fold_is_a_short_nonnegative_residue(n_bits, p_sizes, multiple, rng):
    # one powers list shared by several products, as the segments of one walk share it; a negative
    # size stands for a segment product, and `multiple` makes each product a multiple of n
    n = rng.getrandbits(n_bits) | 1 << (n_bits - 1)
    powers = [1]
    for size in p_sizes:
        p = segment_product(-size - 1) if size < 0 else rng.getrandbits(size)
        if multiple:
            p -= p % n
        result = residue(cut(p), n, powers)
        if multiple:
            assert result % n == 0


@pytest.mark.parametrize("n_bits", [10_000, 10_240, 12_000, 16_384, 20_000, 30_000, 40_000, 60_000])
def test_fold_ends_for_cofactors_of_10_to_60_kbit(n_bits):
    # every segment, and products of every length up to a little past the longest, each with a fresh powers list
    # and with one shared by the whole walk, for n longer than a chunk, where powers grow by shifts
    rng = random.Random(n_bits)
    longest = segment_product(len(exact._EDGES) - 2)
    for n in (rng.getrandbits(n_bits) | 1 << (n_bits - 1) | 1, 2**n_bits - 1, 2 ** (n_bits - 1) + 1):
        shared = [1]
        for k in range(len(exact._EDGES) - 1):
            residue(exact._segment_chunks(k), n, shared)
        for p in (longest, 2**LONGEST_PRODUCT_BITS - 1, 2**65_536, 2**65_537 - 1, n * rng.getrandbits(50_000)):
            result = residue(cut(p), n, [1])
            assert result.bit_length() <= 2 * n_bits + 8192
            assert result == residue(cut(p), n, shared)


def plain_gcd_walk(x):
    """squarefree_decompose with no reduction: one plain gcd of the cofactor against each segment product.

    The oracle for the walk that reduces each product mod the cofactor first: it takes the same gcds, so it
    must give the same decomposition or the same refusal.
    """
    x = Fraction(x)
    n = abs(x.numerator) * x.denominator
    sign = -1 if x < 0 else 1
    squarefree = 1
    root = 1
    for k, reach in enumerate(exact._EDGES[1:]):
        g = math.gcd(n, segment_product(k))
        divided = k == 0 or g > 1
        odd = True
        while g > 1:
            n //= g
            deeper = math.gcd(n, g)
            if odd:
                squarefree *= g // deeper
            else:
                root *= g
            g = deeper
            odd = not odd
        if reach * reach > n:
            break
        if divided and n < PSI13 and exact._is_probable_prime(n):
            squarefree *= n
            n = 1
            break
    if n > 1:
        if reach * reach > n:
            squarefree *= n
        else:
            s = math.isqrt(n)
            if s * s == n and s.bit_length() <= MAX_COFACTOR_BITS and exact._is_probable_prime(s):
                root *= s
            elif n.bit_length() > MAX_COFACTOR_BITS:
                raise FactorBoundExceededError(
                    f"a {n.bit_length()}-bit cofactor has no factor <= {DEFAULT_FACTOR_BOUND} and is "
                    f"longer than the {MAX_COFACTOR_BITS}-bit limit of the primality test"
                )
            elif exact._is_probable_prime(n):
                squarefree *= n
            else:
                raise FactorBoundExceededError(
                    f"a {n.bit_length()}-bit cofactor has no factor <= {DEFAULT_FACTOR_BOUND} "
                    "and is neither prime nor a prime square"
                )
    return SquarefreeDecomposition(sign * squarefree, Fraction(root, x.denominator))


def outcome(decompose, x):
    """decompose(x), or the text of its FactorBoundExceededError."""
    try:
        return decompose(x)
    except FactorBoundExceededError as exc:
        return str(exc)


def prime_above(rng, bits):
    """A random prime of about ``bits`` bits, above the factor bound."""
    return sympy.nextprime(max(DEFAULT_FACTOR_BOUND, rng.getrandbits(bits) | 1 << (bits - 1)))


def rough(rng, bits):
    """A random odd number of ``bits`` bits with no prime factor below 4096, nor a square root."""
    n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    while math.gcd(n, segment_product(0)) > 1 or math.isqrt(n) ** 2 == n:
        n += 2
    return n


def oracle_radicands():
    """Seeded radicands for every branch of the walk: (kind, rational)."""
    rng = random.Random(2026)
    small = lambda: math.prod(rng.choice(EDGE_PRIMES[:6] + (2, 3, 5, 7)) for _ in range(rng.randint(0, 3)))
    segment_primes = lambda: math.prod(rng.choice(EDGE_PRIMES) ** rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
    for _ in range(60):
        yield "at most 30 bits", Fraction(rng.randint(1, 2**30) * rng.choice([1, -1]), rng.randint(1, 2**15))
        yield "segment 0 only", Fraction(small() * rng.randint(1, 4095**2), rng.randint(1, 4095))
        # the shortest cofactors that reach segments 2 and 3, the first long enough to be reduced
        p, q = sympy.nextprime(rng.randint(8192, 32_700)), sympy.nextprime(rng.randint(8192, 32_700))
        yield "27-30 bits, primes above 8192", Fraction(small() * p * q, rng.randint(1, 50))
    for bits in range(40, 601, 20):
        p, q = prime_above(rng, bits // 2), prime_above(rng, bits - bits // 2)
        yield "two primes", Fraction(small() * p * q, rng.randint(1, 50))
        yield "two primes and segment primes", Fraction(rng.choice([1, -1]) * segment_primes() * p * q, small())
        yield "prime", Fraction(segment_primes() * p)
        yield "prime square", Fraction(small() * p * p, segment_primes())
    for bits in (40, 160):
        yield "prime square", Fraction(3 * prime_above(rng, bits) ** 2)
    for bits in (1100, 2040):
        yield "prime square over MAX_COFACTOR_BITS", Fraction(3 * prime_above(rng, bits) ** 2)
    for bits in (2100, 2600, 4000, 12_000, 40_000):
        yield "over MAX_COFACTOR_BITS", Fraction(segment_primes() * rough(rng, bits))
    # n falls from ~10 kbit to ~100 bits in segment 5, so the powers kept for reducing must start over
    high_power = sympy.nextprime(65536) ** 600
    yield "high power of a segment prime", Fraction(high_power * prime_above(rng, 50) * prime_above(rng, 50))
    yield "as long as the products", Fraction(rough(rng, 95_000))


def test_folded_walk_decides_as_the_plain_gcd_walk(monkeypatch):
    monkeypatch.setattr(exact, "_residue", residue)  # every reduction checked, on powers of the n it reduces by
    seen = Counter()
    for kind, x in oracle_radicands():
        expected = outcome(plain_gcd_walk, x)
        assert outcome(squarefree_decompose, x) == expected, (kind, x)
        seen[kind, isinstance(expected, str)] += 1
    # both branches of the cofactor logic are reached: accepted and refused
    assert seen["two primes", True] > 0 and seen["prime", False] > 0 and seen["prime square", False] > 0
    assert seen["27-30 bits, primes above 8192", False] == 60
    assert seen["over MAX_COFACTOR_BITS", True] == 5 and seen["prime square over MAX_COFACTOR_BITS", False] == 2


def test_quadext_construction_rejects_bad_radicands():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 0)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 1)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 4)
    with pytest.raises(TypeError):
        QuadExt(1, 1, Fraction(2))
    with pytest.raises(TypeError):
        QuadExt(0.5, 1, 2)
    QuadExt(1, 1, -1)  # imaginary radicand is fine
    QuadExt(1, 1, 12)  # non-squarefree but non-square is allowed


def test_quadext_mismatched_radicands_refuse_to_mix():
    with pytest.raises(RadicandMismatchError):
        QuadExt(1, 1, 2) + QuadExt(1, 1, 3)
    with pytest.raises(RadicandMismatchError):
        QuadExt(1, 1, 2) * QuadExt(1, 1, 3)
    # but two plain rationals wearing different radicands compare equal
    assert QuadExt(5, 0, 2) == QuadExt(5, 0, 3)


elements = st.builds(
    QuadExt,
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.just(2),
)


@settings(max_examples=1000, deadline=None)
@given(elements, elements, elements)
def test_quadext_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert -x == 0 - x and x + (-x) == 0
    # equal elements built apart hash equal, irrational ones included
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)


@settings(max_examples=1000, deadline=None)
@given(elements)
def test_quadext_inverse_and_norm(x):
    assert x.norm() == (x * x.conjugate()).a
    assert x.conjugate().conjugate() == x
    if x:
        assert x * (1 / x) == 1
        assert (1 / x).norm() == 1 / x.norm()
    else:
        with pytest.raises(ZeroDivisionError):
            1 / x


@given(elements, elements)
def test_quadext_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(elements, st.integers(min_value=-6, max_value=6))
def test_quadext_integer_powers(x, k):
    if not x and k < 0:
        return
    expected = QuadExt(1, 0, 2)
    step = x if k >= 0 else 1 / x
    for _ in range(abs(k)):
        expected = expected * step
    assert x**k == expected


def test_quadext_mixes_with_rationals():
    x = QuadExt(Fraction(1, 2), Fraction(-1, 4), 2)
    assert 1 - x == QuadExt(Fraction(1, 2), Fraction(1, 4), 2)
    assert Fraction(3, 2) * x == QuadExt(Fraction(3, 4), Fraction(-3, 8), 2)
    assert (2 / QuadExt(0, 1, 2)) == QuadExt(0, 1, 2)
    assert x + 0 == x and x * 1 == x


def test_quadext_equality_and_hash_match_rationals():
    assert QuadExt(7, 0, 5) == 7
    assert QuadExt(Fraction(1, 3), 0, 5) == Fraction(1, 3)
    assert hash(QuadExt(7, 0, 5)) == hash(7)
    assert QuadExt(7, 1, 5) != 7
    assert (QuadExt(1, 1, 2) == "x") is False


def test_quadext_has_no_float_embedding():
    with pytest.raises(TypeError):
        float(QuadExt(1, 1, 2))
    with pytest.raises(TypeError):
        complex(QuadExt(1, 1, -1))
    # no float enters a result: a float operand is refused on either side, and as an exponent
    x = QuadExt(1, 1, 2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.pow):
        for left, right in [(x, 1.5), (1.5, x)]:
            with pytest.raises(TypeError):
                op(left, right)


def test_quadext_str_forms():
    assert str(QuadExt(Fraction(1, 2), Fraction(-1, 4), 2)) == "1/2 - 1/4*sqrt(2)"
    assert str(QuadExt(0, 1, 3)) == "sqrt(3)"
    assert str(QuadExt(0, -1, 3)) == "-sqrt(3)"
    assert str(QuadExt(5, 0, 3)) == "5"
    assert str(QuadExt(-2, 3, 7)) == "-2 + 3*sqrt(7)"
