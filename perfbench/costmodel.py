"""Predicted cost of an inverse_invariants input, used only to stratify the draws.

The cost of ``field_of_definition`` plus two ``reconstruct`` calls on a
random invariant tuple is almost all trial division inside the seed's
``squarefree_decompose``: odd divisors from 3 up to the point where p^2
exceeds what is left of the radicand, or up to 10^6.  How far it goes
depends on the factorization of the discriminant, so a few dozen random
tuples per run give a heavy-tailed, seed-dependent total.

:func:`inverse_cost` predicts that divisor count from the factorization,
found here with a gcd against the product of the primes below 10^6 and
Pollard rho, far faster than the division itself.  The generator draws
several candidates per slot and takes the one at a rank that cycles over
the slots; that keeps the cost distribution of the draws and evens it out
between blocks and seeds.  The package never sees this model, and inputs
depend on the seed alone, so a change to the package's algorithm leaves the
inputs as they are.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from . import checks

#: The seed's trial-division bound (``exact.DEFAULT_FACTOR_BOUND``).
BOUND = 10**6
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@functools.cache
def _primorial() -> int:
    """Product of the primes below BOUND, by a product tree."""
    sieve = bytearray([1]) * BOUND
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(BOUND) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, BOUND, p)))
    level = [p for p in range(BOUND) if sieve[p]]
    while len(level) > 1:
        level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0]


def is_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.3e24, which covers every use here
    that decides a cost (larger n only need 'probably prime')."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
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


def _rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (Pollard rho, Brent's cycle)."""
    rng = random.Random(n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 64
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of a squarefree n."""
    if n == 1:
        return []
    if n % 2 == 0:
        return [2, *_prime_factors(n // 2)]
    if is_prime(n):
        return [n]
    d = _rho(n)
    return _prime_factors(d) + _prime_factors(n // d)


def decompose_cost(x: Fraction) -> tuple[int, bool]:
    """(odd divisors tried, whether the bound is exceeded) for squarefree_decompose(x)."""
    n = abs(x.numerator) * x.denominator
    small = sorted(_prime_factors(math.gcd(n, _primorial())))
    rest, previous = n, 1
    for q in small:
        if math.isqrt(rest) < q:
            return max(previous, math.isqrt(rest)) // 2, False
        while rest % q == 0:
            rest //= q
        previous = q
    stop = max(previous, math.isqrt(rest))
    if stop < BOUND:
        return stop // 2, False
    # the loop ran to the bound; what is left must be a prime or a prime square
    root = math.isqrt(rest)
    hard = not (is_prime(rest) or (root * root == rest and is_prime(root)))
    return BOUND // 2, hard


def inverse_cost(values) -> int:
    """Predicted divisors tried by field_of_definition and both reconstructions."""
    disc = checks.quadratic_discriminant(values)
    if disc == 0 or checks.rational_sqrt(disc) is not None:
        return 0
    divisors, hard = decompose_cost(disc)
    # a refusal stops the op at the field report; otherwise each
    # reconstruction decomposes the discriminant again
    return divisors if hard else 3 * divisors
