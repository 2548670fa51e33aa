"""Entropy and shell-size arithmetic on exact integer combinatorics.

Binomial and multinomial coefficients are evaluated as exact arbitrary
precision integers (products of math.comb while all counts but the
largest sum to at most _COMB_UPTO, of the prime powers of their exact
factorization otherwise) and the logarithm is taken last, so no
Stirling-style drift enters the downstream baselines.  Above a total of
_BIG_N, log2_multinomial takes the logarithm from the factorization
itself, without building the integer.

The factorization of a factorial m! comes from Legendre's formula: one
division m // p over the primes up to m, then the higher powers m // p^i
over the primes up to sqrt(m) only, the few whose square divides into m.
A multinomial takes one division per factorial, each over the primes up
to its own m, subtracting the denominator's first powers from the
numerator's, and then the higher powers of every factorial in one loop
over the primes up to sqrt of the total.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .words import PairCounts

# Above this total the log of a binomial/multinomial is evaluated from the
# exact prime factorization instead of materializing the integer.
_BIG_N = 4096
# np.dot hands a vector of more than 10,000 entries to OpenBLAS's threaded
# ddot, whose rounding depends on the thread count; log2_multinomial sums
# the dots of blocks of at most this many entries in order, so that its
# value does not, and a shorter vector's is its one dot.
_DOT_BLOCK = 10_000
# An exact multinomial is a product of math.comb calls while all its
# counts but the largest sum to at most this, else a product of the prime
# powers of its factorization.  math.comb's cost grows with that sum, as it
# divides a huge product by a huge factorial, schoolbook in CPython; the
# prime powers cost products only, about 0.06-0.3 ms up to a total of 2^16.
# C(n, 64) takes 0.003 ms against 0.06-0.12, C(4096, 2048) 0.48 against
# 0.12 and C(2^15, 2^14) 25 against 2 ms; they cross near 1024 at any n.
_COMB_UPTO = 1024


def binary_entropy(p: float) -> float:
    """Binary entropy of p in bits per symbol, with 0*log2(0) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    return -p * math.log2(p) - q * math.log2(q)


def shell_size(n: int, k: int) -> int:
    """Exact number of length-n words of weight k."""
    if n < 1 or k < 0 or k > n:
        raise ValueError(f"invalid shell ({n},{k})")
    return _multinomial([k, n - k])


@lru_cache(maxsize=65536)
def shell_log_size(n: int, k: int) -> float:
    """log2 of the exact binomial coefficient C(n, k)."""
    if n < 1 or k < 0 or k > n:
        raise ValueError(f"invalid shell ({n},{k})")
    return log2_multinomial((k, n - k))


def log2_multinomial(counts) -> float:
    """log2 of the exact multinomial coefficient (sum counts)! / prod(counts!)."""
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    total = sum(counts)
    if total <= _BIG_N:
        value = _multinomial(counts)
        return math.log2(value) if value > 1 else 0.0
    exps = _multinomial_exponents(counts)
    if np.any(exps < 0):
        raise ValueError("invalid factorization")
    # The dot runs over the nonzero exponents, as float64; the full-length
    # exponents go first, which keeps the temporaries near 12 bytes a prime.
    nz = exps != 0
    weights = exps[nz]
    del exps
    weights = weights.astype(np.float64)
    logs = _log2_primes_upto(total)[nz]
    del nz
    value = 0.0
    for first in range(0, weights.size, _DOT_BLOCK):
        value += float(np.dot(weights[first : first + _DOT_BLOCK], logs[first : first + _DOT_BLOCK]))
    return value


def _multinomial(counts: list[int]) -> int:
    """The exact multinomial coefficient (sum counts)! / prod(counts!) of
    nonnegative counts."""
    total = sum(counts)
    if total <= _COMB_UPTO or total - max(counts) <= _COMB_UPTO:
        value = 1
        for c in counts:
            value *= math.comb(total, c)
            total -= c
        return value
    exps = _multinomial_exponents(counts)
    nz = exps > 0
    primes = _primes_upto(total)[nz].tolist()
    powers = [p**e for p, e in zip(primes, exps[nz].tolist())]
    while len(powers) > 1:  # pairwise, so the big products come last
        powers = [a * b for a, b in zip(powers[0::2], powers[1::2])] + powers[len(powers) & ~1 :]
    return powers[0] if powers else 1


def _multinomial_exponents(counts: list[int]) -> np.ndarray:
    """The exponent of each prime <= sum(counts) in the multinomial
    coefficient of the counts, by Legendre's formula in one pass: the first
    powers m // p of the total and of each count, one division over each
    one's primes, then the higher powers of them all in one loop over the
    primes <= sqrt(total)."""
    total = sum(counts)
    primes = _primes_upto(total)
    # int32 like the primes, so numpy divides without casting them: every
    # exponent is below total < 2^31
    exps = np.floor_divide(np.int32(total), primes)
    own = np.empty_like(exps)
    for c in counts:
        below = _prime_count(primes, c)  # primes > c divide c! zero times
        np.floor_divide(np.int32(c), primes[:below], out=own[:below])
        exps[:below] -= own[:below]
    small = _prime_count(primes, math.isqrt(total))
    higher = []
    for p in primes[:small].tolist():
        e, q = 0, total // p
        while q >= p:  # m // p^i for i >= 2, from m // p^(i - 1)
            q //= p
            e += q
        for c in counts:
            q = c // p
            while q >= p:
                q //= p
                e -= q
        higher.append(e)
    exps[:small] += np.array(higher, dtype=np.int32)
    return exps


def conditional_entropy(pc: PairCounts) -> float:
    """Empirical conditional entropy H(X|Y) in bits per symbol.

    Conditioning classes with zero mass contribute zero.
    """
    n = pc.n
    total = 0.0
    for n1b, n0b in ((pc.c11, pc.c01), (pc.c10, pc.c00)):
        nb = n0b + n1b
        if nb > 0:
            total += (nb / n) * binary_entropy(n1b / nb)
    return total


def mutual_information_emp(pc: PairCounts) -> float:
    """Empirical mutual information H(X) + H(Y) - H(X,Y) in bits per symbol."""
    n = pc.n
    hx = binary_entropy((pc.c10 + pc.c11) / n)
    hy = binary_entropy((pc.c01 + pc.c11) / n)
    hxy = 0.0
    for c in (pc.c00, pc.c01, pc.c10, pc.c11):
        if c > 0:
            hxy -= (c / n) * math.log2(c / n)
    return hx + hy - hxy


def ceil_log2(m: int) -> int:
    """Smallest integer w with 2**w >= m, for m >= 1."""
    if m < 1:
        raise ValueError("m must be positive")
    return (m - 1).bit_length()


@lru_cache(maxsize=4096)
def ceil_log2_comb(n: int, k: int) -> int:
    """ceil_log2 of the exact binomial, without materializing it when huge.

    The factorized log is trusted when it is far from an integer; near a
    boundary the exact integer decides.
    """
    if n > _BIG_N:
        lg = shell_log_size(n, k)
        if abs(lg - round(lg)) >= 1e-6:
            return math.ceil(lg)
    return ceil_log2(shell_size(n, k))


# One sieve, grown to the largest n asked for so far; smaller n take a
# prefix of it.  The primes are int32, which bounds n below 2^31.
_primes = np.zeros(0, dtype=np.int32)
_primes.setflags(write=False)
_primes_limit = 1
# Entries of the sieve indexed at a time: an int64 index of 128 KiB at most.
_SIEVE_BLOCK = 1 << 14


def _primes_upto(n: int) -> np.ndarray:
    """The primes <= n, ascending, as a read-only int32 array."""
    global _primes, _primes_limit
    if n >= 1 << 31:
        raise ValueError(f"primes are sieved below 2^31 only, not up to {n}")
    if n > _primes_limit:
        odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i]: is 2i + 1 prime
        odd[0] = False
        for p in range(3, math.isqrt(n) + 1, 2):
            if odd[p // 2]:
                odd[p * p // 2 :: p] = False
        primes = np.empty(np.count_nonzero(odd) + 1, dtype=np.int32)
        primes[0] = 2
        # the int64 index of the whole sieve would take 8 bytes a prime:
        # index one block of the sieve at a time into the int32 primes
        filled = 1
        for first in range(0, odd.size, _SIEVE_BLOCK):
            index = np.flatnonzero(odd[first : first + _SIEVE_BLOCK])
            primes[filled : filled + index.size] = 2 * (index + first) + 1
            filled += index.size
        primes.setflags(write=False)
        _primes, _primes_limit = primes, n
    return _primes[: _prime_count(_primes, n)]


# log2 of the primes of the sieve, as float64, entry by entry: a table at
# least as long as the sieve's primes serves every prefix of them.
_log2_primes = np.zeros(0)
_log2_primes.setflags(write=False)


def _log2_primes_upto(n: int) -> np.ndarray:
    """log2 of the primes <= n, ascending, as a read-only float64 array,
    made once for all the sieve's primes when the sieve has grown."""
    global _log2_primes
    primes = _primes_upto(n)
    if _log2_primes.size < _primes.size:
        logs = _primes.astype(np.float64)
        np.log2(logs, out=logs)
        logs.setflags(write=False)
        _log2_primes = logs
    return _log2_primes[: primes.size]


def _prime_count(primes: np.ndarray, m: int) -> int:
    """The number of ascending int32 primes <= m, for m < 2^31; m is made
    an int32 so that numpy does not cast the primes to int64."""
    return int(np.searchsorted(primes, np.int32(m), side="right"))
