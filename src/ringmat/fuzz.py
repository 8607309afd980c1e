"""Deterministic input generation for the verification suite.

The generator is SplitMix64, pinned exactly so identical seeds give
identical fuzz reports everywhere:

    state' = (state + 0x9E3779B97F4A7C15) mod 2**64
    z = state'
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output = z XOR (z >> 31)

Streams are split by reseeding: the child seed for a labelled stream is
the first output of SplitMix64 seeded with parent_seed XOR FNV-1a64(label)
(integer tokens are XORed in directly).  A draw below a bound n uses
rejection sampling on the integer whose 64-bit words, lowest first, are
the next ceil(bits(n - 1) / 64) raw outputs: one output for
2 <= n <= 2**64, none at n = 1.  Matrix entries are drawn row by row:

    integers        uniform in [-9, 9]
    mod m           uniform residue in [0, m)
    rationals       num/den with both uniform in [-5, 5] minus {0},
                    the numerator drawn first
    polynomials     degree-bound + 1 base draws, low degree first

_draw is the one definition of these: it reads the ring once and draws a
whole matrix's scalars in one pass, each rejection limit computed once,
still one next_u64 call per raw output, so a matrix gives the values,
the calls and the final state of one entry drawn at a time.
sample_element is its one-entry case.  _below is the one rejection
loop, and SplitMix64.below its one-value case.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .identities import PRIME_BOUND, _is_prime
from .matrix import Matrix, apply_poly
from .poly import Polynomial, PolynomialRing
from .rings import IntegerRing, ModRing, RationalRing, Ring, RingError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Polynomial rings that verify and fuzz accept nest at most this deep.  A
# sampled entry at depth d draws (poly_degree + 1)**d base coefficients, and
# each level multiplies the work of a campaign by about 8: `verify all` on a
# 2 x 2 matrix took 0.41 s at depth 3, 2.1 s at depth 4 and 26 s at depth 5;
# `fuzz --suite all --size 4 --count 1` took 1.6 s at depth 3 and 13.7 s at
# depth 4.
MAX_SAMPLE_DEPTH = 3

# power_nilpotent factors by trial division up to this divisor.
_TRIAL_BOUND = 10_000
# ... and leaves m unfactored when the cofactor left after trial division
# is longer than this many bits.  Deciding whether the cofactor is a prime
# power takes up to bits/13 integer roots, and its time grows about with
# the cube of the length: 0.2 s at 4096 bits, 22 s at 16600 bits (a
# 5000-digit modulus).
_DECIDE_BITS = 4096


class SplitMix64:
    """The pinned 64-bit generator; see the module docstring for the exact map."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = z = (self._state + _GOLDEN) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection: _below's one-value case."""
        return _below(self, n, 1)[0]

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return lo + self.below(hi - lo + 1)

    def split(self) -> "SplitMix64":
        return SplitMix64(self.next_u64())


@lru_cache(maxsize=256)     # a campaign folds the same few labels
def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h ^= b
        h = (h * 0x100000001B3) & _MASK
    return h


def derive_seed(seed: int, *tokens) -> int:
    """Fold string or integer tokens into seed, one reseeded step per token."""
    x = seed & _MASK
    for tok in tokens:
        t = fnv1a64(tok) if isinstance(tok, str) else tok & _MASK
        x = SplitMix64(x ^ t).next_u64()
    return x


def stream(seed: int, *tokens) -> SplitMix64:
    return SplitMix64(derive_seed(seed, *tokens))


def sample_element(rng: SplitMix64, ring: Ring, poly_degree: int = 1):
    """One entry from the pinned per-ring distribution: _draw's one-entry case."""
    return _draw(rng, ring, 1, poly_degree)[0]


def sample_matrix(rng: SplitMix64, ring: Ring, rows: int, cols: int,
                  poly_degree: int = 1) -> Matrix:
    return Matrix(ring, rows, cols, _draw(rng, ring, rows * cols, poly_degree))


def _draw(rng: SplitMix64, ring: Ring, count: int, poly_degree: int) -> list:
    """count entries of the pinned distribution, the ring read once.

    The values, the raw next_u64 draws and the final state are those of
    count one-entry draws in turn: a polynomial's poly_degree + 1 base
    entries, low degree first, and a rational's numerator, then its
    denominator.
    """
    if isinstance(ring, PolynomialRing):
        k, base = poly_degree + 1, ring.base
        flat = _draw(rng, base, k * count, poly_degree)
        return [Polynomial(base, flat[i:i + k]) for i in range(0, k * count, k)]
    if isinstance(ring, IntegerRing):
        return _below(rng, 19, count, -9)
    if isinstance(ring, ModRing):
        return _below(rng, ring.m, count)
    if isinstance(ring, RationalRing):
        draws = iter(_below(rng, 10, 2 * count))
        return [_RATIONALS[10 * num + den] for num, den in zip(draws, draws)]
    raise RingError(f"no sampler for ring {ring}")


# The 100 rationals num/den a draw can give, at 10 * i + j for the i-th
# numerator and j-th denominator of -5..-1, 1..5.
_SMALL = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
_RATIONALS = tuple(Fraction(num, den) for num in _SMALL for den in _SMALL)


def _below(rng: SplitMix64, n: int, count: int, lo: int = 0) -> list:
    """count values of lo + a uniform integer in [0, n), by rejection on
    the integer of the next ceil(bits(n - 1) / 64) raw outputs, lowest
    word first, one limit for them all; ValueError unless n >= 1."""
    if n <= 0:
        raise ValueError("bound must be positive")
    words = -(-(n - 1).bit_length() // 64)
    span = 1 << 64 * words
    limit = span - span % n
    draw = rng.next_u64 if words == 1 else (    # no word at n = 1
        lambda: sum(rng.next_u64() << 64 * i for i in range(words)))
    out = []
    for _ in range(count):
        while (v := draw()) >= limit:
            pass
        out.append(lo + v % n)
    return out


def sample_singular(rng: SplitMix64, ring: Ring, n: int) -> Matrix:
    """A square matrix with determinant zero over any commutative ring.

    For n >= 2 the second row is a copy of the first; n = 1 gives (0).
    n = 0 is impossible (the empty determinant is 1) and rejected.
    """
    if n < 1:
        raise ValueError("no singular 0 x 0 matrix exists")
    if n == 1:
        return Matrix.zeros(ring, 1, 1)
    a = sample_matrix(rng, ring, n, n)
    entries = list(a._e)
    entries[n:2 * n] = entries[0:n]
    return Matrix(ring, n, n, entries)


def sample_strict_upper(rng: SplitMix64, ring: Ring, n: int,
                        dist: int = 1) -> Matrix:
    """Entries only where column - row >= dist, hence nilpotent."""
    cells = [j - i >= dist for i in range(n) for j in range(n)]
    drawn, zero = iter(_draw(rng, ring, sum(cells), 1)), ring.zero()
    return Matrix(ring, n, n, [next(drawn) if c else zero for c in cells])


def sample_nilpotent(rng: SplitMix64, ring: Ring, n: int, k: int) -> Matrix:
    """A matrix with A**(k+1) = 0: banded strictly upper triangular.

    Entries sit at distance >= ceil(n / (k+1)) above the diagonal, so the
    (k+1)-st power vanishes; k = 0 forces the zero matrix.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n == 0:
        return Matrix(ring, 0, 0, ())
    dist = -(-n // (k + 1))
    return sample_strict_upper(rng, ring, n, dist)


def sample_commuting(rng: SplitMix64, a: Matrix) -> Matrix:
    """A matrix that provably commutes with a: a random polynomial in a."""
    ring = a.ring
    p = Polynomial(ring, _draw(rng, ring, 3, 1))
    return apply_poly(p, a)


def sample_subset(rng: SplitMix64, n: int, k: int) -> tuple:
    """k distinct values from 1..n, sorted (partial Fisher-Yates)."""
    pool = list(range(1, n + 1))
    for i in range(k):
        j = i + rng.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:k]))


def sample_indicator(ring: Ring, rows: int, cols: int, i: int, j: int) -> Matrix:
    """Zero matrix with a single 1 in position (i, j), 1-based."""
    zero, one = ring.zero(), ring.one()
    return Matrix(ring, rows, cols, [
        one if (r, c) == (i - 1, j - 1) else zero
        for r in range(rows) for c in range(cols)
    ])


def characteristic(ring: Ring) -> int:
    """0 for the integers and rationals, m for mod-m, inherited by R[t]."""
    if isinstance(ring, ModRing):
        return ring.m
    if isinstance(ring, PolynomialRing):
        return characteristic(ring.base)
    return 0


@lru_cache(maxsize=64)      # the fuzz drivers ask once per case
def power_nilpotent(m: int):
    """(e, k) with e**(k+1) = 0 mod m and e**k nonzero, or None.

    e is the radical of m (the product of its distinct prime factors);
    when m is squarefree the mod-m ring has no nonzero nilpotents.  m is
    factored by trial division up to _TRIAL_BOUND; whatever is left must
    be a prime or a prime power, decided by Miller-Rabin.  When it is not,
    or is longer than _DECIDE_BITS bits, m counts as unfactored and the
    result is None too, so callers skip the nilpotent special case.
    """
    if m < 2:
        return None
    radical, max_exp = 1, 0
    rest, d = m, 2
    while d * d <= rest and d <= _TRIAL_BOUND:
        if rest % d == 0:
            exp = 0
            while rest % d == 0:
                rest //= d
                exp += 1
            radical *= d
            max_exp = max(max_exp, exp)
        d += 1
    if rest > 1:
        if d * d > rest:        # no divisor up to its square root: a prime
            found = rest, 1
        elif rest.bit_length() > _DECIDE_BITS:
            return None
        else:
            found = _prime_power(rest)
            if found is None:
                return None
        radical *= found[0]
        max_exp = max(max_exp, found[1])
    if radical == m:
        return None
    return radical, max_exp - 1


def _prime_power(n: int):
    """(q, e) with n = q**e and q a prime below PRIME_BOUND, or None.

    n has no prime factor up to _TRIAL_BOUND, so q > 2**13 and
    e <= n.bit_length() // 13.
    """
    for e in range(1, n.bit_length() // (_TRIAL_BOUND.bit_length() - 1) + 1):
        q = _iroot(n, e)
        if q ** e == n and q < PRIME_BOUND and _is_prime(q):
            return q, e
    return None


def _iroot(n: int, e: int) -> int:
    """The integer part of n ** (1/e), for n >= 1, by Newton's method."""
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y
