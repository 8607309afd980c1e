"""The pinned PRNG and the input samplers built on it.

The generator is pinned to published reference outputs on purpose: fuzz
reports are only reproducible across reimplementations if the stream is
bit-exact, so these vectors are load-bearing, not decoration.
"""

import ast
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ringmat.fuzz as fuzz_mod
from helpers import Z6, Z8, ZT, RINGS5, scopes
from ringmat.fuzz import (
    SplitMix64,
    _below,
    characteristic,
    derive_seed,
    fnv1a64,
    power_nilpotent,
    sample_commuting,
    sample_element,
    sample_indicator,
    sample_matrix,
    sample_nilpotent,
    sample_singular,
    sample_strict_upper,
    sample_subset,
    stream,
)
from ringmat.matrix import Matrix
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import QQ, ZZ, ModRing


def test_splitmix64_reference_vectors():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    g = SplitMix64(1234567)
    assert [g.next_u64() for _ in range(3)] == [
        0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77]


def test_fnv1a64_reference_vectors():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


class _NoDraws(SplitMix64):
    """A generator that must not be drawn from."""

    def next_u64(self) -> int:
        raise AssertionError("next_u64 called")


def test_below_is_unbiased_rejection():
    g = SplitMix64(42)
    draws = [g.below(10) for _ in range(2000)]
    assert set(draws) <= set(range(10))
    assert len(set(draws)) == 10
    assert _below(SplitMix64(42), 10, 2000) == draws
    # one value in [0, 1) needs no draw
    quiet = _NoDraws(42)
    assert quiet.below(1) == 0 and quiet.randint(5, 5) == 5
    assert _below(quiet, 1, 4) == [0] * 4
    assert _below(quiet, 1, 3, -9) == [-9] * 3
    assert _below(quiet, 7, 0) == []
    for n in (0, -1, -(2 ** 70)):
        with pytest.raises(ValueError):
            g.below(n)
        with pytest.raises(ValueError):
            _below(g, n, 3)


def test_one_rejection_loop():
    # the scopes of fuzz.py that read next_u64: _below, the one bounded
    # draw, and the two reseeding steps; SplitMix64.below is _below's
    # one-value case, so a further rejection loop fails here
    readers = {label for label, scope in scopes(Path(fuzz_mod.__file__))
               for c in ast.walk(scope)
               if isinstance(c, ast.Attribute) and c.attr == "next_u64"}
    assert readers == {"_below", "SplitMix64.split", "derive_seed"}


def test_randint_covers_both_endpoints():
    g = SplitMix64(7)
    draws = {g.randint(-2, 2) for _ in range(500)}
    assert draws == {-2, -1, 0, 1, 2}


def test_derive_seed_tokens_matter():
    assert derive_seed(0) == 0
    assert derive_seed(42, "core", 3) != derive_seed(42, "core", 4)
    assert derive_seed(42, "core", 3) != derive_seed(43, "core", 3)
    assert derive_seed(42, "a", 1) != derive_seed(42, 1, "a")
    # streams with the same tokens replay identically
    assert [stream(9, "x", 0).next_u64() for _ in range(2)] == \
           [stream(9, "x", 0).next_u64() for _ in range(2)]


def test_stream_from_a_folded_seed_is_the_same_stream():
    # run_suite folds (seed, identity) once and draws stream(base, case)
    # for each case: bit for bit the stream of (seed, identity, case)
    for seed in (0, 1, 2**64 - 1, 2**70 + 5, -3):
        for name in ("det_product", "cayley_hamilton", ""):
            base = derive_seed(seed, name)
            for case in (0, 1, 99, 2**64 + 1):
                g, h = stream(seed, name, case), stream(base, case)
                assert [g.next_u64() for _ in range(5)] == \
                       [h.next_u64() for _ in range(5)]


def test_split_streams_diverge():
    g = SplitMix64(5)
    child = g.split()
    a = [child.next_u64() for _ in range(4)]
    b = [g.next_u64() for _ in range(4)]
    assert a != b


def test_element_distributions():
    rng = stream(1, "dist")
    ints = {sample_element(rng, ZZ) for _ in range(400)}
    assert ints == set(range(-9, 10))
    residues = {sample_element(rng, Z8) for _ in range(200)}
    assert residues == set(range(8))
    for _ in range(100):
        q = sample_element(rng, QQ)
        assert isinstance(q, Fraction)
        # num, den are drawn from [-5,5] minus 0, then reduced
        assert q != 0
        assert abs(q.numerator) <= 5
        assert 1 <= q.denominator <= 5
    for _ in range(50):
        p = sample_element(rng, ZT, poly_degree=2)
        assert isinstance(p, Polynomial)
        assert p.degree <= 2


def test_sample_matrix_shape_and_determinism():
    a = sample_matrix(stream(3, "m"), Z6, 3, 2)
    b = sample_matrix(stream(3, "m"), Z6, 3, 2)
    assert a == b
    assert (a.rows, a.cols) == (3, 2)
    c = sample_matrix(stream(4, "m"), Z6, 3, 2)
    assert a != c


def test_sample_singular():
    for label, ring in RINGS5:
        for n in (1, 2, 4):
            s = sample_singular(stream(8, label, n), ring, n)
            assert s.det() == ring.zero(), (label, n)
    with pytest.raises(ValueError):
        sample_singular(stream(8, "x"), ZZ, 0)


def test_sample_strict_upper():
    a = sample_strict_upper(stream(2, "u"), ZZ, 4)
    for i in range(1, 5):
        for j in range(1, i + 1):
            assert a.entry(i, j) == 0
    assert (a ** 4).is_zero()


def test_sample_nilpotent_band():
    for n in range(5):
        for k in range(n + 1):
            a = sample_nilpotent(stream(6, "nilp", n, k), Z8, n, k)
            assert (a ** (k + 1)).is_zero(), (n, k)


def test_sample_commuting():
    a = Matrix.from_rows(ZZ, [[1, 2], [3, 4]])
    b = sample_commuting(stream(10, "c"), a)
    assert a @ b == b @ a
    e = Matrix(ZZ, 0, 0, ())
    assert sample_commuting(stream(10, "c"), e) == e


def test_sample_subset():
    s = sample_subset(stream(12, "s"), 6, 3)
    assert list(s) == sorted(set(s))
    assert len(s) == 3 and all(1 <= v <= 6 for v in s)
    assert sample_subset(stream(12, "s"), 6, 0) == ()
    with pytest.raises(ValueError):
        sample_subset(stream(12, "s"), 3, 4)


def test_sample_indicator():
    e = sample_indicator(ZZ, 2, 3, 1, 2)
    assert e.entry(1, 2) == 1
    assert sum(1 for i in range(1, 3) for j in range(1, 4)
               if e.entry(i, j) != 0) == 1


def test_characteristic():
    assert characteristic(ZZ) == 0
    assert characteristic(QQ) == 0
    assert characteristic(Z8) == 8
    assert characteristic(ZT) == 0
    assert characteristic(PolynomialRing(Z6)) == 6


def test_power_nilpotent():
    assert power_nilpotent(8) == (2, 2)    # 2^3 = 0 mod 8, 2^2 = 4 != 0
    assert power_nilpotent(4) == (2, 1)
    assert power_nilpotent(12) == (6, 1)
    assert power_nilpotent(6) is None      # squarefree
    assert power_nilpotent(1) is None
    assert power_nilpotent(0) is None


def test_power_nilpotent_large_moduli():
    # primes and prime powers beyond trial division are decided by
    # Miller-Rabin, instantly
    assert power_nilpotent(10000000000000061) is None
    assert power_nilpotent(2 ** 61 - 1) is None
    q = 1000000000000000003
    assert power_nilpotent(q ** 2) == (q, 1)
    assert power_nilpotent(8 * q ** 3) == (2 * q, 2)
    assert power_nilpotent(9 * 10007 ** 4) == (3 * 10007, 3)
    # below _TRIAL_BOUND ** 2 trial division alone finishes the job
    assert power_nilpotent(9973 ** 2) == (9973, 1)
    # a cofactor that is neither a prime nor a prime power is left
    # unfactored: the special case is skipped
    assert power_nilpotent(4 * 1000003 * 1000033) is None
    assert power_nilpotent(4 * q * (2 ** 61 - 1)) is None
    # a prime cofactor above PRIME_BOUND cannot be decided either
    assert power_nilpotent(4 * (2 ** 89 - 1)) is None
    # nor a cofactor longer than 4096 bits, even a prime power
    assert power_nilpotent(2 * q ** 68) == (2 * q, 67)     # 4068 bits
    assert power_nilpotent(2 * q ** 69) is None            # 4127 bits


def test_power_nilpotent_stays_fast_at_the_literal_cap():
    # without the 4096-bit limit on the cofactor, a 5000-digit modulus
    # took 22 s of integer roots, and the time grows with the cube of
    # the length
    start = time.perf_counter()
    assert power_nilpotent(3 ** 5 * 7 * (10 ** 19990 - 1) // 9) is None
    assert time.perf_counter() - start < 5


def test_below_above_two_to_the_64():
    # one attempt reads the next outputs as one integer, lowest word first
    ref = SplitMix64(7)
    words = [ref.next_u64() for _ in range(2)]
    assert SplitMix64(7).below(2 ** 100) == (words[0] | words[1] << 64) % 2 ** 100
    assert _below(SplitMix64(7), 2 ** 100, 1, 5) == [
        5 + (words[0] | words[1] << 64) % 2 ** 100]
    # 2**64 itself is still a one-word draw, every word accepted
    assert SplitMix64(7).below(2 ** 64) == words[0]
    g = SplitMix64(7)
    assert _below(g, 2 ** 64, 2) == words
    assert g._state == ref._state
    rng = SplitMix64(11)
    for n in (2 ** 64 + 1, 3 * 2 ** 70 + 5, 10 ** 40 + 7):
        draws = [rng.below(n) for _ in range(50)]
        assert all(0 <= v < n for v in draws) and len(set(draws)) == 50
    a = sample_matrix(stream(1, "wide"), ModRing(2 ** 89 - 1), 2, 2)
    assert all(0 <= v < 2 ** 89 - 1 for v in a._e)
