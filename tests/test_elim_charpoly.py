"""charpoly over ZZ by one Bareiss elimination of 2**W * I - A.

det(x * I - A) = sum_j c_j * x**(n-j) with |c_j| <= n! * max(M, 1)**n,
so at x = 2**W, W = bit_length of that bound + 1, the c_j are the
balanced base 2**W digits of one integer determinant.  The kernel
eliminates while n * W <= MAX_CHARPOLY_BITS and runs berkowitz() above;
QQ and the encodable towers reach it through the lift, and bare Z/m
keeps berkowitz().  berkowitz() on the ring itself is the oracle.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

import ringmat.matrix as matrix_mod
from helpers import RINGS8, Z1, Z8, corpus
from ringmat.charpoly import charpoly
from ringmat.matrix import (
    MAX_CHARPOLY_BITS,
    Matrix,
    berkowitz,
    charpoly_coefficients,
)
from ringmat.poly import PolynomialRing
from ringmat.rings import QQ, ZZ


def _width(n, m):
    """W of an n x n integer matrix whose largest |entry| is m."""
    return (factorial(n) * max(m, 1) ** n).bit_length() + 1


def _random(rng, n, m):
    """n x n over ZZ, entries in [-m, m], one of them m itself."""
    entries = [rng.randint(-m, m) for _ in range(n * n)]
    if n:
        entries[rng.randrange(n * n)] = m
    return Matrix(ZZ, n, n, entries)


RINGS = RINGS8 + (("poly-mod1", PolynomialRing(Z1)),)


@pytest.mark.parametrize("label,ring", RINGS, ids=[l for l, _ in RINGS])
def test_every_ring_matches_berkowitz(label, ring):
    mats = corpus(ring, f"elim-charpoly-{label}", 24, 8, singular_every=4)
    mats += [Matrix(ring, 0, 0, ()), Matrix(ring, 1, 1, (ring.from_int(5),))]
    for a in mats:
        assert charpoly_coefficients(a) == berkowitz(a), (label, a.rows)
        assert charpoly(a).c == tuple(berkowitz(a)), (label, a.rows)


@pytest.mark.parametrize("m", [1, 9, 10**3, 10**6])
def test_zz_on_both_sides_of_the_gate(berkowitz_rings, m):
    rng = random.Random(f"elim-zz-{m}")
    for n in range(2, 15):
        for _ in range(3):
            a = _random(rng, n, m)
            want = berkowitz(a)
            berkowitz_rings.clear()
            assert charpoly_coefficients(a) == want, (n, m)
            eliminates = n * _width(n, m) <= MAX_CHARPOLY_BITS
            assert berkowitz_rings == ([] if eliminates else [ZZ]), (n, m)


def test_gate_is_pinned_from_both_sides(berkowitz_rings):
    # the first (n, m) with n * W on the bound, and the first one bit above
    rng = random.Random("elim-gate")
    for target, calls in ((MAX_CHARPOLY_BITS, 0), (MAX_CHARPOLY_BITS + 1, 1)):
        n, m = next((n, m) for n in range(2, 15) for m in range(1, 1000)
                    if n * _width(n, m) == target)
        a = _random(rng, n, m)
        want = berkowitz(a)
        berkowitz_rings.clear()
        assert charpoly_coefficients(a) == want, (n, m)
        assert len(berkowitz_rings) == calls, (target, n, m)


def test_width_is_the_formula(monkeypatch):
    # the diagonal handed to _bareiss is 2**W - a_ii
    seen = []
    real = matrix_mod._bareiss

    def spy(entries, n):
        seen.append(entries[0])
        return real(entries, n)

    monkeypatch.setattr(matrix_mod, "_bareiss", spy)
    for n, m, w in ((1, 1, 2), (2, 1, 3), (4, 1, 6), (10, 9, 55),
                    (10, 50, 80), (12, 1, 30)):
        a = _random(random.Random(f"elim-width-{n}-{m}"), n, m)
        seen.clear()
        charpoly_coefficients(a)
        assert w == _width(n, m), (n, m)
        assert seen == [(1 << w) - a._e[0]], (n, m)


def test_coefficients_on_the_bound_decode():
    # |c_n| reaches n! * M**n at n = 1 and 2 (det [[M, M], [-M, M]] =
    # 2 * M**2), and |c_3| = 4 of a +-1 matrix is above half of 3! = 6:
    # a W one bit short reads each of these wrong
    cases = [Matrix(ZZ, 1, 1, (-m,)) for m in (1, 9, 10**6)]
    cases += [Matrix(ZZ, 2, 2, (s * m, m, -m, s * m))
              for m in (1, 9, 10**3, 10**6) for s in (1, -1)]
    cases += [Matrix(ZZ, 3, 3, (1, 1, 1, 1, -1, 1, s, s, -s)) for s in (1, -1)]
    for a in cases:
        n, m = a.rows, max(map(abs, a._e))
        c = charpoly_coefficients(a)
        assert c == berkowitz(a), a
        reach = max(map(abs, c[1:]))
        assert 2 * reach >= factorial(n) * m ** n, a
    assert charpoly_coefficients(cases[3]) == [1, -2, 2]
    assert charpoly_coefficients(cases[-1])[-1] == 4


def test_kernel_shapes_take_their_routes(berkowitz_rings):
    # the benchmark's shapes: 10 x 10 over ZZ in [-9, 9] (n * W = 550)
    # eliminates; 8 x 8 over QQ, num in [-9, 9] and den in [1, 9], lifts
    # to entries up to 2520 * 9 and n * W > 1000, so it keeps berkowitz()
    rng = random.Random("elim-shapes")
    zz = Matrix(ZZ, 10, 10, [rng.randint(-9, 9) for _ in range(100)])
    want = berkowitz(zz)
    berkowitz_rings.clear()
    assert charpoly(zz).c == tuple(want)
    assert berkowitz_rings == []
    dens = list(range(1, 10)) * 8
    qq = Matrix(QQ, 8, 8, [Fraction(rng.randint(-9, 9) or 9, d)
                           for d in dens[:63]] + [Fraction(9)])
    want = berkowitz(qq)
    berkowitz_rings.clear()
    assert charpoly(qq).c == tuple(want)
    assert berkowitz_rings == [ZZ]
    assert 8 * _width(8, 2520 * 9) > MAX_CHARPOLY_BITS


def test_bare_mod_rings_keep_berkowitz(berkowitz_rings):
    for ring in (Z8, Z1):
        a = corpus(ring, "elim-mod", 1, 6)[0]
        charpoly(a)
        assert berkowitz_rings == [ring]
        berkowitz_rings.clear()
