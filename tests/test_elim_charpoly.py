"""charpoly over ZZ by one Bareiss elimination of 2**W * I - A.

det(x * I - A) = sum_j c_j * x**(n-j) with |c_j| <= B, B the product
over the rows of 1 + the ceiling of their euclidean norm (Hadamard), so
at x = 2**W, W = bit_length(B) + 1, the c_j are the balanced base 2**W
digits of one integer determinant.  The kernel eliminates while
n * W <= MAX_CHARPOLY_BITS and runs berkowitz() above; QQ and the
encodable towers reach it through the lift, and bare Z/m keeps
berkowitz().  berkowitz() on the ring itself is the oracle.
"""

import random
from fractions import Fraction
from itertools import product
from math import isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

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


def _bound(entries, n):
    """B: the product over the rows of 1 + ceil(their euclidean norm)."""
    b = 1
    for i in range(n):
        s = sum(v * v for v in entries[i * n:i * n + n])
        r = isqrt(s)
        b *= 1 + r + (r * r < s)
    return b


def _width(a):
    """W of the n x n integer matrix a."""
    return _bound(a._e, a.rows).bit_length() + 1


def _random(rng, n, m):
    """n x n over ZZ, entries in [-m, m], one of them m itself."""
    entries = [rng.randint(-m, m) for _ in range(n * n)]
    if n:
        entries[rng.randrange(n * n)] = m
    return Matrix(ZZ, n, n, entries)


def _sylvester(n, m):
    """m times the n x n Sylvester-Hadamard +-1 matrix, n a power of 2:
    rows of norm m * sqrt(n) and |det| = n**(n/2) * |m|**n, their product."""
    h = [[m]]
    while len(h) < n:
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return Matrix(ZZ, n, n, [x for r in h for x in r])


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
            eliminates = n * _width(a) <= MAX_CHARPOLY_BITS
            assert berkowitz_rings == ([] if eliminates else [ZZ]), (n, m)


def test_gate_is_pinned_from_both_sides(berkowitz_rings):
    # the first drawn matrix with n * W on the bound, and the first one
    # bit above it
    rng = random.Random("elim-gate")
    for target, calls in ((MAX_CHARPOLY_BITS, 0), (MAX_CHARPOLY_BITS + 1, 1)):
        a = next(a for n in range(2, 15) for m in range(1, 1000)
                 if n * _width(a := _random(rng, n, m)) == target)
        want = berkowitz(a)
        berkowitz_rings.clear()
        assert charpoly_coefficients(a) == want, a.rows
        assert len(berkowitz_rings) == calls, (target, a.rows)


def _spy_bareiss(patch):
    """The first entry of each matrix that _bareiss eliminates while patch
    holds, in a list that fills as it runs."""
    seen, real = [], matrix_mod._bareiss

    def spy(entries, n):
        seen.append(entries[0])
        return real(entries, n)

    patch.setattr(matrix_mod, "_bareiss", spy)
    return seen


def test_width_is_the_formula(monkeypatch):
    # the diagonal handed to _bareiss is 2**W - a_ii
    seen = _spy_bareiss(monkeypatch)
    # B = 2, 2 * 2, 2 * 1, (1 + 2)**2 as ceil(sqrt(2)) = 2, (1 + 5)**2
    # on the exact sqrt(25), 3**4 for rows of norm 2, 11**3 for norm 10
    pinned = [((1,), 3), ((1, 0, 0, 1), 4), ((0, 0, 1, 0), 3),
              ((1, 1, -1, 1), 5), ((3, 4, 4, -3), 7),
              ((1,) * 16, 8), ((6, 8, 0, 0, 0, 10, 0, 10, 0), 12)]
    cases = [(Matrix(ZZ, isqrt(len(e)), isqrt(len(e)), e), w)
             for e, w in pinned]
    for n, m in ((1, 9), (4, 1), (10, 9), (10, 50), (12, 1), (14, 10**6)):
        a = _random(random.Random(f"elim-width-{n}-{m}"), n, m)
        cases.append((a, _width(a)))
    for a, w in cases:
        seen.clear()
        # the kernel itself: charpoly_coefficients takes closed forms at
        # n <= 3
        assert matrix_mod._integer_charpoly(a._e, a.rows) == berkowitz(a)
        assert w == _width(a), a
        if a.rows * w <= MAX_CHARPOLY_BITS:
            assert seen == [(1 << w) - a._e[0]], a
        assert list(matrix_mod._row_squares(a._e, a.rows)) == [
            sum(v * v for v in a.row_list(i + 1)) for i in range(a.rows)]


def test_coefficients_on_the_bound_decode():
    # |det| of m times a Sylvester-Hadamard matrix is the product of its
    # row norms, within a factor 2 of B here: a W one bit short reads
    # some c_j wrong on each of these
    for n, m in product((1, 2, 4), (9, -9, 10**3, -10**3, 10**6, -10**6)):
        a = _sylvester(n, m)
        c = charpoly_coefficients(a)
        assert c == berkowitz(a) == matrix_mod._integer_charpoly(a._e, n), (
            n, m)
        assert abs(c[-1]) == n ** (n // 2) * abs(m) ** n, (n, m)
        half = 1 << (_width(a) - 2)
        assert any(not -half <= x < half for x in c), (n, m)
    assert charpoly_coefficients(_sylvester(2, 1)) == [1, 0, -2]
    assert charpoly_coefficients(_sylvester(4, 1)) == [1, 0, -8, 0, 16]


def test_small_cases_near_the_factorial_bound_decode():
    # |c_n| = n! * M**n at n = 1 and 2 and |c_3| = 4 of a +-1 matrix, the
    # cases that reached the old n! * max(M, 1)**n width
    cases = [Matrix(ZZ, 1, 1, (-m,)) for m in (1, 9, 10**6)]
    cases += [Matrix(ZZ, 2, 2, (s * m, m, -m, s * m))
              for m in (1, 9, 10**3, 10**6) for s in (1, -1)]
    cases += [Matrix(ZZ, 3, 3, (1, 1, 1, 1, -1, 1, s, s, -s)) for s in (1, -1)]
    for a in cases:
        assert charpoly_coefficients(a) == berkowitz(a), a
    assert charpoly_coefficients(cases[3]) == [1, -2, 2]
    assert charpoly_coefficients(cases[-1])[-1] == 4


def test_kernel_shapes_take_their_routes(berkowitz_rings):
    # the benchmark's shapes: 10 x 10 over ZZ in [-9, 9] eliminates at
    # W < 55, the old n! * M**n width; 8 x 8 over QQ, num in [-9, 9] and
    # den in [1, 9], lifts by L = 2520 to n * W under the gate, so it
    # eliminates too
    rng = random.Random("elim-shapes")
    zz = Matrix(ZZ, 10, 10, [rng.randint(-9, 9) for _ in range(100)])
    want = berkowitz(zz)
    berkowitz_rings.clear()
    assert charpoly(zz).c == tuple(want)
    assert berkowitz_rings == []
    assert _width(zz) < 55
    dens = list(range(1, 10)) * 8
    qq = Matrix(QQ, 8, 8, [Fraction(rng.randint(-9, 9) or 9, d)
                           for d in dens[:63]] + [Fraction(9)])
    want = berkowitz(qq)
    berkowitz_rings.clear()
    assert charpoly(qq).c == tuple(want)
    assert berkowitz_rings == []
    scale = lcm(*[v.denominator for v in qq._e])
    lifted = Matrix(ZZ, 8, 8, [v.numerator * scale // v.denominator
                               for v in qq._e])
    assert scale == 2520
    assert 8 * _width(lifted) <= MAX_CHARPOLY_BITS


def _hadamard_pattern(draw, n):
    """A Sylvester-Hadamard sign pattern (or as much of one as fits n)
    with one drawn magnitude and drawn row signs."""
    size = 1
    while size < n:
        size *= 2
    h = _sylvester(size, 1)._e
    m = draw(st.integers(1, 2**64))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return [signs[i] * m * h[i * size + j] for i in range(n) for j in range(n)]


@st.composite
def _integer_matrices(draw):
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(("random", "equal", "hadamard")))
    if kind == "random":
        entries = draw(st.lists(st.integers(-2**64, 2**64),
                                min_size=n * n, max_size=n * n))
    elif kind == "equal":
        entries = [draw(st.integers(-2**64, 2**64))] * (n * n)
    else:
        entries = _hadamard_pattern(draw, n)
    return Matrix(ZZ, n, n, entries)


@settings(max_examples=150, deadline=None)
@given(_integer_matrices())
def test_every_coefficient_is_within_the_bound(a):
    n = a.rows
    want = berkowitz(a)
    bound = _bound(a._e, n)
    assert all(abs(c) <= bound for c in want)
    assert charpoly_coefficients(a) == want
    if not n:
        return
    # and eliminated past the gate as well, at the W of the formula: the
    # kernel itself, as charpoly_coefficients takes closed forms at n <= 3
    w = _width(a)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix_mod, "MAX_CHARPOLY_BITS", n * w)
        seen = _spy_bareiss(patch)
        assert matrix_mod._integer_charpoly(a._e, n) == want
    assert seen == [(1 << w) - a._e[0]], a


def test_bare_mod_rings_keep_berkowitz(berkowitz_rings):
    for ring in (Z8, Z1):
        a = corpus(ring, "elim-mod", 1, 6)[0]
        charpoly(a)
        assert berkowitz_rings == [ring]
        berkowitz_rings.clear()
