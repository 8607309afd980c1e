"""det by Bareiss elimination over Z and every lifted ring.

Over ZZ with n >= 4, Matrix.det() runs _bareiss on the entries; over QQ
and every tower that _encode accepts it runs _bareiss on the integer
encoding at the fit of c_n from n = 3.  Over bare Z/m, towers above
MAX_SLOTS and integers (or encodings) with an entry wider than
MAX_BAREISS_BITS it keeps (-1)**n * c_n of berkowitz().  Smaller
matrices take the closed forms (test_closed_forms.py).  The oracles are the column-subset DP and
the Leibniz sum, and the pivots below are forced to zero on purpose.
"""

import random

import pytest

from helpers import RINGS8, Z1, Z8, ZT
from routes import upper
from ringmat.charpoly import charpoly
from ringmat.fuzz import sample_matrix, stream
from ringmat.matrix import (
    MAX_BAREISS_BITS,
    Matrix,
    _bareiss,
    _encode,
    _minors_fit,
    berkowitz,
)
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import QQ, ZZ

QT = PolynomialRing(QQ)
Z8T = PolynomialRing(Z8)
ZTU = PolynomialRing(ZT)


def _int_matrix(rows):
    return Matrix.from_rows(ZZ, rows)


def _swapped(rows, swaps):
    rows = [list(r) for r in rows]
    for i, j in swaps:
        rows[i], rows[j] = rows[j], rows[i]
    return rows


@pytest.mark.parametrize("label,ring", RINGS8, ids=[r[0] for r in RINGS8])
def test_det_matches_the_oracles(label, ring):
    for n in range(9):
        for i in range(3):
            a = sample_matrix(stream(11, "bareiss", label, n, i), ring, n, n)
            det = a.det()
            assert det == a.det_subset_dp(), (label, n, i)
            if n <= 6:
                assert det == a.det_leibniz(), (label, n, i)


@pytest.mark.parametrize("n", range(2, 9))
def test_a_zero_pivot_at_each_step_forces_a_swap(n):
    # rows k and j > k of an upper triangular U exchanged: the leading
    # (k+1) x (k+1) minor is 0, so step k meets a zero pivot, finds its
    # row j - k places down (the rows between are 0 in column k) and
    # flips the sign once
    rng = random.Random(f"swap-{n}")
    for k in range(n - 1):
        for j in range(k + 1, n):
            u = upper(rng, n)
            a = _int_matrix(_swapped(u, [(k, j)]))
            assert a.det() == -_int_matrix(u).det() == a.det_subset_dp()
            assert a.det() != 0


@pytest.mark.parametrize("n", range(2, 9))
def test_odd_and_even_swap_counts(n):
    # rotating the rows by s places is a permutation of sign
    # (-1)**(s * (n - s)), and disjoint or chained transpositions give
    # odd and even swap counts the elimination must add up
    rng = random.Random(f"rotate-{n}")
    for shift in range(1, n):
        u = upper(rng, n)
        a = _int_matrix(u[shift:] + u[:shift])
        sign = -1 if shift * (n - shift) & 1 else 1
        assert a.det() == sign * _int_matrix(u).det() == a.det_subset_dp()
    for swaps in ([(0, 1), (2, 3)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 3)]):
        if max(map(max, swaps)) < n:
            u = upper(rng, n)
            a = _int_matrix(_swapped(u, swaps))
            sign = -1 if len(swaps) & 1 else 1
            assert a.det() == sign * _int_matrix(u).det() == a.det_subset_dp()


def test_zero_columns_and_rank_deficiency_give_zero():
    rng = random.Random("deficient")
    for n in range(1, 9):
        for col in range(n):
            rows = [[0 if j == col else rng.randint(-9, 9) for j in range(n)]
                    for _ in range(n)]
            assert _int_matrix(rows).det() == 0
        if n >= 2:
            rows = [[rng.randint(-9, 9) for _ in range(n)]
                    for _ in range(n - 1)]
            # the last row a sum of the others: every pivot but the last
            # is nonzero (generically), the last update lands on 0
            rows.append([sum(c) for c in zip(*rows)])
            a = _int_matrix(rows)
            assert a.det() == a.det_subset_dp() == 0
        if n >= 3:
            # rank <= 2, a product of n x 2 and 2 x n factors
            low = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(n)]
            high = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(2)]
            b = _int_matrix(low) @ _int_matrix(high)
            assert b.det() == b.det_subset_dp() == 0


def test_sign_matrices_hit_many_zero_pivots():
    # +-1 entries: after one step every entry is 0 or +-2, so later
    # pivots are 0 about half the time
    rng = random.Random("signs")
    for n in range(1, 9):
        for _ in range(20):
            a = Matrix(ZZ, n, n, [rng.choice((-1, 1)) for _ in range(n * n)])
            assert a.det() == a.det_subset_dp()
            if n <= 6:
                assert a.det() == a.det_leibniz()


def test_wide_entries():
    rng = random.Random("wide")
    big = 10**60
    for n in range(1, 8):
        a = Matrix(ZZ, n, n, [rng.randint(-big, big) for _ in range(n * n)])
        det = a.det()
        assert det == a.det_subset_dp()
        assert det == (-1) ** n * berkowitz(a)[-1]


def test_rational_polynomial_entries():
    rng = random.Random("qt")
    for n in range(5):
        a = sample_matrix(stream(5, "qt", n), QT, n, n, poly_degree=2)
        assert a.det() == a.det_subset_dp()
        entries = [Polynomial(QQ, [QQ.coerce(rng.randint(-9, 9)) / rng.randint(1, 9)
                                   for _ in range(3)]) for _ in range(n * n)]
        b = Matrix(QT, n, n, entries)
        assert b.det() == b.det_subset_dp()


def test_small_cases_of_the_elimination():
    assert _bareiss((0,), 1) == 0
    assert _bareiss((-7,), 1) == -7
    assert _bareiss((0, 1, 1, 0), 2) == -1
    assert _bareiss((0, 1, 0, 1), 2) == 0
    assert _bareiss((0, 0, 1, 0, 1, 0, 1, 0, 0), 3) == -1


def _sparse_deep_tower():
    # 3 x 3 over Z[t][u] with t- and u-degree 20: det would take 61 * 61
    # slots, above MAX_SLOTS (a 2 x 2 one takes the closed form)
    t = Polynomial(ZZ, [0] * 20 + [1])
    u = Polynomial(ZT, [ZT.zero()] * 20 + [ZT.one()])
    zero, one = ZTU.zero(), ZTU.one()
    return Matrix(ZTU, 3, 3, [ZTU.add(u, Polynomial(ZT, [t])), one, zero,
                              one, u, zero,
                              zero, one, u])


def _route_cases():
    rng = stream(3, "route")
    yield "int", 0, sample_matrix(rng, ZZ, 5, 5)
    yield "rat", 0, sample_matrix(rng, QQ, 5, 5)
    yield "poly", 0, sample_matrix(rng, ZT, 4, 4)
    yield "poly-mod8", 0, sample_matrix(rng, Z8T, 4, 4)
    yield "poly-poly", 0, sample_matrix(rng, ZTU, 3, 3)
    yield "poly-rat", 0, sample_matrix(rng, QT, 4, 4)
    yield "mod8", 1, sample_matrix(rng, Z8, 5, 5)
    yield "mod1", 1, sample_matrix(rng, Z1, 5, 5)
    yield "deep", 1, _sparse_deep_tower()


@pytest.mark.parametrize("label,calls,a", list(_route_cases()),
                         ids=[c[0] for c in _route_cases()])
def test_det_routes_by_ring(berkowitz_rings, label, calls, a):
    assert a.det() == a.det_subset_dp()
    assert len(berkowitz_rings) == calls, (label, berkowitz_rings)


def test_wide_entries_take_berkowitz(berkowitz_rings):
    # up to MAX_BAREISS_BITS bits det eliminates; one bit more and it
    # takes c_n, over ZZ and on a tower's encoding alike (n <= 3 over ZZ
    # takes the closed form)
    rng = random.Random("bits")
    for bits, calls in ((MAX_BAREISS_BITS, 0), (MAX_BAREISS_BITS + 1, 1)):
        for n in range(4, 9):
            entries = [rng.randint(-9, 9) for _ in range(n * n)]
            entries[rng.randrange(n * n)] = rng.choice((-1, 1)) * (2**bits - 1)
            a = Matrix(ZZ, n, n, entries)
            assert a.det() == a.det_subset_dp()
            assert len(berkowitz_rings) == calls, (bits, n)
            berkowitz_rings.clear()
    # 3 x 3 over Q[t]: one 600-bit numerator packs wider than the bound
    a = Matrix.from_rows(QT, [[Polynomial(QQ, [QQ.coerce(v) for v in row])
                               for row in rows] for rows in (
        [[2**600, 1], [3], [1, 0, 1]], [[5], [-1, 2], [7]], [[1], [1], [-4]])])
    assert a.det() == a.det_subset_dp()
    assert berkowitz_rings == [ZZ]


def test_the_deep_case_is_above_the_slot_bound():
    a = _sparse_deep_tower()
    assert _encode(a.ring, (a._e,), _minors_fit(3)) is None


@pytest.mark.parametrize("ring", [ZT, ZTU, QT], ids=["poly", "poly-poly", "poly-rat"])
def test_det_width_is_not_a_bit_too_short(ring):
    # [[N, -N], [N, N]] with N = 2**k has det = c_2 = 2 * N**2 =
    # 2**(2k+1), which meets the c_n fit 2! * N**2 and so needs every
    # bit of its width; one bit less wraps it
    for k in (3, 10, 40):
        big = 2 ** k
        a = Matrix.from_rows(ring, [[_const(ring, big), _const(ring, -big)],
                                    [_const(ring, big), _const(ring, big)]])
        assert a.det() == _const(ring, 2 * big * big)
        assert charpoly(a).c[2] == _const(ring, 2 * big * big)
        # n = 2 takes the closed form, n = 3 still lifts: rows of +-N with
        # det 4 * N**3 = 2**(3k+2), the top of a slot one bit short of the
        # fit 3! * N**3, and with two rows swapped c_3 = 4 * N**3
        signs = ((1, 1, 1), (1, -1, 1), (1, 1, -1))
        p, q = (Matrix.from_rows(ring, [[_const(ring, s * big) for s in r]
                                        for r in rows])
                for rows in (signs, (signs[1], signs[0], signs[2])))
        assert p.det() == _const(ring, 4 * big ** 3)
        assert charpoly(q).c[3] == _const(ring, 4 * big ** 3)


def _const(ring, v):
    return ring.from_int(v)


def test_adjugate_width_of_a_mod8_tower():
    # 4 x 4 over (Z/8)[t], every entry 7 + 7t: norm 14 as integers, so
    # the adjugate's slots hold 3! * 14**3 = 16464 in w = 16 bits, and
    # those of c_n and det 4! * 14**4 = 921984 in w = 21, where
    # 4! * (14 + 1)**4 took 22
    a = Matrix(Z8T, 4, 4, [Polynomial(Z8, [7, 7])] * 16)
    _, ctx = _encode(Z8T, (a._e,), _minors_fit(3))
    assert ctx[2] == 16
    assert a.adjugate() == a.adjugate_cofactor()
    _, ctx = _encode(Z8T, (a._e,), _minors_fit(4))
    assert ctx[2] == 21
    assert a.det() == a.det_subset_dp()
    assert charpoly(a).c[4] == a.det_subset_dp()


@pytest.mark.parametrize("ring", [ZT, ZTU, QT], ids=["poly", "poly-poly", "poly-rat"])
def test_adjugate_width_is_not_a_bit_too_short(ring):
    # adj of [[N, 0], [0, 1]] is [[1, 0], [0, N]]: with N = 2**k the
    # bound (n-1)! * N**(n-1) = N is met, so the width one bit short
    # reads N back as -N
    for k in (3, 10, 40):
        big = 2 ** k
        a = Matrix.from_rows(ring, [[_const(ring, big), _const(ring, 0)],
                                    [_const(ring, 0), _const(ring, 1)]])
        want = Matrix.from_rows(ring, [[_const(ring, 1), _const(ring, 0)],
                                       [_const(ring, 0), _const(ring, big)]])
        assert a.adjugate() == want
        d = charpoly(a).D
        assert d[0] == -want
        assert d[1] == Matrix.identity(ring, 2)
        # D_0 above holds -N, which balanced digits read back a bit
        # short; at n = 3, D_0 = adj, and [[1, 0, 0], [0, N, -N],
        # [0, N, N]] has adj_11 = 2 * N**2, the bound 2! * N**2 itself
        c = [_const(ring, v) for v in (0, 1, big, -big)]
        b = Matrix.from_rows(ring, [[c[1], c[0], c[0]], [c[0], c[2], c[3]],
                                    [c[0], c[2], c[2]]])
        d = charpoly(b).D
        assert d[0].entry(1, 1) == _const(ring, 2 * big * big)
        assert d[0] == b.adjugate_cofactor() == b.adjugate()
