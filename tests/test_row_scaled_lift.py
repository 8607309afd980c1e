"""det, charpoly and adj over a QQ base on the row-scaled integer lift.

Over QQ and the towers over QQ, det(), charpoly_coefficients() and
adjugate() scale each row of A by r_i, the lcm of that row's coefficient
denominators: B = D*A with D = diag(r_i) over ZZ.  Then
det(A) = det(B) / det D, det D * c_j(A) are the coefficients of
det(x*D - B), and adj(A) = (adj(B) @ D) / det D.  The widths come from
the rows: W = bit_length(prod_i (r_i + ceil(||B_i||))) + 1 for the
charpoly digit, and Hadamard's bound on an (n-1) x (n-1) minor times
max r_i for the adjugate's slots.  This holds at every n; matmul, p(A)
and the D_k take the same rule with the whole part as its one row.  The
oracles never lift: det_subset_dp(), berkowitz() and adjugate_cofactor()
run on Fractions and Polynomials.
"""

import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

import ringmat.matrix as matrix_mod
from routes import charpoly_width, solve_width
from ringmat.matrix import (
    Matrix,
    _adjugate_fit,
    _encode,
    _minors_fit,
    berkowitz,
    charpoly_coefficients,
)
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import QQ, ZZ

QT = PolynomialRing(QQ)


def _lift_rows(a):
    """(B, [r_1, ..., r_n]) with B = D*a over ZZ, a over QQ."""
    (ints,), ctx = _encode(QQ, (a._e,), None, a.cols)
    return Matrix(ZZ, a.rows, a.cols, ints), ctx[1]


def _top_of_slot(values, w):
    """Some value needs the top bit of a balanced w-bit digit."""
    half = 1 << (w - 2)
    return any(not -half <= v < half for v in values)


def test_rows_lift_clears_each_rows_denominators():
    a = Matrix(QQ, 2, 2, (Fraction(1, 2), Fraction(-2, 3),
                          Fraction(5), Fraction(1, 6)))
    b, scales = _lift_rows(a)
    assert scales == [6, 6]
    assert b == Matrix(ZZ, 2, 2, (3, -4, 30, 1))
    a = Matrix(QQ, 3, 2, (Fraction(1, 4), Fraction(1, 2), Fraction(7),
                          Fraction(-3), Fraction(0), Fraction(2, 9)))
    b, scales = _lift_rows(a)
    assert scales == [4, 1, 9]
    assert b == Matrix(ZZ, 3, 2, (1, 2, 7, -3, 0, 2))
    rng = random.Random("rows-lift")
    for n in range(1, 8):
        a = Matrix(QQ, n, n, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                              for _ in range(n * n)])
        b, scales = _lift_rows(a)
        for i in range(n):
            row = a.row_list(i + 1)
            assert scales[i] == lcm(*[v.denominator for v in row])
            assert b.row_list(i + 1) == [v * scales[i] for v in row]
    # over Q[t] a row's scale covers every coefficient of its entries
    a = Matrix(QT, 2, 2, [Polynomial(QQ, [Fraction(1, 2), Fraction(1, 3)]),
                          Polynomial(QQ, [Fraction(5)]),
                          Polynomial(QQ, [Fraction(0), Fraction(1, 7)]),
                          Polynomial(QQ, [])])
    _, ctx = _encode(QT, (a._e,), _minors_fit(2), 2)
    assert ctx[1] == [6, 7]


def _entry(draw, ring, kind):
    """One entry of a row of this kind: small (den <= 9), zero, integer
    (den 1) or huge (den up to 10**40)."""
    def scalar():
        if kind == "zero":
            return Fraction(0)
        top = {"small": 9, "integer": 1, "huge": 10**40}[kind]
        return Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, top)))
    if ring == QQ:
        return scalar()
    return Polynomial(QQ, [scalar() for _ in range(draw(st.integers(0, 2)))])


@st.composite
def _matrices(draw, ring, nmax):
    """n x n over ring, n <= nmax: each row small, zero, integer-valued or
    (at most one) with huge denominators; then full rank or not, rank
    n - 1 (the last row a combination of the others) or rank <= n - 2."""
    n = draw(st.integers(0, nmax))
    kinds = draw(st.lists(st.sampled_from(("small", "zero", "integer")),
                          min_size=n, max_size=n))
    if n and draw(st.booleans()):
        kinds[draw(st.integers(0, n - 1))] = "huge"
    rows = [[_entry(draw, ring, k) for _ in range(n)] for k in kinds]
    rank = draw(st.sampled_from(("any", "n-1", "n-2")))
    dependent = {"any": 0, "n-1": 1, "n-2": 2}[rank]
    for i in range(max(n - dependent, 0), n):
        mix = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
               for _ in range(n - dependent)]
        rows[i] = [sum((ring.mul(ring.coerce(c), r[j])
                        for c, r in zip(mix, rows)), ring.zero())
                   for j in range(n)]
    return Matrix.from_rows(ring, rows) if n else Matrix(ring, 0, 0, ())


def _check(a):
    """det, charpoly and adj against the oracles."""
    assert (a.det(), charpoly_coefficients(a), a.adjugate()) == (
        a.det_subset_dp(), berkowitz(a), a.adjugate_cofactor())


def _denominators(v):
    """The denominators of a QQ or Q[t] entry's coefficients."""
    return [v.denominator] if isinstance(v, Fraction) else [
        c.denominator for c in v.coeffs]


def _distinct_rows(rng, ring, n):
    """n x n over QQ or Q[t], num in [-9, 9] and den in [1, 9], but with
    1/7 in entry (1, 1) and, for n > 1, an integer-valued last row: its
    r_n = 1 differs from the whole matrix's L."""
    def scalar(i, j):
        if i == j == 0:
            return Fraction(1, 7)
        return Fraction(rng.randint(-9, 9),
                        1 if i == n - 1 else rng.randint(1, 9))

    def entry(i, j):
        if ring == QQ:
            return scalar(i, j)
        return Polynomial(QQ, [scalar(i, j), scalar(i, j)])
    return Matrix(ring, n, n, [entry(i, j) for i in range(n)
                               for j in range(n)])


def test_every_square_lift_scales_each_row():
    # at every n the square kernels' lift takes each row's own lcm, over
    # QQ and Q[t], where one L for the whole matrix differs on a row
    rng = random.Random("rows-every-n")
    for ring in (QQ, QT):
        for n in range(1, 8):
            a = _distinct_rows(rng, ring, n)
            rows = [lcm(*[d for v in a.row_list(i + 1)
                          for d in _denominators(v)]) for i in range(n)]
            assert n == 1 or rows[-1] == 1 < rows[0], (ring, n)
            (ints,), ctx = _encode(ring, (a._e,), _minors_fit(n), n)
            assert ctx[1] == rows, (ring, n)
            if ring == QQ:
                assert ints == [v * r for r, i in zip(rows, range(0, n * n, n))
                                for v in a._e[i:i + n]]
            _check(a)


def test_empty_and_single_row_parts():
    # 0 x 0, an empty part and a 1 x k part: no row, or the one row
    assert _lift_rows(Matrix(QQ, 0, 0, ())) == (Matrix(ZZ, 0, 0, ()), [1])
    for ring in (QQ, QT):
        assert _encode(ring, ((),), _minors_fit(0))[1][1] == [1]
        assert _encode(ring, ((), ()), _minors_fit(0))[1][1] == [1, 1]
    row = Matrix(QQ, 1, 3, (Fraction(1, 4), Fraction(-5, 6), Fraction(2)))
    for cols in (0, 3):
        (ints,), ctx = _encode(QQ, (row._e,), None, cols)
        assert (ints, ctx[1]) == ([3, -10, 24], [12])
    b, scales = _lift_rows(Matrix(QQ, 1, 1, (Fraction(-7, 3),)))
    assert (b._e, scales) == ((-7,), [3])


@settings(max_examples=150, deadline=None)
@given(_matrices(QQ, 7))
def test_rational_kernels_match_the_oracles(a):
    _check(a)


@settings(max_examples=40, deadline=None)
@given(_matrices(QT, 7))
def test_rational_polynomial_kernels_match_the_oracles(a):
    _check(a)


def _diagonal(scales):
    """diag(1 / r_i): B = I, so det(x*D - B) = prod (r_i * x - 1), whose
    top coefficient det D is at the top of W's slot when the r_i are a
    little above powers of 2, as W reads prod (r_i + 1)."""
    n = len(scales)
    return Matrix(QQ, n, n, [Fraction(1, scales[i]) if i == j else Fraction(0)
                             for i in range(n) for j in range(n)])


def _sylvester_rows(m, scales):
    """m * H / r_i row by row, H the 4 x 4 Sylvester-Hadamard matrix and m
    prime to every r_i: B = m * H, whose det is the product of its row
    norms."""
    h = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    return Matrix(QQ, 4, 4, [Fraction(m * v, r) for r, row in zip(scales, h)
                             for v in row])


@pytest.mark.parametrize("a", [
    _diagonal([9]), _diagonal([9, 17]), _diagonal([2**40 + 1, 9, 2**20 + 3]),
    _diagonal([10**12 + 39] * 4), _sylvester_rows(2**20 + 1, [1, 1, 1, 1]),
    _sylvester_rows(2**30 + 1, [3, 1, 1, 1]),
    _sylvester_rows(2**40 - 1, [1, 2, 1, 1])],
    ids=["d1", "d2", "d3", "d4", "h-r1", "h-r3", "h-r2"])
def test_a_charpoly_digit_at_the_top_of_its_slot_decodes(a, berkowitz_rings,
                                                        monkeypatch):
    # det D * c_j as balanced base 2**W digits, one of them needing the
    # top bit: a W one bit short, or one without the r_i, reads it wrong
    b, scales = _lift_rows(a)
    n = a.rows
    w = charpoly_width(b._e, n, scales)
    got = charpoly_coefficients(a)
    assert berkowitz_rings == []
    assert got == berkowitz(a)
    digits = [c * prod(scales) for c in got]
    assert all(d.denominator == 1 for d in digits)
    assert _top_of_slot([int(d) for d in digits], w)
    # the kernel itself (closed forms take n <= 2) eliminates at that W:
    # the diagonal handed to _bareiss is r_i * 2**W - b_ii
    seen, real = [], matrix_mod._bareiss
    monkeypatch.setattr(matrix_mod, "_bareiss",
                        lambda e, k: seen.append(e[0]) or real(e, k))
    assert matrix_mod._integer_charpoly(b._e, n, scales) == [
        int(d) for d in digits]
    assert seen == [(scales[0] << w) - b._e[0]]


@pytest.mark.parametrize("k", [3, 10, 31])
@pytest.mark.parametrize("scale", [1, 5, 2**61 + 1])
def test_an_adjugate_slot_at_the_top_decodes(k, scale, horners):
    # rows (m, m, 0), (-m, m, 0), (0, 0, 1/r) with m = 2**k: adj(B) @ D
    # has 2 * m**2 * r in its last slot, and Hadamard's bound on a 2 x 2
    # minor, sqrt(2 * m**2 * 2 * m**2) = 2 * m**2, times r = max r_i puts
    # that in the top bit of w; without the r it would carry into the
    # next slot
    m = 2**k
    a = Matrix(QQ, 3, 3, [m, m, 0, -m, m, 0, 0, 0, Fraction(1, scale)])
    b, scales = _lift_rows(a)
    assert scales == [1, 1, scale]
    adj = a.adjugate()
    assert horners[0] == 0
    assert adj == a.adjugate_cofactor()
    x = [v * prod(scales) for v in adj._e]     # adj(B) @ D
    assert all(v.denominator == 1 for v in x)
    assert x[-1] == 2 * m * m * scale
    assert _top_of_slot(x, solve_width(b._e, 3, scales))
    # the same over ZZ, where every r_i is 1
    z = Matrix(ZZ, 3, 3, [m, m, 0, -m, m, 0, 0, 0, 1])
    horners[0] = 0
    assert z.adjugate() == z.adjugate_cofactor()
    assert horners[0] == 0
    assert _top_of_slot(z.adjugate()._e, solve_width(z._e, 3, [1]))


@pytest.mark.parametrize("scale", [3, 2**20 + 7, 10**30 + 57])
def test_tower_fits_bound_the_row_scales(scale):
    # over Q[t], det(x*D - B) of (1 / r) has r as its top coefficient and
    # adj(B) @ D of diag(1 / r, 1) has r in a slot, with every entry of B
    # of norm 1: the fits' r term alone sizes their widths
    one = Matrix(QT, 1, 1, [QT.coerce(Fraction(1, scale))])
    assert charpoly_coefficients(one) == berkowitz(one)
    _, ctx = _encode(QT, (one._e,), _minors_fit(1), 1)
    assert ctx[2] == scale.bit_length() + 1
    two = Matrix(QT, 2, 2, [QT.coerce(Fraction(1, scale)), QT.zero(),
                            QT.zero(), QT.one()])
    assert two.adjugate() == two.adjugate_cofactor()
    assert two.det() == two.det_subset_dp()
    _, ctx = _encode(QT, (two._e,), _adjugate_fit(2), 2)
    assert ctx[2] == scale.bit_length() + 1


def test_wide_rows_fall_back_with_their_scales(berkowitz_rings, horners):
    # a row with 10**40 denominators puts n * W past the gate: berkowitz()
    # runs on the integers L * A, L = lcm(r_i), and its c_j are rescaled
    # to det D * c_j; a zero first column sends the adjugate to the chain,
    # whose adj(B) is then scaled column by column
    rng = random.Random("rows-fallback")
    for n in (3, 5, 7):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(n)] for _ in range(n)]
        rows[1] = [Fraction(rng.randint(1, 9), rng.randint(10**39, 10**40))
                   for _ in range(n)]
        a = Matrix.from_rows(QQ, rows)
        berkowitz_rings.clear()
        assert charpoly_coefficients(a) == berkowitz(a)
        assert berkowitz_rings == [ZZ]
        for r in rows:
            r[0] = Fraction(0)
        a = Matrix.from_rows(QQ, rows)
        horners[0] = 0
        assert a.adjugate() == a.adjugate_cofactor()
        assert horners[0] == 1
        assert a.det() == a.det_subset_dp() == 0
    # n <= 2 always takes the chain
    for rows in ([[Fraction(2, 3)]],
                 [[Fraction(1, 2), Fraction(3)], [Fraction(-5, 7), Fraction(1, 9)]]):
        a = Matrix.from_rows(QQ, rows)
        assert a.adjugate() == a.adjugate_cofactor()
