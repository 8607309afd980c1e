"""Rational kernels on the integer lift, against oracles that never lift.

Over QQ, matmul and the D_k recursion clear denominators once
(B = L*A over ZZ), and det, charpoly and the adjugate row by row
(tests/test_row_scaled_lift.py); each divides at the end.  The oracles
here work on Fractions throughout: the subset-DP determinant, the
cofactor adjugate, the trace-recursion charpoly, and plain Fraction
sums for products.
"""

import random
from fractions import Fraction
from math import lcm, prod

import pytest

from helpers import coefficient_matrices_oracle
from routes import assert_no_element_arithmetic
from ringmat.charpoly import charpoly, charpoly_newton
from ringmat.matrix import (
    Matrix,
    _encode,
    berkowitz,
)
from ringmat.rings import QQ, ZZ

# seven-digit primes: pairwise coprime, so L is their product
PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117)


def _rat(rng, n, m, den):
    return Matrix(QQ, n, m, [Fraction(rng.randint(-9, 9), den(rng))
                             for _ in range(n * m)])


def _cases():
    rng = random.Random(1729)
    out = {
        "n0": Matrix(QQ, 0, 0, ()),
        "n1": Matrix(QQ, 1, 1, (Fraction(-7, 3),)),
        "zero4": Matrix.zeros(QQ, 4, 4),
        "integer-valued": _rat(rng, 5, 5, lambda r: 1),
        "negative": Matrix(QQ, 3, 3, [Fraction(-abs(rng.randint(1, 9)),
                                               rng.randint(1, 9))
                                      for _ in range(9)]),
    }
    for n in range(2, 11):
        out[f"small-den-n{n}"] = _rat(rng, n, n, lambda r: r.randint(1, 9))
    for n in (3, 5, 7):
        out[f"prime-den-n{n}"] = _rat(rng, n, n, lambda r: r.choice(PRIMES))
    return out


CASES = _cases()


def _lift(a: Matrix) -> tuple:
    """(B, L) with B = L*a over ZZ: the integer encoding of QQ that
    matmul, p(A) and the D_k take."""
    (ints,), ctx = _encode(QQ, (a._e,), None)
    return Matrix(ZZ, a.rows, a.cols, ints), prod(ctx[1])


def _fractions(m: Matrix) -> bool:
    return m.ring == QQ and all(type(v) is Fraction for v in m._e)


def test_lift_clears_denominators():
    a = Matrix(QQ, 2, 2, (Fraction(1, 2), Fraction(-2, 3),
                          Fraction(5), Fraction(1, 6)))
    b, scale = _lift(a)
    assert scale == 6
    assert b == Matrix(ZZ, 2, 2, (3, -4, 30, 1))
    assert _lift(Matrix(QQ, 0, 3, ()))[1] == 1
    for a in CASES.values():
        b, scale = _lift(a)
        assert scale == lcm(*[v.denominator for v in a._e])
        assert all(type(v) is int for v in b._e)
        assert [Fraction(v, scale) for v in b._e] == list(a._e)


def test_integer_valued_fractions_lift_with_L_one():
    a = CASES["integer-valued"]
    assert _lift(a)[1] == 1
    z = a.map_entries(int, ZZ)
    assert a.det() == z.det()
    assert a.adjugate()._e == z.adjugate()._e
    assert berkowitz(a) == berkowitz(z)


@pytest.mark.parametrize("label", list(CASES))
def test_kernels_match_fraction_oracles(label):
    a = CASES[label]
    n = a.rows
    det = a.det()
    assert type(det) is Fraction
    assert det == a.det_subset_dp()
    data = charpoly(a)
    assert all(type(v) is Fraction for v in data.c)
    newton = charpoly_newton(a)
    assert data.c == newton.c and data.chi == newton.chi
    adj = a.adjugate()
    assert _fractions(adj)
    if n <= 7:
        assert adj == a.adjugate_cofactor()
    scalar = Matrix.identity(QQ, n).scale(det)
    assert a @ adj == adj @ a == scalar
    if n:
        assert data.D[0] == (-adj if (n - 1) & 1 else adj)


@pytest.mark.parametrize("label", ["n1", "zero4", "negative", "small-den-n4",
                                   "prime-den-n3"])
def test_coefficient_matrices_match_polynomial_oracle(label):
    a = CASES[label]
    got = charpoly(a).D
    assert list(got) == coefficient_matrices_oracle(a)
    assert all(_fractions(d) for d in got)


@pytest.mark.parametrize("shape", [(3, 4, 2), (1, 1, 1), (2, 0, 3), (0, 2, 2),
                                   (5, 5, 5)])
def test_matmul_matches_fraction_sums(shape):
    n, k, m = shape
    rng = random.Random(str(shape))
    for den in (lambda r: 1, lambda r: r.randint(1, 9),
                lambda r: r.choice(PRIMES)):
        a, b = _rat(rng, n, k, den), _rat(rng, k, m, den)
        got = a @ b
        want = [sum((a.entry(i, t) * b.entry(t, j) for t in range(1, k + 1)),
                    Fraction(0))
                for i in range(1, n + 1) for j in range(1, m + 1)]
        assert list(got._e) == want
        assert _fractions(got) and (got.rows, got.cols) == (n, m)


def test_rational_kernels_do_no_fraction_arithmetic():
    rng = random.Random(8)
    assert_no_element_arithmetic(Matrix(QQ, 8, 8, [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(64)]))
