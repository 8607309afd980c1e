"""R[t] kernels on the Kronecker lift, against oracles that never pack.

Over Z[t], (Z/m)[t] and Q[t], matmul, berkowitz, the adjugate and the
D_k recursion pack each entry p into the integer p(2**w), run over ZZ
and unpack balanced base 2**w digits.  The oracles here do polynomial
arithmetic throughout: the subset-DP determinant, the cofactor
adjugate, det(t*I - A) by the subset DP over R[t][u], the trace-recursion
charpoly over Q[t], a triple-loop matmul and a plain Horner recursion.
"""

import random
from fractions import Fraction

import pytest

from helpers import coefficient_matrices_oracle, plain_horner, plain_matmul
from ringmat.charpoly import CharPolyData, charpoly, charpoly_newton
from ringmat.matrix import (
    Matrix,
    adjugate_coefficients,
    berkowitz,
    char_matrix,
)
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import QQ, ZZ, ModRing

BASES = {
    "int": ZZ,
    "mod1": ModRing(1),
    "mod2": ModRing(2),
    "mod6": ModRing(6),
    "mod8": ModRing(8),
    "mod2^61-1": ModRing(2**61 - 1),
    "rat": QQ,
}
BIG = 10**60


def _poly(rng, base, digits=False):
    """A random element of base[t]: degree -1..3, coefficients of both
    signs, 60 digits long when digits is set."""
    top = BIG if digits else 9
    coeffs = []
    for _ in range(rng.randint(0, 4)):
        v = rng.randint(-top, top)
        if base == QQ:
            v = Fraction(v, rng.randint(1, 12))
        coeffs.append(base.coerce(v))
    return Polynomial(base, coeffs)


def _matrix(rng, base, n, m, **kw):
    ring = PolynomialRing(base)
    return Matrix(ring, n, m, [_poly(rng, base, **kw) for _ in range(n * m)])


def _cases(base):
    rng = random.Random(f"kronecker-{base!r}")
    ring = PolynomialRing(base)
    out = {
        "n0": Matrix(ring, 0, 0, ()),
        "zero4": Matrix.zeros(ring, 4, 4),
        "big3": _matrix(rng, base, 3, 3, digits=True),
        "negative3": Matrix(ring, 3, 3, [
            Polynomial(base, [base.coerce(-rng.randint(1, 9))
                              for _ in range(rng.randint(1, 3))])
            for _ in range(9)]),
    }
    for n in range(1, 8):
        out[f"n{n}"] = _matrix(rng, base, n, n)
    return out


CASES = [(label, name, a) for label, base in BASES.items()
         for name, a in _cases(base).items()]
IDS = [f"{label}-{name}" for label, name, _ in CASES]


def _charpoly_oracle(a):
    """c_0..c_n of det(t*I - a) by the subset DP over R[t][u]."""
    chi = char_matrix(a).det_subset_dp()
    n = a.rows
    return [chi.coeff(n - j) for j in range(n + 1)]


@pytest.mark.parametrize("label,name,a", CASES, ids=IDS)
def test_kernels_match_polynomial_oracles(label, name, a):
    n = a.rows
    det = a.det()
    assert det == a.det_subset_dp()
    data = charpoly(a)
    assert list(data.c) == berkowitz(a)
    if n <= 5:
        assert list(data.c) == _charpoly_oracle(a)
    if BASES[label] == QQ:
        assert data.c == charpoly_newton(a).c
    adj = a.adjugate()
    if n <= 5 or name == "n7" and label in ("int", "mod8"):
        assert adj == a.adjugate_cofactor()
    assert a @ adj == adj @ a == Matrix.identity(a.ring, n).scale(det)
    if n:
        assert data.D[0] == (-adj if (n - 1) & 1 else adj)
    if n <= 4:
        assert list(data.D) == coefficient_matrices_oracle(a)
    assert a @ a == plain_matmul(a, a)


@pytest.mark.parametrize("shape", [(3, 4, 2), (1, 1, 1), (2, 0, 3), (0, 2, 2),
                                   (3, 1, 0), (5, 5, 5)])
@pytest.mark.parametrize("label", list(BASES))
def test_matmul_matches_triple_loop(shape, label):
    n, k, m = shape
    base = BASES[label]
    rng = random.Random(f"{shape}-{label}")
    for digits in (False, True):
        a = _matrix(rng, base, n, k, digits=digits)
        b = _matrix(rng, base, k, m, digits=digits)
        got = a @ b
        assert got == plain_matmul(a, b)
        assert (got.rows, got.cols) == (n, m)


def test_product_width_covers_the_inner_dimension():
    # every coefficient of the product reaches k * N_A * N_B exactly
    ring = PolynomialRing(ZZ)
    top = 2**64 - 1
    for k in (1, 2, 3, 5, 8):
        a = Matrix(ring, 2, k, [ring.coerce([0, top])] * (2 * k))
        b = Matrix(ring, k, 2, [ring.coerce([-top])] * (2 * k))
        assert (a @ b)._e == (ring.coerce([0, -k * top * top]),) * 4


def test_results_are_canonical_polynomials():
    rng = random.Random(5)
    for label, base in BASES.items():
        a = _matrix(rng, base, 4, 4)
        for p in list((a @ a)._e) + list(a.adjugate()._e) + berkowitz(a):
            assert p.ring == base
            assert not p.coeffs or not base.is_zero(p.coeffs[-1])
            want = Fraction if base == QQ else int
            assert all(type(v) is want for v in p.coeffs), label
            if isinstance(base, ModRing):
                assert all(0 <= v < base.m for v in p.coeffs)


@pytest.mark.parametrize("label", ["int", "mod8", "mod2^61-1", "rat"])
def test_coefficient_matrices_with_a_foreign_c(label):
    # the D_k come from a alone: a hand-built record holding a foreign c
    # still gets the plain Horner sum on berkowitz(a)
    base = BASES[label]
    ring = PolynomialRing(base)
    rng = random.Random(f"foreign-{label}")
    for n in (1, 2, 4, 6):
        a = _matrix(rng, base, n, n, digits=True)
        want = plain_horner(a, berkowitz(a))
        assert adjugate_coefficients(a) == want
        c = [ring.one()] + [_poly(rng, base, digits=True) for _ in range(n)]
        data = CharPolyData(n=n, chi=Polynomial(ring, c[::-1]), c=tuple(c),
                            matrix=a)
        assert list(data.D) == want


def test_coefficient_bound_follows_the_horner_steps():
    # adj(t*I - J) = t**(n-2) * ((t - n) * I + J) for the all-ones J, as
    # J @ J = n * J: D_(n-1) = I, D_(n-2) = J - n * I, every other D_k 0
    n = 40
    ring = PolynomialRing(ZZ)
    j = Matrix(ring, n, n, [ring.one()] * (n * n))
    eye = Matrix.identity(ring, n)
    want = [Matrix.zeros(ring, n, n)] * (n - 2) + [j - eye.scale(n), eye]
    assert adjugate_coefficients(j) == want


def test_adjugate_width_covers_the_factorial():
    # A = diag(H, 1) with H the 8 x 8 Sylvester Hadamard matrix, so N = 1
    # and adj(A) = diag(8**4 * H**-1, det H) = diag(512 * H, 4096): above
    # (N + 1)**9 = 512, so the width needs the n! of the fit
    ring = PolynomialRing(ZZ)
    h = [[(-1) ** (i & j).bit_count() for j in range(8)] for i in range(8)]
    a = Matrix.from_rows(ring, [r + [0] for r in h] + [[0] * 8 + [1]])
    want = Matrix.from_rows(ring, [[512 * v for v in r] + [0] for r in h]
                            + [[0] * 8 + [4096]])
    assert a.adjugate() == want
    assert adjugate_coefficients(a)[0] == want


class _CountingRT(PolynomialRing):
    """R[t] that counts the element ops the matrix kernels could call."""

    def __init__(self, base):
        super().__init__(base)
        self.calls = {"add": 0, "mul": 0, "sub": 0, "dot": 0}

    def add(self, a, b):
        self.calls["add"] += 1
        return super().add(a, b)

    def mul(self, a, b):
        self.calls["mul"] += 1
        return super().mul(a, b)

    def sub(self, a, b):
        self.calls["sub"] += 1
        return super().sub(a, b)

    def dot(self, xs, ys):
        self.calls["dot"] += 1
        return super().dot(xs, ys)


@pytest.mark.parametrize("label", ["int", "mod8", "rat"])
def test_kernels_do_no_polynomial_arithmetic(label):
    base = BASES[label]
    ring = _CountingRT(base)
    rng = random.Random(6)
    a = Matrix(ring, 6, 6, _matrix(rng, base, 6, 6)._e)
    values = (a.det(), charpoly(a), charpoly(a).D, a.adjugate(), a @ a)
    assert ring.calls == {"add": 0, "mul": 0, "sub": 0, "dot": 0}
    # the same values as over the plain ring
    plain = Matrix(PolynomialRing(base), 6, 6, a._e)
    assert values[0] == plain.det_subset_dp()
    assert values[3]._e == plain.adjugate_cofactor()._e
    assert values[4]._e == plain_matmul(plain, plain)._e
