"""One definition each for the arithmetic routines several callers share.

rings.power serves Ring.pow and Matrix.__pow__: binary powering from the
top bit, popcount(k) + bit_length(k) - 2 products for k >= 1 and the
empty product, built without a product, only at k = 0.  poly._dot is
both Polynomial.__mul__ and PolynomialRing.dot.  matrix.row_mixed builds
the row-mixed determinants of the trace-multinomial, row-replacement and
derivation checks, and matrix.row_replacement_sum is the sum of the last
two.  matrix.powers is the power list of the coefficient-family and
trace-multinomial checks, and of power_traces, which lists the powers
of its lift only up to ceil(m/2) (test_lifted_powers.py).  Each is
pinned here against an independent oracle.
"""

from __future__ import annotations

import pytest

from helpers import RINGS8, Z8, plain_matmul
from routes import counting
from ringmat.charpoly import power_traces
from ringmat.fuzz import sample_element, sample_matrix, stream
from ringmat.matrix import Matrix, powers, row_mixed, row_replacement_sum
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import QQ, ZZ, ShapeError


# a counting ring and a fixed element of it
RINGS = {
    "int": (lambda: counting(ZZ), lambda R: 3),
    "mod8": (lambda: counting(Z8), lambda R: 3),
    "rat": (lambda: counting(QQ), lambda R: R.coerce(-3) / 2),
    "poly-mod8": (lambda: counting(PolynomialRing(Z8)),
                  lambda R: Polynomial.of(Z8, [1, 3, 2])),
}


def _ring_and_element(label):
    make, element = RINGS[label]
    ring = make()
    return ring, element(ring)


def _expected_products(k: int) -> int:
    return bin(k).count("1") + k.bit_length() - 2


@pytest.mark.parametrize("label", list(RINGS))
def test_ring_pow_takes_the_least_binary_product_count(label):
    ring, a = _ring_and_element(label)
    plain = a
    for k in range(1, 41):
        ring.calls.clear()
        got = ring.pow(a, k)
        assert (ring.calls["mul"], ring.calls["one"]) == (
            _expected_products(k), 0), k
        assert got == plain, k
        plain = ring.mul(plain, a)


@pytest.mark.parametrize("label", list(RINGS))
def test_ring_pow_edges(label):
    ring, a = _ring_and_element(label)
    one, zero = ring.one(), ring.zero()
    ring.calls.clear()
    assert ring.pow(a, 0) == one
    assert ring.pow(zero, 0) == one     # the empty product
    assert (ring.calls["mul"], ring.calls["one"]) == (0, 2)
    with pytest.raises(ValueError):
        ring.pow(a, -1)
    assert (ring.calls["mul"], ring.calls["one"]) == (0, 2)


@pytest.mark.parametrize("label", list(RINGS))
def test_matrix_pow_takes_the_least_binary_matmul_count(label, monkeypatch):
    ring = RINGS[label][0]()
    a = sample_matrix(stream(2026, "matrix-pow", label), ring, 2, 2)
    matmul, identity = Matrix.__matmul__, Matrix.identity.__func__
    calls = {"matmul": 0, "identity": 0}

    def counted_matmul(x, y):
        calls["matmul"] += 1
        return matmul(x, y)

    def counted_identity(cls, r, n):
        calls["identity"] += 1
        return identity(cls, r, n)

    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    monkeypatch.setattr(Matrix, "identity", classmethod(counted_identity))
    plain = a
    for k in range(1, 41):
        calls.update(matmul=0, identity=0)
        got = a ** k
        assert calls == {"matmul": _expected_products(k), "identity": 0}, k
        assert got == plain, k
        plain = plain_matmul(plain, a)
    calls.update(matmul=0, identity=0)
    assert a ** 0 == identity(Matrix, ring, 2)
    assert calls == {"matmul": 0, "identity": 1}
    with pytest.raises(ValueError):
        a ** -1
    with pytest.raises(ShapeError):
        Matrix.zeros(ring, 1, 2) ** 2
    assert calls["matmul"] == 0


def _convolve(base, x, y):
    """x * y by one base add and mul per pair of coefficients."""
    out = [base.zero()] * max(len(x.coeffs) + len(y.coeffs) - 1, 0)
    for i, u in enumerate(x.coeffs):
        for j, v in enumerate(y.coeffs):
            out[i + j] = base.add(out[i + j], base.mul(u, v))
    return Polynomial(base, out)


@pytest.mark.parametrize("label,base", RINGS8, ids=[lab for lab, _ in RINGS8])
def test_product_is_the_single_pair_dot(label, base):
    L = PolynomialRing(base)
    rng = stream(2026, "poly-dot", label)
    polys = [L.zero(), L.one()] + [sample_element(rng, L, poly_degree=d)
                                   for d in (0, 1, 2, 3, 3, 4)]
    for x in polys:
        for y in polys:
            assert x * y == L.dot([x], [y]) == _convolve(base, x, y)
    for length in range(len(polys) + 1):
        xs, ys = polys[:length], polys[::-1][:length]
        total = L.zero()
        for x, y in zip(xs, ys):
            total = L.add(total, _convolve(base, x, y))
        assert L.dot(xs, ys) == total


def test_row_mixed_takes_row_i_from_source_i(monkeypatch):
    ring = ZZ
    empty = row_mixed(ring, [])
    assert (empty.rows, empty.cols, empty.ring) == (0, 0, ring)
    assert empty.det() == ring.one()
    one = Matrix.from_rows(ring, [[5]])
    assert row_mixed(ring, [one]) == one
    sources = [Matrix.from_rows(ring, [[10 * s + 3 * i + j for j in range(3)]
                                       for i in range(3)]) for s in range(3)]
    assert row_mixed(ring, sources) == Matrix.from_rows(
        ring, [sources[i].row_list(i + 1) for i in range(3)])
    # the row-replacement sum against a loop of Leibniz determinants
    for label, ring in RINGS8:
        rng = stream(2026, "row-replacement", label)
        for n in (0, 1, 3):
            a, b = (sample_matrix(rng, ring, n, n) for _ in range(2))
            ba = plain_matmul(b, a)
            want = ring.zero()
            for k in range(n):
                rows = [(ba if i == k else b).row_list(i + 1)
                        for i in range(n)]
                want = ring.add(want, Matrix(ring, n, n, [
                    v for r in rows for v in r]).det_leibniz())
            assert row_replacement_sum(ring, b, ba) == want, (label, n)
            assert want == ring.mul(a.trace(), b.det()), (label, n)

    # the power list against repeated plain products, one matmul per
    # power after A, and power_traces on it
    matmul, calls = Matrix.__matmul__, []

    def counted_matmul(x, y):
        calls.append(1)
        return matmul(x, y)

    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    for label, ring in RINGS8:
        a = sample_matrix(stream(2026, "powers", label), ring, 3, 3)
        want = []
        for m in range(6):
            calls.clear()
            assert powers(a, m) == want, (label, m)
            assert len(calls) == max(m - 1, 0), (label, m)
            want.append(plain_matmul(want[-1], a) if want else a)
        assert power_traces(a, 0) == [ring.zero()]
        assert power_traces(a, 3) == [ring.zero()] + [
            p.trace() for p in want[:3]]
