"""det, charpoly, adj and the D_k of small matrices by their closed forms.

At n <= 2 on every ring, and at n = 3 over ZZ and bare Z/m, the square
kernels take the defining polynomials in the entries over the ring
itself: det = ad - bc or Sarrus's sum as a first-row expansion,
c = (1, -tr A, sum of the principal 2 x 2 minors, -det A), adj by its
cofactors, and D_(n-1) = I, D_(n-2) = A - tr(A) * I, D_0 = adj(A) at
n = 3.  No lift, no elimination, no berkowitz() and no Horner step runs.
Over QQ and the towers n = 3 keeps the integer lift, and n >= 4 keeps
the general routes everywhere.  The oracles are the subset DP, the
Leibniz sum, berkowitz(), the cofactor adjugate, a plain Horner on
berkowitz() and the cofactor adjugate of t*I - A read coefficientwise.
"""

import pytest

import ringmat.matrix as matrix_mod
from helpers import (RINGS8, Z8, coefficient_matrices_oracle, plain_horner,
                     plain_matmul)
from ringmat.charpoly import charpoly
from ringmat.fuzz import sample_matrix, sample_singular, stream
from ringmat.matrix import (Matrix, adjugate_coefficients, berkowitz,
                            charpoly_coefficients)
from ringmat.poly import PolynomialRing
from ringmat.rings import QQ, ZZ, ModRing

Z8T = PolynomialRing(Z8)
RINGS = RINGS8 + (
    ("mod2", ModRing(2)),
    ("mod-mersenne61", ModRing(2**61 - 1)),
    ("poly-rat", PolynomialRing(QQ)),
    ("poly-poly-mod8", PolynomialRing(Z8T)),
)


def _nilpotent(rng, ring, n):
    """S @ N @ S**-1, N strictly upper triangular and S = I + E_12, so
    that every entry may be nonzero while chi = t**n."""
    e = sample_matrix(rng, ring, n, n)._e
    zero, one = ring.zero(), ring.one()
    strict = Matrix(ring, n, n, [e[i * n + j] if j > i else zero
                                 for i in range(n) for j in range(n)])
    if n < 2:
        return strict
    s, s_inv = (Matrix(ring, n, n, [one if i == j else v if (i, j) == (0, 1)
                                    else zero
                                    for i in range(n) for j in range(n)])
                for v in (one, ring.neg(one)))
    return plain_matmul(plain_matmul(s, strict), s_inv)


def _inputs(label, ring, n):
    rng = stream(21, "closed-forms", label, n)
    for _ in range(4):
        yield "random", sample_matrix(rng, ring, n, n)
    yield "zero", Matrix.zeros(ring, n, n)
    if n:
        yield "singular", sample_singular(rng, ring, n)
    yield "nilpotent", _nilpotent(rng, ring, n)


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("label,ring", RINGS, ids=[r[0] for r in RINGS])
def test_small_kernels_match_the_oracles(label, ring, n):
    for kind, a in _inputs(label, ring, n):
        where = (label, n, kind)
        det = a.det()
        assert det == a.det_subset_dp() == a.det_leibniz(), where
        c = charpoly_coefficients(a)
        assert c == berkowitz(a) == list(charpoly(a).c), where
        adj = a.adjugate()
        assert adj == (a.adjugate_cofactor() if n else a), where
        ds = adjugate_coefficients(a)
        assert ds == plain_horner(a, c), where
        assert ds == coefficient_matrices_oracle(a), where
        if n:
            assert ds[0] == (-adj if (n - 1) & 1 else adj), where
        if kind == "nilpotent":
            assert c[1:] == [ring.zero()] * n, where
        if kind == "singular" or kind == "zero" and n:
            assert ring.is_zero(det), where


@pytest.fixture
def routes(monkeypatch, berkowitz_rings, eliminations, horners):
    """The set of routes the calls so far took: "lift" for an integer
    encoding, "bareiss" for an elimination, "berkowitz" and "horner";
    calling the result clears it."""
    lifts = [0]
    encode = matrix_mod._encode

    def spy(*args):
        lifted = encode(*args)
        lifts[0] += lifted is not None
        return lifted

    monkeypatch.setattr(matrix_mod, "_encode", spy)
    counters = (("lift", lifts), ("bareiss", eliminations),
                ("horner", horners))

    def taken():
        out = {name for name, c in counters if c[0]}
        if berkowitz_rings:
            out.add("berkowitz")
        for _, c in counters:
            c[0] = 0
        berkowitz_rings.clear()
        return out
    return taken


KERNELS = {
    "det": Matrix.det,
    "charpoly": charpoly_coefficients,
    "adjugate": Matrix.adjugate,
    "D": adjugate_coefficients,
}
LIFTED = {"det": {"lift", "bareiss"}, "charpoly": {"lift", "bareiss"},
          "adjugate": {"lift", "bareiss"}, "D": {"lift"}}
ROUTE_CASES = [
    # n = 3 over ZZ and bare Z/m: closed forms, no kernel at all
    ("int", ZZ, 3, dict.fromkeys(KERNELS, set())),
    ("mod8", Z8, 3, dict.fromkeys(KERNELS, set())),
    # n <= 2 everywhere
    ("rat", QQ, 2, dict.fromkeys(KERNELS, set())),
    ("poly-mod8", Z8T, 2, dict.fromkeys(KERNELS, set())),
    # n = 3 over QQ and towers keeps the lift; the D_k are the closed
    # forms of the lifted integer matrix
    ("rat", QQ, 3, LIFTED),
    ("poly-mod8", Z8T, 3, LIFTED),
    # n = 4 keeps the general routes
    ("int", ZZ, 4, {"det": {"bareiss"}, "charpoly": {"bareiss"},
                    "adjugate": {"bareiss"}, "D": {"horner"}}),
    ("mod8", Z8, 4, {"det": {"berkowitz"}, "charpoly": {"berkowitz"},
                     "adjugate": {"berkowitz", "horner"},
                     "D": {"berkowitz", "horner"}}),
]


@pytest.mark.parametrize("label,ring,n,want", ROUTE_CASES,
                         ids=[f"{c[0]}-n{c[2]}" for c in ROUTE_CASES])
def test_the_bound_from_both_sides(routes, label, ring, n, want):
    for i in range(3):
        a = sample_matrix(stream(21, "closed-route", label, n, i), ring, n, n)
        routes()
        got = {}
        for name, kernel in KERNELS.items():
            value = kernel(a)
            got[name] = routes()
            if name == "det":
                assert value == a.det_subset_dp(), (label, n, i)
        assert got == want, (label, n, i)
