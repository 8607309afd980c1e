"""The packed Horner over ZZ against oracles that never pack.

Over ZZ with n >= 4, the D_k, p(A) and adj(A) where it does not
eliminate (test_gauss_jordan_adjugate.py) run their Horner steps
H_j = A @ H_(j-1) + c_j * I on rows packed as one integer each, column j
at 2**(w*j), whenever the slot width w is at most MAX_WIDTH; otherwise
they take matmuls.  At n <= 3 the D_k and adj(A) are closed forms, with
no step (test_closed_forms.py), and p(A) takes matmuls.  The oracles are
the cofactor adjugate, the Horner recursion D_(k-1) = D_k @ A +
c_(n-k) * I by plain triple-loop products, and sums of plain powers.
adj(A) and the D_k take each c_j on the way by the trace recursion, so
their slots are sized by _trace_fit(n); p(A) takes _poly_fit.
"""

import random
from math import factorial

import pytest

import ringmat.matrix as matrix_mod
from helpers import plain_horner
from routes import counting, gate_pair, int_matrix, power_sum, width
from ringmat.charpoly import cayley_hamilton_residual
from ringmat.matrix import (
    MAX_SOLVE_BITS,
    MAX_WIDTH,
    Matrix,
    _minors_fit,
    _packed_width,
    _poly_fit,
    _trace_fit,
    adjugate_coefficients,
    apply_poly,
    berkowitz,
)
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import QQ, ZZ, ModRing

BIG = 10**60


def _cases(n):
    rng = random.Random(f"packed-{n}")
    singular = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    if n:
        singular[-1] = singular[0]
    return {
        "small": int_matrix(rng, n),
        "zero": Matrix.zeros(ZZ, n, n),
        "singular": Matrix.from_rows(ZZ, singular),
        "signs": Matrix(ZZ, n, n, [rng.choice((-1, 1)) for _ in range(n * n)]),
        "big": int_matrix(rng, n, top=BIG),
    }


CASES = [(n, name, a) for n in range(13) for name, a in _cases(n).items()]
IDS = [f"n{n}-{name}" for n, name, _ in CASES]


def _packs(a):
    return _packed_width(a, _trace_fit(a.rows)) is not None


@pytest.mark.parametrize("n,name,a", CASES, ids=IDS)
def test_adjugate_and_coefficients_match_the_oracles(n, name, a, products,
                                                    horners):
    ds = adjugate_coefficients(a)
    assert ds == plain_horner(a, berkowitz(a))
    horners[0] = 0
    adj = a.adjugate()
    chained = horners[0] == 1     # else it eliminated, with no matmul
    if n:
        assert ds[0] == (-adj if (n - 1) & 1 else adj)
    # the cofactor DP is exponential: every n for one kind, n <= 8 else
    if n <= 8 or name == "small":
        assert adj == a.adjugate_cofactor()
    assert a @ adj == Matrix.identity(ZZ, n).scale(a.det())
    # the generic route takes n - 2 matmuls for each of the two calls
    # that run the chain, the packed one and the closed forms (n <= 3)
    # none; one more is the check above, unless n = 0, where the empty
    # product is the 0 x 0 matrix with no _product call
    steps = 0 if _packs(a) or n <= 3 else n - 2
    assert products[0] == (1 if n else 0) + steps + (steps if chained else 0)


def test_both_routes_are_covered():
    routes = {(name, _packs(a)) for n, name, a in CASES}
    assert {("big", True), ("big", False), ("small", True),
            ("small", False)} <= routes


def test_width_is_the_least_that_decodes():
    # w = bit_length((n+1) * (n-1)! * max(M, 1)**(n-1)) + 1, so 2**(w-1)
    # exceeds the bound on every D_k and on every diagonal slot of
    # A @ H_(j-1) before c_j is added, and 2**(w-2) does not
    for n in (4, 7, 12):
        for m in (0, 1, 2, 9, 2**20 - 1, 2**20):
            a = Matrix(ZZ, n, n, [m] + [0] * (n * n - 1))
            bound = (n + 1) * factorial(n - 1) * max(m, 1) ** (n - 1)
            assert _trace_fit(n)(m, [])[0] == bound
            w = _packed_width(a, _trace_fit(n))
            assert w == bound.bit_length() + 1
            assert 2 ** (w - 2) <= bound < 2 ** (w - 1)


@pytest.mark.parametrize("k", [0, 1, 5, 64, 200])
def test_an_adjugate_entry_in_the_top_bit_decodes(k):
    # with M = 2**k, adj(A)[4][4] = det(M * B) = 4 * M**3 = 2**(w-2) for
    # the D_k bound 3! * M**3, so a slot one bit narrower would read it
    # as a negative digit; the packed slots over ZZ are wider still
    # (_trace_fit), as they also hold (H_j)_ii - c_j
    m = 2**k
    b = [[1, 1, 1], [1, -1, 1], [1, 1, -1]]
    a = Matrix.from_rows(ZZ, [[m * v for v in r] + [0] for r in b]
                         + [[0, 0, 0, 1]])
    adj = a.adjugate()
    w = _packed_width(a, _minors_fit(3))
    assert adj.entry(4, 4) == 4 * m**3 == 2 ** (w - 2)
    assert adj == a.adjugate_cofactor()
    assert adjugate_coefficients(a) == plain_horner(a, berkowitz(a))
    assert _packs(a)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_route_switches_at_max_width(n, products):
    rng = random.Random(n)
    m, _ = gate_pair(lambda m: m, lambda m: width(
        _trace_fit(n)(m, [])[0]) <= MAX_WIDTH)
    for top, packed in ((m, True), (m + 1, False)):
        a = Matrix(ZZ, n, n, [top] + [rng.randint(-top, top)
                                      for _ in range(n * n - 1)])
        w = _packed_width(a, _trace_fit(n))
        assert (w is not None) == packed
        bound, _ = _trace_fit(n)(top, [])
        assert packed == (bound.bit_length() < MAX_WIDTH)
        products[0] = 0
        want = plain_horner(a, berkowitz(a))
        assert adjugate_coefficients(a) == want
        assert (products[0] == 0) == packed


def test_small_and_non_integer_matrices_keep_matmuls():
    rng = random.Random(2)
    for n in (0, 1, 2, 3):
        assert _packed_width(int_matrix(rng, n), _minors_fit(n - 1)) is None
    for ring in (ModRing(8), ModRing(1), QQ):
        a = Matrix(ring, 4, 4, [ring.coerce(rng.randint(0, 7))
                                for _ in range(16)])
        assert _packed_width(a, _minors_fit(3)) is None
    a = Matrix(ZZ, 4, 4, [9] + [1] * 15)
    assert _packed_width(a, _minors_fit(3)) == (6 * 9**3).bit_length() + 1


def test_packed_step_count(products, monkeypatch):
    # adj and the D_k take n - 2 steps of n row products, n muls each on
    # entries with no zero, no matmul and no berkowitz; digits are read
    # once per row of D_0 for adj, and of D_0..D_(n-3) for the D_k, as
    # D_(n-1) = I and D_(n-2) = A + c_1 * I are never packed.  The entries
    # put adj's slots above MAX_SOLVE_BITS, so adjugate() takes the chain,
    # and the chain's within MAX_WIDTH, so it packs
    reads = [0]
    digits = matrix_mod._digits

    def counted(values, *args):
        values = list(values)
        reads[0] += len(values)
        return digits(values, *args)
    monkeypatch.setattr(matrix_mod, "_digits", counted)
    n = 12
    rng = random.Random(12)
    entries = [rng.randint(1, 9) << 30 for _ in range(n * n)]
    top = max(entries)
    assert _minors_fit(n - 1)(top, [])[0].bit_length() + 1 > MAX_SOLVE_BITS
    assert _trace_fit(n)(top, [])[0].bit_length() + 1 <= MAX_WIDTH
    monkeypatch.setattr(matrix_mod, "berkowitz", None)
    for kernel, rows in ((Matrix.adjugate, n),
                         (adjugate_coefficients, n * (n - 2))):
        ring = counting(ZZ, generic_dot=True)
        reads[0] = 0
        kernel(Matrix(ring, n, n, entries))
        assert (ring.calls["mul"], ring.calls["dot"]) == (
            (n - 2) * n * n, (n - 2) * n)
        assert reads[0] == rows
    assert products[0] == 0


def test_digits_end_on_one_at_the_smallest_slot_width(monkeypatch):
    # at w = 1 a balanced digit lies in [-1, 0), so _digits([1], 1) would
    # never end; every width is at least 2 bits, which moves w only at
    # bound 0, where every result is 0
    widths = []
    digits = matrix_mod._digits

    def recorded(values, w, *args):
        widths.append(w)
        return digits(values, w, *args)
    monkeypatch.setattr(matrix_mod, "_digits", recorded)
    adj = matrix_mod._solved_adjugate(Matrix(ZZ, 1, 1, [7]))
    assert adj == Matrix(ZZ, 1, 1, [1])
    assert matrix_mod._solved_adjugate(Matrix.zeros(ZZ, 2, 2)) is None
    chain = [PolynomialRing(ZZ), ZZ]
    smallest = {
        "_context": matrix_mod._context(chain, [], 0, [0])[2],
        "_packed_width": _packed_width(Matrix.zeros(ZZ, 4, 4),
                                       lambda norm, degrees: (0,)),
        "_solved_adjugate": min(widths),
    }
    assert smallest == dict.fromkeys(smallest, 2)
    for w in smallest.values():
        assert digits([1, -1, 0], w) == [[1], [-1], []]


@pytest.mark.parametrize("n", range(9))
def test_apply_poly_matches_plain_powers(n, products):
    rng = random.Random(f"poly-{n}")
    for top in (9, BIG):
        a = int_matrix(rng, n, top=top)
        for degree in (0, 1, 2, n + 2):
            coeffs = [rng.randint(-top, top) for _ in range(degree + 1)]
            p = Polynomial(ZZ, coeffs)
            products[0] = 0
            got = apply_poly(p, a)
            packs = (_packed_width(a, _poly_fit(p, n)) is not None
                     and degree > 2)
            # an empty (n = 0) product calls no _product
            assert products[0] == (0 if packs or not n else max(degree - 1, 0))
            assert got == power_sum(p, a)
        assert cayley_hamilton_residual(a).is_zero()
    assert apply_poly(Polynomial(ZZ, ()), a) == Matrix.zeros(ZZ, n, n)


@pytest.mark.parametrize("n", range(4, 9))
def test_packing_starts_at_three_horner_steps(n, products):
    # p(A) with deg p = 2 is one product step, and takes one matmul at
    # every n; deg p = 3, two product steps, packs from n = 4
    rng = random.Random(f"poly-gate-{n}")
    a = int_matrix(rng, n)
    for degree, packs in ((2, False), (3, True)):
        p = Polynomial(ZZ, [rng.randint(-9, 9) for _ in range(degree)] + [2])
        products[0] = 0
        assert apply_poly(p, a) == power_sum(p, a)
        assert products[0] == (0 if packs else degree - 1), (n, degree)


def test_poly_width_bounds_every_power():
    # ||p||_1 * max(1, n*M)**deg p, and |entry of a**k| <= (n*M)**k is
    # reached up to the factor n by the all-M matrix
    p = Polynomial(ZZ, [3, -1, 0, 2])
    assert _poly_fit(p, 4)(5, []) == (6 * 20**3, [])
    assert _poly_fit(p, 4)(0, []) == (6, [])
    n, m = 4, 7
    a = Matrix(ZZ, n, n, [m] * (n * n))
    cube = apply_poly(Polynomial(ZZ, [0, 0, 0, 1]), a)
    assert cube == Matrix(ZZ, n, n, [n * n * m**3] * (n * n))
    assert _packed_width(a, _poly_fit(p, n)) == (
        (6 * (n * m) ** 3).bit_length() + 1)
