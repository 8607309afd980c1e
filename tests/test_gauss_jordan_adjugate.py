"""adj(A) over ZZ by forward Bareiss on [A | I] and back-substitution.

Over ZZ with n >= 4, Matrix.adjugate() runs _bareiss on A with the rows
of I packed as one integer each, column j at 2**(w*j), while
w <= MAX_SOLVE_BITS, w sized by Hadamard's bound on the rows; QQ and
every tower that _encode accepts reach it through the row-scaled lift
B = D*A, with the rows of D as the right-hand side, from n = 3.  The
forward pass stops before its last column, so a last pivot of 0 needs no
search, and back-substitution divides by the earlier pivots only; a
column k < n - 1 with no pivot falls back to the trace chain (_horner).
n <= 3 over ZZ, and n <= 2 everywhere, take the closed forms instead
(test_closed_forms.py), so the route cases at n = 3 run on a lifted
rational.  The oracles are the
cofactor adjugate (n <= 8) and the plain Horner sum on the berkowitz()
coefficients (every n), whose products are plain triple loops.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ringmat.matrix as matrix_mod
from helpers import Z1, Z8, ZT, plain_horner, plain_matmul
from routes import (gate_pair, int_matrix, integers, invertible, rows_of,
                    solve_width, upper)
from ringmat.fuzz import sample_matrix, sample_singular, stream
from ringmat.matrix import (
    MAX_SOLVE_BITS,
    Matrix,
    _adjugate_fit,
    _bareiss,
    berkowitz,
)
from ringmat.poly import PolynomialRing
from ringmat.rings import QQ, ZZ

LIFTED = {
    "rat": QQ,
    "poly": ZT,
    "poly-poly": PolynomialRing(ZT),
    "poly-mod8": PolynomialRing(Z8),
    "poly-mod1": PolynomialRing(Z1),
}


def _check(a):
    """a.adjugate() against both oracles; returns it."""
    n = a.rows
    adj = a.adjugate()
    if n:
        d_0 = plain_horner(a, berkowitz(a))[0]
        assert adj == (-d_0 if (n - 1) & 1 else d_0)
    if n <= 8:
        assert adj == a.adjugate_cofactor()
    return adj


def _int(rows):
    return Matrix.from_rows(ZZ, rows)


def _rat(rows, den=7):
    """rows / den over QQ, which adjugate() takes on the integer lift."""
    return Matrix.from_rows(QQ, [[Fraction(v, den) for v in r] for r in rows])


def _routed(rows):
    """rows over ZZ, or at n = 3, where ZZ takes the closed form, over QQ
    (_rat), which still eliminates on its lift."""
    return _int(rows) if len(rows) > 3 else _rat(rows)


def _width(a):
    """The adj slot width w of a's row-scaled integer encoding (a itself
    over ZZ)."""
    ints, scales = integers(a, _adjugate_fit(a.rows), a.rows)
    return solve_width(ints, a.rows, scales)


@pytest.mark.parametrize("n", range(13))
def test_every_size_matches_the_oracles(n, horners, eliminations):
    # n >= 4 eliminates, n = 1..3 take the closed form with neither an
    # elimination nor the chain, n = 0 is returned as is
    rng = random.Random(f"jordan-{n}")
    for _ in range(3 if n <= 8 else 1):
        a = invertible(rng, n)
        horners[0] = eliminations[0] = 0
        a.adjugate()
        assert horners[0] == 0, n
        assert eliminations[0] == (n >= 4), n
        _check(a)


@pytest.mark.parametrize("n", range(3, 10))
def test_row_swaps_set_the_sign(n, horners):
    # rows k and n - 1 of an upper triangular U exchanged: step k meets a
    # zero pivot, finds its row at n - 1 (the rows between are 0 in column
    # k) and swaps once, so an odd swap count must still read adj(A) and
    # not -adj(A); rotating the rows by s places takes even and odd counts
    rng = random.Random(f"jordan-swap-{n}")
    for k in range(n - 1):
        u = upper(rng, n)
        swapped = [list(r) for r in u]
        swapped[k], swapped[n - 1] = swapped[n - 1], swapped[k]
        a = _int(swapped)
        assert a.det() == -_int(u).det() != 0
        horners[0] = 0
        adj = _check(a)
        assert horners[0] == 0
        assert plain_matmul(a, adj) == Matrix.identity(ZZ, n).scale(a.det())
    for shift in range(1, n):
        u = upper(rng, n)
        horners[0] = 0
        _check(_int(u[shift:] + u[:shift]))
        assert horners[0] == 0


@pytest.mark.parametrize("n", [3, 4, 6, 8, 10, 12])
def test_a_duplicated_row_takes_no_fallback(n, horners):
    # rank n - 1: the last pivot is 0, which the forward pass never
    # searches for and back-substitution never divides by; adj(A) != 0
    for i in range(4):
        rng = stream(18, "jordan-singular", n, i)
        a = sample_singular(rng, ZZ, n)
        horners[0] = 0
        adj = _check(a)
        assert a.det() == 0 and not adj.is_zero()
        assert horners[0] == 0
    rng = random.Random(f"jordan-sum-{n}")
    rows = rows_of(int_matrix(rng, n))[:n - 1]
    rows.append([sum(c) for c in zip(*rows)])   # the last row a sum
    horners[0] = 0
    _check(_int(rows))
    assert horners[0] == 0


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_a_zero_first_column_falls_back(n, horners):
    rng = random.Random(f"jordan-column-{n}")
    rows = rows_of(int_matrix(rng, n))
    for r in rows:
        r[0] = 0
    horners[0] = 0
    _check(_routed(rows))
    assert horners[0] == 1


@pytest.mark.parametrize("n", [3, 4, 5, 7, 9, 12])
def test_rank_at_most_n_minus_2_has_zero_adjugate(n, horners):
    # the first n - 1 columns are dependent, so some column k < n - 1 has
    # no pivot and the chain gives adj = 0
    rng = random.Random(f"jordan-rank-{n}")
    for rank in range(n - 1):
        low = Matrix(ZZ, n, rank, [rng.randint(-9, 9)
                                   for _ in range(n * rank)])
        high = Matrix(ZZ, rank, n, [rng.randint(-9, 9)
                                    for _ in range(rank * n)])
        product = plain_matmul(low, high)
        horners[0] = 0
        adj = _check(_routed([product.row_list(i) for i in range(1, n + 1)]))
        assert adj.is_zero()
        assert horners[0] == 1


@pytest.mark.parametrize("label", LIFTED)
def test_lifted_rings_match_the_oracles(label, horners):
    ring = LIFTED[label]
    eliminated = 0
    for n in range(7):
        for i in range(4):
            rng = stream(18, "jordan-lift", label, n, i)
            a = (sample_singular(rng, ring, n) if i == 3 and n
                 else sample_matrix(rng, ring, n, n))
            horners[0] = 0
            _check(a)
            if n >= 3 and horners[0] == 0:
                eliminated += 1
    # (Z/1)[t] lifts every entry to 0, a zero first column
    assert (eliminated == 0) == (label == "poly-mod1"), eliminated


def _on_the_diagonal(rows, top):
    """rows with top on the diagonal (_routed): the width grows with
    top."""
    return _routed([[top if i == j else v for j, v in enumerate(r)]
                    for i, r in enumerate(rows)])


@pytest.mark.parametrize("n", [3, 4, 6, 8, 11])
def test_the_gate_switches_the_route(n, horners):
    rng = random.Random(f"jordan-gate-{n}")
    rows = rows_of(int_matrix(rng, n))
    m, _ = gate_pair(lambda m: m, lambda m: _width(
        _on_the_diagonal(rows, m)) <= MAX_SOLVE_BITS)
    for top, eliminates in ((m, True), (m + 1, False)):
        a = _on_the_diagonal(rows, top)
        assert (_width(a) <= MAX_SOLVE_BITS) == eliminates
        horners[0] = 0
        _check(a)
        assert (horners[0] == 0) == eliminates


def test_the_gate_reads_the_lifted_width(horners):
    # Q and Z[t] eliminate on their integer encoding while its adj slots
    # fit, and take the chain above
    rng = random.Random("jordan-gate-lift")
    for ring, narrow, wide in (
            (QQ, lambda: QQ.coerce(rng.randint(-9, 9)),
             lambda: QQ.coerce(rng.randint(-9, 9)) / rng.randint(1, 10**6)),
            (ZT, lambda: ZT.coerce(rng.randint(-9, 9)),
             lambda: ZT.coerce(rng.randint(-10**12, 10**12)) + ZT.t())):
        for draw, eliminates in ((narrow, True), (wide, False)):
            a = Matrix(ring, 5, 5, [draw() for _ in range(25)])
            assert (_width(a) <= MAX_SOLVE_BITS) == eliminates
            horners[0] = 0
            _check(a)
            assert (horners[0] == 0) == eliminates


def test_bareiss_with_a_right_hand_side():
    # any integer right-hand side b comes back as adj(A) @ b, with
    # det(A) returned; a column with no pivot before the last gives None
    rng = random.Random("jordan-rhs")
    for n in range(1, 8):
        for _ in range(5):
            a = int_matrix(rng, n)
            b = [rng.randint(-99, 99) for _ in range(n)]
            rhs = list(b)
            assert _bareiss(a._e, n, rhs) == a.det()
            adj = a.adjugate_cofactor()
            assert rhs == [sum(x * y for x, y in zip(adj.row_list(i), b))
                           for i in range(1, n + 1)]
    assert _bareiss((0, 1, 0, 1), 2, [1, 2]) is None
    rhs = [1, 2]                 # a last pivot of 0 is no early stop
    assert _bareiss((1, 1, 1, 1), 2, rhs) == 0 and rhs == [-1, 1]


def test_bareiss_with_a_last_pivot_of_0():
    # the last row a combination of the others: d = a_(n-1)(n-1) = 0, so
    # back-substitution runs with d * b_i = 0 and still gives adj(A) @ b
    rng = random.Random("jordan-last-pivot")
    for n in range(4, 9):
        rows = rows_of(int_matrix(rng, n))[:n - 1]
        mix = [rng.randint(-3, 3) for _ in range(n - 1)]
        rows.append([sum(c * r[j] for c, r in zip(mix, rows))
                     for j in range(n)])
        a = _int(rows)
        b = [rng.randint(-99, 99) for _ in range(n)]
        rhs = list(b)
        assert _bareiss(a._e, n, rhs) == 0
        adj = a.adjugate_cofactor()
        assert not adj.is_zero()
        assert rhs == [sum(x * y for x, y in zip(adj.row_list(i), b))
                       for i in range(1, n + 1)]


@st.composite
def _wide_matrices(draw):
    """n x n integer matrices, n <= 8, entries up to 2**64: random, with a
    duplicated row, or with a last row that combines the others."""
    n = draw(st.integers(1, 8))
    entry = st.integers(-2**64, 2**64)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    kind = draw(st.sampled_from(("random", "duplicated", "combined")))
    if kind == "duplicated" and n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        rows[j] = list(rows[i])
    elif kind == "combined":
        mix = draw(st.lists(st.integers(-3, 3), min_size=n - 1,
                            max_size=n - 1))
        rows[-1] = [sum(c * r[j] for c, r in zip(mix, rows))
                    for j in range(n)]
    return _int(rows)


@settings(max_examples=150, deadline=None)
@given(_wide_matrices())
def test_wide_and_singular_draws_match_the_oracles(a):
    n = a.rows
    if n <= 6:
        want = a.adjugate_cofactor()
    else:
        d_0 = plain_horner(a, berkowitz(a))[0]
        want = -d_0 if (n - 1) & 1 else d_0
    assert a.adjugate() == want
    # eliminated past the gate too; it falls back exactly when the first
    # n - 1 columns are dependent, that is when adj's last row is 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix_mod, "MAX_SOLVE_BITS", _width(a))
        adj = matrix_mod._solved_adjugate(a)
    assert (adj is None) == (not any(want.row_list(n)))
    assert adj is None or adj == want
