"""Matrix arithmetic, division-free determinants, adjugates, submatrices."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ringmat.matrix as matrix_mod
from helpers import (RINGS8, Z1, Z6, Z8, ZT, corpus, mat, plain_horner,
                     scopes)
from ringmat.charpoly import charpoly
from ringmat.matrix import (
    Matrix,
    adjugate_coefficients,
    apply_poly,
    berkowitz,
    block2x2,
    char_matrix,
    ent,
)
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import (
    QQ,
    ZZ,
    GuardError,
    IntegerRing,
    ModRing,
    Ring,
    RingMismatchError,
    ShapeError,
)

A22 = mat(ZZ, [[1, 2], [3, 4]])


def test_construction_validates_shape():
    with pytest.raises(ShapeError):
        mat(ZZ, [[1, 2], [3]])
    m = mat(ZZ, [[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert not m.is_square()


def test_entry_and_row_are_one_based():
    m = mat(ZZ, [[1, 2, 3], [4, 5, 6]])
    assert m.entry(1, 1) == 1
    assert m.entry(2, 3) == 6
    assert m.row_list(2) == [4, 5, 6]
    assert m.row(1).to_json()["entries"] == [["1", "2", "3"]]
    with pytest.raises(ShapeError):
        m.entry(0, 1)
    with pytest.raises(ShapeError):
        m.entry(1, 4)


def test_arithmetic():
    b = mat(ZZ, [[0, 1], [1, 0]])
    assert (A22 + b).to_json()["entries"] == [["1", "3"], ["4", "4"]]
    assert (A22 - A22).is_zero()
    assert (-b).entry(1, 2) == -1
    assert (A22 @ b).to_json()["entries"] == [["2", "1"], ["4", "3"]]
    assert A22.scale(2).entry(2, 2) == 8
    assert (A22 ** 0) == Matrix.identity(ZZ, 2)
    assert (A22 ** 3) == A22 @ A22 @ A22
    assert A22.trace() == 5


def test_shape_and_ring_mismatches_raise():
    b = mat(ZZ, [[1, 2, 3]])
    with pytest.raises(ShapeError):
        A22 + b
    with pytest.raises(ShapeError):
        b @ b
    with pytest.raises(RingMismatchError):
        A22 + mat(Z6, [[1, 2], [3, 4]])
    with pytest.raises(ShapeError):
        b.trace()
    with pytest.raises(ShapeError):
        b.det()


def test_det_reference_values():
    assert A22.det() == -2
    assert mat(ZZ, [[7]]).det() == 7
    assert Matrix.identity(ZZ, 4).det() == 1
    # zero divisors: 2*4 = 0 mod 8
    assert mat(Z8, [[2, 0], [0, 4]]).det() == 0
    assert mat(ZZ, [[1, 2, 3], [4, 5, 6], [7, 8, 10]]).det() == -3


def test_det_of_empty_matrix_is_one():
    e = Matrix(ZZ, 0, 0, ())
    assert e.det() == 1
    assert e.det_leibniz() == 1
    assert e.trace() == 0
    assert e.adjugate() == e


def test_det_leibniz_agrees():
    for m in (A22, mat(Z6, [[1, 2, 3], [4, 5, 0], [2, 2, 2]]),
              mat(QQ, [[1, 2], [3, 4]])):
        assert m.det() == m.det_leibniz()


def test_det_leibniz_guard():
    big = Matrix.identity(ZZ, 9)
    with pytest.raises(GuardError):
        big.det_leibniz()
    assert big.det() == 1  # the production route has no such cap


def test_det_over_polynomial_entries():
    t = ZT.t()
    m = Matrix.from_rows(ZT, [[t, ZT.one()], [ZT.coerce(2), ZT.zero()]])
    assert m.det() == ZT.coerce(-2)
    T = char_matrix(m)
    chi = T.det()
    # chi lives in (Z[t])[t']: t'^2 - t*t' - 2
    assert chi.coeff(2) == ZT.one()
    assert chi.coeff(1) == -t
    assert chi.coeff(0) == ZT.coerce(-2)


def test_adjugate_reference_values():
    assert A22.adjugate() == mat(ZZ, [[4, -2], [-3, 1]])
    assert mat(ZZ, [[5]]).adjugate() == mat(ZZ, [[1]])
    assert Matrix.identity(ZZ, 3).adjugate() == Matrix.identity(ZZ, 3)
    a = mat(ZZ, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert a @ a.adjugate() == Matrix.identity(ZZ, 3).scale(a.det())


def test_minor_and_submatrix_are_one_based():
    a = mat(ZZ, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert a.minor(1, 1) == mat(ZZ, [[5, 6], [8, 10]])
    assert a.minor(2, 3) == mat(ZZ, [[1, 2], [7, 8]])
    assert a.submatrix([1, 3], [2, 3]) == mat(ZZ, [[2, 3], [8, 10]])
    # repeated indices are allowed; such a submatrix is singular
    rep = a.submatrix([1, 1], [1, 2])
    assert rep == mat(ZZ, [[1, 2], [1, 2]])
    assert rep.det() == 0
    with pytest.raises(ShapeError):
        a.submatrix([0], [1])
    with pytest.raises(ShapeError):
        a.minor(4, 1)


def test_block2x2_glues_conformably():
    a = mat(ZZ, [[1, 2], [3, 4]])
    b = mat(ZZ, [[5], [6]])
    c = mat(ZZ, [[7, 8]])
    d = mat(ZZ, [[9]])
    g = block2x2(a, b, c, d)
    assert g.to_json()["entries"] == [
        ["1", "2", "5"], ["3", "4", "6"], ["7", "8", "9"]]
    with pytest.raises(ShapeError):
        block2x2(a, c, b, d)


def test_bordered_block_reference_value():
    # [[A, p], [v, 0]] with A = I2, p = e1, v = e1^T has determinant -1
    a = Matrix.identity(ZZ, 2)
    p = mat(ZZ, [[1], [0]])
    v = mat(ZZ, [[1, 0]])
    zero = Matrix.zeros(ZZ, 1, 1)
    assert block2x2(a, p, v, zero).det() == -1


def test_ent_extracts_the_sole_entry():
    assert ent(mat(ZZ, [[42]])) == 42
    with pytest.raises(ShapeError):
        ent(A22)


def test_apply_poly_horner():
    # q(A) = A^2 - 5A - 2I should vanish for A = [[1,2],[3,4]]
    q = Polynomial.of(ZZ, [-2, -5, 1])
    assert apply_poly(q, A22).is_zero()
    # t^2 on a nilpotent block
    n = mat(ZZ, [[0, 1], [0, 0]])
    assert apply_poly(Polynomial.of(ZZ, [0, 0, 1]), n).is_zero()
    assert apply_poly(Polynomial.of(ZZ, []), A22) == Matrix.zeros(ZZ, 2, 2)


def test_map_entries():
    doubled = A22.map_entries(lambda v: 2 * v, ZZ)
    assert doubled == A22.scale(2)
    lifted = A22.map_entries(ZT.coerce, ZT)
    assert lifted.ring == ZT
    assert lifted.entry(1, 2) == ZT.coerce(2)


def test_char_matrix_shape():
    T = char_matrix(A22)
    R = T.ring
    assert isinstance(R, PolynomialRing) and R.base == ZZ
    assert T.entry(1, 1) == R.coerce([-1, 1])   # t - 1
    assert T.entry(1, 2) == R.coerce(-2)


entries33 = st.lists(st.integers(0, 3), min_size=9, max_size=9)


@settings(max_examples=150)
@given(entries33, entries33)
def test_det_is_multiplicative_mod4(xs, ys):
    R = __import__("ringmat").ModRing(4)
    a = Matrix(R, 3, 3, tuple(xs))
    b = Matrix(R, 3, 3, tuple(ys))
    assert (a @ b).det() == R.mul(a.det(), b.det())


@settings(max_examples=150)
@given(entries33, entries33, entries33)
def test_multiplication_distributes_mod6(xs, ys, zs):
    a = Matrix(Z6, 3, 3, tuple(x % 6 for x in xs))
    b = Matrix(Z6, 3, 3, tuple(y % 6 for y in ys))
    c = Matrix(Z6, 3, 3, tuple(z % 6 for z in zs))
    assert (a + b) @ c == a @ c + b @ c
    assert (a @ b) @ c == a @ (b @ c)


def test_det_matches_oracles():
    for label, ring in RINGS8:
        for a in corpus(ring, f"det-oracle-{label}", 8, 6, singular_every=3):
            d = a.det()
            assert d == a.det_subset_dp(), label
            assert d == a.det_leibniz(), label


def test_adjugate_matches_cofactor_oracle():
    for label, ring in RINGS8:
        for a in corpus(ring, f"adj-oracle-{label}", 8, 6, singular_every=3):
            assert a.adjugate() == a.adjugate_cofactor(), label


def test_kernels_at_n0_and_n1():
    for label, ring in RINGS8:
        one = ring.one()
        e = Matrix(ring, 0, 0, ())
        assert e.det() == e.det_subset_dp() == one, label
        assert e.adjugate() == e.adjugate_cofactor() == e, label
        assert berkowitz(e) == [one], label
        a = Matrix(ring, 1, 1, (ring.from_int(5),))
        assert a.det() == a.det_subset_dp() == ring.from_int(5), label
        assert a.adjugate() == a.adjugate_cofactor() \
            == Matrix.identity(ring, 1), label


def test_zero_ring_kernels():
    # in Z/1 one == zero, so every determinant and adjugate entry is 0
    a = mat(Z1, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert Z1.one() == Z1.zero() == 0
    assert a.det() == a.det_subset_dp() == 0
    assert a.adjugate() == a.adjugate_cofactor() == Matrix.zeros(Z1, 3, 3)


def test_non_square_kernels_raise():
    b = Matrix.zeros(ZZ, 2, 3)
    for op in (b.det_subset_dp, b.adjugate, b.adjugate_cofactor):
        with pytest.raises(ShapeError):
            op()
    with pytest.raises(ShapeError):
        berkowitz(b)


class _CountingZZ(IntegerRing):
    """Z with a mul counter; dot stays the generic Ring.dot, so it counts."""

    dot = Ring.dot

    def __init__(self):
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return a * b


class _CountingMod(ModRing):
    """Z/(2**61 - 1) with a mul counter and the generic Ring.dot.  det and
    charpoly over Z/m keep berkowitz(), so its products count here; over
    Z (_CountingZZ) both take the elimination, which calls no Ring.mul
    (its entry updates are counted below)."""

    dot = Ring.dot

    def __init__(self):
        super().__init__(2**61 - 1)
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return a * b % self.m


def _dense(ring, n):
    # no zero entries, so the zero-skipping dot saves little
    rng = random.Random(n)
    return Matrix(ring, n, n, [rng.randint(1, 9) for _ in range(n * n)])


def test_kernels_cost_polynomially_many_muls():
    # over Z, adjugate() eliminates and calls no Ring.mul (its updates
    # are counted below); over Z/m it keeps berkowitz() and Horner
    n = 12
    for kernel, ceiling, counting in (
            (Matrix.det, n ** 4, _CountingMod),
            (charpoly, n ** 4, _CountingMod),
            (Matrix.adjugate, 2 * n ** 4, _CountingMod),
            (lambda a: charpoly(a).D, 2 * n ** 4, _CountingZZ)):
        ring = counting()
        a = _dense(ring, n)
        kernel(a)
        assert 0 < ring.muls <= ceiling, (kernel, ring.muls)


def _division_counter():
    """(Counted, updates): an int subclass that stays one through the
    products, differences, sums and negations of _bareiss and of
    2**W * I - A, and adds 1 to updates[0] at each floor division."""
    updates = [0]

    class Counted(int):
        def __mul__(self, other):
            return Counted(int(self) * other)

        __rmul__ = __mul__

        def __add__(self, other):
            return Counted(int(self) + other)

        __radd__ = __add__

        def __sub__(self, other):
            return Counted(int(self) - other)

        def __neg__(self):
            return Counted(-int(self))

        def __floordiv__(self, other):
            updates[0] += 1
            return Counted(int(self) // other)

    return Counted, updates


def test_det_over_zz_takes_n_cubed_entry_updates(berkowitz_rings):
    # each Bareiss update ends in one exact division, and only updates
    # divide: sum of (n-1-k)**2 over the steps k = 0..n-2
    Counted, updates = _division_counter()
    n = 12
    plain = _dense(ZZ, n)
    counted = Matrix(ZZ, n, n, map(Counted, plain._e))
    assert counted.det() == plain.det_subset_dp()
    assert berkowitz_rings == []
    assert updates[0] == (n - 1) * n * (2 * n - 1) // 6 == 506


def test_adjugate_over_zz_takes_n_cubed_updates(berkowitz_rings):
    # forward Bareiss on [A | I]: det's entry updates, and at step k the
    # n - 1 - k packed rows of I below the pivot; then back-substitution
    # divides each of the packed rows 0..n-2 once; every update with one
    # exact division; no Ring.mul
    Counted, updates = _division_counter()
    n = 12
    ring = _CountingZZ()
    plain = _dense(ZZ, n)
    adj = Matrix(ring, n, n, map(Counted, plain._e)).adjugate()
    assert berkowitz_rings == [] and ring.muls == 0
    assert updates[0] == ((n - 1) * n * (2 * n - 1) // 6 + n * (n - 1) // 2
                          + n - 1) == 583
    d_0 = plain_horner(plain, berkowitz(plain))[0]
    assert adj._e == (-d_0 if (n - 1) & 1 else d_0)._e


def test_charpoly_over_zz_takes_n_cubed_entry_updates(berkowitz_rings):
    # below MAX_CHARPOLY_BITS charpoly is one Bareiss pass over
    # 2**W * I - A, whose leading minors are never 0: no swap, no early
    # stop, so every update runs (n = 10, entries 1..9: n * W = 440)
    Counted, updates = _division_counter()
    n = 10
    plain = _dense(ZZ, n)
    want = berkowitz(plain)
    berkowitz_rings.clear()
    counted = Matrix(ZZ, n, n, map(Counted, plain._e))
    assert charpoly(counted).c == tuple(want)
    assert berkowitz_rings == []
    assert updates[0] == (n - 1) * n * (2 * n - 1) // 6 == 285


def test_counting_ring_computes_the_same_values():
    a = _dense(_CountingZZ(), 6)
    b = _dense(ZZ, 6)
    assert a.det() == b.det() == b.det_subset_dp()
    assert a.adjugate()._e == b.adjugate()._e


def _callers(name: str) -> dict:
    """The scopes of matrix.py that call name (as scopes labels them),
    each with its number of call sites."""
    found = {}
    for label, scope in scopes(Path(matrix_mod.__file__)):
        k = sum(isinstance(c, ast.Call) and getattr(c.func, "id", None) == name
                for c in ast.walk(scope))
        if k:
            found[label] = k
    return found


def test_one_lift_entry_point_and_one_home_for_the_bounds():
    # every kernel reaches the integer encoding through _encode alone,
    # and every result bound is a fit: (N, degrees) -> (bound, degrees)
    assert _callers("_tower") == {"_encode": 1}
    # and only the kernel entries lift, each once: berkowitz() runs on
    # its own ring, adj and the D_k have an entry each, and so do the
    # power traces and p(A), each on one lift for its whole chain
    assert _callers("_encode") == {
        "Matrix.__matmul__": 1, "Matrix.det": 1, "Matrix.adjugate": 1,
        "charpoly_coefficients": 1, "adjugate_coefficients": 1,
        "power_traces": 1, "apply_poly": 1}
    factorials = _callers("factorial")
    assert factorials and all(f.endswith("_fit") for f in factorials)


def _square_checks(path: Path) -> set:
    """The scopes of a module (as scopes labels them) that build a
    "requires a square matrix" message, or raise under an if that tests
    is_square() or compares one matrix's rows with its cols."""

    def same_matrix_rows_cols(node):
        if not isinstance(node, ast.Compare) or len(node.comparators) != 1:
            return False
        sides = (node.left, node.comparators[0])
        return (all(isinstance(s, ast.Attribute) for s in sides)
                and {s.attr for s in sides} == {"rows", "cols"}
                and ast.dump(sides[0].value) == ast.dump(sides[1].value))

    def checks_square(test):
        return any(getattr(c, "attr", None) == "is_square"
                   or same_matrix_rows_cols(c) for c in ast.walk(test))

    found = set()
    for label, scope in scopes(path):
        for c in ast.walk(scope):
            if (isinstance(c, ast.Constant) and isinstance(c.value, str)
                    and "requires a square matrix" in c.value) or (
                    isinstance(c, ast.If) and checks_square(c.test)
                    and any(isinstance(r, ast.Raise)
                            for s in c.body for r in ast.walk(s))):
                found.add(f"{path.name}:{label}")
    return found


def test_one_square_check():
    # Matrix.require_square is the one place that refuses a non-square
    # matrix; every other layer calls it
    package = Path(matrix_mod.__file__).parent
    found = set().union(*map(_square_checks, sorted(package.glob("*.py"))))
    assert found == {"matrix.py:Matrix.require_square"}
    with pytest.raises(ShapeError,
                       match=r"^trace requires a square matrix, got 2 x 3$"):
        Matrix.zeros(ZZ, 2, 3).require_square("trace")
    Matrix.zeros(ZZ, 0, 0).require_square("trace")


@pytest.mark.parametrize("ring, rows, cols", [(ZZ, 2, 3), (ZZ, 3, 2),
                                              (QQ, 4, 5)])
def test_adjugate_coefficients_requires_a_square_matrix(ring, rows, cols):
    # these returned a 2 x 3 "D_0", raised IndexError, and raised the
    # entry-count ShapeError of a 4 x 4 build
    with pytest.raises(ShapeError, match=r"^adjugate coefficients requires a "
                       rf"square matrix, got {rows} x {cols}$"):
        adjugate_coefficients(Matrix.zeros(ring, rows, cols))
