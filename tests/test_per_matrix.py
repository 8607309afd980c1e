"""Work done once per matrix: the batched draw, the two-table cofactor
oracle and the tower-call shortcuts.

* fuzz.sample_matrix draws all of a matrix's scalars in one pass; it must
  give the matrices, the final generator state and the next_u64 calls of
  one sample_element per entry, and of the per-entry definition written
  out below from the module docstring, rejection bounds included.
* Matrix.adjugate_cofactor reads every cofactor off two column-subset
  DPs (down from the top rows, up from the bottom rows); it and
  det_subset_dp are checked against det_leibniz on each minor.
* Matrix.__matmul__ returns an empty product's zero matrix without a lift,
  and the ring checks accept equal rings that are distinct objects.
"""

from fractions import Fraction

import pytest

import ringmat.matrix as matrix_mod
from helpers import RINGS8, Z8, ZT
from ringmat.fuzz import (
    SplitMix64,
    sample_commuting,
    sample_element,
    sample_matrix,
    sample_nilpotent,
    sample_singular,
    sample_strict_upper,
    stream,
)
from ringmat.matrix import Matrix
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import (QQ, ZZ, IntegerRing, ModRing, RationalRing,
                           RingMismatchError)

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class _Counting(SplitMix64):
    """SplitMix64 that counts its raw draws."""

    __slots__ = ("calls",)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.calls = 0

    def next_u64(self) -> int:
        self.calls += 1
        return super().next_u64()


def _bounded(rng, n):
    """Uniform in [0, n) as the fuzz module docstring pins it, on raw
    next_u64 outputs only: no draw at n = 1, one output per attempt up
    to 2**64, and above it the integer of the next ceil(bits(n - 1) / 64)
    outputs, lowest word first; an attempt at or above the largest
    multiple of n below 2**(64 * words) is drawn again."""
    if n == 1:
        return 0
    words = 1 if n <= 2 ** 64 else -(-(n - 1).bit_length() // 64)
    top = 2 ** (64 * words)
    while True:
        v = sum(rng.next_u64() * 2 ** (64 * i) for i in range(words))
        if v < top - top % n:
            return v % n


def _small(rng):
    v = _bounded(rng, 10)
    return v - 5 if v < 5 else v - 4


def _reference_element(rng, ring, degree=1):
    """The per-ring distribution of the fuzz module docstring, one entry
    and one bounded draw per scalar."""
    if isinstance(ring, PolynomialRing):
        return Polynomial(ring.base, [_reference_element(rng, ring.base, degree)
                                      for _ in range(degree + 1)])
    if isinstance(ring, IntegerRing):
        return -9 + _bounded(rng, 19)
    if isinstance(ring, ModRing):
        return _bounded(rng, ring.m)
    assert isinstance(ring, RationalRing)
    num = _small(rng)
    return Fraction(num, _small(rng))


DRAW_RINGS = [
    ("int", ZZ, 1),
    ("mod1", ModRing(1), 1),
    ("mod2", ModRing(2), 1),
    ("mod8", Z8, 1),
    ("mod-mersenne61", ModRing(2**61 - 1), 1),
    ("mod-above-2**64", ModRing(3**41), 1),
    ("rat", QQ, 1),
] + [(f"poly-int-deg{d}", ZT, d) for d in range(4)] + [
    ("poly-poly-mod8", PolynomialRing(PolynomialRing(Z8)), 1),
    ("poly-rat-deg2", PolynomialRing(QQ), 2),
]
DRAW_IDS = [label for label, _, _ in DRAW_RINGS]
SHAPES = [(0, 0), (0, 3), (1, 1), (1, 3), (3, 2), (4, 4)]


@pytest.mark.parametrize("label,ring,degree", DRAW_RINGS, ids=DRAW_IDS)
def test_batched_draw_is_the_per_entry_stream(label, ring, degree):
    for k, (rows, cols) in enumerate(SHAPES):
        gens = [_Counting(stream(11, label, k).next_u64()) for _ in range(3)]
        batched = sample_matrix(gens[0], ring, rows, cols, degree)
        each = [sample_element(gens[1], ring, degree) for _ in range(rows * cols)]
        spec = [_reference_element(gens[2], ring, degree)
                for _ in range(rows * cols)]
        assert batched == Matrix(ring, rows, cols, each)
        assert list(batched._e) == spec
        assert len({g._state for g in gens}) == 1
        assert len({g.calls for g in gens}) == 1


@pytest.mark.parametrize("label,ring,degree", DRAW_RINGS, ids=DRAW_IDS)
def test_matrix_samplers_draw_entries_in_row_major_order(label, ring, degree):
    for n in range(5):
        g, h = _Counting(n), _Counting(n)
        a = sample_strict_upper(g, ring, n)
        want = [_reference_element(h, ring) if j > i else ring.zero()
                for i in range(n) for j in range(n)]
        assert list(a._e) == want and g._state == h._state
        assert g.calls == h.calls
        b = sample_commuting(g, a)
        coeffs = [_reference_element(h, ring) for _ in range(3)]
        assert b == (a @ a).scale(coeffs[2]) + a.scale(coeffs[1]) + \
            Matrix.identity(ring, n).scale(coeffs[0])
        assert g._state == h._state and g.calls == h.calls


def _unshift(y: int, k: int) -> int:
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def _seed_for(first: int) -> int:
    """The seed whose generator's first next_u64 is first."""
    z = _unshift(first, 31)
    z = _unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK, 27)
    z = _unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK, 30)
    return (z - _GOLDEN) & _MASK


def _scalar(ring, v: int, w: int):
    """The entry that accepted draws v (and w, over QQ) of below(bound) give."""
    if ring == ZZ:
        return v - 9
    if ring == QQ:
        return Fraction(v - 5 if v < 5 else v - 4, w - 5 if w < 5 else w - 4)
    return v


@pytest.mark.parametrize("ring,bound", [
    (ZZ, 19), (QQ, 10), (ModRing(3), 3), (ModRing(6), 6),
    (ModRing(2**61 - 1), 2**61 - 1)],
    ids=["int", "rat", "mod3", "mod6", "mod-mersenne61"])
def test_rejection_limit_is_exact(ring, bound):
    # a raw draw below limit = 2**64 - 2**64 % bound is taken and one at
    # limit is rejected, in the batched draw as in one sample_element
    limit = (1 << 64) - (1 << 64) % bound
    per_entry = 2 if ring == QQ else 1
    for first, taken in ((limit - 1, True), (limit, False)):
        seed = _seed_for(first)
        raw = SplitMix64(seed)
        raws = [raw.next_u64() for _ in range(2 * per_entry + 1)]
        assert raws[0] == first and max(raws[1:]) < limit
        kept = [v % bound for v in (raws if taken else raws[1:])]
        want = [_scalar(ring, *kept[k:k + per_entry] * (3 - per_entry))
                for k in range(0, 2 * per_entry, per_entry)]
        for draw in (lambda g: list(sample_matrix(g, ring, 1, 2)._e),
                     lambda g: [sample_element(g, ring) for _ in range(2)]):
            g = _Counting(seed)
            assert draw(g) == want
            assert g.calls == 2 * per_entry + (0 if taken else 1)


# --- the two-table cofactor oracle ------------------------------------------

ORACLE_RINGS = RINGS8 + (
    ("mod2", ModRing(2)),
    ("mod-mersenne61", ModRing(2**61 - 1)),
    ("poly-rat", PolynomialRing(QQ)),
    ("poly-poly-mod8", PolynomialRing(PolynomialRing(Z8))),
)


def _leibniz_adjugate(a: Matrix) -> Matrix:
    n, R = a.rows, a.ring
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cof = a.minor(j, i).det_leibniz()
            out.append(R.neg(cof) if (i + j) & 1 else cof)
    return Matrix(R, n, n, out)


def _oracle_inputs(label, ring, n):
    rng = stream(2026, "two-table", label, n)
    # n = 6 over the nested towers is the slowest Leibniz oracle (about
    # 1 s a matrix); there the singular input, random below its second
    # row, stands for the random one
    if n < 6 or label not in ("poly-poly", "poly-rat", "poly-poly-mod8"):
        yield "random", sample_matrix(rng, ring, n, n)
    yield "zero", Matrix.zeros(ring, n, n)
    if n:
        yield "singular", sample_singular(rng, ring, n)
    yield "nilpotent", sample_nilpotent(rng, ring, n, 1 + rng.below(3))


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("label,ring", ORACLE_RINGS,
                         ids=[lbl for lbl, _ in ORACLE_RINGS])
def test_two_table_oracle_matches_leibniz_cofactors(label, ring, n):
    for kind, a in _oracle_inputs(label, ring, n):
        adj = a.adjugate_cofactor()
        assert adj == _leibniz_adjugate(a), kind
        assert a.det_subset_dp() == a.det_leibniz(), kind


class _Tally(IntegerRing):
    """The integers, recording the name of every Ring method asked for."""

    def __init__(self):
        self.used = set()

    def __getattribute__(self, name):
        if not name.startswith("_") and name != "used":
            self.used.add(name)
        return super().__getattribute__(name)


def test_the_oracles_take_no_division():
    # only zero, one, is_zero, mul, neg and add: no division, no dot and no
    # lift, as the oracles share no code with the production kernels
    R = _Tally()
    for n in range(6):
        a = Matrix(R, n, n, [(-1) ** k * (k % 7 - 2) for k in range(n * n)])
        assert list(a.adjugate_cofactor()._e) == list(_leibniz_adjugate(
            Matrix(ZZ, n, n, a._e))._e)
        assert a.det_subset_dp() == Matrix(ZZ, n, n, a._e).det_leibniz()
    assert R.used == {"zero", "one", "is_zero", "mul", "neg", "add"}


# --- tower calls --------------------------------------------------------------

EMPTY = [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0), (0, 2, 0)]


@pytest.fixture
def encodes(monkeypatch):
    calls = [0]
    encode = matrix_mod._encode

    def spy(*args, **kwargs):
        calls[0] += 1
        return encode(*args, **kwargs)

    monkeypatch.setattr(matrix_mod, "_encode", spy)
    return calls


@pytest.mark.parametrize("ring", [ZZ, Z8, QQ, PolynomialRing(Z8), ZT,
                                  PolynomialRing(PolynomialRing(Z8))],
                         ids=["int", "mod8", "rat", "poly-mod8", "poly",
                              "poly-poly-mod8"])
def test_empty_products_take_no_lift(ring, encodes):
    for n, k, m in EMPTY:
        rng = stream(5, str(ring), n, k, m)
        a, b = sample_matrix(rng, ring, n, k), sample_matrix(rng, ring, k, m)
        got = a @ b
        assert encodes[0] == 0
        assert got == Matrix.zeros(ring, n, m)
        assert got.rows == n and got.cols == m
    a = sample_matrix(stream(5), ring, 2, 2)
    assert a @ a == a @ Matrix.identity(ring, 2) @ a
    assert encodes[0] > 0


def test_equal_rings_that_are_distinct_objects_combine():
    R1, R2 = PolynomialRing(ModRing(8)), PolynomialRing(ModRing(8))
    assert R1 is not R2 and R1 == R2
    a = sample_matrix(stream(3), R1, 3, 3)
    b = Matrix(R2, 3, 3, a._e)
    assert a + b == a.scale(R1.coerce(2))
    assert a @ b == a @ a
    assert a - b == Matrix.zeros(R1, 3, 3)
    p, q = a.entry(1, 1), Polynomial(ModRing(8), a.entry(1, 1).coeffs)
    assert p.ring is not q.ring
    assert p + q == p * Polynomial(ModRing(8), [2])
    assert p * q == p * p


@pytest.mark.parametrize("r1,r2", [
    (Z8, ModRing(6)), (ZZ, QQ), (PolynomialRing(Z8), PolynomialRing(ZZ)),
    (PolynomialRing(ZT), ZT)], ids=["mod", "int-rat", "poly", "depth"])
def test_unequal_rings_still_raise(r1, r2):
    with pytest.raises(RingMismatchError,
                       match="^matrices over mod 8 and mod 6 cannot be "
                             "combined$"):
        Matrix.zeros(Z8, 1, 1) + Matrix.zeros(ModRing(6), 1, 1)
    a, b = Matrix.zeros(r1, 2, 2), Matrix.zeros(r2, 2, 2)
    message = f"matrices over {r1} and {r2} cannot be combined"
    for op in (a.__add__, a.__sub__, a.__matmul__):
        with pytest.raises(RingMismatchError) as exc:
            op(b)
        assert str(exc.value) == message
    p, q = Polynomial(r1, [r1.one()]), Polynomial(r2, [r2.one()])
    message = f"polynomials over {r1} and {r2} cannot be combined"
    for op in (p.__add__, p.__mul__):
        with pytest.raises(RingMismatchError) as exc:
            op(q)
        assert str(exc.value) == message
