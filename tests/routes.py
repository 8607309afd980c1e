"""The kernel routes of ringmat.matrix as one table, with the case corpus,
the oracles, and the draws, width formulas and counting rings that the
route tests share.

det, charpoly, adj, the D_k, p(A), matmul and the power traces each have
several exact routes, and matrix.py picks one per input through a few
gates: _closed_form, the integer encoding _encode with its MAX_SLOTS, and
the widths MAX_BAREISS_BITS, MAX_CHARPOLY_BITS, MAX_SOLVE_BITS and
MAX_WIDTH.  A ROUTES row names one route of one kernel, the ring kinds
and sizes it serves, and the gate settings that force it.  Every route is
exact on every input it serves, only slower past its gate, so a forced
route must agree with the oracles, which never lift, eliminate, pack or
take a closed form.  Which route an input takes when nothing is forced
is pinned by hand beside each gate, in the kernel test files.

The corpus is frozen by (seed, ring, kind, n) through the library's own
splittable generator.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, isqrt, prod
from typing import Callable, NamedTuple

from helpers import RINGS8, Z1, plain_horner, plain_matmul
from ringmat.fuzz import sample_element, sample_matrix, sample_singular, stream
from ringmat.matrix import (
    MAX_BAREISS_BITS,
    MAX_CHARPOLY_BITS,
    MAX_SOLVE_BITS,
    MAX_WIDTH,
    Matrix,
    _encode,
    adjugate_coefficients,
    apply_poly,
    berkowitz,
    char_matrix,
    charpoly_coefficients,
    power_traces,
)
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import QQ, ZZ, IntegerRing, ModRing, Ring

SEED = 2030
QT = PolynomialRing(QQ)
QTU = PolynomialRing(QT)

# the coefficient rings of the R[t] and tower tests
BASES = {
    "int": ZZ,
    "mod1": ModRing(1),
    "mod2": ModRing(2),
    "mod6": ModRing(6),
    "mod8": ModRing(8),
    "mod2^61-1": ModRing(2**61 - 1),
    "rat": QQ,
}

# Each ring's kind: "int" runs the integer kernels on its own entries,
# "lifted" (QQ and flat R[t]) and "tower" (R[t][u]) on their integer
# encoding, "mod" (bare Z/m) and "deep" (a tower whose results take more
# than MAX_SLOTS slots) on the ring itself.
RINGS = dict(RINGS8) | {
    "mod-big": ModRing(2**64 + 13),
    "poly-rat": QT,
    "poly-mod1": PolynomialRing(Z1),
    "deep": QTU,
}
KINDS = {"int": "int", "mod6": "mod", "mod8": "mod", "mod1": "mod",
         "mod-big": "mod", "rat": "lifted", "poly": "lifted",
         "poly-mod8": "lifted", "poly-rat": "lifted", "poly-mod1": "lifted",
         "poly-poly": "tower", "deep": "deep"}

INTEGER = frozenset({"int", "lifted", "tower"})
LIFTED = frozenset({"lifted", "tower"})
FLAT = frozenset({"mod", "lifted"})
SLOTS = frozenset({"tower", "deep"})
EVERY = INTEGER | FLAT | SLOTS


def always(n, ring):
    """_closed_form forced on: the closed forms hold to n = 3 on every
    ring."""
    return n <= 3


def never(n, ring):
    return False


def no_encoding(*args):
    return None


def lifts_p(case) -> bool:
    """Whether p(A) can run on the integers: apply_poly encodes p only at
    deg p >= 2, which every case from n = 1 has but over (Z/1)[t], where
    p is 0."""
    return case.p.degree >= 2


def solvable(case) -> bool:
    """Whether _solved_adjugate keeps case: its first n - 1 columns are
    independent, that is adj's last row is not 0; else the adjugate falls
    back to the trace chain."""
    R = case.a.ring
    return not all(map(R.is_zero, oracle("adjugate", case).row_list(
        case.a.rows)))


HUGE = 10**9


class Route(NamedTuple):
    """One route of one kernel: the ring kinds and sizes n it serves and
    the gate settings, matrix module globals, that force it; serves, if
    given, narrows the cases to those on which the force holds."""
    kernel: str
    route: str
    kinds: frozenset
    sizes: range
    force: dict
    via: str = ""
    serves: Callable[[Case], bool] | None = None

    @property
    def id(self) -> str:
        return "-".join(filter(None, (self.kernel, self.route, self.via)))


GENERAL = range(1, 9)       # _bareiss reads a[-1][-1], so n >= 1
PACKED = range(4, 9)        # _packed_width packs from n = 4
CLOSED = range(4)
ANY = range(9)
OPEN = {"_closed_form": never}
# The ring route: _encode giving None forces it over Q and flat R[t], and
# MAX_SLOTS = 0 over towers two or more deep, the only ones it reaches.
RING = {"_closed_form": never, "_encode": no_encoding}
TOWER = {"_closed_form": never, "MAX_SLOTS": 0}

ROUTES = [
    Route("det", "closed", EVERY, CLOSED, {"_closed_form": always}),
    Route("det", "bareiss", INTEGER, GENERAL,
          OPEN | {"MAX_BAREISS_BITS": HUGE}),
    Route("det", "berkowitz", INTEGER, GENERAL,
          OPEN | {"MAX_BAREISS_BITS": -1}),
    Route("det", "ring", FLAT, GENERAL, RING),
    Route("det", "ring", SLOTS, GENERAL, TOWER, "slots"),
    Route("charpoly", "closed", EVERY, CLOSED, {"_closed_form": always}),
    Route("charpoly", "bareiss", INTEGER, GENERAL,
          OPEN | {"MAX_CHARPOLY_BITS": HUGE}),
    Route("charpoly", "berkowitz", INTEGER, GENERAL,
          OPEN | {"MAX_CHARPOLY_BITS": 0}),
    Route("charpoly", "ring", FLAT, GENERAL, RING),
    Route("charpoly", "ring", SLOTS, GENERAL, TOWER, "slots"),
    Route("adjugate", "closed", EVERY, CLOSED, {"_closed_form": always}),
    Route("adjugate", "solve", INTEGER, GENERAL,
          OPEN | {"MAX_SOLVE_BITS": HUGE}, serves=solvable),
    Route("adjugate", "packed", INTEGER, PACKED,
          OPEN | {"MAX_SOLVE_BITS": 0, "MAX_WIDTH": HUGE}),
    Route("adjugate", "matmul", INTEGER, GENERAL,
          OPEN | {"MAX_SOLVE_BITS": 0, "MAX_WIDTH": 0}),
    Route("adjugate", "ring", FLAT, GENERAL, RING),
    Route("adjugate", "ring", SLOTS, GENERAL, TOWER, "slots"),
    Route("D", "closed", EVERY, CLOSED, {"_closed_form": always}),
    Route("D", "packed", INTEGER, PACKED, OPEN | {"MAX_WIDTH": HUGE}),
    Route("D", "matmul", INTEGER, GENERAL, OPEN | {"MAX_WIDTH": 0}),
    Route("D", "ring", FLAT, GENERAL, RING),
    Route("D", "ring", SLOTS, GENERAL, TOWER, "slots"),
    Route("poly", "packed", INTEGER, PACKED, {"MAX_WIDTH": HUGE},
          serves=lifts_p),
    Route("poly", "matmul", INTEGER, GENERAL, {"MAX_WIDTH": 0},
          serves=lifts_p),
    Route("poly", "ring", FLAT, ANY, {"_encode": no_encoding}),
    Route("poly", "ring", SLOTS, ANY, {"MAX_SLOTS": 0}, "slots"),
    Route("matmul", "lift", LIFTED, GENERAL, {}),
    Route("matmul", "ring", FLAT | {"int"}, ANY, {"_encode": no_encoding}),
    Route("matmul", "ring", SLOTS, ANY, {"MAX_SLOTS": 0}, "slots"),
    Route("traces", "lift", LIFTED, GENERAL, {}),
    Route("traces", "ring", FLAT | {"int"}, ANY, {"_encode": no_encoding}),
    Route("traces", "ring", SLOTS, ANY, {"MAX_SLOTS": 0}, "slots"),
]
GATES = ("_closed_form", "_encode", "MAX_BAREISS_BITS", "MAX_CHARPOLY_BITS",
         "MAX_SOLVE_BITS", "MAX_WIDTH", "MAX_SLOTS")


class Case(NamedTuple):
    """A corpus matrix a over the ring named label, and the polynomial p
    that p(A) takes on it: degree d = 1 + min(n, 2), t**d's coefficient
    1, so no Horner product step at n = 0, one at n = 1, and from n = 2
    two, where both the lift of p(A) (d >= 2) and packing (d >= 3)
    apply."""
    label: str
    name: str
    a: Matrix
    p: Polynomial

    @property
    def kind(self) -> str:
        return KINDS[self.label]

    @property
    def id(self) -> str:
        return f"{self.label}-{self.name}"


# ---- the widths the gates read, for the width pins ---------------------

def width(bound: int) -> int:
    """The digit width that reads back values of absolute value <= bound."""
    return max(bound.bit_length(), 1) + 1


def _row_squares(ints, n: int) -> list:
    return [sum(v * v for v in ints[i:i + n])
            for i in range(0, n * n, max(n, 1))]


def _ceil_sqrt(s: int) -> int:
    r = isqrt(s)
    return r + (r * r < s)


def charpoly_bound(ints, n: int, scales=()) -> int:
    """prod_i (r_i + ceil(||row_i||)), r_i = 1 without scales: Hadamard's
    bound on every d * c_j of the n x n integer matrix B."""
    return prod(r + _ceil_sqrt(s)
                for r, s in zip(scales or [1] * n, _row_squares(ints, n)))


def charpoly_width(ints, n: int, scales=()) -> int:
    """W of det(2**W * D - B)."""
    return width(charpoly_bound(ints, n, scales))


def solve_width(ints, n: int, scales=()) -> int:
    """The adj slot of _solved_adjugate: Hadamard's bound on an (n-1) x
    (n-1) minor, times the largest row scale."""
    top = prod(sorted(_row_squares(ints, n))[1:])
    return width(_ceil_sqrt(top) * max(scales, default=1))


def integers(a: Matrix, fit, cols: int = 0):
    """(ints, scales) that the integer kernels run on: a's own entries
    over ZZ, its encoding at fit elsewhere, and None off those."""
    if isinstance(a.ring, IntegerRing):
        return list(a._e), []
    lifted = _encode(a.ring, (a._e,), fit, cols)
    return lifted and (lifted[0][0], lifted[1][1])


def trace_width(ints, n: int) -> int:
    """The slot of the traced Horner chain: (n+1) * (n-1)! * M**(n-1)."""
    m = max(map(abs, ints))
    return width((n + 1) * factorial(n - 1) * max(m, 1) ** (n - 1))


# ---- the corpus -------------------------------------------------------

def int_matrix(rng, rows, cols=None, top=9) -> Matrix:
    """rows x cols (square by default) over ZZ, entries uniform in
    [-top, top]; rng a random.Random or a fuzz stream."""
    cols = rows if cols is None else cols
    return Matrix(ZZ, rows, cols, [rng.randint(-top, top)
                                   for _ in range(rows * cols)])


def invertible(rng, n: int, top: int = 9) -> Matrix:
    """The first int_matrix draw with a nonzero det."""
    while not (a := int_matrix(rng, n, top=top)).det():
        pass
    return a


def upper(rng, n: int, top: int = 9) -> list:
    """The rows of an upper triangular n x n matrix, entries in [-top, top]
    and a nonzero diagonal: every pivot is nonzero."""
    return [[rng.choice([v for v in range(-top, top + 1) if v]) if j == i
             else rng.randint(-top, top) if j > i else 0
             for j in range(n)] for i in range(n)]


def rows_of(a: Matrix) -> list:
    """a's rows as lists."""
    return [a.row_list(i) for i in range(1, a.rows + 1)]


def constants(ring, rows) -> Matrix:
    """The integer rows as a matrix over ring."""
    return Matrix.from_rows(ring, [[ring.from_int(v) for v in r]
                                   for r in rows])


def sylvester(n: int, m: int = 1) -> list:
    """m times the n x n Sylvester-Hadamard +-1 matrix, n a power of 2, as
    rows: each of norm m * sqrt(n), and |det| their product."""
    h = [[m]]
    while len(h) < n:
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return h


def low_rank(rng, ring, n: int, rank: int) -> Matrix:
    """An n x rank times a rank x n factor: rank at most rank."""
    return plain_matmul(sample_matrix(rng, ring, n, rank),
                        sample_matrix(rng, ring, rank, n))


def zero_column(a: Matrix) -> Matrix:
    """a with its first column 0: no pivot in column 0."""
    e = list(a._e)
    e[::a.cols] = [a.ring.zero()] * a.rows
    return Matrix(a.ring, a.rows, a.cols, e)


def above_slots(n: int) -> Matrix:
    """An n x n matrix over Q[t][u] whose entries mix t**20 and u**20
    monomials with constants: det, the D_k, A @ A and Tr(A**2) have t- and
    u-degree 40 or more, whose lift would take 41 * 41 > MAX_SLOTS slots."""
    t = Polynomial(QQ, [QQ.zero()] * 20 + [Fraction(1, 3)])
    u = Polynomial(QT, [QT.zero()] * 20 + [QT.coerce(Fraction(-5, 2))])
    pool = [QTU.add(u, Polynomial(QT, [t])), QTU.one(),
            QTU.coerce(Fraction(7, 4)), u, QTU.zero(), QTU.from_int(-2)]
    return Matrix(QTU, n, n, [pool[(3 * i + i // n) % len(pool)]
                              for i in range(n * n)])


def gate_pair(build, fits) -> tuple:
    """(build(m), build(m + 1)) for the largest m with fits(build(m)):
    the two sides of a gate."""
    lo, hi = 0, 1
    while fits(build(hi)):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(build(mid)) else (lo, mid)
    return build(lo), build(lo + 1)


def with_entries(a: Matrix, places, value) -> Matrix:
    """a with the integer value at the row-major places."""
    e = list(a._e)
    for k in places:
        e[k] = a.ring.from_int(value)
    return Matrix(a.ring, a.rows, a.cols, e)


def _integer_cases(rng) -> list:
    """Both sides of each width gate over ZZ, and values at the top of a
    slot."""
    out = []
    base = int_matrix(rng, 4)
    for side, bits in (("in", MAX_BAREISS_BITS),
                       ("out", MAX_BAREISS_BITS + 1)):
        out.append((f"bits-{side}-4", with_entries(base, [5], 2**bits - 1)))
    pairs = (
        ("charpoly", int_matrix(rng, 8), [0],
         lambda a: 8 * charpoly_width(a._e, 8) <= MAX_CHARPOLY_BITS),
        ("solve", int_matrix(rng, 4), range(0, 16, 5),
         lambda a: solve_width(a._e, 4) <= MAX_SOLVE_BITS),
        ("width", int_matrix(rng, 5), [0],
         lambda a: trace_width(a._e, 5) <= MAX_WIDTH))
    for gate, a, places, fits in pairs:
        inside, outside = gate_pair(
            lambda m: with_entries(a, places, m), fits)
        out += [(f"{gate}-in-{a.rows}", inside),
                (f"{gate}-out-{a.rows}", outside)]
    # a digit of c_j, an adj entry and a trace chain's diagonal slot at
    # the top of their slots
    out.append(("top-hadamard-4", constants(ZZ, sylvester(4, -10**6))))
    m = 2**64
    b = ((1, 1, 1), (1, -1, 1), (1, 1, -1))
    out.append(("top-adjugate-4", constants(
        ZZ, [[m * v for v in r] + [0] for r in b] + [[0, 0, 0, 1]])))
    signs = ((1, 1, 1, -1), (1, -1, 1, -1), (1, -1, -1, -1), (-1, -1, -1, -1))
    out.append(("top-trace-4", constants(ZZ, [[m * v for v in r]
                                              for r in signs])))
    return out


def _rational_cases(rng) -> list:
    """Row scales that reach the top of a slot, and denominators past the
    gates."""
    m, r = 2**31, 2**61 + 1
    out = [("top-rows-3", Matrix(QQ, 3, 3, [m, m, 0, -m, m, 0,
                                            0, 0, Fraction(1, r)])),
           ("top-diagonal-3", Matrix(QQ, 3, 3, [
               Fraction(1, d) if i == j else Fraction(0)
               for i, d in enumerate((2**40 + 1, 9, 2**20 + 3))
               for j in range(3)])),
           ("top-hadamard-4", Matrix(QQ, 4, 4, [
               Fraction((2**30 + 1) * v, s)
               for s, row in zip((3, 1, 1, 1), sylvester(4)) for v in row]))]
    out.append(("wide-den-5", Matrix(QQ, 5, 5, [
        Fraction(rng.randint(-9, 9), rng.randint(1, 10**6))
        for _ in range(25)])))
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
            for _ in range(5)]
    rows[1] = [Fraction(rng.randint(1, 9), rng.randint(10**39, 10**40))
               for _ in range(5)]
    out.append(("wide-row-5", Matrix.from_rows(QQ, rows)))
    return out


# The largest n of the corpus over the rings whose oracles are slowest;
# 8 elsewhere.
TOPS = {"rat": 6, "poly": 5, "poly-mod8": 5, "poly-rat": 4, "poly-poly": 4}


def _cases(label: str) -> list:
    """The named matrices over the ring label: n = 0..TOPS[label]; and
    0..3 for the tower above MAX_SLOTS."""
    ring = RINGS[label]
    if label == "deep":
        return [(f"sparse-{n}", above_slots(n)) for n in range(4)]
    top = TOPS.get(label, 8)
    out = [(f"random-{n}", sample_matrix(stream(SEED, label, "random", n),
                                         ring, n, n)) for n in range(top + 1)]
    rng = stream(SEED, label, "kinds")
    out.append(("zero-4", Matrix.zeros(ring, 4, 4)))
    out += [(f"duplicated-{n}", sample_singular(rng, ring, n))
            for n in sorted({3, min(5, top), top})]
    out += [(f"rank-{n}", low_rank(rng, ring, n, n - 2))
            for n in sorted({4, top})]
    out += [(f"column-{n}", zero_column(sample_matrix(rng, ring, n, n)))
            for n in sorted({3, 4, top})]
    out += [(f"signs-{n}", Matrix(ring, n, n, [
        ring.from_int(1 - 2 * rng.below(2)) for _ in range(n * n)]))
        for n in sorted({4, top})]
    # det 4 * N**3 at the top of the lifted slot 3! * N**3, and c_3 with
    # two rows swapped; adj's (1, 1) entry 2 * N**2 at the top of 2! * N**2
    big = 2**40
    b = ((1, 1, 1), (1, -1, 1), (1, 1, -1))
    for name, rows in (("top-det-3", b),
                       ("top-swapped-3", (b[1], b[0], b[2]))):
        out.append((name, constants(ring, [[big * v for v in r]
                                           for r in rows])))
    out.append(("top-adjugate-3", constants(
        ring, [[1, 0, 0], [0, big, -big], [0, big, big]])))
    if label == "int":
        out += _integer_cases(rng)
    if label == "rat":
        out += _rational_cases(rng)
    if label == "poly":
        out.append(("wide-poly-5", Matrix(ring, 5, 5, [
            ring.coerce(rng.randint(-10**12, 10**12)) + ring.t()
            for _ in range(25)])))
    return out


def _case(label: str, name: str, a: Matrix) -> Case:
    R = a.ring
    rng = stream(SEED, label, name, "p")
    d = 1 + min(a.rows, 2)
    p = Polynomial(R, [sample_element(rng, R) for _ in range(d)] + [R.one()])
    return Case(label, name, a, p)


CASES = [_case(label, name, a) for label in RINGS
         for name, a in _cases(label)]


def domain(row: Route) -> list:
    """The corpus cases that row serves."""
    return [c for c in CASES
            if c.kind in row.kinds and c.a.rows in row.sizes
            and (row.serves is None or row.serves(c))]


# ---- kernels and oracles ---------------------------------------------

# The m of the power traces each case takes: the pairing reads Tr(A**3)
# and Tr(A**4) off A and A**2.
TRACES = 4

KERNELS = {
    "det": lambda c: c.a.det(),
    "charpoly": lambda c: charpoly_coefficients(c.a),
    "adjugate": lambda c: c.a.adjugate(),
    "D": lambda c: adjugate_coefficients(c.a),
    "poly": lambda c: apply_poly(c.p, c.a),
    "matmul": lambda c: c.a @ c.a,
    "traces": lambda c: power_traces(c.a, TRACES),
}


def power_sum(p: Polynomial, a: Matrix) -> Matrix:
    """sum_k p_k * a**k with every power by plain_matmul."""
    R, n = a.ring, a.rows
    acc, power = Matrix.zeros(R, n, n), Matrix.identity(R, n)
    for c in p.coeffs:
        acc = acc + power.scale(c)
        power = plain_matmul(power, a)
    return acc


def plain_traces(a: Matrix, m: int) -> list:
    """[0, Tr(a), ..., Tr(a**m)], every power by plain_matmul."""
    out, power = [a.ring.zero(), a.trace()], a
    for _ in range(m - 1):
        power = plain_matmul(power, a)
        out.append(power.trace())
    return out


def charpoly_oracle(a: Matrix) -> list:
    """c_0..c_n: det(t*I - a) by the subset DP over R[t] to n = 5, and
    berkowitz() on the ring itself above, where that DP is slow."""
    n = a.rows
    if n > 5:
        return berkowitz(a)
    chi = char_matrix(a).det_subset_dp()
    return [chi.coeff(n - j) for j in range(n + 1)]


ORACLES = {
    "det": lambda a, c: a.det_subset_dp(),
    "charpoly": lambda a, c: charpoly_oracle(a),
    "adjugate": lambda a, c: a.adjugate_cofactor() if a.rows else a,
    "D": lambda a, c: plain_horner(a, berkowitz(a)),
    "poly": lambda a, c: power_sum(c.p, a),
    "matmul": lambda a, c: plain_matmul(a, a),
    "traces": lambda a, c: plain_traces(a, TRACES),
}


@cache
def oracle(kernel: str, case: Case):
    """The kernel's value on case by its oracle, computed once."""
    return ORACLES[kernel](case.a, case)


# ---- counting rings -----------------------------------------------------

OPS = ("add", "sub", "neg", "mul", "dot", "one")
ARITHMETIC = ("add", "sub", "neg", "mul", "dot")


@cache
def _counting_class(cls, generic_dot: bool):
    def counted(name):
        op = Ring.dot if name == "dot" and generic_dot else getattr(cls, name)

        def call(self, *args):
            self.calls[name] += 1
            return op(self, *args)
        return call
    return type(f"Counting{cls.__name__}", (cls,),
                {name: counted(name) for name in OPS})


def counting(ring: Ring, generic_dot: bool = False) -> Ring:
    """A ring equal to ring that counts its own calls of each of OPS in
    ring.calls, a Counter; over a tower each level counts its own, and
    elements move over by recast.  generic_dot makes dot the generic
    Ring.dot, whose products and sums then count as mul and add."""
    out = object.__new__(_counting_class(type(ring), generic_dot))
    out.__dict__.update(vars(ring))
    if isinstance(ring, PolynomialRing):
        out.base = counting(ring.base, generic_dot)
    out.calls = Counter()
    return out


def tower_calls(ring: Ring) -> Counter:
    """The calls counted at every level of a counting ring."""
    total = Counter(ring.calls)
    if isinstance(ring, PolynomialRing):
        total += tower_calls(ring.base)
    return total


def recast(v, ring: Ring):
    """v, an element of a ring equal to ring, over ring's own coefficient
    rings."""
    if isinstance(ring, PolynomialRing):
        return Polynomial(ring.base, [recast(c, ring.base) for c in v.coeffs])
    return v


def recast_matrix(a: Matrix, ring: Ring) -> Matrix:
    return Matrix(ring, a.rows, a.cols, [recast(v, ring) for v in a._e])


def assert_no_element_arithmetic(a: Matrix) -> None:
    """Every kernel on a, and p(A) on p = t**3 + 2t**2 - t + 3, over a
    counting copy of a's ring: no level of it may count an op of
    ARITHMETIC, and each value must equal its oracle's on a itself."""
    plain = Polynomial(a.ring, [a.ring.from_int(v) for v in (3, -1, 2, 1)])
    ring = counting(a.ring)
    p = Polynomial(ring, [recast(c, ring) for c in plain.coeffs])
    counted = Case("", "counted", recast_matrix(a, ring), p)
    values = {kernel: run(counted) for kernel, run in KERNELS.items()}
    calls = tower_calls(ring)
    assert {op: calls[op] for op in ARITHMETIC} == dict.fromkeys(ARITHMETIC, 0)
    case = Case("", "plain", a, plain)
    for kernel, value in values.items():
        assert value == ORACLES[kernel](a, case), kernel
