"""Exact matrices over a commutative ring.

Matrices are immutable, stored row-major, and carry their ring.  Every
production kernel is division-free, so it is valid over rings with zero
divisors (Z/m, including the zero ring Z/1) and over nested R[t]:

  * matmul: n*k*m products, one Ring.dot per output entry.
  * berkowitz(): the Samuelson-Berkowitz characteristic polynomial
    det(t*I - A), about n**4/4 ring multiplications.
  * det(): (-1)**n * c_n from berkowitz(), so O(n**4).
  * adjugate(): the charpoly coefficients summed by Horner in A, one
    berkowitz() plus n - 2 matmuls, so O(n**4).

Over the rationals every kernel runs on the integer lift instead of on
Fractions.  _lift(A) returns (B, L) with L the lcm of the entry
denominators and B = L*A, a matrix over ZZ.  The results come back by
one exact division each:

  * c_k(A) = c_k(B) / L**k, since det(t*I - B/L) = L**-n * det(L*t*I - B)
    = sum_k c_k(B) * L**-k * t**(n-k).
  * D_k(A) = D_k(B) / L**(n-1-k), since adj(M/L) = L**-(n-1) * adj(M) for
    any n x n M, and adj(t*I - A) = L**-(n-1) * adj(L*t*I - B)
    = sum_k t**k * L**(k-n+1) * D_k(B).  At k = 0 this is
    adj(A) = adj(B) / L**(n-1).
  * A1 @ A2 = (B1 @ B2) / (L1 * L2), by bilinearity.

Both sides of each equation are the same rational number, and Fraction
reduces it to the one canonical form, so the lift changes no output.

Over R[t] with R one of ZZ, Z/m and QQ the kernels run on a Kronecker
lift, also over ZZ.  Over QQ[t], _coefficients first clears every
coefficient denominator at once, B = L*A over ZZ[t], and the three rules
above give the results back (they use only that c_k, D_k and matmul are
homogeneous of degree k, n-1-k and 1 in the entries).  Over (Z/m)[t] the
residues in [0, m) are taken as integers.  Then each entry p becomes the
one integer p(2**w), the ZZ kernel runs, and each result is read back as
its balanced base 2**w digits, each in [-2**(w-1), 2**(w-1)): reduced
mod m over Z/m, divided by the power of L over QQ.

This is exact.  Every kernel is a polynomial in the entries with integer
coefficients and no division, so it commutes with the ring maps
Z[t] -> Z (t -> 2**w) and Z -> Z/m: packing, then running over ZZ, gives
P(2**w) for the result P over Z[t].  Balanced digits recover P from
P(2**w) as long as 2**(w-1) exceeds the absolute value of every
coefficient of P, and a coefficient is at most the l1 norm of its
polynomial.  The l1 norm is submultiplicative and subadditive, so with N
the largest entry norm (N_A, N_B for two factors):

  * matmul: an entry is a sum of k products, norm <= k * N_A * N_B.
  * c_j: a sum over the C(n, j) principal j x j minors of j! signed
    products each, norm <= n!/(n-j)! * N**j <= n! * (N + 1)**n.  An
    entry of adj is an (n-1) x (n-1) minor, under the same bound.
  * D_k with a caller-supplied c: along the Horner steps
    D_(k-1) = D_k @ A + c_(n-k) * I the norm b of every entry obeys
    b_(n-1) = 1 and b_(k-1) <= n * N * b_k + |c_(n-k)|, and w covers the
    largest b.  A bound in n!, N and max |c_i| alone does not hold here:
    with the all-ones 40 x 40 matrix and every c_i = 1, D_0 has entries
    above 40! * 2**40.

Intermediate values never need unpacking, so they may exceed 2**(w-1).
Nested rings (R[t][u]) and any other base keep the Ring.dot route.

Independent oracles, kept for identities and tests to compare against:
det_subset_dp() is a dynamic program over column subsets, O(n**2 * 2**n);
adjugate_cofactor() takes n**2 cofactors by that DP; det_leibniz() is the
naive signed permutation sum, refused for n > 8.  None of them divides.

Row, column, and entry indices are 1-based in the public operations
(entry, row, minor, submatrix); that matches the usual cofactor and
Laplace sign conventions, where the (i, j) cofactor carries (-1)**(i+j).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, lcm

from .poly import Polynomial, PolynomialRing
from .rings import (
    ZZ,
    GuardError,
    IntegerRing,
    ModRing,
    RationalRing,
    Ring,
    RingMismatchError,
    ShapeError,
)


class Matrix:
    """Immutable n x m matrix over a fixed ring."""

    __slots__ = ("ring", "rows", "cols", "_e")

    def __init__(self, ring: Ring, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative dimensions {rows} x {cols}")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows} x {cols} matrix needs {rows * cols} entries, "
                f"got {len(entries)}")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self._e = entries

    @classmethod
    def from_rows(cls, ring: Ring, rows) -> "Matrix":
        """Build from nested lists, coercing entries (plain ints are fine)."""
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        flat = []
        for i, r in enumerate(rows):
            if len(r) != m:
                raise ShapeError(f"row {i + 1} has {len(r)} entries, expected {m}")
            flat.extend(ring.coerce(v) for v in r)
        return cls(ring, n, m, flat)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        zero, one = ring.zero(), ring.one()
        return cls(ring, n, n,
                   [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        zero = ring.zero()
        return cls(ring, rows, cols, [zero] * (rows * cols))

    def entry(self, i: int, j: int):
        """Entry in row i, column j (1-based)."""
        self._bounds(i, self.rows, "row")
        self._bounds(j, self.cols, "column")
        return self._e[(i - 1) * self.cols + (j - 1)]

    @staticmethod
    def _bounds(i: int, n: int, what: str) -> None:
        if not 1 <= i <= n:
            raise ShapeError(f"{what} index {i} out of range 1..{n}")

    def row_list(self, i: int) -> list:
        m = self.cols
        return list(self._e[(i - 1) * m:i * m])

    def row(self, i: int) -> "Matrix":
        """Row i as a 1 x m matrix (1-based)."""
        self._bounds(i, self.rows, "row")
        return Matrix(self.ring, 1, self.cols, self.row_list(i))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        R = self.ring
        return all(R.is_zero(v) for v in self._e)

    def _check_ring(self, other: "Matrix") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(
                f"matrices over {self.ring} and {other.ring} cannot be combined")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"cannot add {self.rows} x {self.cols} and "
                f"{other.rows} x {other.cols}")
        R = self.ring
        return Matrix(R, self.rows, self.cols,
                      [R.add(a, b) for a, b in zip(self._e, other._e)])

    def __neg__(self) -> "Matrix":
        R = self.ring
        return Matrix(R, self.rows, self.cols, [R.neg(a) for a in self._e])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"cannot subtract {other.rows} x {other.cols} from "
                f"{self.rows} x {self.cols}")
        R = self.ring
        return Matrix(R, self.rows, self.cols,
                      [R.sub(a, b) for a, b in zip(self._e, other._e)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows} x {self.cols} by "
                f"{other.rows} x {other.cols}")
        if isinstance(self.ring, RationalRing):
            (b1, l1), (b2, l2) = _lift(self), _lift(other)
            return _unlift(_product(b1, b2), self.ring, l1 * l2)
        if _packs(self.ring):
            (c1, l1), (c2, l2) = _coefficients(self), _coefficients(other)
            w = _width(self.cols * _norm(c1) * _norm(c2))
            product = _product(_pack(self, c1, w), _pack(other, c2, w))
            return _unpack(product, self.ring, w, l1 * l2)
        return _product(self, other)

    def scale(self, value) -> "Matrix":
        """Multiply every entry by a ring value."""
        R = self.ring
        value = R.coerce(value)
        return Matrix(R, self.rows, self.cols, [R.mul(value, a) for a in self._e])

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square():
            raise ShapeError("matrix power requires a square matrix")
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        result = Matrix.identity(self.ring, self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base_needed = k >> 1
            if base_needed:
                base = base @ base
            k = base_needed
        return result

    def trace(self):
        if not self.is_square():
            raise ShapeError("trace requires a square matrix")
        R = self.ring
        acc = R.zero()
        for i in range(self.rows):
            acc = R.add(acc, self._e[i * self.cols + i])
        return acc

    def det(self):
        """Determinant as (-1)**n * c_n of berkowitz(); det of 0 x 0 is 1."""
        if not self.is_square():
            raise ShapeError("determinant requires a square matrix")
        c_n = berkowitz(self)[-1]
        return self.ring.neg(c_n) if self.rows & 1 else c_n

    def det_subset_dp(self):
        """Determinant oracle, independent of berkowitz(); O(n**2 * 2**n).

        Dynamic program over column subsets: after processing r rows the
        table maps each r-subset S of columns to the determinant of the
        submatrix on rows 1..r and columns S, built by Laplace expansion
        along the last row.  det of the 0 x 0 matrix is 1.
        """
        if not self.is_square():
            raise ShapeError("determinant requires a square matrix")
        n = self.rows
        R = self.ring
        if n == 0:
            return R.one()
        e = self._e
        zero = R.zero()
        table = {0: R.one()}
        for r in range(n):
            nxt: dict[int, object] = {}
            base = r * n
            for mask, val in table.items():
                if R.is_zero(val):
                    continue
                for j in range(n):
                    bit = 1 << j
                    if mask & bit:
                        continue
                    a = e[base + j]
                    if R.is_zero(a):
                        continue
                    term = R.mul(a, val)
                    # parity of (row index) + (position of j among chosen columns)
                    pos = (mask & (bit - 1)).bit_count()
                    if (r + pos) & 1:
                        term = R.neg(term)
                    nm = mask | bit
                    cur = nxt.get(nm)
                    nxt[nm] = term if cur is None else R.add(cur, term)
            table = nxt
            if not table:
                return zero
        return table.get((1 << n) - 1, zero)

    def det_leibniz(self):
        """Signed permutation sum, a second determinant oracle.

        Exponential in n and refused for n > 8.
        """
        if not self.is_square():
            raise ShapeError("determinant requires a square matrix")
        n = self.rows
        if n > 8:
            raise GuardError(f"det_leibniz is limited to n <= 8, got n = {n}")
        R = self.ring
        e = self._e
        acc = R.zero()
        for sigma, sign in _signed_permutations(n):
            term = R.one()
            for i in range(n):
                term = R.mul(term, e[i * n + sigma[i]])
            acc = R.add(acc, R.neg(term) if sign < 0 else term)
        return acc

    def minor(self, i: int, j: int) -> "Matrix":
        """Copy with row i and column j removed (1-based)."""
        self._bounds(i, self.rows, "row")
        self._bounds(j, self.cols, "column")
        out = []
        for r in range(self.rows):
            if r == i - 1:
                continue
            for c in range(self.cols):
                if c == j - 1:
                    continue
                out.append(self._e[r * self.cols + c])
        return Matrix(self.ring, self.rows - 1, self.cols - 1, out)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        """Rows and columns selected by 1-based index lists.

        Indices may repeat and appear in any order; the result has one row
        per entry of row_idx and one column per entry of col_idx.
        """
        for i in row_idx:
            self._bounds(i, self.rows, "row")
        for j in col_idx:
            self._bounds(j, self.cols, "column")
        out = [
            self._e[(i - 1) * self.cols + (j - 1)]
            for i in row_idx
            for j in col_idx
        ]
        return Matrix(self.ring, len(row_idx), len(col_idx), out)

    def adjugate(self) -> "Matrix":
        """Adjugate (classical adjoint): entry (i, j) is the (j, i) cofactor.

        Computed as adj(A) = (-1)**(n-1) * (c_0*A**(n-1) + ... + c_(n-1)*I)
        from the berkowitz() coefficients, never forming a cofactor; over
        QQ as adj(B) / L**(n-1) on the integer lift B = L*A.  adj of any
        1 x 1 matrix is (1); adj of the 0 x 0 matrix is itself.
        """
        if not self.is_square():
            raise ShapeError("adjugate requires a square matrix")
        n = self.rows
        if n == 0:
            return self
        if isinstance(self.ring, RationalRing):
            b, scale = _lift(self)
            return _unlift(_adjugate(b), self.ring, scale ** (n - 1))
        if _packs(self.ring):
            coeffs, scale = _coefficients(self)
            w = _width(_minor_bound(n, _norm(coeffs)))
            return _unpack(_adjugate(_pack(self, coeffs, w)), self.ring, w,
                           scale ** (n - 1))
        return _adjugate(self)

    def adjugate_cofactor(self) -> "Matrix":
        """Adjugate oracle: n**2 cofactors, each by det_subset_dp()."""
        if not self.is_square():
            raise ShapeError("adjugate requires a square matrix")
        n = self.rows
        R = self.ring
        out = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                cof = self.minor(j, i).det_subset_dp()
                if (i + j) & 1:
                    cof = R.neg(cof)
                out.append(cof)
        return Matrix(R, n, n, out)

    def map_entries(self, fn, codomain: Ring) -> "Matrix":
        """Apply fn to every entry, producing a matrix over codomain."""
        return Matrix(codomain, self.rows, self.cols, [fn(v) for v in self._e])

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and self.ring == other.ring
                and self.rows == other.rows
                and self.cols == other.cols
                and self._e == other._e)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self._e))

    def __repr__(self):
        R = self.ring
        body = "; ".join(
            ", ".join(R.format(v) for v in self.row_list(i))
            for i in range(1, self.rows + 1))
        return f"Matrix({self.rows}x{self.cols} over {R}: [{body}])"

    def to_json(self) -> dict:
        R = self.ring
        return {
            "ring": R.descriptor(),
            "rows": self.rows,
            "cols": self.cols,
            "entries": [
                [R.element_to_json(v) for v in self.row_list(i)]
                for i in range(1, self.rows + 1)
            ],
        }


@lru_cache(maxsize=None)
def _signed_permutations(n: int):
    """All (permutation, sign) pairs of S_n, cached per n."""
    out = []
    for sigma in permutations(range(n)):
        inversions = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if sigma[i] > sigma[j]
        )
        out.append((sigma, -1 if inversions & 1 else 1))
    return tuple(out)


def berkowitz(a: Matrix) -> list:
    """[c_0, ..., c_n] with det(t*I - a) = sum_j c_j * t**(n-j); c_0 = 1.

    Samuelson-Berkowitz (Berkowitz, IPL 18, 1984).  Let B be the leading
    k x k block of a, bordered by the column C above and the row R left
    of the diagonal entry d.  The charpoly of the bordered block is the
    Toeplitz product of the charpoly of B with the column
    1, -d, -R C, -R B C, ..., -R B**(k-1) C.  About n**4/4 ring
    multiplications, all inside Ring.dot, and no division.  Over QQ it
    runs on the integer lift B = L*A and returns c_k(B) / L**k.
    """
    if not a.is_square():
        raise ShapeError("characteristic polynomial requires a square matrix")
    R = a.ring
    if isinstance(R, RationalRing):
        b, scale = _lift(a)
        return [Fraction(c, scale ** k) for k, c in enumerate(berkowitz(b))]
    if _packs(R):
        coeffs, scale = _coefficients(a)
        w = _width(_minor_bound(a.rows, _norm(coeffs)))
        return [_unpack_value(c, R.base, w, scale ** k)
                for k, c in enumerate(berkowitz(_pack(a, coeffs, w)))]
    dot, sub = R.dot, R.sub
    n = a.rows
    e = a._e
    p = [R.one()]
    for k in range(n):
        block = [e[i * n:i * n + k] for i in range(k)]
        row = e[k * n:k * n + k]
        v = e[k:k * n:n]
        s = [e[k * n + k]]                    # d, R C, R B C, ...
        for j in range(k):
            if j:
                v = [dot(r, v) for r in block]
            s.append(dot(row, v))
        # Toeplitz product: new p_i = p_i - sum_j s_(i-1-j) * p_j, where
        # zip inside dot stops j at i - 1 and the appended zero is p_(k+1)
        p.append(R.zero())
        p = [p[0]] + [sub(p[i], dot(s[i - 1::-1], p)) for i in range(1, k + 2)]
    return p


def adjugate_coefficients(a: Matrix, c) -> list:
    """[D_0, ..., D_(n-1)] with adj(t*I - a) = sum_k t**k * D_k.

    c is berkowitz(a).  Horner in a: D_(n-1) = I and
    D_(k-1) = D_k @ a + c_(n-k) * I, so D_0 = (-1)**(n-1) * adj(a).  The
    first step is a itself, so this costs n - 2 matmuls.  Over QQ the
    whole recursion runs on the integer lift B = L*A, with c_k(B) =
    c_k * L**k, and D_k = D_k(B) / L**(n-1-k).
    """
    n = a.rows
    if n == 0:
        return []
    if isinstance(a.ring, RationalRing):
        b, scale = _lift(a)
        ds = adjugate_coefficients(b, _lift_coefficients(c, scale))
        return [_unlift(d, a.ring, scale ** (n - 1 - k))
                for k, d in enumerate(ds)]
    if _packs(a.ring):
        coeffs, scale = _coefficients(a)
        lifted = _lift_polynomials(a.ring.base, c, scale)
        # b bounds the l1 norm of every entry of D_(n-1) = I, D_(n-2), ...
        step, b = n * _norm(coeffs), 1
        bound = b
        for ci in lifted[1:n]:
            b = step * b + sum(map(abs, ci))
            bound = max(bound, b)
        w = _width(bound)
        ds = adjugate_coefficients(_pack(a, coeffs, w),
                                   [_horner(ci, w) for ci in lifted])
        return [_unpack(d, a.ring, w, scale ** (n - 1 - k))
                for k, d in enumerate(ds)]
    out = [Matrix.identity(a.ring, n)]
    for ci in c[1:n]:
        out.append(_plus_scalar(a if len(out) == 1 else out[-1] @ a, ci))
    out.reverse()
    return out


def _product(a: Matrix, b: Matrix) -> Matrix:
    """a @ b over a's ring, one Ring.dot per entry; shapes already checked."""
    R = a.ring
    dot = R.dot
    n, k, m = a.rows, a.cols, b.cols
    ae, be = a._e, b._e
    rows = [ae[i * k:(i + 1) * k] for i in range(n)]
    cols = [be[j::m] for j in range(m)]
    return Matrix(R, n, m, [dot(row, col) for row in rows for col in cols])


def _adjugate(a: Matrix) -> Matrix:
    """adj(a) for a square a with n >= 1: D_0 times (-1)**(n-1)."""
    adj = adjugate_coefficients(a, berkowitz(a))[0]
    return -adj if (a.rows - 1) & 1 else adj


def _lift(a: Matrix) -> tuple:
    """(B, L) for a matrix a over QQ: L is the lcm of the denominators of
    the entries (1 when there are none) and B = L * a, a matrix over ZZ."""
    scale = lcm(*[v.denominator for v in a._e])
    return Matrix(ZZ, a.rows, a.cols,
                  [v.numerator * (scale // v.denominator) for v in a._e]), scale


def _unlift(b: Matrix, ring: Ring, d: int) -> Matrix:
    """b / d over ring (QQ) for an integer matrix b; Fraction reduces."""
    return Matrix(ring, b.rows, b.cols, [Fraction(v, d) for v in b._e])


def _lift_coefficients(c, scale: int) -> list:
    """[c_k * scale**k] as integers: the charpoly of B from that of A."""
    out = [v * scale ** k for k, v in enumerate(c)]
    if any(v.denominator != 1 for v in out):
        raise ValueError("c cannot be the characteristic polynomial of "
                         "the matrix: c_k * L**k is not an integer")
    return [v.numerator for v in out]


def _packs(ring: Ring) -> bool:
    """Whether matrices over ring run on the Kronecker lift: R[t] with R
    one of ZZ, Z/m and QQ."""
    return (isinstance(ring, PolynomialRing)
            and isinstance(ring.base, (IntegerRing, ModRing, RationalRing)))


def _coefficients(a: Matrix) -> tuple:
    """(lists, L) for a matrix a over R[t]: the coefficient list of each
    entry as integers, and the scale L they carry.

    Over QQ[t], L is the lcm of the denominators of all coefficients (1
    when there are none) and the lists are those of L * p; over ZZ[t] and
    (Z/m)[t] they are the coefficients themselves (residues in [0, m))
    and L = 1.
    """
    if isinstance(a.ring.base, RationalRing):
        scale = lcm(*[v.denominator for p in a._e for v in p.coeffs])
        return [[v.numerator * (scale // v.denominator) for v in p.coeffs]
                for p in a._e], scale
    return [p.coeffs for p in a._e], 1


def _lift_polynomials(base: Ring, c, scale: int) -> list:
    """[c_k * scale**k] as integer coefficient lists: the charpoly of
    L*A from that of A over R[t]."""
    if not isinstance(base, RationalRing):
        return [p.coeffs for p in c]
    out = [[v * scale ** k for v in p.coeffs] for k, p in enumerate(c)]
    if any(v.denominator != 1 for p in out for v in p):
        raise ValueError("c cannot be the characteristic polynomial of "
                         "the matrix: c_k * L**k is not integral")
    return [[v.numerator for v in p] for p in out]


def _norm(lists) -> int:
    """The largest l1 norm of the coefficient lists, 0 when there are none."""
    return max([sum(map(abs, p)) for p in lists], default=0)


def _minor_bound(n: int, norm: int) -> int:
    """n! * (norm + 1)**n, which bounds the l1 norm of every c_k and of
    every (n-1) x (n-1) minor of an n x n matrix with entry norms <= norm."""
    return factorial(n) * (norm + 1) ** n


def _width(bound: int) -> int:
    """Bits w per coefficient with 2**(w-1) > bound, so that balanced base
    2**w digits recover every coefficient of absolute value <= bound."""
    return bound.bit_length() + 1


def _horner(coeffs, w: int) -> int:
    """p(2**w) for the coefficient list of p, constant term first."""
    v = 0
    for c in reversed(coeffs):
        v = (v << w) + c
    return v


def _pack(a: Matrix, lists, w: int) -> Matrix:
    """The matrix over ZZ of the entries p(2**w), from a's coefficient lists."""
    return Matrix(ZZ, a.rows, a.cols, [_horner(p, w) for p in lists])


def _unpack_value(v: int, base: Ring, w: int, d: int) -> Polynomial:
    """The polynomial over base whose coefficients are the balanced base
    2**w digits of v, each divided by d (over QQ) or reduced (over Z/m)."""
    half, mask, full = 1 << (w - 1), (1 << w) - 1, 1 << w
    digits = []
    while v:
        x = v & mask
        if x >= half:
            x -= full
        digits.append(x)
        v = (v - x) >> w
    if isinstance(base, RationalRing):
        return Polynomial(base, [Fraction(x, d) for x in digits])
    return Polynomial(base, list(map(base.from_int, digits)))


def _unpack(m: Matrix, ring: Ring, w: int, d: int) -> Matrix:
    """The matrix over ring (R[t]) unpacked from the ZZ matrix m."""
    base = ring.base
    return Matrix(ring, m.rows, m.cols,
                  [_unpack_value(v, base, w, d) for v in m._e])


def _plus_scalar(m: Matrix, value) -> Matrix:
    """m + value * I for a square m, adding on the diagonal only."""
    R = m.ring
    e = list(m._e)
    for d in range(0, len(e), m.rows + 1):
        e[d] = R.add(e[d], value)
    return Matrix(R, m.rows, m.cols, e)


def block2x2(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Matrix:
    """Glue four conforming blocks into [[a, b], [c, d]]."""
    for other in (b, c, d):
        a._check_ring(other)
    if a.rows != b.rows or c.rows != d.rows:
        raise ShapeError("block rows do not conform")
    if a.cols != c.cols or b.cols != d.cols:
        raise ShapeError("block columns do not conform")
    entries = []
    for i in range(1, a.rows + 1):
        entries.extend(a.row_list(i))
        entries.extend(b.row_list(i))
    for i in range(1, c.rows + 1):
        entries.extend(c.row_list(i))
        entries.extend(d.row_list(i))
    return Matrix(a.ring, a.rows + c.rows, a.cols + b.cols, entries)


def ent(m: Matrix):
    """The sole entry of a 1 x 1 matrix."""
    if (m.rows, m.cols) != (1, 1):
        raise ShapeError(f"ent requires a 1 x 1 matrix, got {m.rows} x {m.cols}")
    return m._e[0]


def apply_poly(p: Polynomial, a: Matrix) -> Matrix:
    """p(a) for a square matrix a over the coefficient ring of p (Horner)."""
    if not a.is_square():
        raise ShapeError("polynomial evaluation requires a square matrix")
    if p.ring != a.ring:
        raise RingMismatchError(
            f"polynomial over {p.ring} cannot act on a matrix over {a.ring}")
    R = a.ring
    n = a.rows
    if p.is_zero():
        return Matrix.zeros(R, n, n)
    coeffs = p.coeffs
    result = Matrix.identity(R, n).scale(coeffs[-1])
    for k in range(len(coeffs) - 2, -1, -1):
        result = _plus_scalar(result @ a, coeffs[k])
    return result


def char_matrix(a: Matrix) -> Matrix:
    """t*I - a over the polynomial ring of a's ring."""
    if not a.is_square():
        raise ShapeError("characteristic matrix requires a square matrix")
    K = a.ring
    L = PolynomialRing(K)
    n = a.rows
    t = L.t()
    entries = []
    for i in range(n):
        for j in range(n):
            v = Polynomial(K, (K.neg(a._e[i * n + j]),))
            if i == j:
                v = v + t
            entries.append(v)
    return Matrix(L, n, n, entries)
