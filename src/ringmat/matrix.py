"""Exact matrices over a commutative ring.

Matrices are immutable, stored row-major, and carry their ring.  Every
production kernel divides only in Z, a domain, where each division is
exact, and takes no division in any other ring, so it is valid over
rings with zero divisors (Z/m, including the zero ring Z/1) and over
nested R[t]:

  * matmul: n*k*m products, one Ring.dot per output entry.
  * det, charpoly, adj and the D_k at small n (_closed_form: n <= 2 on
    every ring, n = 3 over ZZ and bare Z/m): their defining polynomials
    in the entries, over the ring itself.  det is 1, a, ad - bc, or at
    n = 3 the first row times adj's first column; c = (1, -tr A, the sum
    of the principal 2 x 2 minors, -det A); adj is [[d, -b], [-c, a]] or
    the nine 2 x 2 cofactors; D_(n-1) = I, D_(n-2) = A - tr(A) * I and,
    at n = 3, D_0 = adj(A).  No lift, elimination, berkowitz() or Horner
    step runs.  The bullets below are the larger n.
  * charpoly_coefficients(): the c_j of det(t*I - A).  Over ZZ, the
    balanced base 2**W digits of det(2**W * I - A) by _bareiss (below),
    O(n**3), with W from Hadamard's bound on the rows, while n*W <=
    MAX_CHARPOLY_BITS; over QQ and the towers below the same on their
    row-scaled integer encoding.  Otherwise, and over Z/m and towers above
    MAX_SLOTS, berkowitz(): Samuelson-Berkowitz over the ring itself,
    about n**4/4 ring multiplications.
  * det(): over ZZ, Bareiss's fraction-free elimination (_bareiss),
    (n-1)*n*(2n-1)/6 entry updates with one exact division each, so
    O(n**3); over QQ and the towers below the same on their row-scaled
    integer encoding.  Over Z/m, not a domain in general, towers above
    MAX_SLOTS and integer entries wider than MAX_BAREISS_BITS, where
    CPython's quadratic division costs more than the products it saves,
    (-1)**n * c_n from berkowitz(), so O(n**4).
  * adjugate(): over ZZ, det's fraction-free elimination
    of [A | I] and back-substitution (_bareiss with a right-hand side,
    below), each row of I packed as one integer: det's entry updates,
    n*(n-1)/2 packed row updates and n - 1 packed back-substitution
    rows, with one exact division each, so O(n**3), while the adj slot
    width is at most MAX_SOLVE_BITS; over QQ and the towers below the
    same on their row-scaled integer encoding, with the row scales in
    place of I.  Otherwise, and as the fallback when
    some column k < n - 1 has no pivot: the charpoly coefficients summed
    by Horner in A, n - 2 steps H -> A @ H + c * I, so O(n**4).  Over ZZ
    each c_j comes out of that chain itself by the trace Cayley-Hamilton
    theorem (below), with no berkowitz(), and a step runs on packed rows
    (below).  Over Z/m and towers above MAX_SLOTS, one berkowitz() gives
    the c_j and a step is the matmul H @ A, the same matrix as H is a
    polynomial in A.  The D_k (adjugate_coefficients) always take the
    chain.
  * power_traces(): Tr(A), ..., Tr(A**m) from the powers up to
    h = ceil(m/2) alone, h - 1 matmuls, and Tr(A**k) for k > h as
    Tr(A**h @ A**(k-h)), one dot of n**2 products, where the power list
    takes m - 1 matmuls.  apply_poly(): Horner in A, deg p - 1 product
    steps.  Over QQ and the towers below each runs its whole chain on
    one integer encoding, decoding only its results.

Over QQ and over every tower R[t_1]...[t_d] (t_1 innermost) with R one
of ZZ, Z/m and QQ, each kernel runs over ZZ on an integer encoding of
the ring (_encode, _decode).  Over a QQ base the denominators are
cleared first, and one exact division per result undoes that:

  * det, charpoly and adj clear them row by row: B = D*A with
    D = diag(r_1, ..., r_n), r_i the lcm of row i's coefficient
    denominators (1 when there are none), and d = det D = prod r_i, at
    every n; any r_i that clear row i would do.  Then
    det(A) = det(B) / d.  det(x*D - B) = d * det(x*I - A), so its
    coefficients are the d * c_j(A), integers: d * c_j(A) is
    (-1)**j * sum_(|S|=j) prod_(i not in S) r_i * det B[S, S].  And
    adj(A) = adj(D**-1 @ B) = adj(B) @ adj(D**-1) = (adj(B) @ D) / d,
    as adj(D**-1) = det(D**-1) * D.  Over Z, and towers over ZZ and
    Z/m, D = I.
  * matmul, the power traces, p(A) and the D_k keep one scale per part,
    the same rule with the whole part as its one row: B = L*A with L the
    lcm of all its coefficient denominators:
    D_k(A) = D_k(B) / L**(n-1-k), A1 @ A2 = (B1 @ B2) / (L1 * L2) and
    Tr(A**k) = Tr(B**k) / L**k, as these are homogeneous of degree
    n-1-k, (1, 1) and k in the entries.  p(A), which is not, scales p
    by its own P too (q_i = P * p_i): P * L**d * p(A) =
    sum_i q_i * L**(d-i) * B**i, d = deg p.

A row's denominators need fewer bits than all of them: 8 x 8 matrices
with num in [-9, 9] and den in [1, 9] have log2 r_i about 7.0 on
average where log2 L is about 11.3, which takes the median n*W of
charpoly below from 888 to 632 bits and the adj slot from 115 to 79.
Over Z/m the residues in [0, m) are taken as integers.  Then
t_i -> x**(D_1*...*D_(i-1)) and x -> 2**w.  A result is read back as
its balanced base 2**w digits, each in [-2**(w-1), 2**(w-1)), regrouped
D_1, D_2, ... at a time, and reduced mod m or divided by d or the L
power.

This is exact.  Every kernel is a polynomial in the entries with integer
coefficients, so it commutes with the ring maps
Z[t_1, ..., t_d] -> Z[x] -> Z above and Z -> Z/m.  The first map is
injective on polynomials P with deg_(t_i) P < D_i for i < d: it sends
t_1**e_1 ... t_d**e_d to x**e with e = e_1 + D_1*e_2 + D_1*D_2*e_3 + ...
in mixed radix, so distinct monomials land on distinct powers of x.
Balanced digits recover the coefficients from the value at 2**w while
2**(w-1) exceeds each absolute value, and a coefficient is at most the
l1 norm of its polynomial, which is submultiplicative and subadditive;
a product adds t_i-degrees.  With N the largest entry norm and d_i the
largest t_i-degree of an entry, w = bit_length(norm bound) + 1 and
D_i = 1 + the t_i-degree bound.  A kernel's fit maps (N, degrees, R),
R the largest row scale r_i (1 where there are none), to (norm bound,
degree bounds), from:

  * matmul (_matmul_fit): a sum of k products, norm <= k * N_A * N_B
    and t_i-degree <= d_A,i + d_B,i, taking N and d_i over each factor.
  * d * c_j: a sum over the C(n, j) principal j x j minors of B of j!
    signed products each, times n - j row scales, norm
    <= n!/(n-j)! * R**(n-j) * N**j <= n! * max(N, R, 1)**n and
    t_i-degree <= n * d_i.
  * det: det B = (-1)**n * d * c_n, so c_n's bounds.
  * adj(B) @ D (_adjugate_fit): an entry of adj(B), bounded as D_0
    below, times one r_j: norm <= (n-1)! * max(N, 1)**(n-1) * R and
    t_i-degree <= (n-1) * d_i.
  * Tr(B**k) for every k <= m (_power_fit(n, m), the power traces'
    one lift): an entry of B**k is a sum of n**(k-1) products of k
    entries, so the trace is a sum of n**k of them, norm
    <= (n*N)**k <= (n*N)**m, as n*N >= 1 unless every value is 0, and
    t_i-degree <= k * d_i <= m * d_i.  So one lift sized for k = m
    decodes every trace of the chain.
  * P * L**d * p(A), d = deg p >= 1 (_power_fit(n, d, d + 1)): A's part
    carries the ring's 1 beside its entries, which B reads as L, so its
    norm is N_A = max(N_B, L) >= 1, and p's part has the norm N_q >= 1
    of its q_i, p being nonzero; N = N_A * N_q.  Term i of the sum above
    is q_i * L**(d-i) times an entry of B**i (of I at i = 0), norm
    <= N_q * L**(d-i) * n**i * N_B**i <= n**d * N_q * N_A**d, so an
    entry is at most (d+1) * n**d * N_q * N_A**d <= (d+1) * (n*N)**d,
    as N_q <= N_q**d.  Its t_i-degree is at most
    d_(p,i) + d * d_(B,i) <= d * d_i, d_i = d_(B,i) + d_(p,i) the sum
    that _encode passes.
  * D_k: an entry of D_k is the t**k coefficient of an (n-1) x (n-1)
    minor of t*I - A, a signed sum over k diagonal places that give t,
    C(n-1, k) choices at most, and a matching of the other n-1-k rows to
    columns, (n-1-k)! choices, of products of n-1-k entries of A.  So
    its norm is <= (n-1)!/k! * N**(n-1-k) <= (n-1)! * max(N, 1)**(n-1)
    and its t_i-degree <= (n-1-k) * d_i <= (n-1) * d_i: the adjugate's
    bounds, as adj = (-1)**(n-1) * D_0, hold for every D_k.

So d * c_j and det (e = n) and every D_k (e = n - 1, R = 1) are signed
sums of at most e! products of at most e entries or row scales, and one
fit bounds them all, _minors_fit(e): norm <= e! * max(N, R, 1)**e,
t_i-degree <= e * d_i.  Only the results are decoded, so the lift of
adj and the D_k is sized by _adjugate_fit(n) and _minors_fit(n - 1)
although the c_j taken on the way are wider; the packed slots over ZZ
below have their own fits.

det() divides on the way, and exactly.  After step k of _bareiss (0
first) the entry in row i and column j, both > k, is the (k+2) x (k+2)
minor of the row-permuted matrix on rows 0..k, i and columns 0..k, j
(Sylvester's identity), and the divisor is the pivot of step k-1, the
(k+1) x (k+1) leading minor; so every division is exact in Z[a_ij], and
as the lift is a ring map it is exact on the packed integers as well.
Z being a domain, that alone makes the result det of the encoded
matrix, which is the encoding of det.  Every pivot is a j x j minor, of
norm <= j! * N**j <= n! * max(N, 1)**n and t_i-degree <= n * d_i, within
_minors_fit(n), so a packed pivot is 0 exactly when its minor is 0 as a
polynomial: the elimination takes the pivots the polynomial matrix
would.

adjugate() over ZZ runs det's pass on [A | D], D = diag(r_i) the row
scales (I over ZZ itself), row i of the right-hand side packed as
b_i = sum_j x_ij * 2**(w*j), first r_i * 2**(w*i), and then
back-substitutes.  Let P be the row swaps the pass makes and
sign = det P.  Every slot of b_i is updated as an entry of row i is, so
after the pass it is, as above, the (i+1) x (i+1) minor of [PA | PD] on
rows 0..i, columns 0..i-1 and that slot's column of PD, and a_ij
(j >= i) the one with column j; the divisions are exact (Sylvester).
So a_ii is the pivot of step i, and d = a_(n-1)(n-1) = det(PA).
X = adj(PA) @ PD = sign * adj(A) @ D solves PA @ X = d * PD.  Each step
replaces a row by p/p' times itself less a multiple of the pivot row, p
and p' nonzero, so row i of the eliminated [A | D] is a rational
combination of the rows of [PA | PD], and X satisfies
a_ii * X_i = d * b_i - sum_(j>i) a_ij * X_j.  For i <= n - 2, a_ii is a
pivot the search found nonzero, so this gives X_i by one exact
division.  X_(n-1) = b_(n-1): by Laplace along the last column both are
det(PA) with that column replaced by a column of PD, an identity with no
division, so it holds at d = 0 too, and d only multiplies: a singular A
needs no special case.  Packing is Z-linear,
so each packed division is exact and its quotient packs the slot
quotients, even where a slot has outgrown w and carried into its
neighbour: only the final slots are read.  _bareiss negates the rows
if sign < 0.  Only a column k < n - 1 with no pivot falls back, to the
trace chain; that happens exactly when the first k + 1 columns of A are
linearly dependent.  So every A of rank <= n - 2 falls back (adj = 0),
and one of rank n - 1, a duplicated row included, does not whenever its
first n - 1 columns are independent; the chain's adj(A) is then
multiplied by D column by column.  An entry of adj(A) @ D is r_j times
an (n-1) x (n-1) minor of A, whose rows are rows of A less one entry,
so by Hadamard's inequality (below) it is at most r_j times the product
of the other n - 1 rows' euclidean norms: at most ceil(sqrt(P)) *
max r_i, P the product of the n - 1 largest squared row norms (one
integer square root).  w = bit_length(that) + 1 reads it back as a
balanced digit, and the pass runs while w <= MAX_SOLVE_BITS (the table
there).

charpoly_coefficients() over ZZ is the same substitution with one
variable and no digit regrouping.  For an integer A and D = diag(r_i)
its row scales (D = I over ZZ itself), det(t*D - A) =
sum_j d * c_j * t**(n-j), d = det D and c_j those of D**-1 @ A, is a
polynomial in t and the entries with integer coefficients, so its value
at t = 2**W is det(2**W * D - A), an integer matrix that _bareiss takes
exactly.  W is read off the rows (_row_squares).  With rho_i the
euclidean norm of row i of A,
d * c_j = (-1)**j * sum_(|S|=j) prod_(i not in S) r_i * det A[S, S], and
Hadamard's inequality (Bull. Sci. Math. 1893) bounds |det A[S, S]| by
the product of its rows' norms, each at most rho_i.  Expanding the
product row by row, |d * c_j| <= sum_(|S|=j) prod_(i not in S) r_i *
prod_(i in S) rho_i <= prod_i (r_i + rho_i) <= B =
prod_i (r_i + ceil(rho_i)), and W = bit_length(B) + 1 puts every
d * c_j in [-2**(W-1), 2**(W-1)): the n + 1 balanced base 2**W digits of
det(2**W * D - A), lowest first, are d * c_n, ..., d * c_0, and
d * c_0 = d >= 1 makes the top one nonzero; B >= 1 gives W >= 2.  The
bound holds for any integer matrix, a lifted QQ or tower one included,
and it is read from the matrix rather than from its largest entry M: W
is about 44 bits for a 10 x 10 matrix with entries in [-9, 9], where
n! * max(M, 1)**n takes 55.  Eliminating 2**W * D - A divides minors up
to n*W bits wide, so this route is taken only while
n*W <= MAX_CHARPOLY_BITS (the table there); a lifted QQ or tower
matrix, whose packed entries are wide, crosses it sooner.  Above it,
berkowitz() runs on L * D**-1 @ A, L = lcm(r_i), whose c_j are L**j
times those of D**-1 @ A, so d * c_j = d * (its c_j) / L**j exactly.

Intermediate values are never decoded and may exceed both bounds.  A
result takes D_1*...*D_d digit slots however sparse: c_1 of entries
t_1 + ... + t_64 in a 64-deep tower takes 2**64.  Above MAX_SLOTS a
tower keeps Ring.dot (PolynomialRing.dot stores only the terms there
are); a flat R[t] wastes no slot.

Over ZZ, adjugate() and adjugate_coefficients() call no berkowitz().
Their chain H_0 = I, H_j = A @ H_(j-1) + c_j * I has H_j = D_(n-1-j),
and A @ H_(j-1) = sum_(i<j) c_i * A**(j-i), so the paper's theorem
j*c_j + sum_(i=1..j) Tr(A**i)*c_(j-i) = 0 reads
j * c_j = -tr(A @ H_(j-1)) (Faddeev-LeVerrier): each step forms
A @ H_(j-1), divides its trace by j, exactly as Z has no torsion, and
adds c_j * I.  QQ and the towers run this on their integer encoding,
a ring map into Z, so there too each division is exact.  Bare Z/m,
where j may be a zero divisor, and towers above MAX_SLOTS have no such
kernel and keep berkowitz().

Over ZZ itself, for n >= 4, the Horner steps of adjugate(),
adjugate_coefficients() and apply_poly() run on the rows of H packed as
one integer each, column j -> 2**(w*j) (_horner): row i of A @ H + c * I
is the row product sum_k a_ik * P_k over the packed rows P_k, plus
c * 2**(w*i), so a step takes n row products where a matmul takes n**2
dot products.  Packing is linear, so this is exact, and balanced digits
read a slot back while 2**(w-1) exceeds its value.  With M the largest
|a_ij|, the D_k bound above at depth 0 (N = M) gives
|D_k| <= (n-1)!/k! * M**(n-1-k) <= (n-1)! * max(M, 1)**(n-1) for every
k, and |c_j| <= n!/(n-j)! * M**j.  Before c_j is added a diagonal slot
of A @ H_(j-1) holds (H_j)_ii - c_j, for j <= n - 1 at most
(n-1)! * M**(n-1) + n! * M**(n-1) = (n+1) * (n-1)! * max(M, 1)**(n-1)
(_trace_fit(n)), the slot bound of adj and the D_k.  An entry of p(A)
is at most ||p||_1 * max(1, n*M)**deg p (_poly_fit).  Every slot is
sized for its bound, and only the states returned and the diagonals
are read, so packing pays at small w and not at large.  Packed over
matmul Horner time (median of 7 alternating pairs of CPU times, 2-vCPU
VM; c_j from berkowitz()):

        w:     300   500   650   800  1000
    adj n=4   0.83  0.86  0.94  0.91  1.02
    adj n=8   0.55  0.69  0.74  0.82  0.93
    adj n=12  0.49  0.61  0.69  0.80  0.88
    D_k n=4   0.97  1.02  1.06  1.22  1.10
    D_k n=8   0.74  0.89  0.91  1.02  1.13
    D_k n=12  0.68  0.81  0.93  1.03  1.13

At n = 3, one product step, both read 1.01-1.20 at every w from 10 to
1000, and p(A) with deg p = 2, one product step too, read 1.04-1.21 at
n = 4 and 5 (entries in [-9, 9]): one step pays the packing and the
read-back for a single product.  So the rows pack from two product
steps (d >= 3 in _horner) for n >= 4 and w <= MAX_WIDTH = 700 bits;
otherwise, and over Z/m, the steps are matmuls.  QQ and the towers
reach the packed rows through their integer encoding.

Independent oracles, kept for identities and tests to compare against:
det_subset_dp() is a dynamic program over column subsets (_subset_levels),
n * 2**(n-1) products; adjugate_cofactor() runs that DP once down from
the top rows and once up from the bottom rows and reads every cofactor
off the two tables by Laplace's expansion, about 3 * n * 2**(n-1)
products; det_leibniz() is the naive signed permutation sum, refused for
n > 8.  None of them divides, and none shares code with the kernels.

Row, column, and entry indices are 1-based in the public operations
(entry, row, minor, submatrix); that matches the usual cofactor and
Laplace sign conventions, where the (i, j) cofactor carries (-1)**(i+j).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import islice, permutations, repeat
from math import factorial, isqrt, lcm, prod
from operator import matmul, mul

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
    power,
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

    def require_square(self, what: str) -> None:
        """Raise ShapeError unless the matrix is square; what names the
        operation that needs it, as the message's subject."""
        if self.rows != self.cols:
            raise ShapeError(f"{what} requires a square matrix, "
                             f"got {self.rows} x {self.cols}")

    def is_zero(self) -> bool:
        R = self.ring
        return all(R.is_zero(v) for v in self._e)

    def _check_ring(self, other: "Matrix") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
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
        n, k, m = self.rows, self.cols, other.cols
        if not n * k * m:
            return Matrix.zeros(self.ring, n, m)
        if lifted := _encode(self.ring, (self._e, other._e), _matmul_fit(k)):
            (x, y), ctx = lifted
            product = _product(Matrix(ZZ, n, k, x), Matrix(ZZ, k, m, y))
            return Matrix(self.ring, n, m,
                          _decode(product._e, ctx, prod(ctx[1])))
        return _product(self, other)

    def scale(self, value) -> "Matrix":
        """Multiply every entry by a ring value."""
        R = self.ring
        value = R.coerce(value)
        return Matrix(R, self.rows, self.cols, [R.mul(value, a) for a in self._e])

    def __pow__(self, k: int) -> "Matrix":
        self.require_square("matrix power")
        return power(self, k, matmul,
                     lambda: Matrix.identity(self.ring, self.rows))

    def trace(self):
        self.require_square("trace")
        R = self.ring
        acc = R.zero()
        for i in range(self.rows):
            acc = R.add(acc, self._e[i * self.cols + i])
        return acc

    def det(self):
        """Determinant; det of 0 x 0 is 1.

        Where _closed_form holds (n <= 2, and n = 3 over ZZ and Z/m), its
        closed form over the ring itself (_small_det).  Otherwise over
        ZZ, _integer_det; over QQ and towers the same on the row-scaled
        integer encoding B = D*A, at c_n's fit _minors_fit(n), divided by
        det D.  Over Z/m and towers above MAX_SLOTS, (-1)**n * c_n of
        berkowitz().
        """
        self.require_square("determinant")
        n, R = self.rows, self.ring
        if _closed_form(n, R):
            return _small_det(R, self._e, n)
        if isinstance(R, IntegerRing):
            return _integer_det(self._e, n)
        if lifted := _encode(R, (self._e,), _minors_fit(n), n):
            (ints,), ctx = lifted
            return _decode([_integer_det(ints, n)], ctx, prod(ctx[1]))[0]
        c_n = berkowitz(self)[-1]
        return R.neg(c_n) if n & 1 else c_n

    def det_subset_dp(self):
        """Determinant oracle, independent of berkowitz(): the full level
        of the column-subset DP (_subset_levels) on rows 1..n, so
        n * 2**(n-1) products at most.  det of the 0 x 0 matrix is 1."""
        self.require_square("determinant")
        n, R = self.rows, self.ring
        return _subset_levels(R, self._e, n, range(n))[n].get((1 << n) - 1,
                                                              R.zero())

    def det_leibniz(self):
        """Signed permutation sum, a second determinant oracle; exponential
        in n and refused for n > 8."""
        self.require_square("determinant")
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
        m, e = self.cols, self._e
        cols = [c for c in range(m) if c != j - 1]
        out = [e[r * m + c] for r in range(self.rows) if r != i - 1 for c in cols]
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
        m, e = self.cols, self._e
        out = [e[(i - 1) * m + (j - 1)] for i in row_idx for j in col_idx]
        return Matrix(self.ring, len(row_idx), len(col_idx), out)

    def adjugate(self) -> "Matrix":
        """Adjugate (classical adjoint): entry (i, j) is the (j, i) cofactor.

        Where _closed_form holds (n <= 2, and n = 3 over ZZ and Z/m),
        those cofactors over the ring itself (_small_adjugate).
        Otherwise over ZZ, and over QQ and polynomial towers on the
        row-scaled integer encoding B = D*A as adj(B) @ D, bounded by
        _adjugate_fit(n) and decoded at det D (_scaled_adjugate), by
        solving A @ X = det(A) * I: fraction-free elimination of [A | I]
        on packed rows and back-substitution (_solved_adjugate), while
        the slots are at most MAX_SOLVE_BITS wide.  Otherwise, or if the
        elimination finds no pivot before its last column, as
        adj(A) = (-1)**(n-1) * (c_0*A**(n-1) + ... + c_(n-1)*I) by
        Horner, the c_j from the trace recursion on the way, or over
        Z/m and towers above MAX_SLOTS from berkowitz().  adj of any
        1 x 1 matrix is (1); adj of the 0 x 0 matrix is itself.
        """
        self.require_square("adjugate")
        n, R, e = self.rows, self.ring, self._e
        if _closed_form(n, R):
            return Matrix(R, n, n, _small_adjugate(R, e, n)) if n else self
        if isinstance(R, IntegerRing):
            return _scaled_adjugate(self)
        if lifted := _encode(R, (e,), _adjugate_fit(n), n):
            (ints,), ctx = lifted
            x = _scaled_adjugate(Matrix(ZZ, n, n, ints), ctx[1])
            return Matrix(R, n, n, _decode(x._e, ctx, prod(ctx[1])))
        return _horner(self, berkowitz(self)[:n], None,
                       negate=(n - 1) & 1)[0]

    def adjugate_cofactor(self) -> "Matrix":
        """Adjugate oracle by two column-subset DPs (_subset_levels), about
        3 * n * 2**(n-1) products.

        top[j] maps each j-subset S of columns to det A[rows 0..j-1, S],
        and bottom[m] each m-subset U to det A[rows n-1, ..., n-m, U], its
        rows taken upwards: (-1)**(m*(m-1)/2) * det A[rows n-m..n-1, U].
        Neither builds its full level.  The cofactor of a_jc, entry (c, j)
        of adj A, is the coefficient of a_jc in det A, so by Laplace's
        expansion along rows 0..j-1, j and j+1..n-1 it is the sum over S
        and U = rest - S, rest the columns other than c, of
        top[j][S] * det A[rows j+1..n-1, U] times the sign of the shuffle
        S, c, U: (-1)**(inv(S, S') + inv(c, U)), S' the complement of S and
        inv(X, Y) the number of pairs x > y, with inv(S, S') =
        sum(S) - j*(j-1)/2.
        """
        self.require_square("adjugate")
        n, R, e = self.rows, self.ring, self._e
        top = _subset_levels(R, e, n, range(n - 1))
        bottom = _subset_levels(R, e, n, range(n - 1, 0, -1))
        full, odd = (1 << n) - 1, int("10" * (n + 1), 2)   # odd: bits 1, 3, ..
        bits = [(c, 1 << c) for c in range(n)]
        is_zero, mul, neg, add = R.is_zero, R.mul, R.neg, R.add
        out = [None] * (n * n)
        for j in range(n):
            m = n - 1 - j
            below, flip = bottom[m], (j * (j - 1) + m * (m - 1)) // 2
            for mask, t in top[j].items():
                if is_zero(t):
                    continue
                # flip: bottom's row order and j*(j-1)/2; the odd bits of
                # S: sum(S) mod 2; the bits of rest below c: inv(c, U)
                rest = full ^ mask
                parity = flip + (mask & odd).bit_count()
                for c, bit in bits:
                    if not rest & bit or (b := below.get(rest ^ bit)) is None:
                        continue
                    term = mul(t, b)
                    if (parity + (rest & (bit - 1)).bit_count()) & 1:
                        term = neg(term)
                    k = c * n + j
                    out[k] = term if out[k] is None else add(out[k], term)
        zero = R.zero()
        return Matrix(R, n, n, [zero if v is None else v for v in out])

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
        return {"ring": R.descriptor(), "rows": self.rows, "cols": self.cols,
                "entries": [[R.element_to_json(v) for v in self.row_list(i)]
                            for i in range(1, self.rows + 1)]}


def _subset_levels(R: Ring, e, n: int, rows) -> list:
    """The column-subset DP on the given rows of the n x n entries e, in
    that order: level k maps each k-subset S of columns, a bit mask, to
    det of the submatrix on the first k of those rows and columns S, by
    Laplace expansion along its last row.  A zero value may be absent."""
    is_zero, mul, neg, add = R.is_zero, R.mul, R.neg, R.add
    table = {0: R.one()}
    levels = [table]
    for r, i in enumerate(rows):
        row, nxt = [], {}
        for j, a in enumerate(e[i * n:i * n + n]):
            if not is_zero(a):
                row.append((1 << j, a))
        for mask, val in table.items():
            if is_zero(val):
                continue
            for bit, a in row:
                if mask & bit:
                    continue
                term = mul(a, val)
                # parity of r + (position of the column among those chosen)
                if (r + (mask & (bit - 1)).bit_count()) & 1:
                    term = neg(term)
                nm = mask | bit
                cur = nxt.get(nm)
                nxt[nm] = term if cur is None else add(cur, term)
        levels.append(table := nxt)
    return levels


@lru_cache(maxsize=None)
def _signed_permutations(n: int):
    """All (permutation, sign) pairs of S_n, cached per n."""
    out = []
    for sigma in permutations(range(n)):
        inversions = sum(sigma[i] > sigma[j]
                         for i in range(n) for j in range(i + 1, n))
        out.append((sigma, -1 if inversions & 1 else 1))
    return tuple(out)


def charpoly_coefficients(a: Matrix) -> list:
    """[c_0, ..., c_n] with det(t*I - a) = sum_j c_j * t**(n-j); c_0 = 1.

    Where _closed_form holds (n <= 2, and n = 3 over ZZ and Z/m), the
    closed forms over the ring itself (_small_charpoly).  Otherwise over
    ZZ, _integer_charpoly; over QQ and towers the same on the row-scaled
    integer encoding B = D*A, at the fit _minors_fit(n) of
    det(x*D - B), divided by det D.  Over Z/m and towers above
    MAX_SLOTS, berkowitz().
    """
    a.require_square("characteristic polynomial")
    n, R = a.rows, a.ring
    if _closed_form(n, R):
        return _small_charpoly(R, a._e, n)
    if isinstance(R, IntegerRing):
        return _integer_charpoly(a._e, n)
    if lifted := _encode(R, (a._e,), _minors_fit(n), n):
        (ints,), ctx = lifted
        return _decode(_integer_charpoly(ints, n, ctx[1]), ctx, prod(ctx[1]))
    return berkowitz(a)


def berkowitz(a: Matrix) -> list:
    """[c_0, ..., c_n] with det(t*I - a) = sum_j c_j * t**(n-j); c_0 = 1,
    over the ring of a itself: the fallback of the kernels where no
    integer kernel applies, and the reference the tests compare against.

    Samuelson-Berkowitz (Berkowitz, IPL 18, 1984).  Let B be the leading
    k x k block of a, bordered by the column C above and the row R left
    of the diagonal entry d.  The charpoly of the bordered block is the
    Toeplitz product of the charpoly of B with the column
    1, -d, -R C, -R B C, ..., -R B**(k-1) C.  About n**4/4 ring
    multiplications, all inside Ring.dot, and no division, so it is
    valid over every commutative ring.  It never lifts: over QQ and
    polynomial towers it runs on Fractions and Polynomials.
    """
    a.require_square("characteristic polynomial")
    R = a.ring
    n = a.rows
    dot, sub = R.dot, R.sub
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


def adjugate_coefficients(a: Matrix) -> list:
    """[D_0, ..., D_(n-1)] with adj(t*I - a) = sum_k t**k * D_k.

    Horner in a on the charpoly coefficients c: D_(n-1) = I and
    D_(k-1) = a @ D_k + c_(n-k) * I, so D_0 = (-1)**(n-1) * adj(a); this
    is D_k @ a + c_(n-k) * I, as D_k is a polynomial in a.  The first
    step is a itself, D_(n-2) = a - tr(a) * I, so where _closed_form
    holds (n <= 2, and n = 3 over ZZ and Z/m) no step runs: D_0 is
    -adj(a) at n = 2 and adj(a) at n = 3 (_small_adjugate).  Otherwise
    this costs n - 2 steps (_horner).  Over ZZ each c_j is
    -tr(a @ D_(n-j)) / j, taken on the way.  Over QQ and polynomial
    towers the D_k run on the integer encoding B = L*A, one L for the
    whole matrix, where _minors_fit(n - 1) bounds every D_k and D_k
    decodes at L**(n-1-k).  Over Z/m, and towers above MAX_SLOTS,
    c = berkowitz(a).
    """
    a.require_square("adjugate coefficients")
    n, R = a.rows, a.ring
    if not n:
        return []
    if _closed_form(n, R):
        ds = [Matrix.identity(R, n)]
        if n >= 2:
            ds.insert(0, _plus_scalar(a, R.neg(reduce(R.add, a._e[::n + 1]))))
        if n == 3:
            ds.insert(0, Matrix(R, n, n, _small_adjugate(R, a._e, n)))
        return ds
    if isinstance(R, IntegerRing):
        return _horner(a, None, _trace_fit(n), every=True)[::-1]
    if lifted := _encode(R, (a._e,), _minors_fit(n - 1)):
        (ints,), ctx = lifted
        ds = adjugate_coefficients(Matrix(ZZ, n, n, ints))
        scale = prod(ctx[1])
        return [Matrix(R, n, n, _decode(d._e, ctx, scale ** (n - 1 - k)))
                for k, d in enumerate(ds)]
    return _horner(a, berkowitz(a)[:n], None, every=True)[::-1]


# The square kernels' closed forms over the ring itself, which need no
# lift, no elimination and no berkowitz(): they hold over every
# commutative ring, as each is the defining polynomial in the entries.
# Closed form over the general route, CPU time per call (one process,
# median of 11 alternating batches of 200 fuzz.sample_matrix inputs,
# every result equal, 2-vCPU VM, CPython 3.11); at n = 3 over QQ and
# (Z/8)[t] against the lift that stays there:
#
#                  n = 2                      n = 3
#                  det   char  adj   D_k      det   char  adj   D_k
#     int          0.15  0.20  0.19  0.67     0.44  0.55  0.25  0.50
#     mod 8        0.07  0.19  0.09  0.32     0.20  0.41  0.14  0.30
#     rat          0.56  0.59  0.11  0.53     2.03  2.46  1.37  1.42
#     (Z/8)[t]     0.48  0.47  0.12  0.34     1.29  1.73  1.28  1.29
#
# det and charpoly at n = 0, and n = 1, read 0.03-0.56.  So n <= 2 takes
# them on every ring, and n = 3 only over ZZ and bare Z/m: over QQ and
# the towers the lift packs each entry once and runs on integers, where
# the 3 x 3 forms take 9-18 products of Fractions or polynomials.
def _closed_form(n: int, ring: Ring) -> bool:
    """Whether det, charpoly and adjugate of an n x n matrix over ring
    take their closed forms (_small_det, _small_charpoly,
    _small_adjugate)."""
    return n <= 2 or n == 3 and isinstance(ring, (IntegerRing, ModRing))


# adj(A) of a 3 x 3 A, row-major: entry k is e[p]*e[q] - e[r]*e[s] for
# (p, q, r, s) = _ADJ3[k], e the row-major entries of A, so _ADJ3[::3]
# is the first column and _ADJ3[::4] the diagonal.
_ADJ3 = ((4, 8, 5, 7), (2, 7, 1, 8), (1, 5, 2, 4),
         (5, 6, 3, 8), (0, 8, 2, 6), (2, 3, 0, 5),
         (3, 7, 4, 6), (1, 6, 0, 7), (0, 4, 1, 3))


def _cofactors(R: Ring, e, keys) -> list:
    """e[p]*e[q] - e[r]*e[s] over R for each (p, q, r, s) in keys."""
    mul, sub = R.mul, R.sub
    return [sub(mul(e[p], e[q]), mul(e[r], e[s])) for p, q, r, s in keys]


def _small_det(R: Ring, e, n: int):
    """det of the n x n matrix with row-major entries e, n <= 3: 1, a,
    ad - bc, or at n = 3 the first row times adj's first column."""
    if n == 3:
        return R.dot(e[:3], _cofactors(R, e, _ADJ3[::3]))
    if n == 2:
        return R.sub(R.mul(e[0], e[3]), R.mul(e[1], e[2]))
    return e[0] if n else R.one()


def _small_charpoly(R: Ring, e, n: int) -> list:
    """[c_0, ..., c_n] of the n x n matrix with row-major entries e,
    n <= 3: c_0 = 1, c_1 = -tr A, c_n = (-1)**n * det A and, at n = 3,
    c_2 the sum of the principal 2 x 2 minors, adj's diagonal."""
    c = [R.one()]
    if n:
        c.append(R.neg(reduce(R.add, e[::n + 1])))
    if n == 3:
        c.append(reduce(R.add, _cofactors(R, e, _ADJ3[::4])))
    if n >= 2:
        d = _small_det(R, e, n)
        c.append(R.neg(d) if n & 1 else d)
    return c


def _small_adjugate(R: Ring, e, n: int) -> list:
    """The row-major entries of adj of the n x n matrix with row-major
    entries e, 1 <= n <= 3: (1), [[d, -b], [-c, a]], or _ADJ3."""
    if n == 3:
        return _cofactors(R, e, _ADJ3)
    if n == 2:
        return [e[3], R.neg(e[1]), R.neg(e[2]), e[0]]
    return [R.one()]


def _product(a: Matrix, b: Matrix) -> Matrix:
    """a @ b over a's ring, one Ring.dot per entry; shapes already checked."""
    R, dot = a.ring, a.ring.dot
    n, k, m = a.rows, a.cols, b.cols
    ae, be = a._e, b._e
    rows = [ae[i * k:(i + 1) * k] for i in range(n)]
    cols = [be[j::m] for j in range(m)]
    return Matrix(R, n, m, [dot(row, col) for row in rows for col in cols])


def _integer_det(entries, n: int) -> int:
    """det of the n x n integer matrix with these row-major entries,
    n >= 3 (smaller ones take _small_det): _bareiss while every entry has
    at most MAX_BAREISS_BITS bits, else (-1)**n * c_n of berkowitz()."""
    if max(max(entries), -min(entries)).bit_length() > MAX_BAREISS_BITS:
        c_n = berkowitz(Matrix(ZZ, n, n, entries))[-1]
        return -c_n if n & 1 else c_n
    return _bareiss(entries, n)


# The widest entry, in bits, on which det() eliminates.  CPython divides
# in quadratic time but multiplies subquadratically above about 2100
# bits, and _bareiss divides once per update on minors that grow with
# each step.  Its CPU time over that of berkowitz()'s c_n (median of 5
# alternating batches, n = 2..8, 2-vCPU VM, CPython 3.11) read
# 0.31-0.90 at 512 bits, 0.94-1.10 at 768-1536 and 1.1-1.5 at 8192-32768.
MAX_BAREISS_BITS = 512


def _bareiss(entries, n: int, rhs=None) -> int | None:
    """det of the n x n integer matrix A, n >= 1, with these row-major
    entries, by Bareiss's fraction-free elimination (Math. Comp. 22,
    1968).

    Step k takes the first row at or below k with a nonzero entry in
    column k as the pivot row (a swap flips the sign; none at all means
    det = 0), and sets a_ij = (a_ij * p - a_ik * a_kj) / p' for i, j > k,
    p = a_kk and p' the pivot before (1 at the first step).  Each
    division is exact, (n-1)*n*(2n-1)/6 entry updates in all, and the
    last a_(n-1)(n-1) is det up to the sign.

    With rhs, a list of n integers b_i (a right-hand side B, one integer
    per row, such as a packed row), each step also updates the b_i below
    the pivot, b_i = (b_i * p - a_ik * b_k) / p', swapping them with the
    rows of A.  Back-substitution then solves A @ X = det(A) * B with
    d = a_(n-1)(n-1): X_(n-1) = b_(n-1), and for i = n-2 down to 0,
    X_i = (d * b_i - sum_(j>i) a_ij * X_j) / a_ii, a_ii being the pivot
    of step i.  On return rhs holds the rows of adj(A) @ B (the rows are
    negated after an odd number of swaps), after n*(n-1)/2 updates of a
    b_i, the entry updates above and n - 1 back-substitution rows, each
    with one exact division (the module docstring).  d = 0, a singular
    A, needs no special case.  A column k < n - 1 with no pivot returns
    0 without rhs and None with it.
    """
    a = [list(entries[i * n:i * n + n]) for i in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        for i in range(k, n):
            if a[i][k]:
                break
        else:
            return 0 if rhs is None else None
        if i != k:
            a[k], a[i] = a[i], a[k]
            if rhs is not None:
                rhs[k], rhs[i] = rhs[i], rhs[k]
            sign = -sign
        top = a[k]
        p = top[k]
        for r in a[k + 1:]:
            f = r[k]
            for j in range(k + 1, n):
                r[j] = (r[j] * p - f * top[j]) // prev
        if rhs is not None:     # column k is as it was: updates start at k+1
            b = rhs[k]
            for i in range(k + 1, n):
                rhs[i] = (rhs[i] * p - a[i][k] * b) // prev
        prev = p
    d = a[-1][-1]
    if rhs is not None:
        for i in range(n - 2, -1, -1):
            r = a[i]
            s = sum(map(mul, r[i + 1:], rhs[i + 1:]))
            rhs[i] = (d * rhs[i] - s) // r[i]
        if sign < 0:
            rhs[:] = [-b for b in rhs]
    return sign * d


def _scaled_adjugate(a: Matrix, scales=()) -> Matrix:
    """adj(a) @ D for a square a over ZZ with n >= 3 (smaller ones take
    _small_adjugate), D the diagonal of the positive integers scales
    (D = I if there are none): _solved_adjugate where it applies, else
    the trace chain (_horner) with column j times r_j."""
    n = a.rows
    if x := _solved_adjugate(a, scales):
        return x
    adj = _horner(a, None, _trace_fit(n), negate=(n - 1) & 1)[0]
    if scales:
        adj = Matrix(ZZ, n, n, list(map(mul, adj._e, scales * n)))
    return adj


def _solved_adjugate(a: Matrix, scales=()) -> Matrix | None:
    """X = adj(a) @ D for a square a over ZZ, D the diagonal of the
    positive integers scales (D = I if there are none), as the solution
    of a @ X = det(a) * D, by _bareiss on [a | D] with back-substitution,
    row i of D packed as r_i * 2**(w*i); None when w > MAX_SOLVE_BITS or
    some column k < n - 1 has no pivot.  w = bit_length(bound) + 1 with
    bound = ceil(sqrt(P)) * max r_i, P the product of the n - 1 largest
    squared row norms: an entry of X is r_j times an (n-1) x (n-1) minor
    of a, whose rows are rows of a less one entry (Hadamard's
    inequality)."""
    n, e = a.rows, a._e
    top = prod(sorted(_row_squares(e, n))[1:])
    w = _slot_width((isqrt(top - 1) + 1 if top else 0)
                    * max(scales, default=1))
    if w > MAX_SOLVE_BITS:
        return None
    shifts = range(0, n * w, w)
    rows = ([r << s for r, s in zip(scales, shifts)] if scales
            else [1 << s for s in shifts])
    if _bareiss(e, n, rows) is None:
        return None
    return Matrix(a.ring, n, n, [x for r in _digits(rows, w, n) for x in r])


# The widest adj slot w, in bits, at which adjugate() over ZZ eliminates
# (_solved_adjugate) rather than running the trace chain; w is sized
# from the rows (_solved_adjugate: Hadamard's bound times max r_i).
# The packed rows are n*w bits wide, and each of the n*(n-1)/2 forward
# updates and n - 1 back-substitution rows divides one in time quadratic
# in that width, where a chain step only multiplies it by small entries.
# Elimination's CPU time over the chain's (median of 9-11 alternating
# batches of about 20 ms, every result equal, 2-vCPU VM, CPython 3.11),
# on entries uniform in [-M, M] (n = 3..16, w up to 2900), on lifted
# rationals (n = 3..10, num in [-9, 9], den in [1, 9..10**40]) and on
# Z[t] and (Z/8)[t] (n = 3..8, degree 1-2, coefficients up to 10**4):
#
#     w (bits)     entries in [-M, M]   lifted rationals   Z[t], (Z/8)[t]
#     7-64         0.43-0.82            0.59-0.94          0.80-0.94
#     65-200       0.41-0.84            0.69-0.92          0.84-0.91
#     201-300      0.66-0.95            0.83-0.88          -
#     301-400      0.57-1.03            0.81-0.90          0.84-1.04
#     401-600      0.65-1.22            0.90-1.05          0.94
#     601-1000     0.55-1.11            0.84-1.12          0.83-1.02
#     1001-2900    0.64-1.36            -                  1.26
#
# n = 3 set the gate, as its chain is one matmul: 0.90-0.95 at
# w = 241-271, 0.98 at 301, 0.98-1.00 at 331, 1.03-1.06 at 361-401 and
# 1.09-1.22 at 481-533; lifted rationals at n = 3 read 1.02-1.12 at
# w = 383-934.  A 3 x 3 integer matrix takes the closed form
# (_closed_form), so at n = 3 only lifted QQ and tower inputs reach this
# gate, and the value stays.  n = 4 reads 0.84-0.90 up to 500 and
# 1.00-1.02 at 722.  At
# n >= 6 elimination still wins well past the gate (0.55-0.89 up to
# w = 1500) and loses wider (1.15-1.36 at 1866-2934), so a gate on w
# alone misprices the wide end.  A 10 x 10 matrix with entries in
# [-9, 9] takes w = 40; an 8 x 8 one of num in [-9, 9] and den in
# [1, 9], lifted row by row, about 79 (115 with one L for all rows).
MAX_SOLVE_BITS = 300


def _integer_charpoly(entries, n: int, scales=()) -> list:
    """[d*c_0, ..., d*c_n] for the n x n integer matrix B with these
    row-major entries and D the diagonal of the positive integers
    scales (D = I if there are none), d = det D and c_j those of
    D**-1 @ B: the coefficients of det(x*D - B), lowest last, which are
    integers.  They are the balanced base 2**W digits of
    det(2**W * D - B) by _bareiss,
    W = bit_length(prod_i (r_i + ceil(||row_i||_2))) + 1 (from
    _row_squares), while n * W <= MAX_CHARPOLY_BITS; else berkowitz() on
    L * D**-1 @ B, L = lcm(r_i), whose c_j are L**j times those wanted."""
    bound = 1
    for r, s in zip(scales or repeat(1), _row_squares(entries, n)):
        bound *= r + isqrt(s - 1) + 1 if s else r   # r_i + ceil(||row_i||)
    w = _slot_width(bound)
    if n * w > MAX_CHARPOLY_BITS:
        top, d = lcm(*scales), prod(scales)
        rows = zip(scales or repeat(1), range(0, n * n, n))
        lifted = [v * (top // s) for s, i in rows for v in entries[i:i + n]]
        c = berkowitz(Matrix(ZZ, n, n, lifted))
        return [x * d // top ** j for j, x in enumerate(c)]
    shifted = [-v for v in entries]
    diagonal = [r << w for r in scales] if scales else [1 << w] * n
    for i, x in zip(range(0, n * n, n + 1), diagonal):
        shifted[i] += x
    return _digits([_bareiss(shifted, n)], w)[0][::-1]


# The widest n * W, in bits, at which _integer_charpoly eliminates.  The
# determinant of 2**W * D - A is n * W bits wide, so _bareiss divides
# minors that grow to that width.  Its CPU time over that of berkowitz()
# (median of 9 alternating batches of about 20 ms, W from the row scales
# and _row_squares, every result equal, 2-vCPU VM, CPython 3.11), on
# entries uniform in [-M, M] (n = 2..14, M from 1 to 10**14), on
# rationals lifted row by row (n = 4..10, num in [-9, 9], den in
# [1, 9..10**4]) and on Z[t] and (Z/8)[t] (n = 3..6, degree 1-2):
#
#     n * W (bits)     entries in [-M, M]   lifted rationals   Z[t], (Z/8)[t]
#     4-500            0.40-0.66            0.65-0.69          0.72-0.82
#     501-1000         0.57-0.79            0.69-0.71          0.82-0.85
#     1001-1200        0.90                 0.91-0.94          -
#     1201-1400        0.90-1.05            -                  0.88-1.00
#     1401-2000        1.20-1.30            1.11               0.99
#     2001-2600        1.69-1.76            0.92               -
#
# No family crosses parity below about 1300, and integers cross it
# there (1.05 at n = 8 and n * W = 1328), as before the row scales.  A
# 10 x 10 matrix with entries in [-9, 9] sits near 440; an 8 x 8 one of
# num in [-9, 9] and den in [1, 9], lifted row by row, near 630 (880
# with one L for all rows).
MAX_CHARPOLY_BITS = 1000


def _row_squares(entries, n: int):
    """The squared euclidean norm of each row of the n x n integer matrix
    with these row-major entries, lazily; _integer_charpoly and
    _solved_adjugate build Hadamard's bound from them."""
    squares = iter(map(mul, entries, entries))
    return map(sum, zip(*[squares] * n))


def _minors_fit(e: int):
    """The fit (N, degrees, r) -> (bound, degrees) of a signed sum of at
    most e! products of at most e factors each, entries of norm <= N or
    row scales <= r: norm <= e! * max(N, r, 1)**e, t_i-degree
    <= e * d_i.  It bounds det B and the coefficients of det(x*D - B) of
    an n x n matrix at e = n, and every entry of adj and of every D_k at
    e = n - 1 (r = 1, no row scales)."""
    return lambda m, degrees, r=1: (factorial(e) * max(m, r, 1) ** e,
                                    [e * g for g in degrees])


def _adjugate_fit(n: int):
    """The fit of an entry of adj(B) @ D, D a diagonal of row scales
    <= r: an adj entry, bounded by _minors_fit(n - 1), times one r_j."""
    return lambda m, degrees, r=1: (
        factorial(n - 1) * max(m, 1) ** (n - 1) * r,
        [(n - 1) * g for g in degrees])


def _trace_fit(n: int):
    """The slot fit of the traced Horner steps (_horner with coeffs None)
    on an n x n matrix over ZZ: before c_j is added, a diagonal slot of
    a @ H_(j-1) holds (H_j)_ii - c_j, and for j <= n - 1 that is at most
    (n-1)! * M**(n-1) + n! * M**(n-1) = (n+1) * (n-1)! * max(M, 1)**(n-1),
    above _minors_fit(n - 1), which bounds every other slot."""
    return lambda m, degrees: (
        (n + 1) * factorial(n - 1) * max(m, 1) ** (n - 1), degrees)


def _matmul_fit(k: int):
    """The fit of a sum of k products of one entry of each factor, which
    _encode measures as one: N the product of the factors' norms and d_i
    the sum of their t_i-degrees."""
    return lambda m, degrees, r=1: (k * m, degrees)


def _power_fit(n: int, e: int, terms: int = 1):
    """The fit of a sum of at most terms values, each at most n**e times a
    product of e entries of norm <= N: norm <= terms * (n*N)**e and
    t_i-degree <= e * d_i.  With terms = 1 it bounds Tr(B**k) for every
    k <= e, and with terms = d + 1 at e = d the Horner sum of p(A) (the
    module docstring)."""
    return lambda m, degrees, r=1: (terms * (n * m) ** e,
                                    [e * g for g in degrees])


def _poly_fit(p: Polynomial, n: int):
    """The fit of an entry of p(a), a an n x n matrix over ZZ, the one
    ring whose p(a) packs, so degrees is empty: ||p||_1 * max(1, n*M)**deg p,
    as |entry of a**k| <= (n*M)**k."""
    return lambda m, degrees: (
        sum(map(abs, p.coeffs)) * max(1, n * m) ** p.degree, degrees)


def _horner(a: Matrix, coeffs, fit, every=False, negate=False) -> list:
    """[H_0, ..., H_d] if every, else [H_d] (negated if negate), where
    H_0 = coeffs[0] * I and H_j = a @ H_(j-1) + coeffs[j] * I, so that
    H_d = sum_j coeffs[j] * a**(d-j); over ZZ fit(M, [])[0] bounds every
    slot when M bounds the entries of a; off ZZ fit is never read
    (_packed_width), and callers there pass None.

    coeffs None, for a over ZZ only, stands for c_0, ..., c_(n-1) of the
    characteristic polynomial of a, each taken on the way by the trace
    Cayley-Hamilton theorem: c_0 = 1 and j * c_j = -tr(a @ H_(j-1)), an
    exact division in Z.  Then H_j = D_(n-1-j) and fit is _trace_fit(n).

    H_1 = coeffs[0] * a + coeffs[1] * I needs no product.  With d >= 3,
    two product steps or more, and a packed width w (_packed_width),
    each later step takes n row products a_i . P over the rows P of
    H_(j-1), each packed as one integer with column k at 2**(w*k),
    reads c_j off their diagonal slots if coeffs is None,
    and adds c_j * 2**(w*i) to row i; the other entries are read
    (_digits) only from the states returned.  Otherwise each step is
    H_(j-1) @ a, equal as H_(j-1) is a polynomial in a.
    """
    R, n = a.ring, a.rows
    traced = coeffs is None
    d = n - 1 if traced else len(coeffs) - 1
    lead, zero = R.one() if traced else coeffs[0], R.zero()
    h = Matrix(R, n, n, [lead if i == j else zero
                         for i in range(n) for j in range(n)])
    out = [h]
    if d >= 1:
        h = a if lead == R.one() else a.scale(lead)
        c = -sum(a._e[::n + 1]) if traced else coeffs[1]
        out.append(h := _plus_scalar(h, c))
    if d > 2 and (w := _packed_width(a, fit)):
        def read(packed, sign=1):
            digits = _digits([sign * v for v in packed], w, n)
            return Matrix(R, n, n, [x for row in digits for x in row])

        def trace(packed):
            # slot i of row i: the balanced slots below it sum to less
            # than 2**(s-1) in absolute value, so P_i / 2**s rounds them off
            t = 0
            for s, p in zip(shifts, packed):
                x = (((p >> (s - 1)) + 1) >> 1 if s else p) & mask
                t += x - full if x >= half else x
            return t
        dot, e = R.dot, a._e
        rows = [e[i:i + n] for i in range(0, n * n, n)]
        shifts = range(0, n * w, w)
        half, mask, full = 1 << (w - 1), (1 << w) - 1, 1 << w
        packed = _pack([h._e[i:i + n] for i in range(0, n * n, n)], [w])
        for j in range(2, d + 1):
            if traced:
                packed = [dot(r, packed) for r in rows]
                c = -trace(packed) // j
                packed = [p + (c << s) for p, s in zip(packed, shifts)]
            else:
                c = coeffs[j]
                packed = [dot(r, packed) + (c << s)
                          for r, s in zip(rows, shifts)]
            if every:
                out.append(read(packed))
        return out if every else [read(packed, -1 if negate else 1)]
    for j in range(2, d + 1):
        h = h @ a
        c = -sum(h._e[::n + 1]) // j if traced else coeffs[j]
        h = _plus_scalar(h, c)
        if every:
            out.append(h)
    return out if every else [-h if negate else h]


def _packed_width(a: Matrix, fit) -> int | None:
    """The slot width w = bit_length(bound) + 1, with bound = fit(M, [])[0]
    and M the largest absolute entry of a, when _horner packs: a over ZZ,
    n >= 4 and w <= MAX_WIDTH.  Else None, and _horner takes matmuls."""
    if a.rows < 4 or not isinstance(a.ring, IntegerRing):
        return None
    w = _slot_width(fit(max(map(abs, a._e)), [])[0])
    return w if w <= MAX_WIDTH else None


# The packed Horner's largest slot width in bits: every D_k read back
# costs n rows of n digits, so the D_k stop gaining near here (the module
# docstring's table), and adj(A) alone near 1000.
MAX_WIDTH = 700


# A tower's results take D_1*...*D_d digit slots each.  Measured on
# sparse entries t_1 + ... + t_d, the packed kernels beat Ring.dot up to
# 729 slots and lost by up to 1.22x at 1024, so above this they are off.
MAX_SLOTS = 1000


def _tower(ring: Ring):
    """[ring, ..., R] down to the base R of ring's polynomial rings if R is
    QQ, or ZZ or Z/m under one at least; else None (no encoding)."""
    chain = [ring]
    while isinstance(ring, PolynomialRing):
        ring = ring.base
        chain.append(ring)
    if isinstance(ring, RationalRing) or (
            len(chain) > 1 and isinstance(ring, (IntegerRing, ModRing))):
        return chain


def _tree(v, depth: int, leaves=None):
    """v as nested coefficient lists, depth >= 1 deep, constant terms
    first, with its own base scalars or, if leaves is an iterator, the
    next ones it yields in their place."""
    if depth > 1:
        return [_tree(c, depth - 1, leaves) for c in v.coeffs]
    return v.coeffs if leaves is None else list(islice(leaves, len(v.coeffs)))


def _leaves(values, depth: int) -> list:
    """The base scalars of the values, depth levels down."""
    for _ in range(depth):
        values = [c for v in values for c in v.coeffs]
    return values


def _integers(chain, entries, cols: int = 0) -> tuple:
    """(trees, scales): the entries as integer trees.  Over a QQ base each
    row of cols entries, or without cols the whole part as one row, is
    scaled by its own lcm of coefficient denominators (1 when there are
    none), each rational read once, and scales lists those, one per row;
    otherwise there are no scales (D = I)."""
    depth = len(chain) - 1
    if not isinstance(chain[-1], RationalRing):
        return [_tree(v, depth) if depth > 1 else v.coeffs
                for v in entries], []
    if depth:       # the coefficients of a row are its entries' leaves
        rows = [[x.as_integer_ratio() for x in _leaves(r, depth)]
                for r in (zip(*[iter(entries)] * cols) if cols else [entries])]
    else:           # one pass over the entries, then grouped into rows
        ratios = [x.as_integer_ratio() for x in entries]
        rows = zip(*[iter(ratios)] * cols) if cols else [ratios]
    scales, ints = [], []
    for row in rows:
        scale = lcm(*[d for _, d in row])
        scales.append(scale)
        ints += [p * (scale // d) for p, d in row]
    if not depth:
        return ints, scales
    leaves = iter(ints)
    return [_tree(v, depth, leaves) for v in entries], scales


def _measure(trees, depth: int) -> tuple:
    """(N, degrees): the trees' largest l1 norm and, for i = 1..depth,
    largest t_i-degree (all 0 if none).  depth >= 1, as _encode measures
    towers only; depth 1 needs no degrees."""
    if depth == 1:
        return max([sum(map(abs, p)) for p in trees], default=0), [0]
    degrees, level = [], trees
    for _ in range(depth):
        degrees.append(max(max(map(len, level), default=0) - 1, 0))
        level = [c for t in level for c in t]
    for _ in range(depth - 1):
        trees = [[c for p in t for c in p] for t in trees]
    return max([sum(map(abs, t)) for t in trees], default=0), degrees[::-1]


def _context(chain, scales, bound: int, degrees) -> tuple | None:
    """(chain, scales, w, shifts, levels) for results of norm <= bound and
    t_i-degree <= degrees[i-1]: t_i -> 2**shifts[i-1], and levels pairs
    each inner coefficient ring with its D_i.  None above MAX_SLOTS.
    degrees is never empty: a tower has at least one variable."""
    w = _slot_width(bound)
    shifts, levels = [w], []
    for i, g in enumerate(degrees[:-1], 1):
        levels.append((chain[-i], g + 1))
        shifts.append(shifts[-1] * (g + 1))
    if levels and shifts[-1] // w * (degrees[-1] + 1) > MAX_SLOTS:
        return None
    return chain, scales, w, shifts, levels


def _pack(trees, shifts) -> list:
    """Each tree as one integer, with t_i -> 2**shifts[i-1] (at least one
    shift)."""
    s, inner, out = shifts[-1], shifts[:-1], []
    if inner:
        trees = [_pack(t, inner) for t in trees]
    for t in trees:
        v = 0
        for c in reversed(t):
            v = (v << s) + c
        out.append(v)
    return out


def _encode(ring: Ring, parts, fit, cols: int = 0) -> tuple | None:
    """(ints, ctx): the entries of each part as integers, one list per
    part, and what _decode needs.  Each part is scaled by its own L, or
    with cols, for one square part of cols columns, each row by its own
    r_i (_integers); ctx[1] lists those scales, none off a QQ base.  fit
    maps (N, degrees, r) to the kernel's bounds on its results, with N
    the product of the parts' largest entry norms, degrees the sums of
    their largest t_i-degrees and r the largest row scale (1 without
    cols).  None if ring has no encoding (_tower) or above MAX_SLOTS
    slots."""
    chain = _tower(ring)
    if not chain:
        return None
    trees, scales = zip(*[_integers(chain, p, cols) for p in parts])
    scales = [s for part in scales for s in part]
    if len(chain) == 1:
        return trees, (chain, scales, 0, [], [])
    norms, degrees = zip(*[_measure(t, len(chain) - 1) for t in trees])
    ctx = _context(chain, scales,
                   *fit(prod(norms), [sum(g) for g in zip(*degrees)],
                        max(scales, default=1) if cols else 1))
    return ctx and ([_pack(t, ctx[3]) for t in trees], ctx)


def _decode(ints, ctx, den: int) -> list:
    """The ring elements that ints encode, each divided by den over a QQ
    base: balanced base 2**w digits, reduced mod m over Z/m, regrouped
    D_1, D_2, ... at a time."""
    chain, _, w, _, levels = ctx
    if not w:
        return [Fraction(v, den) for v in ints]
    base, outer = chain[-1], chain[1]
    rational = isinstance(base, RationalRing)
    leaf = base.from_int if isinstance(base, ModRing) else None
    out, zero = [], None
    for digits in _digits(ints, w):
        if not digits:            # a short cut: many results are 0
            zero = zero or Polynomial(outer)
            out.append(zero)
            continue
        if rational:
            digits = [Fraction(x, den) for x in digits]
        elif leaf:
            digits = list(map(leaf, digits))
        for ring, size in levels:
            digits = [Polynomial(ring, digits[j:j + size])
                      for j in range(0, len(digits), size)]
        out.append(Polynomial(outer, digits))
    return out


def _slot_width(bound: int) -> int:
    """The digit width w, in bits, for results of absolute value at most
    bound: bit_length(bound) + 1, and never below 2.  At w = 1 a balanced
    digit lies in [-1, 0), so _digits would never reach 1's last digit;
    w moves only at bound 0, where every result is 0."""
    return max(bound.bit_length(), 1) + 1


def _digits(values, w: int, size: int = 0) -> list:
    """For each integer, its balanced base 2**w digits, each in
    [-2**(w-1), 2**(w-1)), lowest first, padded with zeros to size;
    w >= 2 (_slot_width)."""
    half, mask, full = 1 << (w - 1), (1 << w) - 1, 1 << w
    out = []
    for v in values:
        digits = []
        while v:
            x = v & mask
            if x >= half:
                x -= full
            digits.append(x)
            v = (v - x) >> w
        if size:
            digits += [0] * (size - len(digits))
        out.append(digits)
    return out


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
    for left, right in ((a, b), (c, d)):
        for i in range(1, left.rows + 1):
            entries.extend(left.row_list(i) + right.row_list(i))
    return Matrix(a.ring, a.rows + c.rows, a.cols + b.cols, entries)


def row_mixed(ring: Ring, sources) -> Matrix:
    """The n x n matrix over ring whose row i is row i of sources[i],
    n = len(sources), each source n x n; 0 x 0 when sources is empty."""
    n = len(sources)
    return Matrix(ring, n, n, [v for i, s in enumerate(sources)
                               for v in s._e[i * n:(i + 1) * n]])


def row_replacement_sum(ring: Ring, base: Matrix, source: Matrix):
    """sum over rows k of det(base with row k replaced by row k of
    source), both n x n; zero at n = 0."""
    n, acc = base.rows, ring.zero()
    for k in range(n):
        rows = [source if i == k else base for i in range(n)]
        acc = ring.add(acc, row_mixed(ring, rows).det())
    return acc


def powers(a: Matrix, m: int) -> list:
    """[a, a**2, ..., a**m] for a square a, one matmul per power after a;
    [] for m <= 0."""
    out = [a] if m >= 1 else []
    for _ in range(m - 1):
        out.append(out[-1] @ a)
    return out


def power_traces(a: Matrix, m: int) -> list:
    """[0, Tr(a), Tr(a**2), ..., Tr(a**m)] for a square a, index 0 the
    ring's zero, from the powers a, ..., a**h alone, h = ceil(m/2): for
    k > h, Tr(a**k) = Tr(a**h @ a**(k-h)) = sum_pq (a**h)_pq *
    (a**(k-h))_qp, one Ring.dot, as Tr(XY) = Tr(YX) over every
    commutative ring.  So h - 1 matmuls where the power list takes m - 1.
    Over QQ and the towers the chain runs on one integer encoding
    B = L*A, one L for the whole matrix, sized by _power_fit(n, m): the
    products run over ZZ and only the m traces are decoded, Tr(a**k) at
    L**k.  Over ZZ the same on a itself; over Z/m and towers above
    MAX_SLOTS on the ring of a, each matmul as it comes."""
    a.require_square("power traces")
    n, R = a.rows, a.ring
    if m < 1:
        return [R.zero()]
    b, h = a, (m + 1) // 2
    if lifted := _encode(R, (a._e,), _power_fit(n, m)):
        (ints,), ctx = lifted
        b = Matrix(ZZ, n, n, ints)
    pw = powers(b, h)
    top = pw[-1]._e
    tr = [p.trace() for p in pw] + [
        b.ring.dot(top, [v for j in range(n) for v in p._e[j::n]])
        for p in pw[:m - h]]
    if lifted:
        scale = prod(ctx[1])
        tr = [_decode([t], ctx, scale ** k)[0] for k, t in enumerate(tr, 1)]
    return [R.zero()] + tr


def ent(m: Matrix):
    """The sole entry of a 1 x 1 matrix."""
    if (m.rows, m.cols) != (1, 1):
        raise ShapeError(f"ent requires a 1 x 1 matrix, got {m.rows} x {m.cols}")
    return m._e[0]


def apply_poly(p: Polynomial, a: Matrix) -> Matrix:
    """p(a) for a square matrix a over the coefficient ring of p, by
    _horner on the coefficients from the top.

    Over QQ and the towers with d = deg p >= 2, on one integer encoding:
    the entries of a with the ring's 1 beside them, scaled by one L
    (B = L*A, the 1 read as L), and the coefficients of p by one P
    (q_i = P*p_i).  _horner runs over ZZ on B with the coefficients
    q_(d-j) * L**j from the top, taking its packed rows where
    _packed_width allows; the sum sum_i q_i * L**(d-i) * B**i it returns
    is P * L**d * p(a), decoded once at that scale (_power_fit(n, d,
    d + 1)).
    """
    a.require_square("polynomial evaluation")
    if p.ring != a.ring:
        raise RingMismatchError(
            f"polynomial over {p.ring} cannot act on a matrix over {a.ring}")
    n, R, d = a.rows, a.ring, p.degree
    if p.is_zero():
        return Matrix.zeros(R, n, n)
    if d >= 2 and (lifted := _encode(R, (a._e + (R.one(),), p.coeffs),
                                     _power_fit(n, d, d + 1))):
        ((*ints, _), qs), ctx = lifted
        scale, den = ctx[1] or (1, 1)
        q = Polynomial(ZZ, [c * scale ** (d - i) for i, c in enumerate(qs)])
        x = _horner(Matrix(ZZ, n, n, ints), q.coeffs[::-1], _poly_fit(q, n))
        return Matrix(R, n, n, _decode(x[0]._e, ctx, den * scale ** d))
    return _horner(a, p.coeffs[::-1], _poly_fit(p, n))[0]


def char_matrix(a: Matrix) -> Matrix:
    """t*I - a over the polynomial ring of a's ring."""
    a.require_square("characteristic matrix")
    K = a.ring
    L = PolynomialRing(K)
    n = a.rows
    t = L.t()
    entries = [Polynomial(K, (K.neg(v),)) for v in a._e]
    for d in range(0, n * n, n + 1):
        entries[d] = entries[d] + t
    return Matrix(L, n, n, entries)
