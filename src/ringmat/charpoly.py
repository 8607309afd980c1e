"""Characteristic polynomials, adjugates, and their exact invariants.

charpoly(A) computes chi_A = det(t*I - A) by matrix.charpoly_coefficients.
At n <= 2 on every ring, and at n = 3 over ZZ and Z/m, that is the closed
form over the ring itself: c = (1, -tr A, c_2, -det A), c_2 the sum of
the principal 2 x 2 minors.  Above that, over ZZ its coefficients are
the balanced base 2**W digits of the one integer det(2**W * I - A), W
sized by Hadamard's bound on the rows of A, which Bareiss's elimination
takes in O(n**3) while n*W stays narrow, and QQ and every tower with an
integer encoding run the same on that encoding; wider, and over Z/m, it
is the Samuelson-Berkowitz algorithm (matrix.berkowitz), O(n**4) ring
operations over the ring of A itself.  None of these does polynomial
arithmetic in t, and none divides outside Z.  The coefficient matrices
D_0 .. D_(n-1) of adj(t*I - A) = sum_k t**k * D_k are computed on first
use by the Horner recursion

    D_(n-1) = I,        D_(k-1) = A @ D_k + c_(n-k) * I,

from A alone in n - 2 steps (matrix.adjugate_coefficients); A @ D_k =
D_k @ A as D_k is a polynomial in A.  Where the closed forms hold no
step runs: D_(n-2) = A - tr(A) * I, and D_0 = adj(A) at n = 3 by its
cofactors.  Above them, over ZZ, QQ and every tower with an integer
encoding the chain takes each c_j itself, by the trace recursion below
with an exact division in Z, and over ZZ a step is n row products on
packed rows; over Z/m one more berkowitz() gives c and each step is a
matmul.  The subset-DP det and the cofactor adjugate of
t*I - A over the polynomial ring remain in the identities and tests as
independent oracles.

Coefficients are indexed from the top: c_j is the coefficient of
t**(n-j), so c_0 = 1 and c_n = (-1)**n * det(A).  Apart from exact
divisions in Z inside the integer kernels, nothing here divides except
charpoly_newton, which resolves the trace recursion

    k * c_k = -(Tr(A) * c_(k-1) + Tr(A**2) * c_(k-2) + ... + Tr(A**k) * c_0)

by multiplying the sum with the ring's own image of -1/k, and is
therefore restricted to Q-algebras (rings whose coerce accepts
Fraction(1, k) for every positive k).

The traces Tr(A), ..., Tr(A**m) of that recursion and of the paper's sum
come from matrix.power_traces, which forms only A, ..., A**h,
h = ceil(m/2), and pairs the rest: Tr(A**k) = Tr(A**h @ A**(k-h)) for
k > h, one dot each, as Tr(XY) = Tr(YX).  Over QQ and the encodable
towers the whole chain runs over Z on one integer lift B = L*A, sized
for Tr(B**m), and only the m traces are decoded, Tr(A**k) at L**k.
chi_A(A) (matrix.apply_poly) likewise runs its Horner steps over Z on
one lift of A and chi_A there, decoded once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .matrix import (Matrix, adjugate_coefficients, apply_poly,
                     charpoly_coefficients, power_traces)
from .poly import Polynomial
from .record import FrozenRecord
from .rings import QAlgebraRequiredError


class CharPolyData(FrozenRecord):
    """chi_A with its coefficient family and adjugate coefficient matrices.

    chi is monic of degree n; c has length n + 1 with c[j] the coefficient
    of t**(n-j); D has length n with D[k] the coefficient matrix of t**k
    in adj(t*I - A), computed from matrix (A) alone on first access, so
    it never depends on c.  Over ZZ, QQ and the encodable towers that
    takes no berkowitz(); over Z/m with n >= 4 it takes one more.
    """

    _fields = ("n", "chi", "c", "matrix")

    def __init__(self, n: int, chi: Polynomial, c: tuple, matrix: Matrix):
        self._set(n=n, chi=chi, c=c, matrix=matrix)

    @cached_property
    def D(self) -> tuple:
        return tuple(adjugate_coefficients(self.matrix))

    def coefficient(self, j: int):
        """c_j, defined as zero for j outside 0..n."""
        if 0 <= j <= self.n:
            return self.c[j]
        return self.chi.ring.zero()

    def coefficient_matrix(self, k: int) -> Matrix:
        """D_k, defined as the zero matrix for k outside 0..n-1."""
        if 0 <= k < self.n:
            return self.D[k]
        ring = self.chi.ring
        return Matrix.zeros(ring, self.n, self.n)

    def json_layout(self) -> dict:
        """The JSON keys in order, each D_k left as its Matrix: to_json
        converts them, and the command-line writer writes them as text."""
        ring = self.chi.ring
        return {
            "chi": self.chi.to_json(),
            "c": [ring.element_to_json(v) for v in self.c],
            "D": list(self.D),
        }

    def to_json(self) -> dict:
        out = self.json_layout()
        out["D"] = [d.to_json() for d in self.D]
        return out


def _assemble(a: Matrix, c) -> CharPolyData:
    return CharPolyData(n=a.rows, chi=Polynomial(a.ring, c[::-1]),
                        c=tuple(c), matrix=a)


def charpoly(a: Matrix) -> CharPolyData:
    """Characteristic polynomial of a square matrix, with no division
    outside Z: at small n by its closed form; above it over ZZ, QQ and
    the encodable towers by one Bareiss elimination of 2**W * I - A, W
    from Hadamard's bound on the rows, where n*W is narrow, else, and
    over Z/m, by Samuelson-Berkowitz (matrix.charpoly_coefficients)."""
    return _assemble(a, charpoly_coefficients(a))


def charpoly_newton(a: Matrix) -> CharPolyData:
    """Characteristic polynomial via the trace recursion.

    c_k = (-1/k) * sum_(i=1..k) Tr(A**i) * c_(k-i), with -1/k the ring's
    image of Fraction(-1, k).  Requires a Q-algebra; raises
    QAlgebraRequiredError otherwise.  Agrees with charpoly() wherever
    both are defined.
    """
    a.require_square("characteristic polynomial")
    K = a.ring
    if not K.is_q_algebra:
        raise QAlgebraRequiredError(
            f"trace recursion needs exact division by integers; "
            f"ring {K} does not provide it")
    n = a.rows
    tr = power_traces(a, n)
    c = [K.one()]
    for k in range(1, n + 1):
        c.append(K.mul(K.coerce(Fraction(-1, k)), _trace_sum(K, tr, c, k)))
    return _assemble(a, c)


def adjugate_via_charpoly(a: Matrix) -> Matrix:
    """adj(A) by Matrix.adjugate(), whose two routes above the closed
    forms are: over ZZ, QQ and the encodable towers, fraction-free
    elimination of [A | I] with back-substitution while its slots fit
    matrix.MAX_SOLVE_BITS; everywhere else, and as that route's
    fallback, the charpoly-coefficient formula

        adj(A) = (-1)**(n-1) * (c_(n-1)*I + c_(n-2)*A + ... + c_0*A**(n-1))

    by Horner, which over ZZ, QQ and the encodable towers takes the c_j
    by the trace recursion rather than from charpoly().
    Matrix.adjugate_cofactor() is the independent oracle.
    """
    return a.adjugate()


def cayley_hamilton_residual(a: Matrix) -> Matrix:
    """chi_A(A), which the Cayley-Hamilton theorem says is the zero matrix."""
    return apply_poly(charpoly(a).chi, a)


def trace_cayley_hamilton_residual(a: Matrix, k: int) -> object:
    """k*c_k + sum_i Tr(A**i)*c_(k-i) for i = 1..k; zero for every k >= 0.

    c_j denotes the coefficient of t**(n-j) in chi_A, taken as zero
    outside 0..n, so the residual is meaningful for every k (the
    interesting range is k <= 2n + 1).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return trace_cayley_hamilton_sum(charpoly(a), power_traces(a, k), k)


def trace_cayley_hamilton_sum(data: CharPolyData, tr, k: int):
    """k*c_k + sum_i tr[i]*c_(k-i) for i = 1..k, the paper's headline sum.

    data is charpoly(A) and tr is power_traces(A, m) for some m >= k, so
    tr[i] = Tr(A**i).  The trace Cayley-Hamilton theorem says the sum is
    zero for every k >= 0.
    """
    K = data.chi.ring
    return K.add(K.mul(K.from_int(k), data.coefficient(k)),
                 _trace_sum(K, tr, data.c, k))


def _trace_sum(K, tr, c, k: int):
    """sum_(i=1..k) tr[i] * c[k-i], with c[j] zero for j >= len(c)."""
    return K.dot(c[:k], tr[k:0:-1])
