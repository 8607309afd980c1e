"""Shared corpus builders and independent oracles for the test suite.

The random corpora here are frozen by (seed, label, index) through the
library's own splittable generator, so every test run sees the same
matrices.  The D_k oracle deliberately takes the long way around:
adjugate of tI - A over the polynomial ring by cofactors, read off
coefficientwise.  The production code computes the same matrices by a
descending recursion and never builds that adjugate, which is what makes
the comparison worth having.
"""

from __future__ import annotations

import ast
from pathlib import Path

from ringmat.fuzz import sample_matrix, sample_singular, stream
from ringmat.identities import compositions, multinomial
from ringmat.matrix import Matrix, char_matrix
from ringmat.poly import Polynomial, PolynomialRing
from ringmat.rings import QQ, ZZ, ModRing, ParseError

Z1 = ModRing(1)
Z6 = ModRing(6)
Z8 = ModRing(8)
ZT = PolynomialRing(ZZ)

# the five ring families every acceptance corpus runs over
RINGS5 = (
    ("int", ZZ),
    ("mod6", Z6),
    ("mod8", Z8),
    ("rat", QQ),
    ("poly", ZT),
)

# the production kernels against their oracles: RINGS5 plus the zero
# ring, a zero-divisor polynomial ring and a nested one
RINGS8 = RINGS5 + (
    ("mod1", Z1),
    ("poly-mod8", PolynomialRing(Z8)),
    ("poly-poly", PolynomialRing(ZT)),
)


def corpus(ring, label: str, count: int, nmax: int, seed: int = 2026,
           singular_every: int = 0):
    """count square matrices with n drawn from 0..nmax.

    singular_every = k > 0 makes every k-th matrix singular (and at
    least 1 x 1, since a 0 x 0 matrix has determinant 1).
    """
    out = []
    for i in range(count):
        rng = stream(seed, label, i)
        n = rng.below(nmax + 1)
        if singular_every and i % singular_every == 0:
            out.append(sample_singular(rng, ring, max(n, 1)))
        else:
            out.append(sample_matrix(rng, ring, n, n))
    return out


def coefficient_matrices_oracle(a: Matrix) -> list:
    """D_0..D_{n-1} extracted from adj(tI - A) computed over K[t]."""
    n = a.rows
    adj = char_matrix(a).adjugate_cofactor()
    out = []
    for k in range(n):
        entries = tuple(adj.entry(i, j).coeff(k)
                        for i in range(1, n + 1) for j in range(1, n + 1))
        out.append(Matrix(a.ring, n, n, entries))
    return out


def plain_matmul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b by one ring add and mul per term, never packing."""
    R = a.ring
    out = []
    for i in range(1, a.rows + 1):
        for j in range(1, b.cols + 1):
            acc = R.zero()
            for t in range(1, a.cols + 1):
                acc = R.add(acc, R.mul(a.entry(i, t), b.entry(t, j)))
            out.append(acc)
    return Matrix(R, a.rows, b.cols, out)


def plain_horner(a: Matrix, c) -> list:
    """[D_0, ..., D_(n-1)] by D_(n-1) = I, D_(k-1) = D_k @ a + c_(n-k) * I,
    every product by plain_matmul; [] for n = 0."""
    R, n = a.ring, a.rows
    out = [Matrix.identity(R, n)] if n else []
    for ci in c[1:n]:
        step = plain_matmul(out[-1], a)
        out.append(step + Matrix.identity(R, n).scale(ci))
    return out[::-1]


def mat(ring, rows) -> Matrix:
    return Matrix.from_rows(ring, rows)


def polynomial_from_json(obj, ring, where: str = "poly") -> Polynomial:
    """Decode {"coeffs": [...]}, the charpoly command's chi, over ring."""
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ParseError(f"{where}: expected an object with \"coeffs\"")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise ParseError(f"{where}.coeffs: expected a list")
    return Polynomial(ring, [ring.element_from_json(c, f"{where}.coeffs[{k}]")
                             for k, c in enumerate(coeffs)])


def assert_multinomial_recurrence(m: int, n: int) -> None:
    """For every composition of m >= 1 into n parts, multinomial(m, parts)
    is the sum of multinomial(m - 1, q) over the q that lower one positive
    part of parts by one."""
    for parts in compositions(m, n):
        lowered = [parts[:j] + (p - 1,) + parts[j + 1:]
                   for j, p in enumerate(parts) if p]
        assert multinomial(m, parts) == sum(
            multinomial(m - 1, q) for q in lowered), (m, parts)


def scopes(path: Path) -> list:
    """(label, node) for each top-level scope of a module: methods as
    Class.method and statements outside every function as "<module>"."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{f.name}", f) for f in node.body
                    if isinstance(f, ast.FunctionDef)]
        else:
            out.append((getattr(node, "name", "<module>"), node))
    return out
