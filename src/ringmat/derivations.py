"""Derivations of a commutative ring and the derivative-of-determinant laws.

A derivation f of a ring L is an additive map L -> L with
f(ab) = a*f(b) + f(a)*b (so f(1) = 0).  Derivations here are extensional:
a label plus a Python callable on canonical values.  The axioms are not
decidable from the callable, so construct_* builds maps that satisfy them
and the test suite enforces the laws by sampling.

Two exact formulas are checked for any derivation f and square matrix A:

    f(det A) = Tr(f[A] @ adj A)          (f applied entrywise)
    f(det A) = sum_k det(A with row k replaced by its f-image)
"""

from __future__ import annotations

from .identities import verifier
from .matrix import Matrix, row_replacement_sum
from .poly import Polynomial, PolynomialRing
from .record import FrozenRecord
from .rings import Ring, RingMismatchError


class Derivation(FrozenRecord):
    """A labelled derivation acting on canonical values of one ring."""

    _fields = ("algebra", "label", "fn", "g")
    _hidden = ("fn",)

    def __init__(self, algebra: Ring, label: str, fn,
                 g: Polynomial | None = None):
        self._set(algebra=algebra, label=label, fn=fn, g=g)

    def __call__(self, value):
        return self.fn(value)

    def describe(self) -> dict:
        out = {"label": self.label}
        if self.g is not None:
            out["g"] = self.g.to_json()
        return out

    def matrix_image(self, a: Matrix) -> Matrix:
        """Apply entrywise; the codomain ring is the same algebra."""
        if a.ring != self.algebra:
            raise RingMismatchError(
                f"derivation on {self.algebra} cannot act on a matrix "
                f"over {a.ring}")
        return a.map_entries(self.fn, self.algebra)


def zero_derivation(algebra: Ring) -> Derivation:
    """The zero map, a derivation of any ring."""
    return Derivation(algebra=algebra, label="zero", fn=lambda v: algebra.zero())


def ddt(algebra: PolynomialRing) -> Derivation:
    """Formal d/dt on a polynomial ring."""
    if not isinstance(algebra, PolynomialRing):
        raise RingMismatchError(
            f"d/dt is a derivation of polynomial rings only, got {algebra}")
    return Derivation(algebra=algebra, label="ddt",
                      fn=lambda v: v.derivative())


def scaled_ddt(algebra: PolynomialRing, g: Polynomial) -> Derivation:
    """g * d/dt for a caller-supplied polynomial g (any multiple works)."""
    if not isinstance(algebra, PolynomialRing):
        raise RingMismatchError(
            f"g*d/dt is a derivation of polynomial rings only, got {algebra}")
    g = algebra.coerce(g)
    return Derivation(algebra=algebra, label="g*ddt",
                      fn=lambda v: g * v.derivative(), g=g)


def standard_derivations(algebra: Ring) -> list:
    """The stock derivations on algebra: zero always, and on polynomial
    rings also d/dt plus t*d/dt."""
    out = [zero_derivation(algebra)]
    if isinstance(algebra, PolynomialRing):
        out.append(ddt(algebra))
        out.append(scaled_ddt(algebra, algebra.t()))
    return out


@verifier(keys="derivation ring factors")
def verify_leibniz_chain(inputs, f: Derivation, elems):
    """f(a1*...*an) against both n-factor product rules.

    Ordered form: sum_i a1*...*a(i-1)*f(ai)*a(i+1)*...*an.
    Collected form: sum_k f(ak) * prod of the other factors.
    Both must equal f of the full product exactly.
    """
    L = f.algebra
    elems = [L.coerce(v) for v in elems]
    inputs.update(derivation=f.describe(), ring=L.descriptor(),
                  factors=[L.element_to_json(v) for v in elems])
    total = L.one()
    for v in elems:
        total = L.mul(total, v)
    lhs = f(total)

    ordered = L.zero()
    for i in range(len(elems)):
        term = L.one()
        for j, v in enumerate(elems):
            term = L.mul(term, f(v) if j == i else v)
        ordered = L.add(ordered, term)

    collected = L.zero()
    for k in range(len(elems)):
        rest = L.one()
        for j, v in enumerate(elems):
            if j != k:
                rest = L.mul(rest, v)
        collected = L.add(collected, L.mul(f(elems[k]), rest))

    yield "ordered_product_rule", lhs, ordered, L
    yield "collected_product_rule", lhs, collected, L


@verifier("determinant formula", "derivation matrix:a")
def verify_derivation_det(inputs, f: Derivation, a: Matrix):
    """f(det A) = Tr(f[A] @ adj A), exactly."""
    image = f.matrix_image(a)
    inputs["derivation"] = f.describe()
    L = f.algebra
    yield None, f(a.det()), (image @ a.adjugate()).trace(), L


@verifier("determinant formula", "derivation matrix:a")
def verify_derivation_det_rows(inputs, f: Derivation, a: Matrix):
    """f(det A) = sum over rows k of det(A with row k replaced by f(row k))."""
    image = f.matrix_image(a)
    inputs["derivation"] = f.describe()
    L = f.algebra
    yield None, f(a.det()), row_replacement_sum(L, a, image), L
