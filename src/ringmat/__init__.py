"""Exact linear algebra over commutative rings.

Matrices carry their ring with them; determinants are computed without
division, so everything works verbatim over Z, Z/m (including zero
divisors), Q, and nested polynomial rings.  On top of the arithmetic
sit the characteristic-polynomial routines (direct and trace-recursion)
and a verification engine that checks several dozen determinant and
trace identities on concrete or fuzzed inputs.

The arithmetic core is imported eagerly.  The verification engine
(suite, identities, derivations, fuzz) loads on first use of one of its
names, so a process that only computes never compiles it.
"""

from importlib import import_module as _import_module

from .charpoly import (
    CharPolyData,
    adjugate_via_charpoly,
    cayley_hamilton_residual,
    charpoly,
    charpoly_newton,
    power_traces,
    trace_cayley_hamilton_residual,
)
from .matrix import Matrix, apply_poly, block2x2, char_matrix, ent
from .poly import Polynomial, PolynomialRing
from .report import VerificationReport, summarize
from .rings import (
    QQ,
    ZZ,
    GuardError,
    IntegerRing,
    ModRing,
    ParseError,
    PreconditionError,
    QAlgebraRequiredError,
    RationalRing,
    Ring,
    RingError,
    RingMismatchError,
    ShapeError,
    axiom_spotcheck,
)
from .serialize import matrix_from_json, parse_ring, ring_from_descriptor

__version__ = "0.1.0"

__all__ = [
    "CharPolyData", "Derivation", "GuardError", "IDENTITY_NAMES",
    "IntegerRing", "Matrix", "ModRing", "ParseError", "Polynomial",
    "PolynomialRing", "PreconditionError", "QAlgebraRequiredError", "QQ",
    "RationalRing", "Ring", "RingError", "RingMismatchError", "SUITES",
    "ShapeError", "SplitMix64", "VerificationReport", "ZZ",
    "adjugate_via_charpoly", "apply_poly", "axiom_spotcheck", "block2x2",
    "cayley_hamilton_residual", "char_matrix", "charpoly", "charpoly_newton",
    "ddt", "derive_seed", "ent", "matrix_from_json", "parse_ring",
    "power_traces", "resolve_suite", "ring_from_descriptor", "run_suite",
    "sample_element", "sample_matrix", "scaled_ddt", "standard_derivations",
    "stream", "summarize", "trace_cayley_hamilton_residual", "zero_derivation",
]

# Engine names, by the submodule that defines them.
_LAZY = {
    name: module
    for module, names in (
        ("derivations", ("Derivation", "ddt", "scaled_ddt",
                         "standard_derivations", "zero_derivation")),
        ("fuzz", ("SplitMix64", "derive_seed", "sample_element",
                  "sample_matrix", "stream")),
        ("suite", ("IDENTITY_NAMES", "SUITES", "resolve_suite", "run_suite")),
    )
    for name in names
}


def __getattr__(name):
    # Resolved through the submodule on every access and never cached
    # here, so rebinding the submodule's attribute is seen at once.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
