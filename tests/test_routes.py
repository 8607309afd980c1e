"""Every route of every kernel, forced, against the oracles.

Each ROUTES row (routes.py) is forced through matrix.py's own gates and
run on every corpus case it serves: its value must equal the oracle's,
and so every other route's, and the conftest spies must see the row's
route taken on each case.  The table must cover every gate with a row
and every row with a case.
"""

import pytest

import ringmat.matrix as matrix_mod
from routes import GATES, KERNELS, ROUTES, domain, oracle
from ringmat.rings import ZZ, IntegerRing


@pytest.fixture
def taken(berkowitz_rings, eliminations, lifts, horners, packs):
    """route(kernel, ring): the route that the kernel calls made since the
    last route() took on a matrix over ring, read off the spies, which it
    then clears."""
    counters = (eliminations, lifts, horners, packs)

    def route(kernel, ring):
        rings = set(berkowitz_rings)
        eliminated, lifted, chained, packed = (c[0] for c in counters)
        berkowitz_rings.clear()
        for c in counters:
            c[0] = 0
        if kernel in ("matmul", "traces"):
            return "lift" if lifted else "ring"
        if rings - {ZZ} or kernel == "poly" and not (
                lifted or isinstance(ring, IntegerRing)):
            return "ring"
        if packed:
            return "packed"
        if chained:
            return "matmul"
        if ZZ in rings:
            return "berkowitz"
        if eliminated:
            return "solve" if kernel == "adjugate" else "bareiss"
        return "closed"
    return route


@pytest.mark.parametrize("row", ROUTES, ids=[r.id for r in ROUTES])
def test_forced_route_matches_the_oracles(row, monkeypatch, taken):
    kernel, cases = KERNELS[row.kernel], domain(row)
    wants = [oracle(row.kernel, case) for case in cases]
    for name, value in row.force.items():
        monkeypatch.setattr(matrix_mod, name, value)
    strays = []
    for case, want in zip(cases, wants):
        taken(row.kernel, case.a.ring)
        assert kernel(case) == want, case.id
        route = taken(row.kernel, case.a.ring)
        if route != row.route:
            strays.append((case.id, route))
    assert strays == []


def test_every_gate_has_a_row_and_every_row_a_case():
    assert [r.id for r in ROUTES if not domain(r)] == []
    gates = {name for name in vars(matrix_mod) if name.startswith("MAX_")}
    assert gates <= set(GATES)
    forced = {name for r in ROUTES for name in r.force}
    assert set(GATES) <= forced
    assert {r.kernel for r in ROUTES} == set(KERNELS)
    ids = [r.id for r in ROUTES]
    assert len(ids) == len(set(ids))
