"""Fixtures shared by the kernel route tests."""

import pytest

import ringmat.matrix as matrix_mod


@pytest.fixture
def berkowitz_rings(monkeypatch):
    """The rings of the matrix.berkowitz() calls made so far, in order."""
    rings = []
    berkowitz = matrix_mod.berkowitz

    def spy(a):
        rings.append(a.ring)
        return berkowitz(a)

    monkeypatch.setattr(matrix_mod, "berkowitz", spy)
    return rings
