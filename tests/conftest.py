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


@pytest.fixture
def horners(monkeypatch):
    """The number of matrix._horner chains run so far: 0 after an
    adjugate() at n >= 1 means it eliminated."""
    calls = [0]
    horner = matrix_mod._horner

    def spy(*args, **kwargs):
        calls[0] += 1
        return horner(*args, **kwargs)

    monkeypatch.setattr(matrix_mod, "_horner", spy)
    return calls


@pytest.fixture
def lifts(monkeypatch):
    """The number of matrix._encode calls so far that lifted, that is,
    returned an integer encoding (over ZZ, bare Z/m and towers above
    MAX_SLOTS it returns None)."""
    calls = [0]
    encode = matrix_mod._encode

    def spy(*args):
        lifted = encode(*args)
        calls[0] += lifted is not None
        return lifted

    monkeypatch.setattr(matrix_mod, "_encode", spy)
    return calls


@pytest.fixture
def eliminations(monkeypatch):
    """The number of matrix._bareiss passes run so far."""
    calls = [0]
    bareiss = matrix_mod._bareiss

    def spy(*args):
        calls[0] += 1
        return bareiss(*args)

    monkeypatch.setattr(matrix_mod, "_bareiss", spy)
    return calls
