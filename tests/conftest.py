import numpy as np
import pytest

from enwit import DensityMatrix, HermitianOperator, SystemShape, XXXParams, build_xxx
from enwit.states import singlet as _singlet

TWO_QUBITS = SystemShape([2, 2])

PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@pytest.fixture
def two_qubits():
    return TWO_QUBITS


@pytest.fixture
def h_xxx():
    def build(j=1.0, b=0.0, n=2, boundary="open"):
        return build_xxx(XXXParams(j, b, n, boundary))

    return build


@pytest.fixture
def singlet():
    return _singlet()


def random_dm(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure_state(rng, dim=4):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@pytest.fixture
def random_two_qubit_dm():
    def make(rng):
        return DensityMatrix.from_entries(TWO_QUBITS, random_dm(rng))

    return make


# Levels {0, 4e-10}, {1, 1+8e-10}, {1+1.6e-9}, {3}: 1+1.6e-9 lies within 1e-9 of
# 1+8e-10 but not of 1, the first eigenvalue of its would-be level.
NEAR_DEGENERATE_EIGENVALUES = [0.0, 4e-10, 1.0, 1.0 + 8e-10, 1.0 + 1.6e-9, 3.0]


@pytest.fixture
def near_degenerate():
    return HermitianOperator(SystemShape([2, 3]), np.diag(NEAR_DEGENERATE_EIGENVALUES))


@pytest.fixture
def eigh_calls(monkeypatch):
    """List that grows by one on every np.linalg.eigh call made during the test."""
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls
