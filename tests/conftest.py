import math

import numpy as np
import pytest

from enwit import (
    DensityMatrix,
    HermitianOperator,
    SystemShape,
    XXXParams,
    build_pauli,
    build_xxx,
    operators,
    parse_pauli_terms,
)
from enwit.bloch import _states_to_bloch
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


def _bloch_to_states(r: np.ndarray) -> np.ndarray:
    """Unit qubit states (..., 2) with Bloch vectors r (..., 3), up to global phase.

    The larger of |a| = sqrt((1 + z)/2) and |b| = sqrt((1 - z)/2) is taken
    real, so no denominator is below sqrt(2).
    """
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    s = np.sqrt(2.0 * (1.0 + abs(z)))
    north = z >= 0.0
    out = np.empty(r.shape[:-1] + (2,), dtype=np.complex128)
    out[..., 0] = np.where(north, s / 2.0, (x - 1j * y) / s)
    out[..., 1] = np.where(north, (x + 1j * y) / s, s / 2.0)
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


def full_vector(r):
    """The product state with Bloch vectors r (n, 3) as a vector over all n qubits, site 0 first."""
    v = np.ones(1, dtype=np.complex128)
    for state in _bloch_to_states(np.asarray(r)):
        v = np.kron(v, state)
    return v


def ansatz_energy(h, r):
    """<psi|H|psi> of the product state with Bloch vectors r, from its full vector."""
    v = full_vector(r)
    return float((v.conj() @ (h.entries @ v)).real)


def block_dims(blocks, shape):
    """The Hilbert-space dimension of each block (a list of sites) on ``shape``."""
    return [math.prod(shape.local_dims[s] for s in b) for b in blocks]


def random_ansatz(n, rng):
    """A restart's start state on n qubits as Bloch vectors (n, 3): 4n normal draws,
    the real then the imaginary parts of each site's state, as the search draws them."""
    z = rng.standard_normal(4 * n).reshape(n, 2, 2)
    return _states_to_bloch(z[:, 0] + 1j * z[:, 1])


def normalized_witness(w):
    """(H - esep I)/A of a WitnessSpec; its eigenvalues are at most 1."""
    h = w.hamiltonian
    return HermitianOperator(h.shape, (h.entries - w.esep * np.eye(h.dim)) / w.normalizer_a)


def rg_pure(schmidt):
    """Closed-form robustness of a pure bipartite state: (sum of Schmidt coefficients)^2 - 1."""
    lam = np.asarray(schmidt, dtype=float)
    if lam.size < 1:
        raise ValueError("need at least one Schmidt coefficient")
    if np.any(lam < 0):
        raise ValueError("Schmidt coefficients must be nonnegative")
    if abs(float(np.sum(lam**2)) - 1.0) > 1e-10:
        raise ValueError("Schmidt coefficients must have unit square sum")
    return float(np.sum(lam)) ** 2 - 1.0


def dm_chain(n):
    """An open XXZ chain with a Dzyaloshinskii-Moriya term and a field along Z.

    The odd-Y strings make H complex; it keeps the magnetization sectors.
    """
    lines = []
    for i in range(n - 1):
        pair = ["I"] * n
        for a, b, c in [("X", "X", 1.0), ("Y", "Y", 1.0), ("Z", "Z", 0.7), ("X", "Y", 0.4), ("Y", "X", -0.4)]:
            pair[i], pair[i + 1] = a, b
            lines.append(f"{c} {''.join(pair)}")
    lines.append("0.3 " + "Z" * n)
    return build_pauli(SystemShape([2] * n), parse_pauli_terms("\n".join(lines)))


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
def spectrum_calls(monkeypatch):
    """List that grows by one on every eigendecomposition of an operator made during the test.

    One decomposition on the sector path makes one stacked ``eigh`` call per
    distinct sector size, so this counts decompositions, not LAPACK calls;
    the eigenvalue-only positivity check of a ``DensityMatrix`` is not counted.
    """
    calls = []
    real = operators._eigh_by_sectors

    def counting(a, vectors=True):
        if vectors:
            calls.append(len(a))
        return real(a, vectors)

    monkeypatch.setattr(operators, "_eigh_by_sectors", counting)
    return calls
