import numpy as np
import pytest

from enwit import (
    DensityMatrix,
    HermitianOperator,
    ProductStateAnsatz,
    SystemShape,
    XXXParams,
    build_xxx,
)
from enwit.sep_energy import _draw_block_states
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


def full_vector(shape, ansatz):
    """The product state as a vector over the full Hilbert space, sites in order."""
    n = shape.n_sites
    letters = [chr(ord("a") + i) for i in range(n)]
    subs, ops = [], []
    for block, state in zip(ansatz.partition.blocks, ansatz.block_states):
        ops.append(state.reshape(tuple(shape.local_dims[s] for s in block)))
        subs.append("".join(letters[s] for s in block))
    return np.einsum(",".join(subs) + "->" + "".join(letters), *ops).reshape(-1)


def ansatz_energy(h, ansatz):
    """<psi|H|psi> of a product state, from its full vector."""
    v = full_vector(h.shape, ansatz)
    return float((v.conj() @ (h.entries @ v)).real)


def random_ansatz(shape, part, rng):
    """A restart's start state: each block uniform on its complex unit sphere."""
    states = _draw_block_states(part.block_dims(shape), [rng])
    return ProductStateAnsatz(part, [s[0] for s in states])


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
