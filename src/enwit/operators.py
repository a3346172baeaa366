"""Dense complex linear algebra on tensor-product Hilbert spaces.

Everything downstream (Hamiltonians, thermal states, witnesses, the
robustness solver) is built on the four value types defined here:
``SystemShape``, ``HermitianOperator``, ``DensityMatrix`` and
``SpectralDecomposition``.  All of them are immutable after construction
and therefore safe to share between concurrent tasks.

An operator's spectrum is computed once, on first use: ``eig(h)``
diagonalizes ``h`` the first time it is called and hands back the same
``SpectralDecomposition`` on every later call.  Degenerate levels are merged
by one rule, ``SpectralDecomposition.levels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericalError

MAX_TOTAL_DIM = 4096

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
LEVEL_TOL = 1e-9


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SystemShape:
    """Ordered local dimensions of the subsystems, e.g. ``(2, 2)`` for two qubits."""

    local_dims: tuple[int, ...]

    def __init__(self, local_dims: Iterable[int]):
        dims = tuple(int(d) for d in local_dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")
        total = math.prod(dims)
        if total > MAX_TOTAL_DIM:
            raise ValueError(f"total dimension {total} exceeds the desk-scale cap {MAX_TOTAL_DIM}")
        object.__setattr__(self, "local_dims", dims)

    @property
    def n_sites(self) -> int:
        return len(self.local_dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.local_dims)


@dataclass(frozen=True)
class HermitianOperator:
    """A dense Hermitian matrix acting on a tensor-product space.

    Construction symmetrizes ``(M + M^dagger)/2`` to absorb floating-point
    drift, but rejects matrices whose asymmetry exceeds ``1e-12`` so real
    bugs are not masked, and matrices with a NaN or infinite entry.
    """

    shape: SystemShape
    entries: np.ndarray = field(repr=False)

    def __init__(self, shape: SystemShape, entries: np.ndarray):
        mat = np.asarray(entries, dtype=np.complex128)
        d = shape.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"entries must be {d}x{d} for shape {shape.local_dims}, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        asym = np.abs(mat - mat.conj().T).max()
        if asym > HERMITICITY_TOL * max(1.0, np.abs(mat).max()):
            raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "entries", _frozen_array((mat + mat.conj().T) / 2.0))

    @property
    def dim(self) -> int:
        return self.shape.total_dim

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    @cached_property
    def _spectrum(self) -> "SpectralDecomposition":
        # cached_property writes the instance __dict__ directly, which the
        # frozen dataclass's __setattr__ guard does not see.
        try:
            vals, vecs = np.linalg.eigh(self.entries)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
        return SpectralDecomposition(_frozen_array(vals), _frozen_array(vecs))


@dataclass(frozen=True)
class DensityMatrix:
    """A unit-trace positive operator (trace within 1e-10, eigenvalues >= -1e-10)."""

    op: HermitianOperator

    def __post_init__(self):
        tr = self.op.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1 within {TRACE_TOL}")
        lo = float(np.linalg.eigvalsh(self.op.entries)[0])
        if lo < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lo}")

    @property
    def shape(self) -> SystemShape:
        return self.op.shape

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries

    @staticmethod
    def from_entries(shape: SystemShape, entries: np.ndarray) -> "DensityMatrix":
        return DensityMatrix(HermitianOperator(shape, entries))

    @staticmethod
    def pure(shape: SystemShape, vector: Sequence[complex]) -> "DensityMatrix":
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            raise ValueError("cannot normalize the zero vector")
        v = v / nrm
        return DensityMatrix.from_entries(shape, np.outer(v, v.conj()))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @property
    def e_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def e_max(self) -> float:
        return float(self.eigenvalues[-1])

    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct eigenvalues, ascending, and their multiplicities.

        An eigenvalue joins the current level when it lies within
        ``LEVEL_TOL`` times min(1, max |eigenvalue|) of that level's first
        eigenvalue, which is the value reported for the level.  So a spectrum
        scaled down keeps its levels apart, and one of unit scale or above
        merges as with the plain ``LEVEL_TOL``.
        """
        lam = self.eigenvalues
        tol = LEVEL_TOL * min(1.0, float(np.abs(lam).max()))
        starts = [0]
        for i in range(1, lam.size):
            if lam[i] - lam[starts[-1]] > tol:
                starts.append(i)
        return lam[starts], np.diff(starts + [lam.size])


def eig(m: HermitianOperator) -> SpectralDecomposition:
    """Full spectral decomposition of a Hermitian operator.

    Computed on the first call for ``m`` and kept with it, so
    ``eig(m) is eig(m)``.  Non-convergence of the underlying solver is raised
    as :class:`~enwit.errors.NumericalError`, never returned silently.
    """
    return m._spectrum


def expectation(m: HermitianOperator, rho: DensityMatrix) -> float:
    """Tr(m rho) as a real number."""
    if m.shape.local_dims != rho.shape.local_dims:
        raise ValueError(
            f"shape mismatch: operator {m.shape.local_dims} vs state {rho.shape.local_dims}"
        )
    val = complex(np.einsum("ij,ji->", m.entries, rho.entries))
    assert abs(val.imag) <= 1e-10, f"expectation acquired imaginary part {val.imag}"
    return float(val.real)


def _partial_transpose_entries(
    mat: np.ndarray, dims: Sequence[int], block: Iterable[int]
) -> np.ndarray:
    """Transpose the subsystems in ``block`` of a matrix over ``dims``."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    sites = sorted(set(int(s) for s in block))
    if sites and (sites[0] < 0 or sites[-1] >= n):
        raise ValueError(f"subsystem indices {sites} out of range for {n} sites")
    t = np.asarray(mat).reshape(dims + dims)
    perm = list(range(2 * n))
    for s in sites:
        perm[s], perm[n + s] = perm[n + s], perm[s]
    d = math.prod(dims)
    return t.transpose(perm).reshape(d, d)

