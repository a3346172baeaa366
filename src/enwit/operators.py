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

From dimension ``SECTOR_MIN_DIM`` up, spectra (and the positivity check of a
``DensityMatrix``) are computed per exact sector: the matrix is split into
the connected components of its exactly-nonzero entries, such as the
magnetization sectors of an XXX chain, and equal-size sectors are solved in
one stacked call, in real arithmetic when every imaginary part is exactly 0.
Smaller matrices go to LAPACK whole.  The decomposition keeps the sectors:
``SpectralDecomposition.sectors`` holds, per sector size, the sectors' basis
indices, the ranks of their eigenvalues and their eigenvector blocks, so
Gibbs states and level distributions are built block by block.  The dense
eigenvector matrix is assembled only when ``eigenvectors`` is read.

A ``DensityMatrix`` is either a checked dense matrix or, from
``DensityMatrix.from_spectrum``, populations p over a decomposition's
eigenvectors.  The latter needs O(d) checks only (p are its eigenvalues),
and its dense matrix is assembled only when ``entries`` or ``op`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NumericalError

MAX_TOTAL_DIM = 4096

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
LEVEL_TOL = 1e-9
# Below this dimension a matrix goes to LAPACK whole.  Measured on XXX rings
# with one BLAS thread, the sector eigh costs 180 us against 11 us for one
# complex eigh at d = 4, 0.38 against 0.16 ms at d = 32, about the same
# (0.6-0.8 ms) at d = 64, and a third of it at d = 128.
SECTOR_MIN_DIM = 64


def _sectors(a: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of a Hermitian matrix's nonzero pattern.

    A breadth-first search over boolean rows: the pattern is symmetric, and
    no d x d integer array is made.
    """
    nz = a != 0
    seen = np.zeros(len(a), dtype=bool)
    comps = []
    for start in range(len(a)):
        if seen[start]:
            continue
        members = np.zeros(len(a), dtype=bool)
        members[start] = True
        frontier = [start]
        while len(frontier):
            new = nz[frontier].any(axis=0) & ~members
            members |= new
            frontier = np.flatnonzero(new)
        seen |= members
        comps.append(np.flatnonzero(members))
    return comps


def _solve(a: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    return np.linalg.eigh(a) if vectors else (np.linalg.eigvalsh(a), None)


def _take(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The diagonal blocks a[I, I] for the index rows I of ``rows``, stacked as (m, s, s)."""
    if rows.shape == (1, len(a)):  # one block spans a: no d x d copy (268 MB at d = 4096)
        return a[None]
    return a[rows[:, :, None], rows[:, None, :]]


class SectorBlock(NamedTuple):
    """The ``m`` exact sectors of one size ``s`` and their eigenvectors.

    Row j of ``rows`` lists the basis indices I of sector j, row j of
    ``ranks`` the positions of its eigenvalues in the ascending spectrum,
    and ``vectors[j]`` its eigenvector columns restricted to I (they are
    zero off I).  The vectors are real when the matrix was.
    """

    rows: np.ndarray  # (m, s) int
    ranks: np.ndarray  # (m, s) int
    vectors: np.ndarray  # (m, s, s)

    def take(self, a: np.ndarray) -> np.ndarray:
        """The sectors' diagonal blocks a[I, I] of a d x d matrix, stacked as (m, s, s)."""
        return _take(a, self.rows)

    def put(self, out: np.ndarray, blocks: np.ndarray) -> None:
        """Write stacked (m, s, s) blocks into out[I, I] of a d x d matrix."""
        out[self.rows[:, :, None], self.rows[:, None, :]] = blocks


def _eigh_by_sectors(
    a: np.ndarray, vectors: bool = True
) -> tuple[np.ndarray, tuple[SectorBlock, ...] | None]:
    """Ascending eigenvalues and one ``SectorBlock`` per sector size (``None`` without ``vectors``).

    From ``SECTOR_MIN_DIM`` up, each connected component of the exact
    nonzero pattern is solved alone, all components of one size in one
    stacked call, in real arithmetic when no entry has an imaginary part.
    A smaller matrix, or one with a single component, is one block.
    """
    if len(a) < SECTOR_MIN_DIM:
        vals, v = _solve(a, vectors)
        if v is None:
            return vals, None
        rows = _frozen_array(np.arange(len(a))[None])
        return vals, (SectorBlock(rows, rows, _frozen_array(v[None])),)
    if not a.imag.any():
        a = a.real
    comps = _sectors(a)
    sizes = np.array([c.size for c in comps])
    groups = [np.stack([comps[k] for k in np.flatnonzero(sizes == s)]) for s in np.unique(sizes)]
    solved = [_solve(_take(a, rows), vectors) for rows in groups]
    vals = np.concatenate([w.ravel() for w, _ in solved])
    order = np.argsort(vals, kind="stable")
    if not vectors:
        return vals[order], None
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    sectors, offset = [], 0
    for rows, (_, v) in zip(groups, solved):
        ranks = rank[offset : offset + rows.size].reshape(rows.shape)
        sectors.append(SectorBlock(*map(_frozen_array, (rows, ranks, v))))
        offset += rows.size
    return vals[order], tuple(sectors)


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


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dense Hermitian matrix acting on a tensor-product space.

    Construction symmetrizes ``(M + M^dagger)/2`` to absorb floating-point
    drift, but rejects matrices whose asymmetry exceeds ``1e-12`` times
    max(1, max |M_ij|) so real bugs are not masked, and matrices with a NaN
    or infinite entry.  ``terms`` holds the ``PauliString`` terms whose sum
    the entries are, when the operator was built from them
    (:func:`enwit.hamiltonians.build_pauli`), else ``None``; the E_sep
    search reads them instead of expanding the matrix.
    """

    shape: SystemShape
    entries: np.ndarray = field(repr=False)
    terms: Optional[tuple] = field(default=None, repr=False)

    def __init__(self, shape: SystemShape, entries: np.ndarray, terms: Optional[Sequence] = None):
        mat = np.asarray(entries, dtype=np.complex128)
        d = shape.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"entries must be {d}x{d} for shape {shape.local_dims}, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        adjoint = mat.conj().T
        out = mat - adjoint
        asym = np.abs(out).max()
        # asym > TOL * max(1, max |M|), with the d x d scale read only past TOL
        if asym > HERMITICITY_TOL and asym > HERMITICITY_TOL * np.abs(mat).max():
            raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
        np.add(mat, adjoint, out=out)
        out /= 2.0
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "entries", _frozen_array(out))
        object.__setattr__(self, "terms", None if terms is None else tuple(terms))

    @classmethod
    def _trusted(
        cls, shape: SystemShape, entries: np.ndarray, terms: Optional[Sequence] = None
    ) -> "HermitianOperator":
        """Wrap a finite d x d matrix that is Hermitian by construction, with no check or copy."""
        op = cls.__new__(cls)
        object.__setattr__(op, "shape", shape)
        object.__setattr__(op, "entries", _frozen_array(entries))
        object.__setattr__(op, "terms", None if terms is None else tuple(terms))
        return op

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
            vals, sectors = _eigh_by_sectors(self.entries)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
        return SpectralDecomposition(_frozen_array(vals), sectors)


@dataclass(frozen=True, init=False, eq=False)
class DensityMatrix:
    """A unit-trace positive operator.

    ``DensityMatrix(op)``, ``from_entries`` and ``pure`` check the matrix:
    trace within ``TRACE_TOL`` of 1, eigenvalues >= -``PSD_TOL``.
    ``from_spectrum`` builds sum_k p_k |v_k><v_k| over the eigenvectors of a
    ``SpectralDecomposition``: p are then the state's eigenvalues, so it
    checks them in O(d), and ``spectrum`` and ``populations`` keep both.
    Such a state assembles its dense ``op`` only when ``op`` or ``entries``
    is first read, sector by sector into a zero matrix.
    """

    spectrum: Optional["SpectralDecomposition"] = field(repr=False)
    populations: Optional[np.ndarray] = field(repr=False)

    def __init__(self, op: HermitianOperator):
        tr = op.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1 within {TRACE_TOL}")
        # The sectors of the state's own nonzero pattern hold all of its
        # eigenvalues, so the split pays off on block-diagonal states too.
        lo = float(_eigh_by_sectors(op.entries, vectors=False)[0][0])
        if lo < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lo}")
        object.__setattr__(self, "_shape", op.shape)
        object.__setattr__(self, "spectrum", None)
        object.__setattr__(self, "populations", None)
        self.__dict__["op"] = op

    @classmethod
    def from_spectrum(
        cls, shape: SystemShape, dec: "SpectralDecomposition", p: np.ndarray
    ) -> "DensityMatrix":
        """The state sum_k p_k |v_k><v_k| over the eigenvectors v_k of ``dec``.

        The eigenvectors are orthonormal, so p holds the state's eigenvalues:
        they must be finite and >= 0 and sum to 1 within ``TRACE_TOL``.
        """
        p = _frozen_array(np.array(p, dtype=float))
        d = shape.total_dim
        if p.shape != (d,) or dec.eigenvalues.shape != (d,):
            raise ValueError(f"populations and spectrum need {d} entries for {shape.local_dims}")
        if not (np.isfinite(p).all() and (p >= 0.0).all()):
            raise ValueError("populations must be finite and nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > TRACE_TOL:
            raise ValueError(f"populations sum to {total}, not 1 within {TRACE_TOL}")
        rho = cls.__new__(cls)
        object.__setattr__(rho, "_shape", shape)
        object.__setattr__(rho, "spectrum", dec)
        object.__setattr__(rho, "populations", p)
        return rho

    @cached_property
    def op(self) -> HermitianOperator:
        """The dense state; a spectral state writes each sector's V diag(p) V^dagger into zeros."""
        d = self.shape.total_dim
        rho = np.zeros((d, d), dtype=np.complex128)
        p = self.populations
        for block in self.spectrum.sectors:
            v = block.vectors
            block.put(rho, (v * p[block.ranks][:, None, :]) @ v.conj().swapaxes(1, 2))
        return HermitianOperator(self.shape, rho)

    @property
    def shape(self) -> SystemShape:
        return self._shape

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


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues with orthonormal eigenvectors, kept per exact sector.

    ``sectors`` holds one ``SectorBlock`` per sector size; together they
    cover every basis index and every eigenvalue once.  The dense
    ``eigenvectors`` matrix is assembled from them on first access only.
    """

    eigenvalues: np.ndarray = field(repr=False)
    sectors: tuple[SectorBlock, ...] = field(repr=False)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Complex eigenvector columns of the whole space, in eigenvalue order (d x d)."""
        v = np.zeros((self.eigenvalues.size,) * 2, dtype=np.complex128)
        for block in self.sectors:
            v[block.rows[:, :, None], block.ranks[:, None, :]] = block.vectors
        return _frozen_array(v)

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
    """Tr(m rho) as a real number.

    An imaginary part above 1e-10 times max(1, max |m_ij|) raises
    :class:`~enwit.errors.NumericalError`.
    """
    if m.shape.local_dims != rho.shape.local_dims:
        raise ValueError(
            f"shape mismatch: operator {m.shape.local_dims} vs state {rho.shape.local_dims}"
        )
    val = complex(np.einsum("ij,ji->", m.entries, rho.entries))
    # Round-off in the imaginary part grows with the entries of m; the
    # d x d scale is read only past the unit-scale tolerance.
    tol = 1e-10
    if abs(val.imag) > tol and abs(val.imag) > tol * float(np.abs(m.entries).max()):
        raise NumericalError(f"expectation acquired imaginary part {val.imag}")
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

