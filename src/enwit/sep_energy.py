"""Separability energy: the minimum of <psi|H|psi> over pure product states.

Because Tr(H sigma) is linear in sigma, its minimum over the full (mixed)
separable set is attained at a pure product state, so pure-state
minimization is all that is needed.  Two routes are provided:

* :func:`esep_seesaw` (:func:`esep_search` for several H) -- local search with
  random restarts on qubit Hamiltonians, one qubit per block: Riemannian
  Newton on Bloch vectors (see :mod:`enwit.bloch`),
* :func:`esep_closed_form_xxx` -- the analytic value for the two-site
  Heisenberg model in a field, with the bond counted once.

The test suite keeps a brute-force nested-grid scan, independent of the
search, as its oracle.

Externally supplied values enter through :func:`esep_reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .hamiltonians import XXXParams
from .operators import HermitianOperator, SystemShape, _frozen_array

RESTART_AGREEMENT_TOL = 1e-9  # relative to each H's sum of |Pauli coefficients|


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of subsystem indices; product states factor across blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: Sequence[Sequence[int]]):
        norm = tuple(tuple(sorted(int(s) for s in b)) for b in blocks)
        if len(norm) < 2:
            raise ValueError("a partition needs at least 2 blocks")
        if any(not b for b in norm):
            raise ValueError("blocks must be nonempty")
        flat = [s for b in norm for s in b]
        if len(set(flat)) != len(flat):
            raise ValueError("blocks must be pairwise disjoint")
        object.__setattr__(self, "blocks", norm)

    @staticmethod
    def singletons(n_sites: int) -> "Partition":
        return Partition([[i] for i in range(n_sites)])

    def validate_for(self, shape: SystemShape) -> None:
        flat = sorted(s for b in self.blocks for s in b)
        if flat != list(range(shape.n_sites)):
            raise ValueError(
                f"partition {self.blocks} does not cover sites 0..{shape.n_sites - 1}"
            )


@dataclass(frozen=True)
class ProductStateAnsatz:
    """One unit vector per block; together they define a pure product state."""

    partition: Partition
    block_states: tuple[np.ndarray, ...]

    def __init__(self, partition: Partition, block_states: Sequence[np.ndarray]):
        states = []
        for v in block_states:
            arr = np.asarray(v, dtype=np.complex128).reshape(-1)
            if abs(np.linalg.norm(arr) - 1.0) > 1e-12:
                raise ValueError("block states must be unit vectors")
            states.append(_frozen_array(arr))
        if len(states) != len(partition.blocks):
            raise ValueError("one state per block required")
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "block_states", tuple(states))


@dataclass(frozen=True)
class SepEnergyReport:
    esep: float
    minimizer: Optional[ProductStateAnsatz]
    restarts_used: int
    restarts_agreeing: int  # search restarts within the agreement tolerance of the best, else 0
    converged: bool
    source: str  # exact-optimized | closed-form | user-supplied
    gradient_norm: Optional[float] = None  # search only: Riemannian gradient norm
    hessian_min: Optional[float] = None  # search only: smallest reduced-Hessian eigenvalue
    coefficient_sum: Optional[float] = None  # search only: sum of H's |Pauli coefficients|


def _draw_block_states(
    block_dims: Sequence[int], rngs: Sequence[np.random.Generator]
) -> list[np.ndarray]:
    """Per block, one row per generator: d real then d imaginary normal draws, normalized."""
    z = np.stack([rng.standard_normal(2 * sum(block_dims)) for rng in rngs])
    states, lo = [], 0
    for d in block_dims:
        block = z[:, lo : lo + d] + 1j * z[:, lo + d : lo + 2 * d]
        states.append(block / np.linalg.norm(block, axis=1, keepdims=True))
        lo += 2 * d
    return states


def esep_seesaw(
    h: HermitianOperator, part: Partition, restarts: int = 32, seed: int = 0
) -> SepEnergyReport:
    """Local minimization of the energy over product states: :func:`esep_search` for one H."""
    return esep_search([h], part, restarts=restarts, seed=seed)[0]


def esep_search(
    hs: Sequence[HermitianOperator], part: Partition, restarts: int = 32, seed: int = 0
) -> list[SepEnergyReport]:
    """:func:`esep_seesaw` for each Hamiltonian of ``hs`` (all of one shape), one report each.

    Every site must be a qubit and every block one site; anything else
    raises ``ValueError``.  Each restart's random stream is derived solely
    from ``(seed, restart index)``, so results do not depend on execution
    order, and every Hamiltonian starts from the same draws.

    The restarts of all the Hamiltonians run as one stack on Bloch vectors
    (see :func:`enwit.bloch.bloch_search`): each H's Pauli strings are read
    from the terms ``build_pauli`` summed (O(terms)), or else expanded from
    its matrix (O(n 4^n)).  Sweeps of r_i <- -g_i/|g_i| warm each restart
    up until one sweep lowers none of that H's energies by more than
    ``MEAN_FIELD_HANDOVER`` times the sum of the |coefficients| of its own
    non-identity strings (at most ``MEAN_FIELD_SWEEPS`` sweeps), and
    saddle-free Riemannian Newton steps on (S^2)^n (the reduced Hessian's
    |eigenvalues| from ``eigh``, floored at the tolerance) with Armijo
    backtracking follow until the Riemannian gradient norm is at most
    ``NEWTON_TOL`` times that sum, or a line search stalls at round-off.
    ``converged`` then certifies a local minimum to second order (gradient
    and smallest reduced-Hessian eigenvalue within that per-H tolerance),
    and each report carries both numbers of its best restart.  Each step
    costs O(R K n^2) for R rows and K strings in all.

    The reported energy is the multilinear Bloch energy of the returned
    product state.  ``coefficient_sum`` is the sum of |c_k| over all of H's
    Pauli strings, identity included, from the search's own table: it is at
    least H's largest absolute row sum, and no d x d matrix is read for it.
    ``restarts_agreeing`` counts the restarts within
    ``RESTART_AGREEMENT_TOL`` times that sum of the best, so the count does
    not depend on the energy unit.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not hs or any(h.shape != hs[0].shape for h in hs):
        raise ValueError("the search needs one or more Hamiltonians of one shape")
    shape = hs[0].shape
    part.validate_for(shape)
    if any(len(b) != 1 for b in part.blocks) or any(d != 2 for d in shape.local_dims):
        raise ValueError(
            f"the search needs one qubit per block, not blocks {part.blocks} "
            f"on sites of dimensions {list(shape.local_dims)}"
        )

    # imported on first use: code that never searches (the R_g oracle, the
    # closed form) does not compile it, which shows in its import time
    from . import bloch

    seed_u = int(seed) & 0xFFFFFFFFFFFFFFFF
    # row r of each block: the start state _draw_block_states draws from default_rng([seed, r])
    rngs = [np.random.default_rng([seed_u, r]) for r in range(restarts)]
    starts = [np.tile(s, (len(hs), 1)) for s in _draw_block_states([2] * shape.n_sites, rngs)]
    states, energies, gnorm, hmin, converged, scale = bloch.bloch_search(
        hs, [b[0] for b in part.blocks], starts
    )
    reports = []
    for j in range(len(hs)):
        mine = energies[j * restarts : (j + 1) * restarts]  # the rows of hs[j]
        best = j * restarts + int(np.argmin(mine))
        tol = RESTART_AGREEMENT_TOL * float(scale[j])
        reports.append(
            SepEnergyReport(
                esep=float(energies[best]),
                minimizer=ProductStateAnsatz(part, [s[best] for s in states]),
                restarts_used=restarts,
                restarts_agreeing=int((mine <= energies[best] + tol).sum()),
                converged=bool(converged[best]),
                source="exact-optimized",
                gradient_norm=float(gnorm[best]),
                hessian_min=float(hmin[best]),
                coefficient_sum=float(scale[j]),
            )
        )
    return reports


def _closed_form_check(p: XXXParams) -> None:
    """Refuse parameters whose Hamiltonian is not J s1.s2 + B(sz1 + sz2)."""
    if p.n_sites != 2:
        raise ValueError("closed form is only defined for n_sites = 2")


def esep_closed_form_xxx(p: XXXParams) -> float:
    """Exact E_sep of the two-site Heisenberg model in a field.

    The optimal product pair has both Bloch vectors at polar angle theta with
    cos(theta) = -B/(2J) and opposite azimuths, giving -J - B^2/(2J); past
    |B| = 2J the pair polarizes along the field and the value is J - 2|B|.
    """
    _closed_form_check(p)
    j, b = p.coupling_j, p.field_b
    if abs(b) <= 2.0 * j:
        return -j - b * b / (2.0 * j)
    return j - 2.0 * abs(b)


def closed_form_ansatz_xxx(p: XXXParams) -> ProductStateAnsatz:
    """An analytic minimizer realizing :func:`esep_closed_form_xxx`."""
    _closed_form_check(p)
    j, b = p.coupling_j, p.field_b
    part = Partition.singletons(2)
    if abs(b) <= 2.0 * j:
        theta = math.acos(-b / (2.0 * j))
        up = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)], dtype=np.complex128)
        down = np.array([math.cos(theta / 2.0), -math.sin(theta / 2.0)], dtype=np.complex128)
        return ProductStateAnsatz(part, [up, down])
    pole = np.array([0.0, 1.0] if b > 0 else [1.0, 0.0], dtype=np.complex128)
    return ProductStateAnsatz(part, [pole, pole])


def esep_reference(value: float) -> SepEnergyReport:
    """Wrap an externally supplied separability energy (no minimizer attached).

    Downstream code treats the value as a possibly conservative bound: values
    below the ground energy simply make the witness bound vacuous.
    """
    return SepEnergyReport(
        esep=float(value),
        minimizer=None,
        restarts_used=0,
        restarts_agreeing=0,
        converged=True,
        source="user-supplied",
    )
