"""Separability energy: the minimum of <psi|H|psi> over pure product states.

Because Tr(H sigma) is linear in sigma, its minimum over the full (mixed)
separable set is attained at a pure product state, so pure-state
minimization is all that is needed.  Two routes are provided:

* :func:`esep_seesaw` (:func:`esep_search` for several H) -- local search with
  random restarts (the workhorse): Riemannian Newton on Bloch vectors when
  every block is one qubit, alternating block minimization otherwise,
* :func:`esep_closed_form_xxx` -- the analytic value for the two-site
  Heisenberg model in a field, with the bond counted once.

The test suite keeps a brute-force nested-grid scan, independent of the
seesaw, as its oracle.

Externally supplied values enter through :func:`esep_reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .hamiltonians import XXXParams
from .operators import HermitianOperator, SystemShape, _frozen_array

SEESAW_ENERGY_TOL = 1e-12
SEESAW_SWEEP_CAP = 10_000
RESTART_AGREEMENT_TOL = 1e-9


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

    def block_dims(self, shape: SystemShape) -> list[int]:
        return [math.prod(shape.local_dims[s] for s in b) for b in self.blocks]


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
    restarts_agreeing: int  # seesaw restarts within RESTART_AGREEMENT_TOL of the best, else 0
    converged: bool
    source: str  # exact-optimized | closed-form | user-supplied
    gradient_norm: Optional[float] = None  # Bloch search only: Riemannian gradient norm
    hessian_min: Optional[float] = None  # Bloch search only: smallest reduced-Hessian eigenvalue


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


def _block_operators(
    h: HermitianOperator, part: Partition, states: Sequence[np.ndarray], which: int
) -> np.ndarray:
    """Effective operators on block ``which`` for a stack of product states.

    ``states[bi]`` holds one block-``bi`` state per row.  The other blocks'
    rows are multiplied out into one "rest" vector per row, and H is copied
    once with its sites reordered as (rest rows, target rows, target columns;
    rest columns), so a single GEMM against the rest vectors followed by one
    contraction with their conjugates gives, for each row r, the (d, d)
    matrix <rest_r a|H|rest_r b>.
    """
    shape = h.shape
    n = shape.n_sites
    others = [bi for bi in range(len(part.blocks)) if bi != which]
    rest = states[others[0]]
    for bi in others[1:]:
        rest = (rest[:, :, None] * states[bi][:, None, :]).reshape(rest.shape[0], -1)
    rows, d_rest = rest.shape
    d = states[which].shape[1]
    rest_sites = [s for bi in others for s in part.blocks[bi]]
    target = list(part.blocks[which])
    perm = rest_sites + target + [n + s for s in target] + [n + s for s in rest_sites]
    h_perm = h.entries.reshape(shape.local_dims * 2).transpose(perm).reshape(-1, d_rest)
    y = (h_perm @ rest.T).reshape(d_rest, d, d, rows)
    m = np.einsum("xabr,rx->rab", y, rest.conj())
    return (m + m.conj().transpose(0, 2, 1)) / 2.0


def _energies(h: HermitianOperator, part: Partition, states: Sequence[np.ndarray]) -> np.ndarray:
    """<psi_r|H|psi_r> of each stacked product state, from one block-0 effective operator."""
    m0 = _block_operators(h, part, states, 0)
    return np.einsum("rb,rbc,rc->r", states[0].conj(), m0, states[0]).real


def esep_seesaw(
    h: HermitianOperator, part: Partition, restarts: int = 32, seed: int = 0
) -> SepEnergyReport:
    """Local minimization of the energy over product states: :func:`esep_search` for one H."""
    return esep_search([h], part, restarts=restarts, seed=seed)[0]


def esep_search(
    hs: Sequence[HermitianOperator], part: Partition, restarts: int = 32, seed: int = 0
) -> list[SepEnergyReport]:
    """:func:`esep_seesaw` for each Hamiltonian of ``hs`` (all of one shape), one report each.

    Each restart's random stream is derived solely from ``(seed, restart
    index)``, so results do not depend on execution order, and every
    Hamiltonian starts from the same draws.  The reported energies are those
    of the returned product states on each dense H (see :func:`_energies`).

    When every block is one qubit, the restarts of all the Hamiltonians run
    as one stack on Bloch vectors (see :func:`enwit.bloch.bloch_search`):
    each H is expanded in Pauli strings (O(n 4^n)), up to
    ``MEAN_FIELD_SWEEPS`` sweeps of r_i <- -g_i/|g_i| warm each restart up,
    and saddle-free Riemannian Newton steps on (S^2)^n with Armijo
    backtracking follow until the Riemannian gradient norm is at most
    ``NEWTON_TOL`` times the sum of the |coefficients| of that H's own
    non-identity strings, or a line search stalls at round-off.
    ``converged`` then certifies a local minimum to second order (gradient
    and smallest reduced-Hessian eigenvalue within that per-H tolerance),
    and each report carries both numbers of its best restart.  Each step
    costs O(R K n^2) for R rows and K strings in all.

    Any other partition uses alternating block minimization, one H after
    the other: each round-robin step replaces one block state by the ground
    eigenvector of its effective operator; a restart stops once a sweep
    lowers the energy by less than 1e-12 or the sweep cap is hit.  One block
    update costs one O(R D^2) GEMM for total dimension D (see
    :func:`_block_operators`) and one stacked ``eigh``.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not hs or any(h.shape != hs[0].shape for h in hs):
        raise ValueError("the search needs one or more Hamiltonians of one shape")
    part.validate_for(hs[0].shape)
    block_dims = part.block_dims(hs[0].shape)

    seed_u = int(seed) & 0xFFFFFFFFFFFFFFFF
    # row r of each block: the start state _draw_block_states draws from default_rng([seed, r])
    rngs = [np.random.default_rng([seed_u, r]) for r in range(restarts)]
    states = [np.tile(s, (len(hs), 1)) for s in _draw_block_states(block_dims, rngs)]
    groups = [slice(j * restarts, (j + 1) * restarts) for j in range(len(hs))]  # rows of hs[j]

    gnorm = hmin = None
    if all(len(b) == 1 for b in part.blocks) and all(d == 2 for d in block_dims):
        from .bloch import bloch_search  # loaded on first use; only this path needs it

        states, gnorm, hmin, converged = bloch_search(hs, [b[0] for b in part.blocks], states)
    else:  # the seesaw updates each group's rows in place, through views
        converged = np.concatenate(
            [_block_seesaw(h, part, [s[rows] for s in states]) for h, rows in zip(hs, groups)]
        )
    reports = []
    for h, rows in zip(hs, groups):
        mine = [s[rows] for s in states]
        energies = _energies(h, part, mine)
        best = int(np.argmin(energies))
        reports.append(
            SepEnergyReport(
                esep=float(energies[best]),
                minimizer=ProductStateAnsatz(part, [s[best] for s in mine]),
                restarts_used=restarts,
                restarts_agreeing=int((energies <= energies[best] + RESTART_AGREEMENT_TOL).sum()),
                converged=bool(converged[rows][best]),
                source="exact-optimized",
                gradient_norm=None if gnorm is None else float(gnorm[rows][best]),
                hessian_min=None if hmin is None else float(hmin[rows][best]),
            )
        )
    return reports


def _block_seesaw(h: HermitianOperator, part: Partition, states: list[np.ndarray]) -> np.ndarray:
    """Alternating block minimization of the rows of ``states``, in place; which rows converged."""
    energies = _energies(h, part, states)
    converged = np.zeros(len(energies), dtype=bool)
    for _ in range(SEESAW_SWEEP_CAP):
        active = ~converged
        if not active.any():
            break
        sweep_start = energies.copy()
        for bi in range(len(part.blocks)):
            vals, vecs = np.linalg.eigh(_block_operators(h, part, states, bi))
            new_e = vals[active, 0]
            assert (new_e <= energies[active] + 1e-10).all(), "seesaw energy increased"
            states[bi][active] = vecs[active, :, 0]
            energies[active] = new_e
        converged |= active & (sweep_start - energies < SEESAW_ENERGY_TOL)
    return converged


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
