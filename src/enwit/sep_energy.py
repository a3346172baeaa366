"""Separability energy: the minimum of <psi|H|psi> over pure product states.

Because Tr(H sigma) is linear in sigma, its minimum over the full (mixed)
separable set is attained at a pure product state, so pure-state
minimization is all that is needed.  Two routes are provided:

* :func:`esep_seesaw` -- alternating block minimization with random
  restarts (the workhorse),
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
    converged: bool
    source: str  # exact-optimized | closed-form | user-supplied


def full_vector(shape: SystemShape, ansatz: ProductStateAnsatz) -> np.ndarray:
    """Assemble the product state as a vector over the full Hilbert space."""
    n = shape.n_sites
    letters = [chr(ord("a") + i) for i in range(n)]
    subs, ops = [], []
    for block, state in zip(ansatz.partition.blocks, ansatz.block_states):
        dims = tuple(shape.local_dims[s] for s in block)
        ops.append(state.reshape(dims))
        subs.append("".join(letters[s] for s in block))
    expr = ",".join(subs) + "->" + "".join(letters)
    return np.einsum(expr, *ops).reshape(-1)


def ansatz_energy(h: HermitianOperator, ansatz: ProductStateAnsatz) -> float:
    v = full_vector(h.shape, ansatz)
    return float((v.conj() @ (h.entries @ v)).real)


def random_ansatz(
    shape: SystemShape, part: Partition, rng: np.random.Generator
) -> ProductStateAnsatz:
    """Product state with each block drawn uniformly from its complex unit sphere."""
    states = []
    for d in part.block_dims(shape):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        states.append(z / np.linalg.norm(z))
    return ProductStateAnsatz(part, states)


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


def _qubit_ground(m: np.ndarray, prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest eigenvalue and a unit ground vector of each 2x2 Hermitian matrix.

    For M = [[p, q], [conj(q), s]] with u_z = (p - s)/2 and r = hypot(u_z, |q|)
    the lowest eigenvalue is (p + s)/2 - r.  Of the two unnormalized ground
    vectors (q, -(r + u_z)) and (-(r - u_z), conj(q)), the one used has
    squared norm 2r(r + |u_z|), which never cancels.  A multiple of the
    identity (r = 0) has every vector as a ground vector; its row of ``prev``
    is returned unchanged.
    """
    p = m[:, 0, 0].real
    s = m[:, 1, 1].real
    q = m[:, 0, 1]
    u_z = 0.5 * (p - s)
    r = np.hypot(u_z, np.abs(q))
    big = r + np.abs(u_z)
    upper = u_z >= 0.0
    vecs = np.empty_like(prev)
    vecs[:, 0] = np.where(upper, q, -big)
    vecs[:, 1] = np.where(upper, -big, q.conj())
    # Where r = 0 the candidate is exactly (0, 0): dividing by 1 instead of 0
    # and adding the previous state keeps that state.
    flat = r == 0.0
    vecs /= (np.sqrt(2.0 * r * big) + flat)[:, None]
    vecs += prev * flat[:, None]
    return 0.5 * (p + s) - r, vecs


def esep_seesaw(
    h: HermitianOperator,
    part: Partition,
    restarts: int = 32,
    seed: int = 0,
) -> SepEnergyReport:
    """Alternating block minimization from ``restarts`` random starting points.

    Each round-robin step replaces one block state by the ground eigenvector
    of its effective operator, so the energy never increases; a restart stops
    once a full sweep lowers the energy by less than 1e-12 or the sweep cap
    is hit.  Each restart's random stream is derived solely from
    ``(seed, restart index)``, so results do not depend on execution order;
    the restarts are merely executed in lockstep here.

    One block update costs one O(R 4^n) GEMM for R restarts on n qubits (in
    general O(R D^2) for total dimension D): the effective operators of all
    restarts come from a single product of H, with its sites reordered so
    the other blocks' column indices come last, and the restarts' states of
    those blocks (see :func:`_block_operators`).  Qubit blocks then take their ground vector in
    closed form (see :func:`_qubit_ground`); larger blocks use one stacked
    ``eigh``.  The reordered H is built afresh for each update, so peak
    memory is one extra copy of H.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    part.validate_for(h.shape)
    n_blocks = len(part.blocks)
    block_dims = part.block_dims(h.shape)

    seed_u = int(seed) & 0xFFFFFFFFFFFFFFFF
    starts = [random_ansatz(h.shape, part, np.random.default_rng([seed_u, r])) for r in range(restarts)]
    states = [
        np.stack([starts[r].block_states[bi] for r in range(restarts)])
        for bi in range(n_blocks)
    ]

    m0 = _block_operators(h, part, states, 0)
    energies = np.einsum("rb,rbc,rc->r", states[0].conj(), m0, states[0]).real
    converged = np.zeros(restarts, dtype=bool)
    for _ in range(SEESAW_SWEEP_CAP):
        active = ~converged
        if not active.any():
            break
        sweep_start = energies.copy()
        for bi in range(n_blocks):
            m = _block_operators(h, part, states, bi)
            if block_dims[bi] == 2:
                new_e, new_v = _qubit_ground(m, states[bi])
            else:
                vals, vecs = np.linalg.eigh(m)
                new_e, new_v = vals[:, 0], vecs[:, :, 0]
            assert (new_e[active] <= energies[active] + 1e-10).all(), "seesaw energy increased"
            states[bi][active] = new_v[active]
            energies[active] = new_e[active]
        converged |= active & (sweep_start - energies < SEESAW_ENERGY_TOL)

    best = int(np.argmin(energies))
    minimizer = ProductStateAnsatz(part, [states[bi][best] for bi in range(n_blocks)])
    return SepEnergyReport(
        esep=float(energies[best]),
        minimizer=minimizer,
        restarts_used=restarts,
        converged=bool(converged[best]),
        source="exact-optimized",
    )


def _closed_form_check(p: XXXParams) -> None:
    """Refuse parameters whose Hamiltonian is not J s1.s2 + B(sz1 + sz2)."""
    if p.n_sites != 2:
        raise ValueError("closed form is only defined for n_sites = 2")
    if p.boundary == "periodic" and p.double_count_two_site_bond:
        raise ValueError(
            "the closed-form E_sep counts the two-site bond once; "
            "use another policy with --double-count-two-site-bond"
        )


def esep_closed_form_xxx(p: XXXParams) -> float:
    """Exact E_sep of the two-site Heisenberg model in a field.

    The optimal product pair has both Bloch vectors at polar angle theta with
    cos(theta) = -B/(2J) and opposite azimuths, giving -J - B^2/(2J); past
    |B| = 2J the pair polarizes along the field and the value is J - 2|B|.
    A doubled periodic bond is refused: its true value is lower, so this one
    would make the witness unsound.
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
        converged=True,
        source="user-supplied",
    )
