"""Separability energy: the minimum of <psi|H|psi> over pure product states.

Because Tr(H sigma) is linear in sigma, its minimum over the full (mixed)
separable set is attained at a pure product state, so pure-state
minimization is all that is needed.  Three routes are provided:

* :func:`esep_seesaw` -- alternating block minimization with random
  restarts (the workhorse),
* :func:`esep_grid` -- a brute-force nested-grid scan, kept deliberately
  independent of the seesaw so it can serve as its oracle,
* :func:`esep_closed_form_xxx` -- the analytic value for the two-site
  Heisenberg model in a field.

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
GRID_BLOCK_DIM_CAP = 4


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


def _grid_states(dim: int, resolution: int) -> np.ndarray:
    """All grid states of the complex unit sphere in C^dim, shape (N, dim).

    Amplitudes come from nested polar angles on [0, pi/2] sampled at
    ``resolution + 1`` points; each component after the first carries a
    phase from ``resolution`` points on [0, 2pi).  Grids at resolutions
    r and k*r nest, which makes the scan minimum monotone under refinement.
    """
    polar = np.linspace(0.0, np.pi / 2.0, resolution + 1)
    azim = 2.0 * np.pi * np.arange(resolution) / resolution
    n_ang = dim - 1
    axes = [polar] * n_ang + [azim] * n_ang
    grids = np.meshgrid(*axes, indexing="ij")
    thetas = [g.reshape(-1) for g in grids[:n_ang]]
    phis = [g.reshape(-1) for g in grids[n_ang:]]
    n = thetas[0].size
    amps = np.empty((n, dim))
    running = np.ones(n)
    for k in range(n_ang):
        amps[:, k] = running * np.cos(thetas[k])
        running = running * np.sin(thetas[k])
    amps[:, dim - 1] = running
    states = amps.astype(np.complex128)
    for k in range(n_ang):
        states[:, k + 1] *= np.exp(1j * phis[k])
    return states


def _permuted_pair_matrix(
    h: HermitianOperator, block_a: tuple[int, ...], block_b: tuple[int, ...]
) -> np.ndarray:
    """H reordered so block_a's sites come first, as a matrix on (A otimes B)."""
    n = h.shape.n_sites
    order = list(block_a) + list(block_b)
    perm = order + [n + s for s in order]
    t = h.entries.reshape(h.shape.local_dims * 2).transpose(perm)
    d = h.shape.total_dim
    return t.reshape(d, d)


def _pair_grid_min(
    h_pair: np.ndarray,
    da: int,
    db: int,
    states_a: np.ndarray,
    states_b: np.ndarray,
    resolution: int,
) -> float:
    """min over grid pairs of <a b|H|a b>, chunked so memory stays bounded.

    When the inner block is a qubit the scan separates exactly: the energy is
    affine in its Bloch vector and the polar factor sin(theta) is nonnegative,
    so the grid minimum over (theta, phi) reduces to two 1-D scans per outer
    state.  Otherwise each chunk of A-states yields effective operators on
    block B, evaluated on every B-state at once via two real GEMMs (the
    Frobenius pairing of Hermitian matrices is real).
    """
    if db != 2 and da == 2:
        h_swapped = (
            h_pair.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, da * db)
        )
        return _pair_grid_min(h_swapped, db, da, states_b, states_a, resolution)
    h4 = h_pair.reshape(da, db, da, db)
    qubit_inner = db == 2
    if qubit_inner:
        t1 = np.linspace(0.0, np.pi / 2.0, resolution + 1)
        b_z = np.cos(2.0 * t1)
        b_xy = np.sin(2.0 * t1)
        phi = 2.0 * np.pi * np.arange(resolution) / resolution
        cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    else:
        proj = np.einsum("jq,js->jqs", states_b, states_b.conj()).reshape(
            states_b.shape[0], db * db
        )
        p_re, p_im = np.ascontiguousarray(proj.real), np.ascontiguousarray(proj.imag)
    best = math.inf
    chunk = max(1, 2**22 // max(resolution + 1, states_b.shape[0]))
    for lo in range(0, states_a.shape[0], chunk):
        a = states_a[lo : lo + chunk]
        step = np.einsum("ip,pqrs->iqrs", a.conj(), h4)
        m = np.einsum("iqrs,ir->iqs", step, a)
        if qubit_inner:
            const = 0.5 * (m[:, 0, 0] + m[:, 1, 1]).real
            u_x = 2.0 * m[:, 0, 1].real
            u_y = -2.0 * m[:, 0, 1].imag
            u_z = (m[:, 0, 0] - m[:, 1, 1]).real
            g = (u_x[:, None] * cos_phi + u_y[:, None] * sin_phi).min(axis=1)
            vals = u_z[:, None] * b_z + g[:, None] * b_xy
            e = const + 0.5 * vals.min(axis=1)
            best = min(best, float(e.min()))
        else:
            mf = m.reshape(a.shape[0], db * db)
            e = np.ascontiguousarray(mf.real) @ p_re.T + np.ascontiguousarray(mf.imag) @ p_im.T
            best = min(best, float(e.min()))
    return best


def _contract_block_out(
    h_mat: np.ndarray, dims: tuple[int, ...], block: tuple[int, ...], state: np.ndarray
) -> np.ndarray:
    """<state| H |state> on the block's sites, leaving a matrix on the rest."""
    n = len(dims)
    row = [chr(ord("a") + i) for i in range(n)]
    col = [chr(ord("A") + i) for i in range(n)]
    bdims = tuple(dims[s] for s in block)
    rest = [i for i in range(n) if i not in block]
    out = "".join(row[s] for s in rest) + "".join(col[s] for s in rest)
    expr = (
        "".join(row) + "".join(col) + ","
        + "".join(row[s] for s in block) + ","
        + "".join(col[s] for s in block) + "->" + out
    )
    t = h_mat.reshape(dims + dims)
    d_rest = math.prod(dims[s] for s in rest)
    m = np.einsum(expr, t, state.conj().reshape(bdims), state.reshape(bdims))
    return m.reshape(d_rest, d_rest)


def esep_grid(h: HermitianOperator, part: Partition, resolution: int) -> float:
    """Brute-force scan over nested product-state grids; an upper bound to E_sep.

    Every block must have total dimension <= 4; the scan cost grows steeply
    with block dimension, so this is an oracle for desk-scale checks, not a
    production minimizer.
    """
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    part.validate_for(h.shape)
    dims = part.block_dims(h.shape)
    if any(d > GRID_BLOCK_DIM_CAP for d in dims):
        raise ValueError(f"block too large for grid oracle (dims {dims}, cap {GRID_BLOCK_DIM_CAP})")
    states = [_grid_states(d, resolution) for d in dims]

    def recurse(h_mat: np.ndarray, site_dims: tuple[int, ...], blocks, block_states) -> float:
        if len(blocks) == 2:
            da = math.prod(site_dims[s] for s in blocks[0])
            db = math.prod(site_dims[s] for s in blocks[1])
            h_pair = _permuted_pair_matrix(
                HermitianOperator(SystemShape(site_dims), h_mat), blocks[0], blocks[1]
            )
            return _pair_grid_min(h_pair, da, db, block_states[0], block_states[1], resolution)
        head, tail = blocks[0], blocks[1:]
        rest_sites = [i for i in range(len(site_dims)) if i not in head]
        remap = {old: new for new, old in enumerate(rest_sites)}
        new_dims = tuple(site_dims[s] for s in rest_sites)
        new_blocks = [tuple(remap[s] for s in b) for b in tail]
        best = math.inf
        for v in block_states[0]:
            h_eff = _contract_block_out(h_mat, site_dims, head, v)
            best = min(best, recurse(h_eff, new_dims, new_blocks, block_states[1:]))
        return best

    return recurse(h.entries, h.shape.local_dims, list(part.blocks), states)


def esep_closed_form_xxx(p: XXXParams) -> float:
    """Exact E_sep of the two-site Heisenberg model in a field.

    The optimal product pair has both Bloch vectors at polar angle theta with
    cos(theta) = -B/(2J) and opposite azimuths, giving -J - B^2/(2J); past
    |B| = 2J the pair polarizes along the field and the value is J - 2|B|.
    """
    if p.n_sites != 2:
        raise ValueError("closed form is only defined for n_sites = 2")
    j, b = p.coupling_j, p.field_b
    if abs(b) <= 2.0 * j:
        return -j - b * b / (2.0 * j)
    return j - 2.0 * abs(b)


def closed_form_ansatz_xxx(p: XXXParams) -> ProductStateAnsatz:
    """An analytic minimizer realizing :func:`esep_closed_form_xxx`."""
    if p.n_sites != 2:
        raise ValueError("closed form is only defined for n_sites = 2")
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
