"""Brute-force nested-grid scan for E_sep, the test suite's oracle for the search.

The scan shares no code with :func:`enwit.esep_seesaw`.  Its value is the
minimum over a finite set of product states, so it is an upper estimate of
E_sep, not a bound.
"""

from __future__ import annotations

import math

import numpy as np

from enwit import HermitianOperator, SystemShape

from conftest import block_dims

GRID_BLOCK_DIM_CAP = 4


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


def esep_grid(h: HermitianOperator, blocks, resolution: int) -> float:
    """Brute-force scan over nested product-state grids; an upper bound to E_sep.

    ``blocks`` lists the sites of each block: two or more blocks that together
    hold every site once; product states factor across them.  Every block
    must have total dimension <= 4; the scan cost grows steeply with block
    dimension, so this is an oracle for desk-scale checks, not a production
    minimizer.
    """
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    blocks = [tuple(sorted(b)) for b in blocks]
    if len(blocks) < 2:
        raise ValueError("a partition needs at least 2 blocks")
    if sorted(s for b in blocks for s in b) != list(range(h.shape.n_sites)):
        raise ValueError(f"blocks {blocks} do not hold each of sites 0..{h.shape.n_sites - 1} once")
    dims = block_dims(blocks, h.shape)
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

    return recurse(h.entries, h.shape.local_dims, blocks, states)
