"""Separability energy: the minimum of <psi|H|psi> over pure product states.

Because Tr(H sigma) is linear in sigma, its minimum over the full (mixed)
separable set is attained at a pure product state, so pure-state
minimization is all that is needed.  Two routes are provided:

* :func:`esep_search` (:func:`esep_seesaw` for one H) -- local search with
  random restarts on qubit Hamiltonians, one Bloch vector per site:
  Riemannian Newton on (S^2)^n (see :mod:`enwit.bloch`),
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
from .operators import HermitianOperator, _frozen_array

RESTART_AGREEMENT_TOL = 1e-9  # relative to each H's sum of |Pauli coefficients|


@dataclass(frozen=True)
class Partition:
    """Blocks of site indices; :func:`esep_seesaw` takes one qubit per block only."""

    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def singletons(n_sites: int) -> "Partition":
        return Partition(tuple((i,) for i in range(n_sites)))


@dataclass(frozen=True)
class SepEnergyReport:
    esep: float
    minimizer: Optional[np.ndarray]  # read-only (n, 3): one unit Bloch vector per site
    restarts_used: int
    restarts_agreeing: int  # search restarts within the agreement tolerance of the best, else 0
    converged: bool
    source: str  # exact-optimized | closed-form | user-supplied
    gradient_norm: Optional[float] = None  # search only: Riemannian gradient norm
    hessian_min: Optional[float] = None  # search only: smallest reduced-Hessian eigenvalue
    coefficient_sum: Optional[float] = None  # search only: sum of H's |Pauli coefficients|


def esep_seesaw(
    h: HermitianOperator, part: Partition, restarts: int = 32, seed: int = 0
) -> SepEnergyReport:
    """:func:`esep_search` for one H; ``part`` must be ``Partition.singletons(n)``."""
    if [tuple(b) for b in part.blocks] != [(i,) for i in range(h.shape.n_sites)]:
        raise ValueError(f"the search needs one qubit per block, not blocks {part.blocks}")
    return esep_search([h], restarts=restarts, seed=seed)[0]


def esep_search(
    hs: Sequence[HermitianOperator], restarts: int = 32, seed: int = 0
) -> list[SepEnergyReport]:
    """The separability energy of each Hamiltonian of ``hs`` (all of one shape), one report each.

    Every site must be a qubit; anything else raises ``ValueError``.
    Restart r starts from the product state drawn from
    ``default_rng([seed, r])``, 4n normals, the real then the imaginary
    parts of each site's state in turn, so results do not depend on
    execution order, and every Hamiltonian starts from the same draws.
    Each report's ``minimizer`` is its best restart's Bloch vectors.

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
    dims = list(hs[0].shape.local_dims)
    if any(d != 2 for d in dims):
        raise ValueError(f"the search needs one qubit per block, not sites of dimensions {dims}")

    # imported on first use: code that never searches (the R_g oracle, the
    # closed form) does not compile it, which shows in its import time
    from . import bloch

    seed_u = int(seed) & 0xFFFFFFFFFFFFFFFF
    z = np.stack(
        [np.random.default_rng([seed_u, r]).standard_normal(4 * len(dims)) for r in range(restarts)]
    ).reshape(restarts, len(dims), 2, 2)
    states = z[..., 0, :] + 1j * z[..., 1, :]
    starts = bloch._states_to_bloch(states / np.linalg.norm(states, axis=-1, keepdims=True))
    r, energies, gnorm, hmin, converged, scale = bloch.bloch_search(
        hs, np.tile(starts, (len(hs), 1, 1))
    )
    reports = []
    for j in range(len(hs)):
        mine = energies[j * restarts : (j + 1) * restarts]  # the rows of hs[j]
        best = j * restarts + int(np.argmin(mine))
        tol = RESTART_AGREEMENT_TOL * float(scale[j])
        reports.append(
            SepEnergyReport(
                esep=float(energies[best]),
                minimizer=_frozen_array(r[best]),
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


def closed_form_ansatz_xxx(p: XXXParams) -> np.ndarray:
    """Bloch vectors (2, 3) of an analytic minimizer realizing :func:`esep_closed_form_xxx`."""
    _closed_form_check(p)
    j, b = p.coupling_j, p.field_b
    if abs(b) <= 2.0 * j:
        z = -b / (2.0 * j)
        x = math.sqrt((1.0 - z) * (1.0 + z))
        return _frozen_array(np.array([[x, 0.0, z], [-x, 0.0, z]]))
    pole = -1.0 if b > 0 else 1.0
    return _frozen_array(np.array([[0.0, 0.0, pole], [0.0, 0.0, pole]]))


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
