"""Exact generalized robustness of two-qubit states, with certificates.

The primal problem is

    minimize  Tr(X)   subject to  X >= 0,  (rho + X)^PT >= 0,

whose value equals R_g(rho) for two qubits because there the states with
positive partial transpose are exactly the separable ones.  Its dual is

    maximize  -Tr(W rho)   subject to  W <= I,  W^PT >= 0,

so every solve returns both a mixing operator and a witness; the duality
gap between them certifies the answer.

The solver is a feasible primal-dual path-following method.  Its variables
are X and W; the four cone blocks X, S = PT(rho) + PT(X), Z1 = I - W and
Z2 = PT(W) stay positive definite, so every iterate is a primal/dual pair
and its gap Tr X + Tr(W rho) = Tr(X Z1) + Tr(S Z2) brackets R_g.  Each
iteration linearizes X Z1 = S Z2 = sigma mu I in the HKM form (Helmberg,
Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 6, 342 (1996)): with D the
step of X, the step of Z1 is sigma mu X^-1 - Z1 - sym(X^-1 D Z1), and the
dual constraint dZ1 + PT(dZ2) = 0 leaves the 4 x 4 matrix equation

    sym(X^-1 D Z1) + PT(sym(S^-1 PT(D) Z2)) = sigma mu (X^-1 + PT(S^-1)) - I,

where sym(M) = (M + M^dagger)/2.  Since vec(A D B) = (A kron B^T) vec(D)
with row-major vec, and the partial transpose is a permutation P of the 16
entries, that is one complex 16 x 16 solve.  Mehrotra's predictor-corrector
(SIAM J. Optim. 2, 575 (1992)) solves it twice: with sigma = 0, then with
sigma = (gap_aff / gap)^3 and the second-order term of the predicted step.
W moves by -dZ1 and Z2 by PT(-dZ1), so the dual constraints hold exactly.
X and W take one common step, 0.98 of the largest that keeps all four
blocks positive semidefinite, read off the smallest eigenvalue of A^-1 dA
over the blocks A.  With one step length for both sides no solve of 12 750
random pure, rank-2, rank-3 and full-rank states took more than 14
iterations; separate primal and dual steps took up to 40.

At this size the time is the per-call overhead of ``numpy.linalg`` on 4 x 4
matrices.  An iteration makes one inverse of the (4, 4, 4) stack
(X, S, Z1, Z2), two 16 x 16 solves and two stacked ``eigvals``.  A solve
takes about 8 iterations to a gap of 1e-8, and one ``eigvalsh`` on a
(4, 4, 4) stack checks the certificate: about 25 calls of ``inv``,
``solve`` and ``eigvalsh``, and 16 of ``eigvals``, per solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError
from .operators import (
    DensityMatrix,
    HermitianOperator,
    _partial_transpose_entries,
)

GAP_TOL = 1e-5
FEAS_TOL = 1e-9
PPT_MARGIN_TOL = 1e-10

_TWO_QUBIT_DIMS = (2, 2)
_PT_BLOCK = (1,)

_TARGET_GAP = 1e-8
_STEP_FRACTION = 0.98  # of the largest step that keeps a block positive semidefinite
_ITERATION_CAP = 100
_EYE = np.eye(4, dtype=np.complex128)


@dataclass(frozen=True)
class RobustnessCertificate:
    """A primal/dual pair bracketing R_g within ``duality_gap``."""

    rg_value: float
    primal_mixing: HermitianOperator
    dual_witness: HermitianOperator
    duality_gap: float


@dataclass(frozen=True)
class EntanglementCheck:
    """PPT verdict: ``margin`` is the smallest partial-transpose eigenvalue."""

    entangled: bool
    margin: float


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.shape.local_dims != _TWO_QUBIT_DIMS:
        raise ValueError(
            "exact robustness is only available for two qubits, where PPT equals "
            f"separability; got shape {rho.shape.local_dims}"
        )


# Row-major vec indices: PT(M).reshape(16) == M.reshape(16)[_PT_PERM].
_PT_PERM = _partial_transpose_entries(
    np.arange(16).reshape(4, 4), _TWO_QUBIT_DIMS, _PT_BLOCK
).reshape(16)


def _pt(mat: np.ndarray) -> np.ndarray:
    """Partial transpose of a 4 x 4 matrix, or of each matrix in a stack."""
    return mat.reshape(*mat.shape[:-2], 16)[..., _PT_PERM].reshape(mat.shape)


def _sym(mat: np.ndarray) -> np.ndarray:
    return (mat + np.swapaxes(mat, -1, -2).conj()) / 2.0


def _operator(inv: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The 16 x 16 matrix of D -> sym(X^-1 D Z1) + PT(sym(S^-1 PT(D) Z2)) on row-major vec(D)."""
    y, z = inv[:2], blocks[2:]
    yz = y[:, :, None, :, None] * z.transpose(0, 2, 1)[:, None, :, None, :]
    zy = z[:, :, None, :, None] * y.transpose(0, 2, 1)[:, None, :, None, :]
    kron = (yz + zy).reshape(2, 16, 16) / 2.0
    return kron[0] + kron[1][_PT_PERM[:, None], _PT_PERM]


def _direction(op, inv, blocks, target: float, second_order: np.ndarray) -> np.ndarray:
    """Steps (dX, dS, dZ1, dZ2) toward X Z1 = S Z2 = target I.

    ``second_order`` holds sym(X^-1 dX dZ1) and sym(S^-1 dS dZ2) of the
    predicted step, or zeros for the predictor itself.
    """
    rhs = target * (inv[0] + _pt(inv[1])) - _EYE - second_order[0] - _pt(second_order[1])
    d = _sym(np.linalg.solve(op, rhs.reshape(16)).reshape(4, 4))
    dz1 = _sym(target * inv[0] - blocks[2] - inv[0] @ d @ blocks[2] - second_order[0])
    return np.stack([d, _pt(d), dz1, -_pt(dz1)])


def _step_length(inv: np.ndarray, delta: np.ndarray) -> float:
    """The step, at most 1, that keeps every block positive definite."""
    # A + a dA >= 0 exactly when 1 + a lambda >= 0 for the eigenvalues lambda of A^-1 dA
    lowest = float(np.linalg.eigvals(inv @ delta).real.min())
    return _STEP_FRACTION / max(-lowest, _STEP_FRACTION)


def rg_exact_2q(
    rho: DensityMatrix,
    trace: Optional[list] = None,
) -> RobustnessCertificate:
    """Generalized robustness of a two-qubit state with a primal/dual certificate.

    ``trace``, when given, collects one ``(mu, primal, dual)`` triple per
    iterate, the starting point included, so it holds the iteration count
    plus one entries (and ``robustness.stages_per_solve`` in ``bench/``
    counts iterations + 1); mu is the gap over the 8 complementary
    eigenvalue pairs.  Every iterate is feasible, so weak duality can be
    checked on each.  Raises :class:`NumericalError` if the duality gap
    cannot be closed below 1e-5.
    """
    _require_two_qubits(rho)
    rho_mat = rho.entries
    pt_rho = _pt(rho_mat)

    x = (max(0.0, -float(np.linalg.eigvalsh(pt_rho)[0])) + 0.5) * _EYE
    w = 0.5 * _EYE
    for iteration in range(_ITERATION_CAP + 1):
        primal = float(np.trace(x).real)
        dual = -float(np.vdot(rho_mat, w).real)
        gap = primal - dual
        if trace is not None:
            trace.append((gap / 8.0, primal, dual))
        if gap <= _TARGET_GAP or iteration == _ITERATION_CAP:
            break
        blocks = np.stack([x, pt_rho + _pt(x), _EYE - w, _pt(w)])
        try:
            inv = _sym(np.linalg.inv(blocks))
            op = _operator(inv, blocks)
            predicted = _direction(op, inv, blocks, 0.0, np.zeros((2, 4, 4)))
            trial = blocks + _step_length(inv, predicted) * predicted
            gap_aff = float(np.vdot(trial[2:], trial[:2]).real)  # Tr(X Z1) + Tr(S Z2)
            second_order = _sym(inv[:2] @ predicted[:2] @ predicted[2:])
            delta = _direction(op, inv, blocks, (gap_aff / gap) ** 3 * gap / 8.0, second_order)
            step = _step_length(inv, delta)
        except np.linalg.LinAlgError:
            break  # the last iterate is still feasible; its gap decides below
        x = x + step * delta[0]
        w = w - step * delta[2]

    if gap > GAP_TOL:
        raise NumericalError(
            f"robustness solver did not converge: duality gap {gap:.3e} > {GAP_TOL}"
        )
    _check_certificate(rho_mat, x, w)
    rg = max(0.0, (primal + dual) / 2.0)
    shape = rho.shape
    return RobustnessCertificate(
        rg_value=rg,
        primal_mixing=HermitianOperator(shape, x),
        dual_witness=HermitianOperator(shape, w),
        duality_gap=gap,
    )


def _check_certificate(rho_mat: np.ndarray, xm: np.ndarray, w: np.ndarray) -> None:
    eigs = np.linalg.eigvalsh(np.stack([xm, _pt(rho_mat + xm), w, _pt(w)]))
    checks = {
        "primal mixing not PSD": float(eigs[0, 0]),
        "mixed state not PPT": float(eigs[1, 0]),
        "witness above identity": 1.0 - float(eigs[2, -1]),
        "witness partial transpose not PSD": float(eigs[3, 0]),
    }
    for label, margin in checks.items():
        if margin < -FEAS_TOL:
            raise NumericalError(f"certificate check failed: {label} (margin {margin:.3e})")


def is_entangled_2q(rho: DensityMatrix) -> EntanglementCheck:
    """PPT test for two qubits; the margin is min eig of the partial transpose."""
    _require_two_qubits(rho)
    margin = float(np.linalg.eigvalsh(_pt(rho.entries))[0])
    return EntanglementCheck(entangled=margin < -PPT_MARGIN_TOL, margin=margin)
