"""Exact generalized robustness of two-qubit states, with certificates.

The primal problem is

    minimize  Tr(X)   subject to  X >= 0,  (rho + X)^PT >= 0,

whose value equals R_g(rho) for two qubits because there the states with
positive partial transpose are exactly the separable ones.  Its dual is

    maximize  -Tr(W rho)   subject to  W <= I,  W^PT >= 0,

so every solve returns both a mixing operator and a witness; the duality
gap between them certifies the answer.  The solver is a plain log-barrier
Newton method on the matrix X itself: at this size nothing more elaborate
is warranted, and the certificate invariants (not the algorithm) are the
contract.

Its cost is the per-call overhead of ``numpy.linalg`` on 4 x 4 matrices, so
the two barrier blocks X and S = PT(rho) + PT(X) always travel as one
(2, 4, 4) stack: one Cholesky per barrier evaluation and one inverse per
Newton step cover both.  The barrier value of the accepted line-search
trial is carried into the next step (and, with its log-determinants, into
the next stage), so no point is evaluated twice.  With row-major vec, the
partial transpose is a permutation P of the 16 entries, and one gather of
vec(X) builds the stack.  With Y_b the inverse of block b, the Newton
system is the 4 x 4 matrix equation Y_X D Y_X + PT(Y_S PT(D) Y_S) =
-(t I - Y_X - PT(Y_S)); since vec(A D B) = (A kron B^T) vec(D), it is one
complex 16 x 16 solve with the Hermitian positive-definite matrix
(Y_X kron Y_X^T) + P (Y_S kron Y_S^T) P, and the step is D made Hermitian.
The last S^-1 of each stage gives the dual witness, and one ``eigvalsh``
on a (4, 4, 4) stack checks the certificate.  About 230 ``numpy.linalg``
calls make one solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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

_MU_START = 1.0
_MU_FLOOR = 1e-9
_EARLY_EXIT_GAP = 1e-6
_CENTER_TOL = 1e-10  # Newton decrement^2 / 2
_NEWTON_CAP = 60  # Newton steps per barrier stage
_LINE_SEARCH_CAP = 70  # step halvings per Newton step


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


def _pt(mat: np.ndarray) -> np.ndarray:
    return _partial_transpose_entries(mat, _TWO_QUBIT_DIMS, _PT_BLOCK)


# Row-major vec indices: PT(M).reshape(16) == M.reshape(16)[_PT_PERM], and
# vec(X)[_BOTH] lists vec(X) then vec(PT(X)), so offset + vec(X)[_BOTH]
# reshaped to (2, 4, 4) is the stack (X, S) when offset is (0, PT(rho)).
_PT_PERM = _pt(np.arange(16).reshape(4, 4)).reshape(16)
_BOTH = np.concatenate([np.arange(16), _PT_PERM])


def _logdets(m: np.ndarray) -> Optional[np.ndarray]:
    """log det of both blocks if both are positive definite, else None."""
    try:
        ell = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    return 2.0 * np.log(np.diagonal(ell, axis1=1, axis2=2).real).sum(axis=1)


def _barrier(t: float, x: np.ndarray, logdets: np.ndarray) -> float:
    # x[::5] is the diagonal of X, so its sum is Tr X
    return float(t * x[::5].sum().real - logdets[0] - logdets[1])


def _inverses(m: np.ndarray) -> np.ndarray:
    out = np.linalg.inv(m)
    return (out + out.conj().transpose(0, 2, 1)) / 2.0


def _derivatives(t: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the barrier from the block inverses ``y`` = (X^-1, S^-1).

    As row-major 16-vectors, grad = vec(t I - Y_X - PT(Y_S)) and
    hess = (Y_X kron Y_X^T) + P (Y_S kron Y_S^T) P, so hess @ vec(D) =
    vec(Y_X D Y_X + PT(Y_S PT(D) Y_S)); P is the permutation ``_PT_PERM``.
    """
    flat = y.reshape(2, 16)
    grad = -flat[0] - flat[1][_PT_PERM]
    grad[::5] += t
    kron = (y[:, :, None, :, None] * y.transpose(0, 2, 1)[:, None, :, None, :]).reshape(2, 16, 16)
    hess = kron[0] + kron[1][_PT_PERM[:, None], _PT_PERM]
    return grad, hess


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve hess @ vec(D) = -grad, make D Hermitian; return vec(D) and the decrement^2."""
    step = np.linalg.solve(hess, -grad).reshape(4, 4)
    step = ((step + step.conj().T) / 2.0).reshape(16)
    return step, -float(np.vdot(grad, step).real)


def _dual_candidate(s_inv: np.ndarray, t: float, rho_mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Feasible dual witness from the inverse of the slack block, and its objective.

    PT(S^-1)/t satisfies the stationarity split I = X^-1/t + PT(S^-1)/t at a
    centered point; scaling by the top eigenvalue enforces W <= I exactly
    even when centering is inexact, and leaves PT(W) >= 0 untouched.
    """
    w = _pt(s_inv) / t
    w = (w + w.conj().T) / 2.0
    top = float(np.linalg.eigvalsh(w)[-1])
    if top > 1.0:
        w = w / top
    dual = float(-np.einsum("ij,ji->", w, rho_mat).real)
    return w, dual


def rg_exact_2q(
    rho: DensityMatrix,
    trace: Optional[list] = None,
) -> RobustnessCertificate:
    """Generalized robustness of a two-qubit state with a primal/dual certificate.

    ``trace``, when given, collects one ``(barrier_t, primal, dual)`` triple
    per outer stage; the dual entries are feasible, so weak duality can be
    checked on every iterate.  Raises :class:`NumericalError` if the duality
    gap cannot be closed below 1e-5.
    """
    _require_two_qubits(rho)
    rho_mat = rho.entries
    pt_rho = _pt(rho_mat)
    offset = np.stack([np.zeros((4, 4), dtype=np.complex128), pt_rho])

    start = max(0.0, -float(np.linalg.eigvalsh(pt_rho)[0])) + 0.5
    x = (start * np.eye(4, dtype=np.complex128)).reshape(16)
    m = offset + x[_BOTH].reshape(2, 4, 4)
    logdets = _logdets(m)
    assert logdets is not None  # start * I lifts both blocks' eigenvalues to >= 0.5

    best: Optional[tuple[float, float, np.ndarray, np.ndarray]] = None
    t = 1.0 / _MU_START
    t_final = 1.0 / _MU_FLOOR
    while t <= t_final * (1.0 + 1e-9):
        # the barrier value at x, carried from the accepted line-search trial
        f0 = _barrier(t, x, logdets)
        # the last pass only refreshes the inverses at the final x
        for newton in range(_NEWTON_CAP + 1):
            y = _inverses(m)
            if newton == _NEWTON_CAP:
                break
            grad, hess = _derivatives(t, y)
            try:
                step, decrement_sq = _newton_step(hess, grad)
            except np.linalg.LinAlgError:
                step, decrement_sq = _newton_step(hess + 1e-10 * np.trace(hess) * np.eye(16), grad)
            if not np.isfinite(decrement_sq) or decrement_sq < 0:
                step, decrement_sq = _newton_step(hess + 1e-10 * np.trace(hess) * np.eye(16), grad)
                decrement_sq = max(0.0, decrement_sq)
            if decrement_sq / 2.0 <= _CENTER_TOL:
                break
            alpha = 1.0
            slope = -decrement_sq
            for _ in range(_LINE_SEARCH_CAP):
                x_new = x + alpha * step
                m_new = offset + x_new[_BOTH].reshape(2, 4, 4)
                trial = _logdets(m_new)
                f_new = np.inf if trial is None else _barrier(t, x_new, trial)
                if np.isfinite(f_new) and f_new <= f0 + 1e-2 * alpha * slope:
                    x, m, logdets, f0 = x_new, m_new, trial, f_new
                    break
                alpha *= 0.5
            else:
                raise NumericalError("robustness solver line search stalled")

        primal = float(x[::5].sum().real)
        w, dual = _dual_candidate(y[1], t, rho_mat)
        if trace is not None:
            trace.append((t, primal, dual))
        if best is None or (primal - dual) < (best[0] - best[1]):
            best = (primal, dual, m[0].copy(), w.copy())
        if primal - dual <= _EARLY_EXIT_GAP:
            break
        t *= 10.0

    assert best is not None
    primal, dual, xm, w = best
    gap = primal - dual
    if gap > GAP_TOL:
        raise NumericalError(
            f"robustness solver did not converge: duality gap {gap:.3e} > {GAP_TOL}"
        )
    _check_certificate(rho_mat, xm, w)
    rg = max(0.0, (primal + dual) / 2.0)
    shape = rho.shape
    return RobustnessCertificate(
        rg_value=rg,
        primal_mixing=HermitianOperator(shape, xm),
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


def rg_pure(schmidt: Sequence[float]) -> float:
    """Closed-form robustness of a pure bipartite state: (sum of coefficients)^2 - 1."""
    lam = np.asarray(schmidt, dtype=float)
    if lam.size < 1:
        raise ValueError("need at least one Schmidt coefficient")
    if np.any(lam < 0):
        raise ValueError("Schmidt coefficients must be nonnegative")
    if abs(float(np.sum(lam**2)) - 1.0) > 1e-10:
        raise ValueError("Schmidt coefficients must have unit square sum")
    return float(np.sum(lam)) ** 2 - 1.0


def is_entangled_2q(rho: DensityMatrix) -> EntanglementCheck:
    """PPT test for two qubits; the margin is min eig of the partial transpose."""
    _require_two_qubits(rho)
    margin = float(np.linalg.eigvalsh(_pt(rho.entries))[0])
    return EntanglementCheck(entangled=margin < -PPT_MARGIN_TOL, margin=margin)
