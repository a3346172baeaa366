"""Exact generalized robustness of two-qubit states, with certificates.

The primal problem is

    minimize  Tr(X)   subject to  X >= 0,  (rho + X)^PT >= 0,

whose value equals R_g(rho) for two qubits because there the states with
positive partial transpose are exactly the separable ones.  Its dual is

    maximize  -Tr(W rho)   subject to  W <= I,  W^PT >= 0,

so every solve returns both a mixing operator and a witness; the duality
gap between them certifies the answer.  The solver is a plain log-barrier
Newton method on the 16 real parameters of X: at this size nothing more
elaborate is warranted, and the certificate invariants (not the algorithm)
are the contract.

Its cost is the per-call overhead of ``numpy.linalg`` on 4 x 4 matrices, so
the two barrier blocks X and S = PT(rho) + PT(X) always travel as one
(2, 4, 4) stack: one Cholesky per barrier evaluation and one inverse per
Newton step cover both.  The barrier value of the accepted line-search
trial is carried into the next step (and, with its log-determinants, into
the next stage), so no point is evaluated twice.  With Y_b the inverse of
block b and row-major vec, Tr(B_k Y_b B_l Y_b) = vec(B_k^T) . (Y_b kron
Y_b^T) vec(B_l), so the Hessian is Re(T_b (Y_b kron Y_b^T) B_b^T) summed
over both blocks: one stacked expression.  The last S^-1 of each stage
gives the dual witness, and one ``eigvalsh`` on a (4, 4, 4) stack checks
the certificate.  About 230 ``numpy.linalg`` calls make one solve.
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


def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal real basis of d x d Hermitian matrices, stacked (d^2, d, d)."""
    mats = []
    for i in range(d):
        m = np.zeros((d, d), dtype=np.complex128)
        m[i, i] = 1.0
        mats.append(m)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[i, j] = m[j, i] = inv_sqrt2
            mats.append(m)
            m = np.zeros((d, d), dtype=np.complex128)
            m[i, j] = 1j * inv_sqrt2
            m[j, i] = -1j * inv_sqrt2
            mats.append(m)
    return np.stack(mats)


_BASIS = _hermitian_basis(4)
_PT_BASIS = np.stack([_pt(b) for b in _BASIS])
_TRACE_VEC = np.einsum("kii->k", _BASIS).real
# The barrier blocks X and S = PT(rho) + PT(X) travel as one (2, 4, 4) stack,
# so each block-wise constant below is stacked the same way, X first.
_BASES = np.stack([_BASIS, _PT_BASIS])
# coefficients -> both blocks, flattened (S still without PT(rho))
_BLOCKS = _BASES.transpose(1, 0, 2, 3).reshape(16, 32)
# rows vec(B_k^T), so _TRACES[b] @ vec(Y) = Tr(B_k Y); _TRACES_CAT sums both blocks
_TRACES = _BASES.transpose(0, 1, 3, 2).reshape(2, 16, 16)
_TRACES_CAT = _TRACES.transpose(1, 0, 2).reshape(16, 32)
# columns vec(B_l), closing the Kronecker form of the Hessian
_BLOCKS_T = np.ascontiguousarray(_BASES.reshape(2, 16, 16).transpose(0, 2, 1))


def _to_coeffs(m: np.ndarray) -> np.ndarray:
    return (_TRACES[0] @ m.reshape(16)).real


def _blocks(x: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """The stack (X, S) at coefficients ``x``; ``offset`` is (0, PT(rho))."""
    return offset + (x @ _BLOCKS).reshape(2, 4, 4)


def _logdets(m: np.ndarray) -> Optional[np.ndarray]:
    """log det of both blocks if both are positive definite, else None."""
    try:
        ell = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    return 2.0 * np.log(np.diagonal(ell, axis1=1, axis2=2).real).sum(axis=1)


def _barrier(t: float, x: np.ndarray, logdets: np.ndarray) -> float:
    return float(t * (x @ _TRACE_VEC) - logdets[0] - logdets[1])


def _inverses(m: np.ndarray) -> np.ndarray:
    out = np.linalg.inv(m)
    return (out + out.conj().transpose(0, 2, 1)) / 2.0


def _derivatives(t: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the barrier from the block inverses ``y`` = (X^-1, S^-1).

    grad_k = t Tr(B_k) - sum_b Tr(B_k Y_b) and, in Kronecker form,
    hess = sum_b Re(T_b (Y_b kron Y_b^T) B_b^T), i.e. hess_kl = sum_b Tr(B_k Y_b B_l Y_b).
    """
    grad = t * _TRACE_VEC - (_TRACES_CAT @ y.reshape(32)).real
    kron = (y[:, :, None, :, None] * y.transpose(0, 2, 1)[:, None, :, None, :]).reshape(2, 16, 16)
    hess = np.matmul(np.matmul(_TRACES, kron), _BLOCKS_T).real.sum(axis=0)
    return grad, hess


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
    x = _to_coeffs(start * np.eye(4, dtype=np.complex128))
    m = _blocks(x, offset)
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
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = np.linalg.solve(hess + 1e-10 * np.trace(hess) * np.eye(16), -grad)
            decrement_sq = float(-grad @ step)
            if not np.isfinite(decrement_sq) or decrement_sq < 0:
                step = np.linalg.solve(hess + 1e-10 * np.trace(hess) * np.eye(16), -grad)
                decrement_sq = max(0.0, float(-grad @ step))
            if decrement_sq / 2.0 <= _CENTER_TOL:
                break
            alpha = 1.0
            slope = float(grad @ step)
            for _ in range(_LINE_SEARCH_CAP):
                x_new = x + alpha * step
                m_new = _blocks(x_new, offset)
                trial = _logdets(m_new)
                f_new = np.inf if trial is None else _barrier(t, x_new, trial)
                if np.isfinite(f_new) and f_new <= f0 + 1e-2 * alpha * slope:
                    x, m, logdets, f0 = x_new, m_new, trial, f_new
                    break
                alpha *= 0.5
            else:
                raise NumericalError("robustness solver line search stalled")

        primal = float(x @ _TRACE_VEC)
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
