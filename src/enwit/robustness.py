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
S moves by PT(dX), W by -dZ1 and Z2 by PT(-dZ1), so the constraints hold
up to round-off; the four blocks are kept as one (4, 4, 4) stack and moved
in place by one common step, and the certificate check rebuilds S and Z2
from the returned X and W, so drift cannot hide.  That step is 0.98 of the
largest that keeps all four blocks positive semidefinite, read off the
smallest eigenvalue of A^-1 dA over the blocks A.  With A^-1 = M M^dagger
by Cholesky, that matrix is similar to the Hermitian M^dagger dA M, so one
``eigvalsh`` on the stack gives it.  With one step length for both sides no solve of 12 750 random
pure, rank-2, rank-3 and full-rank states took more than 14 iterations;
separate primal and dual steps took up to 40.

A state whose partial transpose passes the PPT test of
:func:`is_entangled_2q` (smallest eigenvalue at least -1e-10) is separable,
so it needs no iteration: X = W = 0 is feasible for both problems (to within
the 1e-9 of the certificate check) and certifies R_g = 0 with gap 0.

At this size the time is per-call overhead, of ``numpy.linalg`` and of the
numpy glue between its calls, not arithmetic on 4 x 4 matrices.  An
iteration makes one inverse and one Cholesky factorization of the (4, 4, 4)
stack (X, S, Z1, Z2), two 16 x 16 solves and two stacked ``eigvalsh``; the
rest is kept to few numpy calls.  One broadcast product and one flat gather
give the 16 x 16 matrix's X half Kx, the matrix of sym(X^-1 D Z1), and its
S half; their sum is the matrix.  So dZ1 = sym(base - unvec(Kx vec(dX))) is
one matrix-vector product, and the four steps (dX, PT(dX), dZ1, -PT(dZ1))
are one gather from a (2, 16) buffer of vec(dX) and vec(dZ1) times a +-1
sign vector.  The primal value is a diagonal view and the dual one dot of
conj(vec rho) with vec(Z1), less Tr rho.  Every stack stays C-contiguous:
sym(M) is formed as conj(M)^T + M, because conj(M^T) keeps the transposed
layout, and with the inverse in that layout a solve took about 8% longer.
Two 16 x 16 solves are kept rather than one explicit inverse: the matrix's
condition number grows like 1/mu^2, and inv(A) b is not backward stable
there (with it the singlet stalls at a gap of about 1e-7).  A solve takes one
``eigvalsh`` of PT(rho) for its start, about 8 iterations to a gap of 1e-8,
and one ``eigvalsh`` on a (4, 4, 4) stack to check the certificate: 44
calls of ``numpy.linalg`` on the singlet and on a Hilbert-Schmidt random
state (7 iterations each), and 2 on a PPT state.
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
_EYE_VEC = _EYE.reshape(16)
_MINUS_EYE_VEC = -_EYE_VEC


@dataclass(frozen=True, eq=False)
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
_SWAP = np.arange(16).reshape(4, 4).T.reshape(16)  # vec(M^T) == vec(M)[_SWAP]


def _newton_gather() -> np.ndarray:
    """Flat indices into the (2, 16, 16) products Y kron Z^T of the X and S sides.

    Entry [t, s] gathers term t of side s: Y kron Z^T for t = 0 and Z kron
    Y^T for t = 1, of the X side (s = 0) and of the S side conjugated by PT
    (s = 1).  Each side's half of the 16 x 16 matrix is half the sum of its
    two terms.  Z kron Y^T is Y kron Z^T read at swapped, transposed indices,
    (Z kron Y^T)[(i, j), (k, l)] = (Y kron Z^T)[(l, k), (j, i)], and the
    products of equal factors are equal to the bit.
    """
    rows, cols = np.arange(16)[:, None], np.arange(16)[None, :]
    pt_rows, pt_cols = _PT_PERM[rows], _PT_PERM[cols]
    return np.array(
        [
            [rows * 16 + cols, 256 + pt_rows * 16 + pt_cols],
            [_SWAP[cols] * 16 + _SWAP[rows], 256 + _SWAP[pt_cols] * 16 + _SWAP[pt_rows]],
        ]
    )


_NEWTON_GATHER = _newton_gather()

# (dX, PT(dX), dZ1, -PT(dZ1)) read from the rows (vec dX, vec dZ1) of a (2, 16) buffer
_STEP_GATHER = np.concatenate([np.arange(16), _PT_PERM, 16 + np.arange(16), 16 + _PT_PERM])
_STEP_SIGNS = np.repeat([1.0, 1.0, 1.0, -1.0], 16)
# (X, PT(rho + X), W, PT(W)) read from the rows (vec X, vec(rho + X), vec W) of a (3, 16) stack
_CERTIFICATE_GATHER = np.concatenate(
    [np.arange(16), 16 + _PT_PERM, 32 + np.arange(16), 32 + _PT_PERM]
)


def _pt(mat: np.ndarray) -> np.ndarray:
    """Partial transpose of a 4 x 4 matrix, or of each matrix in a stack."""
    return mat.reshape(*mat.shape[:-2], 16)[..., _PT_PERM].reshape(mat.shape)


def _sym(mat: np.ndarray) -> np.ndarray:
    out = mat.conj().swapaxes(-1, -2) + mat  # C-contiguous, as mat is
    out *= 0.5
    return out


def _sym_vec(vec: np.ndarray, out: np.ndarray) -> None:
    """Writes vec(sym(M)) to ``out``, for the row-major vec of a 4 x 4 matrix M."""
    np.conjugate(vec[_SWAP], out)
    out += vec
    out *= 0.5


def _operator(inv: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The halves (Kx, Ks) of the 16 x 16 matrix of D -> sym(X^-1 D Z1) + PT(sym(S^-1 PT(D) Z2)).

    On row-major vec(D), Kx is the matrix of sym(X^-1 D Z1), Ks that of
    PT(sym(S^-1 PT(D) Z2)), and the Newton matrix is Kx + Ks.
    """
    # vec(Y D Z) = (Y kron Z^T) vec(D), for (Y, Z) = (X^-1, Z1) and (S^-1, Z2)
    kron = inv[:2, :, None, :, None] * blocks[2:, None, :, None, :].swapaxes(2, 4)
    terms = kron.reshape(512)[_NEWTON_GATHER]
    halves = terms[0] + terms[1]
    halves *= 0.5
    return halves


def _steps(
    op: np.ndarray, kx: np.ndarray, rhs: np.ndarray, base: np.ndarray, pair: np.ndarray
) -> np.ndarray:
    """Steps (dX, dS, dZ1, dZ2) toward X Z1 = S Z2 = sigma mu I.

    vec(dX) solves ``op`` vec(dX) = ``rhs``, and vec(dZ1) = vec(sym(M)) for
    vec(M) = ``base`` - Kx vec(dX), where ``base`` is vec(sigma mu X^-1 - Z1)
    less that of sym(X^-1 dX dZ1) of the predicted step.  ``pair`` is a
    (2, 16) buffer for vec(dX) and vec(dZ1); one gather reads the four steps
    from it.
    """
    dx, dz1 = pair
    # dX is made Hermitian before it enters dZ1: near the optimum the operator
    # is nearly singular on anti-Hermitian D, so the solve's anti-Hermitian
    # round-off is large, and Kx does not remove it
    _sym_vec(np.linalg.solve(op, rhs), dx)
    _sym_vec(base - kx @ dx, dz1)
    return (pair.reshape(32)[_STEP_GATHER] * _STEP_SIGNS).reshape(4, 4, 4)


def _step_length(adjoint: np.ndarray, whitener: np.ndarray, delta: np.ndarray) -> float:
    """The step, at most 1, that keeps every block positive definite.

    ``whitener`` holds the Cholesky factors M of the blocks' inverses,
    A^-1 = M M^dagger, and ``adjoint`` their adjoints M^dagger.
    """
    # A + a dA >= 0 exactly when 1 + a lambda >= 0 for the eigenvalues lambda of
    # A^-1 dA, which are those of the Hermitian M^dagger dA M
    lowest = float(np.linalg.eigvalsh(adjoint @ delta @ whitener).min())
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
    checked on each.  A state that passes the PPT test of
    :func:`is_entangled_2q` is separable, and gets R_g = 0 from the exact
    certificate X = W = 0 with gap 0 and the single entry (0, 0, 0).
    Raises :class:`NumericalError` if the duality gap cannot be closed
    below 1e-5.
    """
    _require_two_qubits(rho)
    rho_mat = rho.entries
    pt_rho = _pt(rho_mat)
    lowest = float(np.linalg.eigvalsh(pt_rho)[0])
    if lowest >= -PPT_MARGIN_TOL:
        x, w = np.zeros((2, 4, 4), dtype=np.complex128)
        primal = dual = gap = 0.0
        if trace is not None:
            trace.append((0.0, primal, dual))
    else:
        x, w, primal, dual, gap = _path_following(rho_mat, pt_rho, lowest, trace)

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


def _path_following(rho_mat, pt_rho, lowest: float, trace: Optional[list]):
    """Iterates from X = (1/2 - lowest) I, W = I/2 until the gap is at most 1e-8.

    The blocks (X, S, Z1, Z2) move in place; S and Z2 are not rebuilt from X
    and W, and :func:`_check_certificate` rebuilds them from the returned X
    and W.  Returns the last iterate's X, W, primal and dual values and gap.
    """
    blocks = np.empty((4, 4, 4), dtype=np.complex128)
    blocks[0] = (0.5 - lowest) * _EYE
    blocks[1] = pt_rho + blocks[0]
    blocks[2:] = 0.5 * _EYE
    x_diagonal = blocks.reshape(64)[:16:5].real
    z1 = blocks.reshape(4, 16)[2]
    rho_conj = rho_mat.reshape(16).conj()
    trace_rho = float(rho_mat.reshape(16)[::5].real.sum())
    pair = np.empty((2, 16), dtype=np.complex128)
    for iteration in range(_ITERATION_CAP + 1):
        primal = float(x_diagonal.sum())
        dual = float((rho_conj @ z1).real) - trace_rho  # -Tr(W rho), W = I - Z1
        gap = primal - dual
        if trace is not None:
            trace.append((gap / 8.0, primal, dual))
        if gap <= _TARGET_GAP or iteration == _ITERATION_CAP:
            break
        try:
            inv = _sym(np.linalg.inv(blocks))
            whitener = np.linalg.cholesky(inv)
            adjoint = whitener.conj().swapaxes(-1, -2)
            kx, ks = _operator(inv, blocks)
            op = kx + ks
            predicted = _steps(op, kx, _MINUS_EYE_VEC, -z1, pair)
            trial = blocks + _step_length(adjoint, whitener, predicted) * predicted
            gap_aff = float(np.vdot(trial[2:], trial[:2]).real)  # Tr(X Z1) + Tr(S Z2)
            centre = (gap_aff / gap) ** 3 * gap / 8.0 * inv[:2]
            centre -= _sym(inv[:2] @ predicted[:2] @ predicted[2:])
            cx, cs = centre.reshape(2, 16)
            rhs = cx + cs[_PT_PERM] - _EYE_VEC
            delta = _steps(op, kx, rhs, cx - z1, pair)
            step = _step_length(adjoint, whitener, delta)
        except np.linalg.LinAlgError:
            break  # the last iterate is still feasible; its gap decides
        blocks += step * delta
    return blocks[0], _EYE - blocks[2], primal, dual, gap


def _check_certificate(rho_mat: np.ndarray, xm: np.ndarray, w: np.ndarray) -> None:
    stack = np.stack([xm, rho_mat + xm, w]).reshape(48)[_CERTIFICATE_GATHER]
    eigs = np.linalg.eigvalsh(stack.reshape(4, 4, 4))
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
