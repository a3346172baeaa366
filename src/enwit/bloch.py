"""Product-state energies of qubit Hamiltonians on Bloch vectors, and a
second-order local search over them.

On qubits a pure product state is one Bloch vector r_i in S^2 per site, and
its energy is multilinear in them: with H = sum_k c_k P_k over Pauli
strings, <H> = sum_k c_k prod_i v_i[letter_i(k)] with v_i = (1, r_i).  So
the gradient and Hessian follow from the strings in O(terms), and
:func:`bloch_search` minimizes over (S^2)^n by mean-field sweeps, which
converge linearly and so hand over once a sweep gains less than
``MEAN_FIELD_HANDOVER`` of the energy scale, then saddle-free Riemannian
Newton steps, which converge quadratically (Absil, Mahony & Sepulchre,
*Optimization Algorithms on Matrix Manifolds*, 2008).

:func:`enwit.sep_energy.esep_search` runs this search for a list of
Hamiltonians at once, reports the energies it returns, and imports this
module on first use, so code that never searches does not load it.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .operators import HermitianOperator

MEAN_FIELD_SWEEPS = 20
MEAN_FIELD_HANDOVER = 1e-4  # relative to the same sum as NEWTON_TOL
NEWTON_STEP_CAP = 50
NEWTON_TOL = 1e-9  # relative to the sum of |c_k| over the non-identity Pauli strings

_STEP_NORM_CAP = 1.0
_ARMIJO = 1e-4
_ROUNDOFF = 1e3 * np.finfo(float).eps
_LINE_SEARCH_HALVINGS = 40
_TERM_CHUNK = 1 << 20  # elements of the largest (n, n, K, R) array in _bloch_derivatives


# Row s, column 2a + b: P_s[b, a] / 2 for P = I, X, Y, Z, so contracting one
# site's (row bit a, column bit b) pair of an operator M gives Tr(P_s M) / 2.
_PAULI_TRANSFORM = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]]) / 2.0
# Coefficients below this fraction of the largest are round-off of the transform.
_PAULI_ZERO = 1e-13
_BASE4_DIGITS = str.maketrans("IXYZ", "0123")


def pauli_terms(hs: list[HermitianOperator]) -> tuple[np.ndarray, np.ndarray]:
    """Pauli expansions H_j = sum_k c_kj P_k of qubit operators on the same sites.

    Returns the union of the nonzero strings as (K, n) letters coded I, X, Y, Z
    = 0, 1, 2, 3 (site 0 first; lexicographic order), and c_kj = Tr(P_k H_j) / 2^n
    as a (K, len(hs)) array, 0 where H_j lacks string k.  A coefficient at most
    ``_PAULI_ZERO`` times H_j's largest |c_kj| counts as absent.

    When every operator carries the strings it was built from (``terms``, set
    by :func:`enwit.hamiltonians.build_pauli`), the table comes from them in
    O(terms): repeated strings are summed in term order.  Otherwise each
    operator goes through :func:`_dense_pauli_coefficients`, O(n 4^n).
    """
    if all(h.terms is not None for h in hs):
        return _string_table(hs)
    n = hs[0].shape.n_sites
    found, present = [], np.zeros(4**n, dtype=bool)
    for h in hs:
        coeffs = _dense_pauli_coefficients(h)
        kept = np.flatnonzero(np.abs(coeffs) > _PAULI_ZERO * np.abs(coeffs).max())
        found.append((kept, coeffs[kept]))
        present[kept] = True
    union = np.flatnonzero(present)
    table = np.zeros((len(union), len(hs)))
    for j, (kept, values) in enumerate(found):
        table[np.searchsorted(union, kept), j] = values
    return np.stack(np.unravel_index(union, (4,) * n), axis=1), table


def _dense_pauli_coefficients(h: HermitianOperator) -> np.ndarray:
    """All 4^n coefficients Tr(P H) / 2^n, strings in base-4 order (site 0 most significant).

    Regroups H as one 4-index axis per site and contracts each with
    ``_PAULI_TRANSFORM`` in turn.
    """
    n = h.shape.n_sites
    t = h.entries.reshape((2,) * (2 * n))
    t = t.transpose([ax for s in range(n) for ax in (s, n + s)]).reshape((4,) * n)
    for _ in range(n):  # each pass contracts the leading axis and appends its Pauli axis
        t = np.tensordot(t, _PAULI_TRANSFORM, axes=([0], [1]))
    return t.real.ravel()


def _string_table(hs: list[HermitianOperator]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pauli_terms` from the operators' ``terms``: no array of 4^n entries.

    Each string is its base-4 code (site 0 most significant), so sorting the
    codes gives the dense layout's order; ``np.bincount`` sums the repeated
    strings of each operator in term order.
    """
    n = hs[0].shape.n_sites
    terms = [t for h in hs for t in h.terms]
    codes = np.array([int(t.letters.translate(_BASE4_DIGITS), 4) for t in terms], dtype=np.int64)
    union, slot = np.unique(codes, return_inverse=True)
    owner = np.repeat(np.arange(len(hs)), [len(h.terms) for h in hs])
    table = np.bincount(
        slot * len(hs) + owner, [t.coefficient for t in terms], minlength=len(union) * len(hs)
    ).reshape(len(union), len(hs))
    table[np.abs(table) <= _PAULI_ZERO * np.abs(table).max(axis=0, initial=0.0)] = 0.0
    kept = table.any(axis=1)
    return np.stack(np.unravel_index(union[kept], (4,) * n), axis=1), table[kept]


def _states_to_bloch(states: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors (..., 3) of qubit states (..., 2)."""
    a, b = states[..., 0], states[..., 1]
    ab = a.conj() * b
    r = np.stack([2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2], axis=-1)
    return r / np.linalg.norm(r, axis=-1, keepdims=True)


def _factors(v: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """f[i, k, r] = v[r, i, letters[k, i]]: each string's one-site factors, (n, K, R)."""
    return v.transpose(1, 2, 0)[np.arange(v.shape[1])[:, None], letters.T]


def _excluding_each(f: np.ndarray) -> np.ndarray:
    """out[i] = product of f[l] over l != i (along axis 0): prefix times suffix products."""
    out = np.empty_like(f)
    out[0] = 1.0
    for l in range(1, len(f)):
        np.multiply(out[l - 1], f[l - 1], out=out[l])
    suffix = f[-1].copy()
    for l in range(len(f) - 2, -1, -1):
        out[l] *= suffix
        suffix *= f[l]
    return out


def _bloch_energy(v: np.ndarray, letters: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Energy (R,) of each row of v, with row r's coefficients in column r of coeffs (K, R)."""
    return np.einsum("kr,kr->r", coeffs, _factors(v, letters).prod(axis=0))


def _bloch_derivatives(
    v: np.ndarray, letters: np.ndarray, coeffs: np.ndarray, onehot: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy (R,), gradient (R, n, 3) and Hessian (R, n, 3, n, 3) in the Bloch vectors.

    Row r's coefficients are column r of ``coeffs`` (K, R).  The energy
    sum_k c_k prod_i v[i, letters[k, i]] is multilinear, so the
    gradient of site i drops factor i of each string and the Hessian block
    (i, j != i) drops factors i and j; the (i, i) blocks are zero.  The sums
    over strings are matrix products batched over the sites; terms go in
    chunks so the (n, n, K, R) products stay small.
    """
    rows, n = v.shape[:2]
    energy = np.zeros(rows)
    grad = np.zeros((n, 3, rows))
    hess = np.zeros((n, n, 9, rows))
    chunk = max(1, _TERM_CHUNK // (rows * n * n))
    diag = (range(n), range(n))
    for lo in range(0, len(coeffs), chunk):
        part = slice(lo, lo + chunk)
        f = _factors(v, letters[part])
        pairs = np.repeat(f[:, None], n, axis=1)
        pairs[diag] = 1.0
        drop = _excluding_each(pairs)  # [j, i, k, r]: prod over l != i, j
        drop *= coeffs[part]
        one = drop[diag]  # [i, k, r]: c_k prod over l != i
        energy += (one[0] * f[0]).sum(axis=0)
        sites = onehot[part].transpose(1, 2, 0)  # (n, 3, K)
        grad += sites @ one
        drop[diag] = 0.0
        hess += (sites[None, :, :, None] * sites[:, None, None]).reshape(n, n, 9, -1) @ drop
    return (
        energy,
        grad.transpose(2, 0, 1),
        hess.reshape(n, n, 3, 3, rows).transpose(4, 1, 2, 0, 3),
    )


def _tangent_bases(r: np.ndarray) -> np.ndarray:
    """Orthonormal bases (..., 3, 2) of the tangent planes of S^2 at unit vectors r.

    Column 0 is u = r x e / |r x e| for the axis e least aligned with r, and
    column 1 is r x u.  The cross products are written out in ``np.cross``'s
    operand order, and u has a zero component, so |u| sums the same squares:
    every bit is that of ``np.cross`` and ``np.linalg.norm``.
    """
    e = np.eye(3)[np.argmin(abs(r), axis=-1)]
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    out = np.empty(r.shape + (2,))
    u, w = out[..., 0], out[..., 1]
    u[..., 0] = y * e[..., 2] - z * e[..., 1]
    u[..., 1] = z * e[..., 0] - x * e[..., 2]
    u[..., 2] = x * e[..., 1] - y * e[..., 0]
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    u /= np.sqrt(u0 * u0 + u1 * u1 + u2 * u2)[..., None]
    w[..., 0] = y * u2 - z * u1
    w[..., 1] = z * u0 - x * u2
    w[..., 2] = x * u1 - y * u0
    return out


def _riemannian(
    r: np.ndarray, grad: np.ndarray, hess: np.ndarray, bases: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Riemannian gradient (R, 2n) and Hessian (R, 2n, 2n) on (S^2)^n in the tangent bases.

    Hess[xi]_i = P_i (sum_j H_ij xi_j) - (r_i . g_i) xi_i, with P_i the
    projector onto the tangent plane at r_i.
    """
    rows, n = r.shape[:2]
    g = (grad[:, :, None] @ bases).reshape(rows, 2 * n)
    # B_i^T H_ij B_j as two batched products: over the rows and sites i, then
    # over the rows and sites j
    left = bases.transpose(0, 1, 3, 2) @ hess.reshape(rows, n, 3, 3 * n)  # [r, i, a, (j, y)]
    left = left.reshape(rows, 2 * n, n, 3).transpose(0, 2, 1, 3)  # [r, j, (i, a), y]
    h = (left @ bases).transpose(0, 2, 1, 3).reshape(rows, n, 2, n, 2)
    shift = (r * grad).sum(axis=-1)
    h[:, range(n), :, range(n), :] -= shift.T[:, :, None, None] * np.eye(2)
    h = h.reshape(rows, 2 * n, 2 * n)
    return g, (h + h.transpose(0, 2, 1)) / 2.0


def bloch_search(
    hs: list[HermitianOperator], r0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimize the energy over one unit Bloch vector per site, for a stack of starts.

    ``r0`` (R, n, 3) holds the start vectors: the rows of ``hs[0]`` first,
    then an equal number for ``hs[1]``, and so on.  Each row has its own
    Hamiltonian's coefficients over the union of the strings (0 where a
    string is absent) and the tolerance, hand-over threshold and round-off
    slack of that Hamiltonian's sum of |c_k|, so it runs as in a search of
    its Hamiltonian alone.  Returns the final vectors (R, n, 3); per row the
    final energy (the multilinear sum over the strings), the Riemannian
    gradient norm, the smallest reduced-Hessian eigenvalue and whether both
    are within the tolerance (a second-order certificate of a local
    minimum); and per Hamiltonian its sum of |c_k| over all strings,
    identity included, which is at least its largest absolute row sum and
    so serves as the energy scale of tolerances downstream.
    An energy that rises beyond round-off raises ``NumericalError``.
    """
    n = hs[0].shape.n_sites
    letters, table = pauli_terms(hs)
    onehot = (letters[..., None] == np.arange(1, 4)).astype(float)  # (K, n, 3)
    owner = np.repeat(np.arange(len(hs)), len(r0) // len(hs))  # each row's Hamiltonian
    coeffs = table[:, owner]  # (K, R): row r's coefficients
    scale = np.abs(table).sum(axis=0)  # per Hamiltonian
    spread = np.abs(table[letters.any(axis=1)]).sum(axis=0)[owner]  # identity left out
    tol = NEWTON_TOL * spread
    handover = MEAN_FIELD_HANDOVER * spread
    # Energy differences below this are round-off; without the slack, Armijo
    # would refuse a last Newton step whose true decrease is smaller still.
    slack = _ROUNDOFF * scale[owner]
    v = np.ones((len(r0), n, 4))
    v[..., 1:] = r0
    r = v[..., 1:]

    # Mean-field sweeps: r_i <- -g_i/|g_i| minimizes the energy, affine in r_i,
    # exactly; a site whose g_i is zero keeps its vector.  Sweeps converge only
    # linearly, so a Hamiltonian's rows hand over to Newton once a sweep lowers
    # none of their energies by more than the hand-over threshold.
    # Site i's g_i takes the prefix product f[0] ... f[i] (coefficients, then
    # the sites already swept) times the suffix f[i + 2] ... f[n].  The prefix
    # is carried forward one factor per site: numpy's product over axis 0
    # multiplies left to right, so it has the bits of f[: i + 1].prod(axis=0),
    # and after the last site it is each string's term of the sweep's energy.
    # |g| = sqrt((g * g).sum) is np.linalg.norm's arithmetic on real rows.
    f = np.concatenate([coeffs[None], _factors(v, letters)])  # f[1 + i]: site i's factors
    energy = f.prod(axis=0).sum(axis=0)
    sweeping = np.ones(len(r), dtype=bool)
    for _ in range(MEAN_FIELD_SWEEPS):
        prefix = f[0]
        for i in range(n):
            g = (prefix * f[i + 2 :].prod(axis=0)).T @ onehot[:, i]
            norm = np.sqrt((g * g).sum(axis=1))
            turn = sweeping & (norm > 0.0)
            if turn.all():
                r[:, i] = -g / norm[:, None]
            else:
                r[turn, i] = -g[turn] / norm[turn, None]
            f[i + 1] = v[:, i, letters[:, i]].T
            prefix = prefix * f[i + 1]
        new = prefix.sum(axis=0)
        if not (new <= energy + slack).all():
            raise NumericalError("a mean-field sweep raised the product-state energy")
        sweeping = (energy - new > handover).reshape(len(hs), -1).any(axis=1)[owner]
        energy = new
        if not sweeping.any():
            break

    # Saddle-free Newton steps, all restarts at once: the reduced Hessian with
    # its eigenvalues (from eigh) replaced by max(|lambda|, tol), then Armijo backtracking
    # along the retraction r_i <- (r_i + t xi_i)/|r_i + t xi_i|.
    gnorm = np.empty(len(r))
    red = np.empty((len(r), 2 * n, 2 * n))
    moved = np.arange(len(r))  # restarts whose point changed since their derivatives were taken
    for step in range(NEWTON_STEP_CAP + 1):
        e, grad, hess = _bloch_derivatives(v[moved], letters, coeffs[:, moved], onehot)
        bases = _tangent_bases(r[moved])
        g, red[moved] = _riemannian(r[moved], grad, hess, bases)
        gnorm[moved] = np.linalg.norm(g, axis=1)
        go = gnorm[moved] > tol[moved]
        if step == NEWTON_STEP_CAP or not go.any():
            break
        act, g, e, bases = moved[go], g[go], e[go], bases[go]
        lam, vecs = np.linalg.eigh(red[act])
        coef = (g[:, None] @ vecs)[:, 0] / np.maximum(abs(lam), tol[act, None])
        eta = -(vecs @ coef[..., None])[..., 0]
        eta *= np.minimum(1.0, _STEP_NORM_CAP / np.linalg.norm(eta, axis=1))[:, None]
        slope = (g * eta).sum(axis=1)
        move = (bases @ eta.reshape(len(act), n, 2, 1))[..., 0]
        t = 1.0
        pending = np.arange(len(act))
        for _ in range(_LINE_SEARCH_HALVINGS):
            at = act[pending]
            trial = v[at]
            trial[..., 1:] += t * move[pending]
            trial[..., 1:] /= np.linalg.norm(trial[..., 1:], axis=-1, keepdims=True)
            e_trial = _bloch_energy(trial, letters, coeffs[:, at])
            ok = e_trial <= e[pending] + _ARMIJO * t * slope[pending] + slack[at]
            if not (e_trial[ok] <= e[pending[ok]] + slack[at[ok]]).all():
                raise NumericalError("a Newton step raised the product-state energy")
            v[at[ok]] = trial[ok]
            pending = pending[~ok]
            if pending.size == 0:
                break
            t /= 2.0
        # a restart still pending found no decrease above round-off along a
        # descent direction: its line search stalled, and it stops here
        moved = np.delete(act, pending)
        if moved.size == 0:
            break
    hmin = np.linalg.eigvalsh(red)[:, 0]
    converged = (gnorm <= tol) & (hmin >= -tol)
    energy = _bloch_energy(v, letters, coeffs)
    return r, energy, gnorm, hmin, converged, scale
