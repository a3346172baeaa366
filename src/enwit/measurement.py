"""Finite-ensemble energy measurements and their effect on the bound.

The model is a projective measurement in the energy eigenbasis: one shot
draws one eigenvalue, with degenerate levels merged into eigenspace
probabilities first.  The shots are independent, so ``shots`` of them are
one multinomial histogram over the levels, and the sample mean and
variance are read from that histogram: time and memory grow with the
number of levels, not of shots.  Everything is deterministic given the seed.

A state built over ``eig(h)`` itself (``gibbs``, ``ground_state``) carries
its populations p_k = <v_k|rho|v_k>, and they are used as they are: no
matrix is formed.  For any other state they are read sector by sector of
``eig(h).sectors``, from the diagonal blocks rho[I, I] only.  That is exact
for any rho, since each v_k is zero off its sector I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .operators import DensityMatrix, HermitianOperator, eig
from .witness import WitnessSpec, energy_bound


@dataclass(frozen=True)
class EnergyEstimate:
    """Sample mean and standard error of a simulated energy measurement.

    With a single shot the spread is undefined and ``stderr`` is reported
    as 0 by convention; downstream confidence intervals degenerate to the
    point estimate in that case.
    """

    mean: float
    stderr: float
    shots: int
    seed: int


@dataclass(frozen=True)
class BoundInterval:
    """Confidence interval for the robustness bound; detection needs lo > 0."""

    lo: float
    hi: float
    detected: bool


def _eigenspace_distribution(
    h: HermitianOperator, rho: DensityMatrix
) -> tuple[np.ndarray, np.ndarray]:
    dec = eig(h)
    if rho.spectrum is dec:
        diag = rho.populations
    else:
        # v_k is zero off its sector I, so <v_k|rho|v_k> needs rho[I, I] only.
        diag = np.empty(dec.eigenvalues.size)
        for block in dec.sectors:
            v = block.vectors
            diag[block.ranks] = np.einsum("mik,mik->mk", v.conj(), block.take(rho.entries) @ v).real
    levels, counts = dec.levels()
    pr = np.clip(np.add.reduceat(diag, np.cumsum(counts) - counts), 0.0, None)
    total = float(pr.sum())
    if abs(total - 1.0) > 1e-9:
        raise NumericalError(f"eigenspace probabilities sum to {total}, not 1")
    return levels, pr / total


def measure_energy(
    h: HermitianOperator, rho: DensityMatrix, shots: int, seed: int
) -> EnergyEstimate:
    """Draw ``shots`` projective energy measurements from rho, seeded.

    The draws are one histogram, ``counts = rng.multinomial(shots, probs)``
    over the merged levels; ``mean`` and the ddof = 1 ``stderr`` are those
    of the expanded draws ``np.repeat(levels, counts)``.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if h.shape.local_dims != rho.shape.local_dims:
        raise ValueError("operator and state shapes differ")
    levels, probs = _eigenspace_distribution(h, rho)
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    counts = rng.multinomial(shots, probs)
    mean = float(counts @ levels) / shots
    spread = float(counts @ (levels - mean) ** 2)
    stderr = 0.0 if shots == 1 else math.sqrt(spread / (shots - 1) / shots)
    return EnergyEstimate(mean=mean, stderr=stderr, shots=shots, seed=int(seed))


def bound_with_confidence(w: WitnessSpec, est: EnergyEstimate, z: float) -> BoundInterval:
    """Robustness-bound interval at ``z`` standard errors around the estimate.

    Detection is claimed only when the whole interval is positive.  The
    interval is a normal approximation, mean +- z * stderr, with no
    guarantee at small shot counts: it collapses to a point when the
    stderr is 0 (one shot, or all draws equal), so a single lucky draw from
    a separable state can read as detected (ROADMAP item 2).
    """
    if not 0.0 <= z < math.inf:
        raise ValueError("z must be nonnegative and finite")
    lo, detected = energy_bound(w.esep, w.normalizer_a, est.mean, z * est.stderr)
    hi, _ = energy_bound(w.esep, w.normalizer_a, est.mean, -z * est.stderr)
    return BoundInterval(lo=lo, hi=hi, detected=detected)
