"""Finite-ensemble energy measurements and their effect on the bound.

The model is a projective measurement in the energy eigenbasis: one shot
draws one eigenvalue, with degenerate levels merged into eigenspace
probabilities first.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .operators import DensityMatrix, HermitianOperator, eig
from .witness import WitnessSpec


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
    diag = np.einsum("ik,ij,jk->k", dec.eigenvectors.conj(), rho.entries, dec.eigenvectors).real
    levels, counts = dec.levels()
    pr = np.clip(np.add.reduceat(diag, np.cumsum(counts) - counts), 0.0, None)
    total = float(pr.sum())
    if abs(total - 1.0) > 1e-9:
        raise NumericalError(f"eigenspace probabilities sum to {total}, not 1")
    return levels, pr / total


def measure_energy(
    h: HermitianOperator, rho: DensityMatrix, shots: int, seed: int
) -> EnergyEstimate:
    """Draw ``shots`` projective energy measurements from rho, seeded."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if h.shape.local_dims != rho.shape.local_dims:
        raise ValueError("operator and state shapes differ")
    levels, probs = _eigenspace_distribution(h, rho)
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    draws = levels[rng.choice(levels.size, size=shots, p=probs)]
    mean = float(draws.mean())
    stderr = 0.0 if shots == 1 else float(draws.std(ddof=1) / math.sqrt(shots))
    return EnergyEstimate(mean=mean, stderr=stderr, shots=shots, seed=int(seed))


def bound_with_confidence(w: WitnessSpec, est: EnergyEstimate, z: float) -> BoundInterval:
    """Robustness-bound interval at ``z`` standard errors around the estimate.

    Detection is claimed only when the whole interval is positive.
    """
    if not 0.0 <= z < math.inf:
        raise ValueError("z must be nonnegative and finite")
    lo = (w.esep - est.mean - z * est.stderr) / w.normalizer_a
    hi = (w.esep - est.mean + z * est.stderr) / w.normalizer_a
    return BoundInterval(lo=lo, hi=hi, detected=lo > 0.0)
