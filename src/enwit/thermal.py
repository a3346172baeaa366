"""Gibbs states rho(T) = exp(-H/T)/Z and mean-energy curves (k_B = 1).

All thermal quantities are computed in the eigenbasis of H with the
spectrum shifted by its minimum before exponentiating, so temperatures
down to 1e-3 J (beta up to 1e3) stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .operators import DensityMatrix, HermitianOperator, SpectralDecomposition, eig

_EXP_MAX = 700.0  # log of the largest finite float64, rounded down


@dataclass(frozen=True)
class ThermalPoint:
    """One point of a thermal sweep.

    ``partition_z`` overflows to ``inf`` for very cold spectra with negative
    ground energy; ``log_partition_z`` is always finite and is the value to
    use in downstream arithmetic.
    """

    temperature_t: float
    beta: float
    partition_z: float
    mean_energy: float
    log_partition_z: float

    def __post_init__(self):
        if abs(self.beta * self.temperature_t - 1.0) > 1e-12:
            raise ValueError("beta must equal 1/T")


def _thermal_table(dec: SpectralDecomposition, temps: np.ndarray) -> tuple[np.ndarray, np.recarray]:
    """Boltzmann probabilities (T x levels) and the thermal points, via the max-shift trick."""
    lam = dec.eigenvalues
    beta = 1.0 / temps
    w = np.exp(-beta[:, None] * (lam - lam[0]))
    s = w.sum(axis=1)
    log_z = np.log(s) - beta * lam[0]
    probs = w / s[:, None]
    mean = (probs * lam).sum(axis=1)
    z = np.exp(np.where(log_z < _EXP_MAX, log_z, np.inf))
    points = np.rec.fromarrays(
        [temps, beta, z, mean, log_z], names=[f.name for f in fields(ThermalPoint)]
    )
    return probs, points


def gibbs(h: HermitianOperator, temperature: float) -> tuple[DensityMatrix, ThermalPoint]:
    """Thermal equilibrium state of ``h`` at temperature T > 0 (units J/k_B)."""
    t = float(temperature)
    if not t > 0.0:
        raise ValueError("temperature must be positive; use ground_state for T = 0")
    dec = eig(h)
    probs, points = _thermal_table(dec, np.array([t]))
    v = dec.eigenvectors
    rho = DensityMatrix.from_entries(h.shape, (v * probs[0]) @ v.conj().T)
    return rho, ThermalPoint(*points[0].tolist())


def ground_state(h: HermitianOperator) -> DensityMatrix:
    """Projector onto the ground level, maximally mixed over it if degenerate."""
    dec = eig(h)
    _, counts = dec.levels()
    k = int(counts[0])
    v = dec.eigenvectors[:, :k]
    return DensityMatrix.from_entries(h.shape, (v @ v.conj().T) / k)


def energy_curve(h: HermitianOperator, temps: Sequence[float]) -> np.recarray:
    """Thermal points for an ascending temperature grid, one diagonalization total.

    The result is a NumPy record array with ``ThermalPoint``'s field names,
    one row per temperature.
    """
    ts = np.fromiter(temps, dtype=float)
    if not (ts > 0).all():
        raise ValueError("all temperatures must be positive")
    if (np.diff(ts) < 0).any():
        raise ValueError("temperatures must be ascending")
    _, points = _thermal_table(eig(h), ts)
    assert (np.diff(points.mean_energy) >= -1e-12).all(), "mean energy must not decrease with T"
    return points
