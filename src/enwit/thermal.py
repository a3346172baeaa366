"""Gibbs states rho(T) = exp(-H/T)/Z and mean-energy curves (k_B = 1).

All thermal quantities are computed in the eigenbasis of H with the
spectrum shifted by its minimum before exponentiating, so temperatures
down to 1e-3 J (beta up to 1e3) stay finite.  One routine,
:func:`_thermal_table`, computes them for an (F, d) stack of spectra at T
temperatures: :func:`gibbs` is its one-field, one-temperature case,
:func:`energy_curve` its one-field case, and :func:`energy_table` serves a
sweep of F fields and holds the one check that no field's mean energy
falls as T rises.

Gibbs and ground states are spectral objects: ``eig(h)`` and the level
populations p (Boltzmann weights, or 1/k over a k-fold ground level), built
with ``DensityMatrix.from_spectrum``.  Their construction checks p in O(d)
and forms no d x d matrix.  A consumer that reads ``entries`` gets the dense
state, written sector by sector of ``eig(h).sectors``: each exact sector's
block V diag(p) V^dagger is one stacked product per sector size, placed into
a zero matrix, so the state is exactly zero between sectors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import NumericalError
from .operators import DensityMatrix, HermitianOperator, eig

_EXP_MAX = 700.0  # log of the largest finite float64, rounded down
# Entries of the largest (F, T, d) Boltzmann table energy_table forms (1 MB
# per array): a sweep's memory stays that of one field's table, or 1 MB.
_TABLE_CHUNK = 1 << 17


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


def _thermal_table(spectra: np.ndarray, temps: np.ndarray) -> tuple[np.ndarray, ...]:
    """Boltzmann probabilities (F, T, d), log Z (F, T) and mean energies (F, T) of an
    (F, d) stack of ascending spectra at the temperatures (T,), via the max-shift trick."""
    beta = 1.0 / temps
    w = np.exp(-beta[:, None] * (spectra[:, None] - spectra[:, :1, None]))
    s = w.sum(axis=-1)
    log_z = np.log(s) - beta * spectra[:, :1]
    probs = w / s[..., None]
    mean = (probs * spectra[:, None]).sum(axis=-1)
    return probs, log_z, mean


def energy_table(spectra: np.ndarray, temps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log Z and the mean energy, each (F, T), of an (F, d) stack of ascending spectra.

    ``temps`` must be positive and ascending.  Fields go through
    :func:`_thermal_table` in groups of at most ``_TABLE_CHUNK`` table entries,
    which keeps every number as in a table of one field.  A mean energy that
    falls with rising T by more than 1e-12 times max(1, max |eigenvalue|) of
    its field raises :class:`~enwit.errors.NumericalError`.
    """
    if not (temps > 0).all():
        raise ValueError("all temperatures must be positive")
    if (np.diff(temps) < 0).any():
        raise ValueError("temperatures must be ascending")
    log_z = np.empty((len(spectra), temps.size))
    mean = np.empty_like(log_z)
    rows = max(1, _TABLE_CHUNK // max(1, temps.size * spectra.shape[1]))
    for lo in range(0, len(spectra), rows):
        part = slice(lo, lo + rows)
        _, log_z[part], mean[part] = _thermal_table(spectra[part], temps)
    # Round-off in the mean energy grows with the spectrum.
    rise = np.diff(mean, axis=1)
    falls = (rise < -1e-12 * np.maximum(1.0, np.abs(spectra).max(axis=1))[:, None]).any(axis=1)
    if falls.any():
        first = rise[np.argmax(falls)]
        raise NumericalError(f"mean energy falls by {-first.min():.3e} as the temperature rises")
    return log_z, mean


def gibbs(h: HermitianOperator, temperature: float) -> tuple[DensityMatrix, ThermalPoint]:
    """Thermal equilibrium state of ``h`` at temperature T > 0 (units J/k_B)."""
    t = float(temperature)
    if not t > 0.0:
        raise ValueError("temperature must be positive; use ground_state for T = 0")
    dec = eig(h)
    probs, log_z, mean = _thermal_table(dec.eigenvalues[None], np.array([t]))
    z = np.exp(log_z[0, 0]) if log_z[0, 0] < _EXP_MAX else np.inf
    point = ThermalPoint(t, 1.0 / t, float(z), float(mean[0, 0]), float(log_z[0, 0]))
    return DensityMatrix.from_spectrum(h.shape, dec, probs[0, 0]), point


def ground_state(h: HermitianOperator) -> DensityMatrix:
    """Projector onto the ground level, maximally mixed over it if degenerate."""
    dec = eig(h)
    _, counts = dec.levels()
    k = int(counts[0])
    p = np.zeros(h.dim)
    p[:k] = 1.0 / k
    return DensityMatrix.from_spectrum(h.shape, dec, p)


def energy_curve(h: HermitianOperator, temps: Sequence[float]) -> np.recarray:
    """Thermal points for an ascending temperature grid, one diagonalization total.

    The result is a NumPy record array with ``ThermalPoint``'s field names,
    one row per temperature.  A mean energy that falls with rising T by more
    than 1e-12 times max(1, max |eigenvalue|) raises
    :class:`~enwit.errors.NumericalError`.
    """
    ts = np.fromiter(temps, dtype=float)
    (log_z,), (mean,) = energy_table(eig(h).eigenvalues[None], ts)
    z = np.exp(np.where(log_z < _EXP_MAX, log_z, np.inf))
    return np.rec.fromarrays(
        [ts, 1.0 / ts, z, mean, log_z], names=[f.name for f in fields(ThermalPoint)]
    )
