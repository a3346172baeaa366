"""Convenience constructors for common two-qubit states."""

from __future__ import annotations

import math

import numpy as np

from .operators import DensityMatrix, SystemShape

TWO_QUBITS = SystemShape([2, 2])


def bloch_state(theta: float, phi: float) -> np.ndarray:
    """Pure qubit state at polar angle theta, azimuth phi on the Bloch sphere."""
    return np.array(
        [math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)],
        dtype=np.complex128,
    )


def bloch_angles(r: np.ndarray) -> tuple[float, float]:
    """Polar angle theta and azimuth phi in [0, 2pi) of a unit Bloch vector r = (x, y, z).

    phi is 0 on the poles, where |(x, y)| < 2e-15 leaves it to round-off.
    """
    x, y, z = (float(c) for c in r)
    rho = math.hypot(x, y)
    phi = math.atan2(y, x) % (2.0 * math.pi)
    # an azimuth within half an ulp below 0 rounds up to exactly 2pi
    if phi == 2.0 * math.pi or rho < 2e-15:
        phi = 0.0
    return math.atan2(rho, z), phi


def product_state(theta_a: float, phi_a: float, theta_b: float, phi_b: float) -> DensityMatrix:
    vec = np.kron(bloch_state(theta_a, phi_a), bloch_state(theta_b, phi_b))
    return DensityMatrix.pure(TWO_QUBITS, vec)


def singlet() -> DensityMatrix:
    vec = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)
    return DensityMatrix.pure(TWO_QUBITS, vec)

