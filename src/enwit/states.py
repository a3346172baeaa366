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


def bloch_angles(state: np.ndarray) -> tuple[float, float]:
    """Inverse of :func:`bloch_state`, up to global phase; phi in [0, 2pi)."""
    v = np.asarray(state, dtype=np.complex128).reshape(2)
    v = v / np.linalg.norm(v)
    theta = 2.0 * math.atan2(abs(v[1]), abs(v[0]))
    phi = float(np.angle(v[1]) - np.angle(v[0])) % (2.0 * math.pi)
    # a difference within half an ulp below 0 rounds up to exactly 2pi
    if phi == 2.0 * math.pi or abs(v[1]) < 1e-15 or abs(v[0]) < 1e-15:
        phi = 0.0
    return theta, phi


def product_state(theta_a: float, phi_a: float, theta_b: float, phi_b: float) -> DensityMatrix:
    vec = np.kron(bloch_state(theta_a, phi_a), bloch_state(theta_b, phi_b))
    return DensityMatrix.pure(TWO_QUBITS, vec)


def singlet() -> DensityMatrix:
    vec = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)
    return DensityMatrix.pure(TWO_QUBITS, vec)

