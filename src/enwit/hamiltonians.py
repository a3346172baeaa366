"""Spin Hamiltonians: the Heisenberg XXX model in a field, and generic Pauli strings."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .operators import HermitianOperator, SystemShape

PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@dataclass(frozen=True)
class XXXParams:
    """Heisenberg chain parameters: J sum_i sigma_i . sigma_{i+1} + B sum_i sigma_z,i.

    Temperatures downstream are measured in units of J/k_B with k_B = 1.
    A periodic two-site chain counts its single bond once unless
    ``double_count_two_site_bond`` is set (a convention for chain formulas
    that traverse the 1-2 bond twice).
    """

    coupling_j: float = 1.0
    field_b: float = 0.0
    n_sites: int = 2
    boundary: str = "open"
    double_count_two_site_bond: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.coupling_j) and self.coupling_j > 0):
            raise ValueError("coupling_j must be positive and finite")
        if not math.isfinite(self.field_b):
            raise ValueError("field_b must be finite")
        if self.n_sites < 2:
            raise ValueError("n_sites must be >= 2")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")


@dataclass(frozen=True)
class PauliString:
    """One weighted product of single-site Paulis, e.g. 0.5 * XXI."""

    coefficient: float
    letters: str

    def __post_init__(self):
        if not math.isfinite(self.coefficient):
            raise ValueError(f"coefficient must be finite, got {self.coefficient!r}")
        up = self.letters.upper()
        if not up or any(c not in "IXYZ" for c in up):
            raise ValueError(f"letters must be over I,X,Y,Z, got {self.letters!r}")
        object.__setattr__(self, "letters", up)


def _kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, mats)


def _site_term(letter: str, site: int, n: int) -> np.ndarray:
    return _kron_all([PAULI[letter] if k == site else PAULI["I"] for k in range(n)])


def build_xxx(p: XXXParams) -> HermitianOperator:
    """Heisenberg Hamiltonian on n qubits.

    For ``n_sites=2`` this is J sigma_1.sigma_2 + B(sigma_z1 + sigma_z2); the
    single bond is counted once even for periodic boundaries unless
    ``p.double_count_two_site_bond`` is set.
    """
    n = p.n_sites
    d = 2**n
    h = np.zeros((d, d), dtype=np.complex128)
    bonds = [(i, i + 1) for i in range(n - 1)]
    if p.boundary == "periodic" and (n > 2 or p.double_count_two_site_bond):
        bonds.append((n - 1, 0))
    for i, j in bonds:
        for a in "XYZ":
            h += p.coupling_j * _site_term(a, i, n) @ _site_term(a, j, n)
    for i in range(n):
        h += p.field_b * _site_term("Z", i, n)
    return HermitianOperator(SystemShape([2] * n), h)


def build_pauli(shape: SystemShape, terms: Sequence[PauliString]) -> HermitianOperator:
    """Sum of coefficient-weighted Pauli strings on a register of qubits."""
    if any(d != 2 for d in shape.local_dims):
        raise ValueError("Pauli strings are defined on qubit registers only")
    n = shape.n_sites
    d = shape.total_dim
    h = np.zeros((d, d), dtype=np.complex128)
    for term in terms:
        if len(term.letters) != n:
            raise ValueError(
                f"term {term.letters!r} has {len(term.letters)} letters, expected {n}"
            )
        h += term.coefficient * _kron_all([PAULI[c] for c in term.letters])
    return HermitianOperator(shape, h)


def parse_pauli_terms(text: str) -> list[PauliString]:
    """Parse the one-term-per-line format ``<coef> <letters>`` (case-insensitive)."""
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<coef> <letters>', got {raw!r}")
        try:
            coef = float(parts[0])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad coefficient {parts[0]!r}") from exc
        terms.append(PauliString(coef, parts[1]))
    return terms

