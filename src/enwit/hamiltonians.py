"""Spin Hamiltonians: the Heisenberg XXX model in a field, and generic Pauli strings.

Every Hamiltonian is a sum of Pauli strings, assembled by ``build_pauli``.
A Pauli string is a phased permutation: on the computational basis state
|x> (site 0 is the most significant bit) it gives
``i^{#Y} (-1)^{parity(x & yz)} |x ^ flip>``, where ``flip`` marks the X/Y
sites and ``yz`` the Y/Z sites.  So each string adds one entry per column,
O(terms * 2^n) writes in all, with no Kronecker or matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import HermitianOperator, SystemShape

# The largest sum of |coefficients| build_pauli accepts: far above any physical
# scale, and far enough below the float range that no product of energies,
# temperatures or squares downstream overflows.
MAX_COEFFICIENT_SUM = 1e100


@dataclass(frozen=True)
class XXXParams:
    """Heisenberg chain parameters: J sum_i sigma_i . sigma_{i+1} + B sum_i sigma_z,i.

    Temperatures downstream are measured in units of J/k_B with k_B = 1.
    A periodic two-site chain counts its single bond once; the convention
    that counts it twice is the same Hamiltonian at 2J.
    """

    coupling_j: float = 1.0
    field_b: float = 0.0
    n_sites: int = 2
    boundary: str = "open"

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


def _xxx_terms(p: XXXParams) -> list[PauliString]:
    """The chain's Pauli strings: bonds in order with X, Y, Z on each, then the fields."""
    n = p.n_sites
    bonds = [(i, i + 1) for i in range(n - 1)]
    if p.boundary == "periodic" and n > 2:
        bonds.append((n - 1, 0))
    terms = []
    for i, j in bonds:
        for a in "XYZ":
            letters = ["I"] * n
            letters[i] = letters[j] = a
            terms.append(PauliString(p.coupling_j, "".join(letters)))
    for i in range(n):
        letters = ["I"] * n
        letters[i] = "Z"
        terms.append(PauliString(p.field_b, "".join(letters)))
    return terms


def build_xxx(p: XXXParams) -> HermitianOperator:
    """Heisenberg Hamiltonian on n qubits, as a sum of Pauli strings.

    For ``n_sites=2`` this is J sigma_1.sigma_2 + B(sigma_z1 + sigma_z2); the
    single bond is counted once even for periodic boundaries.
    """
    return build_pauli(SystemShape([2] * p.n_sites), _xxx_terms(p))


def build_pauli(shape: SystemShape, terms: Sequence[PauliString]) -> HermitianOperator:
    """Sum of coefficient-weighted Pauli strings on a register of qubits.

    Each string is added as a phased permutation (see the module docstring),
    in the order given, and the operator keeps the terms as its ``terms``.
    Terms whose |coefficients| sum above ``MAX_COEFFICIENT_SUM`` are refused
    before any entry is written.
    """
    if any(d != 2 for d in shape.local_dims):
        raise ValueError("Pauli strings are defined on qubit registers only")
    scale = sum(abs(term.coefficient) for term in terms)
    if not scale <= MAX_COEFFICIENT_SUM:
        raise ValueError(
            f"the Hamiltonian's |coefficients| sum to {scale:g}, above {MAX_COEFFICIENT_SUM:g}"
        )
    n = shape.n_sites
    d = shape.total_dim
    h = np.zeros((d, d), dtype=np.complex128)
    cols = np.arange(d)
    for term in terms:
        if len(term.letters) != n:
            raise ValueError(
                f"term {term.letters!r} has {len(term.letters)} letters, expected {n}"
            )
        flip = 0
        parity = np.zeros(d, dtype=cols.dtype)
        for k, c in enumerate(term.letters):
            bit = n - 1 - k
            if c in "XY":
                flip |= 1 << bit
            if c in "YZ":
                parity ^= (cols >> bit) & 1
        value = term.coefficient * 1j ** term.letters.count("Y")
        h[cols ^ flip, cols] += np.where(parity, -value, value)
    return HermitianOperator(shape, h, terms)


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

