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


def _parities(d: int) -> np.ndarray:
    """parity(x) for every basis index x < d: True where x has an odd number of set bits."""
    cols = np.arange(d)
    odd = np.zeros(d, dtype=bool)
    while d > 1:
        d >>= 1
        odd ^= (cols & d).astype(bool)
    return odd


def build_pauli(shape: SystemShape, terms: Sequence[PauliString]) -> HermitianOperator:
    """Sum of coefficient-weighted Pauli strings on a register of qubits.

    Each string is a phased permutation (see the module docstring).  Strings
    with the same flip mask f write the same d entries (x ^ f, x), so they
    are summed per mask: each group's amplitude vector is the sum of its
    strings' amplitudes in the order given, starting from zeros, which is
    the sum term-by-term addition into a zero matrix gives, to the bit, and
    each group is written with one scatter.  The operator keeps the terms
    as its ``terms``.  Terms whose |coefficients| sum above
    ``MAX_COEFFICIENT_SUM`` are refused before any entry is written.

    The sum is Hermitian by construction: a string's entry at (x, x ^ f) is
    the exact conjugate of its entry at (x ^ f, x), and so is each group's
    sum.  So in place of :class:`HermitianOperator`'s d x d check and
    symmetrization, which make several d x d temporaries and were most of
    the build from n = 8 up, each group is checked for exact conjugate
    symmetry in O(d), O(d F) in all for F masks, and the matrix is wrapped
    as it is; the coefficient cap keeps every entry finite.
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
    cols = np.arange(d)
    odd = _parities(d)
    groups: dict[int, np.ndarray] = {}  # flip mask -> amplitude of column x at row x ^ flip
    for term in terms:
        if len(term.letters) != n:
            raise ValueError(
                f"term {term.letters!r} has {len(term.letters)} letters, expected {n}"
            )
        flip = yz = 0
        for c in term.letters:  # site 0 is the most significant bit
            flip = flip << 1 | (c in "XY")
            yz = yz << 1 | (c in "YZ")
        value = term.coefficient * 1j ** term.letters.count("Y")
        amplitude = groups.get(flip)
        if amplitude is None:
            amplitude = groups[flip] = np.zeros(d, dtype=np.complex128)
        amplitude += np.where(odd[cols & yz], -value, value)
    h = np.zeros((d, d), dtype=np.complex128)
    for flip, amplitude in groups.items():
        rows = cols ^ flip
        if not np.array_equal(amplitude[rows], amplitude.conj()):
            raise ValueError(
                f"the strings with flip mask {flip:#x} do not sum to a Hermitian matrix"
            )
        h[rows, cols] = amplitude
    return HermitianOperator._trusted(shape, h, terms)


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

