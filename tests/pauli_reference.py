"""The per-term Pauli-string assembly, kept as the bit-for-bit reference.

``build_pauli_per_term`` is the loop ``enwit.hamiltonians.build_pauli`` ran
before it grouped strings by flip mask: one fancy-index ``+=`` per string
into a zero matrix, then :class:`HermitianOperator`'s check and
symmetrization.  ``tests/test_hamiltonians.py`` requires the grouped build
to give the same bits, signed zeros included.
"""

import numpy as np

from enwit import HermitianOperator


def build_pauli_per_term(shape, terms) -> HermitianOperator:
    n = shape.n_sites
    d = shape.total_dim
    h = np.zeros((d, d), dtype=np.complex128)
    cols = np.arange(d)
    for term in terms:
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
