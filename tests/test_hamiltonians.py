from dataclasses import replace
from functools import reduce
from typing import Sequence

import numpy as np
import pytest

from enwit import (
    HermitianOperator,
    PauliString,
    SystemShape,
    XXXParams,
    build_pauli,
    build_xxx,
    eig,
    parse_pauli_terms,
)
from enwit import hamiltonians
from enwit.hamiltonians import MAX_COEFFICIENT_SUM, _xxx_terms

from conftest import PAULI
from pauli_reference import build_pauli_per_term

# Reference builders from Kronecker and matrix products of single-site Paulis,
# sharing no code with the library.  Every entry receives the same additions in
# the same order as in the library, so the two must agree bit for bit.


def _kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, mats)


def _site_term(letter: str, site: int, n: int) -> np.ndarray:
    return _kron_all([PAULI[letter] if k == site else PAULI["I"] for k in range(n)])


def reference_xxx(p: XXXParams, doubled: bool = False) -> HermitianOperator:
    """``doubled`` counts a periodic two-site chain's bond twice."""
    n = p.n_sites
    d = 2**n
    h = np.zeros((d, d), dtype=np.complex128)
    bonds = [(i, i + 1) for i in range(n - 1)]
    if p.boundary == "periodic" and (n > 2 or doubled):
        bonds.append((n - 1, 0))
    for i, j in bonds:
        for a in "XYZ":
            h += p.coupling_j * _site_term(a, i, n) @ _site_term(a, j, n)
    for i in range(n):
        h += p.field_b * _site_term("Z", i, n)
    return HermitianOperator(SystemShape([2] * n), h)


def reference_pauli(shape: SystemShape, terms: Sequence[PauliString]) -> HermitianOperator:
    n = shape.n_sites
    d = shape.total_dim
    h = np.zeros((d, d), dtype=np.complex128)
    for term in terms:
        h += term.coefficient * _kron_all([PAULI[c] for c in term.letters])
    return HermitianOperator(shape, h)


def random_terms(rng, n: int, count: int) -> list[PauliString]:
    letters = rng.choice(list("IXYZ"), size=(count, n))
    coefs = rng.standard_normal(count)
    return [PauliString(float(c), "".join(row)) for c, row in zip(coefs, letters)]


class TestXXXParams:
    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            XXXParams(coupling_j=0.0)

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            XXXParams(n_sites=1)

    def test_rejects_bad_boundary(self):
        with pytest.raises(ValueError):
            XXXParams(boundary="twisted")

    @pytest.mark.parametrize(
        "j, b", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, -np.inf)]
    )
    def test_rejects_non_finite(self, j, b):
        with pytest.raises(ValueError):
            XXXParams(j, b)


class TestBuildXXX:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("doubled", [False, True])
    def test_matches_reference(self, n, boundary, doubled):
        # the doubled two-site bond is the same Hamiltonian at 2J, bit for bit
        scale = 2.0 if doubled and n == 2 and boundary == "periodic" else 1.0
        for j in (1.0, 0.37):
            for b in (0.0, 0.3, -1.7, 5.0):
                p = XXXParams(j, b, n, boundary)
                built = build_xxx(replace(p, coupling_j=scale * j)).entries
                assert np.array_equal(built, reference_xxx(p, doubled).entries), p

    def test_field_free_spectrum(self):
        h = build_xxx(XXXParams(1.0, 0.0))
        assert np.allclose(eig(h).eigenvalues, [-3, 1, 1, 1], atol=1e-12)

    def test_zeeman_split_spectrum(self):
        h = build_xxx(XXXParams(1.0, 0.5))
        assert np.allclose(eig(h).eigenvalues, [-3, 0, 1, 2], atol=1e-12)

    def test_commutes_with_total_sz(self):
        h = build_xxx(XXXParams(1.0, 0.0)).entries
        total_z = np.kron(PAULI["Z"], PAULI["I"]) + np.kron(PAULI["I"], PAULI["Z"])
        assert np.abs(h @ total_z - total_z @ h).max() < 1e-12

    def test_swap_symmetry(self):
        h = build_xxx(XXXParams(1.3, 0.4)).entries
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        assert np.abs(swap @ h @ swap - h).max() < 1e-12

    def test_spectrum_even_in_field(self):
        for b in (0.3, 1.1, 2.7):
            up = eig(build_xxx(XXXParams(1.0, b))).eigenvalues
            down = eig(build_xxx(XXXParams(1.0, -b))).eigenvalues
            assert np.allclose(up, down, atol=1e-12)

    def test_affine_scaling(self):
        base = build_xxx(XXXParams(1.0, 0.7)).entries
        scaled = build_xxx(XXXParams(2.5, 1.75)).entries
        assert np.abs(scaled - 2.5 * base).max() < 1e-12

    def test_two_site_periodic_counts_bond_once(self):
        open_h = build_xxx(XXXParams(1.0, 0.3, 2, "open"))
        per_h = build_xxx(XXXParams(1.0, 0.3, 2, "periodic"))
        assert np.array_equal(open_h.entries, per_h.entries)

    def test_two_site_double_count_flag(self):
        # counting the two-site bond twice is J -> 2J
        single = build_xxx(XXXParams(1.0, 0.0, 2, "periodic"))
        double = build_xxx(XXXParams(2.0, 0.0, 2, "periodic"))
        assert np.abs(double.entries - 2.0 * single.entries).max() < 1e-12

    def test_chain_periodic_adds_wrap_bond(self):
        open_h = build_xxx(XXXParams(1.0, 0.0, 3, "open")).entries
        per_h = build_xxx(XXXParams(1.0, 0.0, 3, "periodic")).entries
        wrap = sum(
            np.kron(np.kron(PAULI[a], PAULI["I"]), PAULI[a]) for a in "XYZ"
        )
        assert np.abs(per_h - open_h - wrap).max() < 1e-12


class TestBuildPauli:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_reference_on_random_terms(self, n):
        rng = np.random.default_rng(100 + n)
        shape = SystemShape([2] * n)
        for count in (1, 3, 12):
            terms = random_terms(rng, n, count)
            assert np.array_equal(
                build_pauli(shape, terms).entries, reference_pauli(shape, terms).entries
            )

    @pytest.mark.parametrize("letters", ["Y", "YY", "YYY", "XYZ", "ZYX", "YIYIY", "YYYYYY"])
    def test_matches_reference_on_y_heavy_strings(self, letters):
        shape = SystemShape([2] * len(letters))
        terms = [PauliString(0.37, letters), PauliString(-1.3, letters[::-1])]
        assert np.array_equal(
            build_pauli(shape, terms).entries, reference_pauli(shape, terms).entries
        )

    def test_heisenberg_from_strings(self):
        shape = SystemShape([2, 2])
        terms = [PauliString(1.0, "XX"), PauliString(1.0, "YY"), PauliString(1.0, "ZZ")]
        assert np.abs(
            build_pauli(shape, terms).entries - build_xxx(XXXParams(1.0, 0.0)).entries
        ).max() < 1e-12

    def test_empty_terms_give_zero(self):
        out = build_pauli(SystemShape([2, 2]), [])
        assert np.abs(out.entries).max() == 0.0

    def test_field_only_spectrum(self):
        terms = [PauliString(0.5, "ZI"), PauliString(0.5, "IZ")]
        vals = eig(build_pauli(SystemShape([2, 2]), terms)).eigenvalues
        assert np.allclose(vals, [-1, 0, 0, 1], atol=1e-12)

    def test_letter_length_mismatch(self):
        with pytest.raises(ValueError):
            build_pauli(SystemShape([2, 2]), [PauliString(1.0, "XXX")])

    def test_rejects_non_qubit_shape(self):
        with pytest.raises(ValueError):
            build_pauli(SystemShape([2, 3]), [PauliString(1.0, "XX")])

    def test_refuses_coefficients_summing_past_the_limit(self):
        """Past MAX_COEFFICIENT_SUM the sum may overflow to inf; it is refused, not built."""
        shape = SystemShape([2, 2])
        half = MAX_COEFFICIENT_SUM / 2
        at_limit = build_pauli(shape, [PauliString(half, "XX"), PauliString(-half, "ZZ")])
        assert np.abs(at_limit.entries).max() == half
        for c in (MAX_COEFFICIENT_SUM, 1e308):
            with pytest.raises(ValueError, match="sum to"):
                build_pauli(shape, [PauliString(c, "XX"), PauliString(c, "ZZ")])


class TestGroupedAssembly:
    """Strings grouped by flip mask give the per-term loop's entries, bit for bit."""

    @staticmethod
    def _bits(op: HermitianOperator) -> np.ndarray:
        return op.entries.view(np.uint64)  # signed zeros count as different bits

    @pytest.mark.parametrize("n", range(2, 7))
    def test_random_sets_match_the_per_term_loop(self, n):
        rng = np.random.default_rng(200 + n)
        shape = SystemShape([2] * n)
        for count in (1, 4, 16, 40):
            terms = random_terms(rng, n, count)
            terms += [PauliString(-t.coefficient, t.letters) for t in terms[: count // 2]]
            expected = build_pauli_per_term(shape, terms)
            assert np.array_equal(self._bits(build_pauli(shape, terms)), self._bits(expected))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_rings_match_the_per_term_loop(self, n):
        for b in (0.0, -0.3):
            p = XXXParams(1.0, b, n, "periodic")
            shape = SystemShape([2] * n)
            expected = build_pauli_per_term(shape, _xxx_terms(p))
            assert np.array_equal(self._bits(build_xxx(p)), self._bits(expected))

    def test_a_corrupted_parity_table_is_refused(self, monkeypatch):
        """One wrong sign breaks the exact conjugate symmetry of its flip group."""
        shape = SystemShape([2, 2, 2])
        terms = [PauliString(0.5, "YZI"), PauliString(1.0, "ZZZ")]
        build_pauli(shape, terms)
        real = hamiltonians._parities

        def corrupted(d):
            odd = real(d).copy()
            odd[6] = ~odd[6]  # read at x & 0b110 = 6, but not at x ^ 0b100
            return odd

        monkeypatch.setattr(hamiltonians, "_parities", corrupted)
        with pytest.raises(ValueError, match="flip mask 0x4 do not sum to a Hermitian"):
            build_pauli(shape, terms)
        build_pauli(shape, [PauliString(1.0, "ZZZ")])  # a diagonal group stays Hermitian


class TestParsePauliTerms:
    def test_basic_format_case_insensitive(self):
        terms = parse_pauli_terms("1.0 XXI\n\n-0.5 zzi\n")
        assert terms == [PauliString(1.0, "XXI"), PauliString(-0.5, "ZZI")]

    def test_bad_coefficient(self):
        with pytest.raises(ValueError):
            parse_pauli_terms("one XX")

    @pytest.mark.parametrize("text", ["nan XX", "inf ZZ"])
    def test_non_finite_coefficient(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_pauli_terms(text)

    def test_bad_letters(self):
        with pytest.raises(ValueError):
            parse_pauli_terms("1.0 XQ")

    def test_wrong_field_count(self):
        with pytest.raises(ValueError):
            parse_pauli_terms("1.0 XX extra")


class TestSummarize:
    def test_xxx_range(self):
        s = eig(build_xxx(XXXParams(1.0, 0.0)))
        assert s.e_min == pytest.approx(-3.0, abs=1e-12)
        assert s.e_max == pytest.approx(1.0, abs=1e-12)

    def test_zero_operator(self):
        from enwit import HermitianOperator

        z = HermitianOperator(SystemShape([2, 2]), np.zeros((4, 4)))
        s = eig(z)
        assert s.e_min == s.e_max == 0.0

    def test_level_degeneracies(self):
        levels, counts = eig(build_xxx(XXXParams(1.0, 0.0))).levels()
        assert levels == pytest.approx([-3.0, 1.0], abs=1e-9)
        assert counts.tolist() == [1, 3]

    def test_level_degeneracies_near_degenerate(self, near_degenerate):
        _, counts = eig(near_degenerate).levels()
        assert counts.tolist() == [2, 2, 1, 1]
