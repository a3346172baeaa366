import numpy as np
import pytest

from enwit import (
    DensityMatrix,
    HermitianOperator,
    SystemShape,
    eig,
    expectation,
)
from enwit.errors import NumericalError
from enwit.operators import _partial_transpose_entries
from enwit.states import singlet

from conftest import PAULI

Q1 = SystemShape([2])
Q2 = SystemShape([2, 2])


def op1(mat):
    return HermitianOperator(Q1, mat)


class TestSystemShape:
    def test_total_dim(self):
        assert SystemShape([2, 3, 2]).total_dim == 12

    @pytest.mark.parametrize("dims", [[1, 2], [2, 0], []])
    def test_rejects_bad_dims(self, dims):
        with pytest.raises(ValueError):
            SystemShape(dims)

    def test_desk_scale_guard(self):
        SystemShape([2] * 12)  # 4096 is allowed
        with pytest.raises(ValueError):
            SystemShape([2] * 13)


class TestHermitianOperator:
    def test_symmetrizes_small_drift(self):
        m = np.array([[1.0, 1e-13j], [0.0, 2.0]])
        h = op1(m + m.conj().T - np.diag(m.diagonal().real))  # tiny asymmetry survives
        assert np.allclose(h.entries, h.entries.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            op1(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            HermitianOperator(Q2, np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            op1([[bad, 0.0], [0.0, 1.0]])

    def test_entries_frozen(self):
        h = op1(PAULI["Z"])
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0


class TestDensityMatrix:
    def test_accepts_maximally_mixed(self):
        DensityMatrix.from_entries(Q2, np.eye(4) / 4)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix.from_entries(Q2, np.eye(4))

    def test_rejects_negative(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError):
            DensityMatrix.from_entries(Q2, m)


class TestEig:
    def test_sigma_z(self):
        dec = eig(op1(PAULI["Z"]))
        assert np.allclose(dec.eigenvalues, [-1, 1])

    def test_xxx_field_free(self, h_xxx):
        # singlet/triplet split of the exchange term: -3J and +J
        assert np.allclose(eig(h_xxx(1.0, 0.0)).eigenvalues, [-3, 1, 1, 1], atol=1e-12)

    def test_xxx_with_field(self, h_xxx):
        # triplet Zeeman levels J + 2Bm for m in {-1, 0, 1}
        assert np.allclose(eig(h_xxx(1.0, 0.5)).eigenvalues, [-3, 0, 1, 2], atol=1e-12)

    def test_reconstruction_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for dim in (2, 8, 17, 64):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = (g + g.conj().T) / 2
            shape = SystemShape([dim])
            dec = eig(HermitianOperator(shape, m))
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert np.abs(rebuilt - m).max() <= 1e-9
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.abs(gram - np.eye(dim)).max() <= 1e-9
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_spectrum_computed_once(self, h_xxx, eigh_calls):
        h = h_xxx(1.0, 0.5)
        assert eig(h) is eig(h)
        assert len(eigh_calls) == 1

    @pytest.mark.parametrize("j", [1e-13, 1e-10, 1.0, 1e10])
    def test_levels_of_a_scaled_spectrum(self, h_xxx, j):
        """Below unit scale the merge tolerance shrinks with the spectrum, so the
        singlet stays apart from the triplet at any J."""
        values, counts = eig(h_xxx(j, 0.0)).levels()
        assert counts.tolist() == [1, 3]
        assert values == pytest.approx([-3.0 * j, j], rel=1e-12)

    def test_levels_merge_against_first_eigenvalue(self, near_degenerate):
        values, counts = eig(near_degenerate).levels()
        assert counts.tolist() == [2, 2, 1, 1]
        assert values.tolist() == [0.0, 1.0, 1.0 + 1.6e-9, 3.0]


class TestExpectation:
    def test_identity_gives_one(self, random_two_qubit_dm):
        rng = np.random.default_rng(0)
        rho = random_two_qubit_dm(rng)
        assert expectation(HermitianOperator(Q2, np.eye(4)), rho) == pytest.approx(1.0, abs=1e-12)

    def test_singlet_ground_energy(self, h_xxx, singlet):
        assert expectation(h_xxx(1.0, 0.0), singlet) == pytest.approx(-3.0, abs=1e-12)

    def test_maximally_mixed(self, h_xxx):
        rho = DensityMatrix.from_entries(Q2, np.eye(4) / 4)
        assert expectation(h_xxx(1.0, 0.0), rho) == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self, singlet):
        with pytest.raises(ValueError):
            expectation(op1(PAULI["Z"]), singlet)

    def test_lies_in_spectral_range(self, h_xxx, random_two_qubit_dm):
        rng = np.random.default_rng(3)
        h = h_xxx(1.0, 0.7)
        dec = eig(h)
        for _ in range(50):
            val = expectation(h, random_two_qubit_dm(rng))
            assert dec.e_min - 1e-10 <= val <= dec.e_max + 1e-10


class TestPartialTranspose:
    """The partial-transpose rule the robustness oracle uses."""

    def test_product_state_is_fixed(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
            rho = DensityMatrix.pure(Q2, np.kron(a, b))
            pt = _partial_transpose_entries(rho.entries, (2, 2), {1})
            expected = np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()).T)
            assert np.abs(pt - expected).max() < 1e-12

    def test_singlet_spectrum(self, singlet):
        vals = np.linalg.eigvalsh(_partial_transpose_entries(singlet.entries, (2, 2), {1}))
        assert np.allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution_and_trace(self, random_two_qubit_dm):
        rng = np.random.default_rng(2)
        for _ in range(100):
            rho = random_two_qubit_dm(rng)
            pt = _partial_transpose_entries(rho.entries, (2, 2), (0,))
            assert np.trace(pt).real == pytest.approx(1.0, abs=1e-12)
            twice = _partial_transpose_entries(pt, (2, 2), (0,))
            assert np.array_equal(twice, rho.entries)

    def test_invalid_subsystem(self, singlet):
        with pytest.raises(ValueError):
            _partial_transpose_entries(singlet.entries, (2, 2), {2})


def test_eig_raises_numerical_error_type():
    assert issubclass(NumericalError, RuntimeError)


def test_eig_non_convergence_is_numerical_error(monkeypatch):
    def diverge(m):
        raise np.linalg.LinAlgError("forced non-convergence")

    monkeypatch.setattr(np.linalg, "eigh", diverge)
    with pytest.raises(NumericalError):
        eig(op1(PAULI["Z"]))
