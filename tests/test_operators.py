from types import SimpleNamespace

import numpy as np
import pytest

from enwit import (
    DensityMatrix,
    HermitianOperator,
    PauliString,
    SpectralDecomposition,
    SystemShape,
    XXXParams,
    build_pauli,
    build_xxx,
    eig,
    esep_reference,
    esep_search,
    expectation,
    gibbs,
    ground_state,
    make_witness,
    measure_energy,
    rg_exact_2q,
)
from enwit.errors import NumericalError
from enwit.hamiltonians import _xxx_terms
from enwit.operators import SECTOR_MIN_DIM, SectorBlock, _partial_transpose_entries, _sectors
from enwit.states import singlet

from conftest import PAULI, dm_chain, random_dm


def one_block(eigenvalues, eigenvectors):
    """The decomposition of given eigenvalues and eigenvector columns as one sector."""
    rows = np.arange(len(eigenvectors))[None]
    return SpectralDecomposition(eigenvalues, (SectorBlock(rows, rows, eigenvectors[None]),))


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
        # a random complex M, Hermitian only up to round-off: the entries are
        # (M + M^dagger)/2 bit for bit
        rng = np.random.default_rng(11)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        m = g @ g.conj().T + 1e-14 * rng.standard_normal((16, 16))
        assert not np.array_equal(m, m.conj().T)
        h = HermitianOperator(SystemShape([2] * 4), m)
        assert np.array_equal(h.entries, (m + m.conj().T) / 2.0)
        assert np.array_equal(h.entries, h.entries.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            op1(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # refused above 1e-12 max(1, max |M_ij|), at unit scale and at 1e6, and kept below
        for scale in (1.0, 1e6):
            limit = 1e-12 * scale
            with pytest.raises(ValueError, match="not Hermitian"):
                op1(np.array([[scale, 2.0 * limit], [0.0, 0.0]]))
            h = op1(np.array([[scale, 0.5 * limit], [0.0, 0.0]]))
            assert h.entries[0, 1] == h.entries[1, 0] == 0.25 * limit

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

    def test_spectrum_computed_once(self, h_xxx, spectrum_calls):
        h = h_xxx(1.0, 0.5)
        assert eig(h) is eig(h)
        assert len(spectrum_calls) == 1

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


def _magnetization(n):
    """Number of up spins of every computational basis state of n qubits."""
    return np.array([bin(x).count("1") for x in range(2**n)])


class TestSectorEigh:
    """``eig`` on the sector path against one dense LAPACK ``eigh`` of the whole matrix."""

    @staticmethod
    def check(h, n_sectors):
        assert h.dim >= SECTOR_MIN_DIM
        assert len(_sectors(h.entries)) == n_sectors
        # The reference and the residuals work in real arithmetic when H is
        # real, as eig does: a complex eigh at n = 10 takes seconds.
        real = not h.entries.imag.any()
        a = h.entries.real if real else h.entries
        ref_vals, ref_vecs = np.linalg.eigh(a)
        dec = eig(h)
        lam, v = dec.eigenvalues, dec.eigenvectors
        assert v.dtype == np.complex128
        if real:
            assert not v.imag.any()
            v = v.real
        scale = np.abs(ref_vals).max()
        assert np.abs(lam - ref_vals).max() <= 1e-12 * scale
        assert np.abs(a @ v - v * lam).max() <= 1e-12 * scale
        assert np.abs(v.conj().T @ v - np.eye(h.dim)).max() <= 1e-12
        got, ref = dec.levels(), one_block(ref_vals, ref_vecs).levels()
        assert got[1].tolist() == ref[1].tolist()
        assert np.abs(got[0] - ref[0]).max() <= 1e-12 * scale

    @pytest.mark.parametrize("b", [0.0, 0.3, 1.0, 2.5])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
    def test_xxx_chains(self, n, boundary, b):
        """Real arithmetic, one sector per magnetization: n + 1 of them."""
        self.check(build_xxx(XXXParams(1.0, b, n, boundary)), n + 1)

    def test_complex_pauli_file(self):
        """Odd-Y strings (a Dzyaloshinskii-Moriya term) make H complex; it keeps
        the magnetization sectors."""
        n = 6
        h = dm_chain(n)
        assert h.entries.imag.any()
        self.check(h, n + 1)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_dense_random(self, complex_entries):
        rng = np.random.default_rng(16)
        g = rng.standard_normal((128, 128))
        if complex_entries:
            g = g + 1j * rng.standard_normal((128, 128))
        self.check(HermitianOperator(SystemShape([2] * 7), g + g.conj().T), 1)

    def test_entries_that_cancel_to_round_off_merge_the_sectors(self):
        """0.1 + 0.2 - 0.3 leaves 5.6e-17 on every X_0 entry, which joins all
        magnetization sectors into one."""
        n = 6
        flips = [PauliString(c, "X" + "I" * (n - 1)) for c in (0.1, 0.2, -0.3)]
        h = build_pauli(SystemShape([2] * n), _xxx_terms(XXXParams(1.0, 0.3, n, "periodic")) + flips)
        off = np.abs(h.entries[_magnetization(n)[:, None] != _magnetization(n)[None, :]])
        assert 0.0 < off.max() < 1e-16
        self.check(h, 1)

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("b", [0.0, 0.3, 2.5])
    def test_gibbs_and_ground_state_match_the_dense_path(self, b, boundary):
        n = 8
        h = build_xxx(XXXParams(1.0, b, n, boundary))
        lam, v = np.linalg.eigh(h.entries)
        w = np.exp(-(lam - lam[0]) / 0.7)
        rho, _ = gibbs(h, 0.7)
        assert np.abs(rho.entries - (v * (w / w.sum())) @ v.conj().T).max() <= 1e-12
        k = int(one_block(lam, v).levels()[1][0])
        rho0 = ground_state(h)
        assert np.abs(rho0.entries - v[:, :k] @ v[:, :k].conj().T / k).max() <= 1e-12
        # Zero between sectors, exactly: the positivity check per sector is exact.
        m = _magnetization(n)
        assert not rho.entries[m[:, None] != m[None, :]].any()
        assert not rho0.entries[m[:, None] != m[None, :]].any()

    def test_degenerate_ground_level_across_sectors(self):
        """The 7-site ring at B = 0 has a four-fold ground level, two S = 1/2
        doublets in the magnetization sectors 3 and 4; its projector matches
        the dense one."""
        h = build_xxx(XXXParams(1.0, 0.0, 7, "periodic"))
        lam, v = np.linalg.eigh(h.entries)
        k = int(one_block(lam, v).levels()[1][0])
        assert k == 4
        assert np.abs(ground_state(h).entries - v[:, :k] @ v[:, :k].conj().T / k).max() <= 1e-12

    def test_negative_eigenvalue_in_a_small_sector_is_refused(self):
        """A 2x2 sector with eigenvalues 0.01 and -1e-6 between a 1x1 and a 61-dim
        positive one, indices shuffled so the sectors are not contiguous."""
        rng = np.random.default_rng(7)
        g = rng.standard_normal((61, 61)) + 1j * rng.standard_normal((61, 61))
        m = np.zeros((64, 64), dtype=np.complex128)
        m[:61, :61] = g @ g.conj().T
        m[:61, :61] *= (1.0 - 0.015 + 1e-6) / np.trace(m[:61, :61]).real
        a, c = (0.01 - 1e-6) / 2, (0.01 + 1e-6) / 2
        m[61:63, 61:63] = [[a, c], [c, a]]
        m[63, 63] = 0.005
        perm = rng.permutation(64)
        m = m[np.ix_(perm, perm)]
        assert len(_sectors(m)) == 3
        assert abs(np.trace(m).real - 1.0) < 1e-12
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix.from_entries(SystemShape([2] * 6), m)


class TestSectorBlocks:
    """The decomposition kept per sector, and the consumers that read it block by block."""

    @pytest.mark.parametrize("n", [2, 6, 8])
    def test_blocks_partition_rows_and_ranks(self, n, h_xxx):
        """Every basis index and every eigenvalue rank lies in exactly one sector,
        and each block holds the sector's eigenvectors of the sector's eigenvalues."""
        h = h_xxx(1.0, 0.3, n, "periodic")
        dec = eig(h)
        rows = np.concatenate([b.rows.ravel() for b in dec.sectors])
        ranks = np.concatenate([b.ranks.ravel() for b in dec.sectors])
        assert np.array_equal(np.sort(rows), np.arange(h.dim))
        assert np.array_equal(np.sort(ranks), np.arange(h.dim))
        scale = np.abs(dec.eigenvalues).max()
        for b in dec.sectors:
            av = b.take(h.entries) @ b.vectors
            assert np.abs(av - b.vectors * dec.eigenvalues[b.ranks][:, None, :]).max() <= 1e-12 * scale
        expected = 1 if n < 6 else n + 1
        assert sum(len(b.rows) for b in dec.sectors) == expected

    def test_sector_vectors_are_real_for_a_real_matrix(self, h_xxx):
        dec = eig(h_xxx(1.0, 0.3, 8, "periodic"))
        assert all(b.vectors.dtype == np.float64 for b in dec.sectors)
        assert dec.eigenvectors.dtype == np.complex128

    def test_pipeline_never_builds_the_dense_eigenvectors(self, h_xxx, spectrum_calls):
        """gibbs, ground_state, measure_energy and make_witness at n = 8 share one
        decomposition and read its sector blocks only; the d x d eigenvector
        matrix is made on first access."""
        h = h_xxx(1.0, 0.3, 8, "periodic")
        rho, _ = gibbs(h, 1.0)
        measure_energy(h, rho, shots=1000, seed=0)
        measure_energy(h, ground_state(h), shots=10, seed=0)
        make_witness(h, esep_reference(-6.0))
        assert spectrum_calls == [h.dim]
        dec = eig(h)
        assert "eigenvectors" not in dec.__dict__
        v = dec.eigenvectors
        assert dec.__dict__["eigenvectors"] is v
        assert dec.eigenvectors is v


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

    @pytest.mark.parametrize("j", [1e-13, 1.0, 1e3, 1e6, 1e8], ids=["1e-13", "1", "1e3", "1e6", "1e8"])
    def test_imaginary_check_scales_with_the_operator(self, j):
        """Round-off leaves up to 2.3e-9 of imaginary part at J = 1e8 on the 4-site
        ring and valid random states; the check scales with max |H_ij|."""
        h = build_xxx(XXXParams(j, 0.3 * j, 4, "periodic"))
        unit = build_xxx(XXXParams(1.0, 0.3, 4, "periodic"))
        rng = np.random.default_rng(19)
        for _ in range(50):
            rho = DensityMatrix.from_entries(h.shape, random_dm(rng, 16))
            assert expectation(h, rho) / j == pytest.approx(expectation(unit, rho), abs=1e-12)

    def test_imaginary_part_raises_numerical_error(self):
        """A non-Hermitian stand-in for the state gives Tr(I rho) = 1 + 4e-3 i."""
        rho = SimpleNamespace(shape=Q2, entries=np.eye(4) / 4 + 1e-3j * np.eye(4))
        with pytest.raises(NumericalError, match="imaginary part"):
            expectation(HermitianOperator(Q2, np.eye(4)), rho)

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


# one value type holding arrays, built from a fresh H
ARRAY_HOLDERS = {
    "HermitianOperator": lambda h: h,
    "SpectralDecomposition": eig,
    "SepEnergyReport": lambda h: esep_search([h], restarts=4)[0],
    "RobustnessCertificate": lambda h: rg_exact_2q(singlet()),
}


@pytest.mark.parametrize("kind", list(ARRAY_HOLDERS))
def test_array_holding_types_compare_by_identity(kind):
    """== is identity and hash works, where comparing the array fields used to raise."""
    x, y = (ARRAY_HOLDERS[kind](build_xxx(XXXParams(1.0, 0.3))) for _ in "xy")
    assert type(x).__name__ == kind
    assert x == x
    assert not (x == y)
    assert hash(x) == hash(x) and hash(x) != hash(y)
    assert len({x, y}) == 2


def test_witness_spec_compares_by_value():
    """Only numbers define a witness, so equal builds are equal and hash alike."""
    w1, w2 = (make_witness(build_xxx(XXXParams(1.0, 0.3)), esep_reference(-2.0)) for _ in "ab")
    assert w1 == w2
    assert hash(w1) == hash(w2)
