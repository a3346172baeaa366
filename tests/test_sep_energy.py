import numpy as np
import pytest

from enwit import (
    HermitianOperator,
    Partition,
    ProductStateAnsatz,
    SystemShape,
    XXXParams,
    ansatz_energy,
    build_xxx,
    eig,
    esep_closed_form_xxx,
    esep_reference,
    esep_seesaw,
)
from enwit.hamiltonians import PAULI
from enwit.sep_energy import (
    _block_operators,
    _qubit_ground,
    closed_form_ansatz_xxx,
    full_vector,
    random_ansatz,
)

from grid_oracle import esep_grid

Q2 = SystemShape([2, 2])
SINGLETONS = Partition.singletons(2)


class TestPartition:
    def test_needs_two_blocks(self):
        with pytest.raises(ValueError):
            Partition([[0, 1]])

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition([[0, 1], [1]])

    def test_coverage_check(self):
        with pytest.raises(ValueError):
            Partition([[0], [2]]).validate_for(Q2)

    def test_block_dims(self):
        part = Partition([[0, 2], [1]])
        assert part.block_dims(SystemShape([2, 3, 2])) == [4, 3]


class TestProductStateAnsatz:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ProductStateAnsatz(SINGLETONS, [np.array([1.0, 1.0]), np.array([1.0, 0.0])])

    def test_full_vector_interleaved_blocks(self):
        part = Partition([[0, 2], [1]])
        shape = SystemShape([2, 2, 2])
        pair = np.zeros(4, dtype=complex)
        pair[3] = 1.0  # |1>_0 |1>_2
        mid = np.array([1.0, 0.0], dtype=complex)  # |0>_1
        v = full_vector(shape, ProductStateAnsatz(part, [pair, mid]))
        expected = np.zeros(8)
        expected[0b101] = 1.0
        assert np.abs(v - expected).max() < 1e-12


class TestSeesaw:
    def test_field_free_minimum(self, h_xxx):
        rep = esep_seesaw(h_xxx(), SINGLETONS, restarts=16, seed=0)
        assert rep.esep == pytest.approx(-1.0, abs=1e-8)
        assert rep.source == "exact-optimized"
        assert rep.converged
        assert ansatz_energy(h_xxx(), rep.minimizer) == pytest.approx(rep.esep, abs=1e-8)

    def test_matches_closed_form_at_unit_field(self, h_xxx):
        rep = esep_seesaw(h_xxx(1.0, 1.0), SINGLETONS, restarts=32, seed=1)
        assert rep.esep == pytest.approx(-1.5, abs=1e-7)

    def test_zz_product_minimum(self):
        h = HermitianOperator(Q2, np.kron(PAULI["Z"], PAULI["Z"]))
        rep = esep_seesaw(h, SINGLETONS, restarts=8, seed=2)
        assert rep.esep == pytest.approx(-1.0, abs=1e-10)

    def test_never_below_ground_energy(self, h_xxx):
        for b in (0.0, 0.9, 2.5):
            h = h_xxx(1.0, b)
            rep = esep_seesaw(h, SINGLETONS, restarts=8, seed=3)
            assert rep.esep >= eig(h).e_min - 1e-9

    def test_requires_restart(self, h_xxx):
        with pytest.raises(ValueError):
            esep_seesaw(h_xxx(), SINGLETONS, restarts=0)

    def test_deterministic_given_seed(self, h_xxx):
        a = esep_seesaw(h_xxx(1.0, 0.4), SINGLETONS, restarts=6, seed=9)
        b = esep_seesaw(h_xxx(1.0, 0.4), SINGLETONS, restarts=6, seed=9)
        assert a.esep == b.esep
        for u, v in zip(a.minimizer.block_states, b.minimizer.block_states):
            assert np.array_equal(u, v)

    def test_product_states_never_beat_seesaw(self, h_xxx):
        h = h_xxx(1.0, 0.5)
        rep = esep_seesaw(h, SINGLETONS, restarts=32, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(1000):
            sigma = random_ansatz(Q2, SINGLETONS, rng)
            assert ansatz_energy(h, sigma) >= rep.esep - 1e-9


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_unit_rows(rng, size):
    z = rng.standard_normal((size, 2)) + 1j * rng.standard_normal((size, 2))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestBlockOperators:
    @pytest.mark.parametrize(
        "dims,blocks",
        [
            ([2, 2, 2], [[0, 2], [1]]),
            ([2, 2, 2, 2], [[1], [0, 2, 3]]),
            ([3, 2], [[0], [1]]),
        ],
        ids=["three_qubits", "four_qubits", "qutrit_qubit"],
    )
    def test_matches_full_vector_reference(self, dims, blocks):
        """Each row r gives <psi_rest_r a|H|psi_rest_r b>, with psi_rest_r ⊗ a
        assembled in site order by full_vector."""
        rng = np.random.default_rng(21)
        shape = SystemShape(dims)
        part = Partition(blocks)
        h = HermitianOperator(shape, random_hermitian(rng, shape.total_dim))
        ansatze = [random_ansatz(shape, part, rng) for _ in range(3)]
        states = [np.stack([a.block_states[bi] for a in ansatze]) for bi in range(len(blocks))]
        for which, d in enumerate(part.block_dims(shape)):
            m = _block_operators(h, part, states, which)
            assert m.shape == (len(ansatze), d, d)
            for r, ansatz in enumerate(ansatze):
                basis = []
                for k in range(d):
                    block_states = list(ansatz.block_states)
                    block_states[which] = np.eye(d)[k]
                    basis.append(full_vector(shape, ProductStateAnsatz(part, block_states)))
                basis = np.stack(basis, axis=1)
                expected = basis.conj().T @ h.entries @ basis
                assert np.abs(m[r] - expected).max() < 1e-12

    def test_qutrit_qubit_seesaw(self):
        rng = np.random.default_rng(22)
        shape = SystemShape([3, 2])
        h = HermitianOperator(shape, random_hermitian(rng, 6))
        part = Partition.singletons(2)
        rep = esep_seesaw(h, part, restarts=16, seed=3)
        assert ansatz_energy(h, rep.minimizer) == pytest.approx(rep.esep, abs=1e-10)
        assert rep.esep <= esep_grid(h, part, 16) + 1e-9


class TestQubitGround:
    def check(self, m, prev):
        vals, vecs = _qubit_ground(m, prev)
        ref_vals, ref_vecs = np.linalg.eigh(m)
        assert np.abs(vals - ref_vals[:, 0]).max() < 1e-12
        assert np.abs(np.linalg.norm(vecs, axis=1) - 1.0).max() < 1e-14
        overlap = np.abs(np.einsum("ra,ra->r", ref_vecs[:, :, 0].conj(), vecs))
        assert np.abs(overlap - 1.0).max() < 1e-12

    def test_matches_eigh_on_random_stacks(self):
        rng = np.random.default_rng(23)
        for size in (1, 8, 32):
            g = rng.standard_normal((size, 2, 2)) + 1j * rng.standard_normal((size, 2, 2))
            m = (g + g.conj().transpose(0, 2, 1)) / 2
            prev = random_unit_rows(rng, size)
            self.check(m, prev)

    def test_edge_cases(self):
        m = np.array(
            [
                [[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]],  # p = s, q != 0
                [[-0.5, 0.0], [0.0, 0.7]],  # diagonal, p < s
                [[0.7, 0.0], [0.0, -0.5]],  # diagonal, p > s
                [[1.0, 1e-9j], [-1e-9j, 1.0 + 1e-12]],  # nearly degenerate
            ],
            dtype=np.complex128,
        )
        self.check(m, random_unit_rows(np.random.default_rng(24), len(m)))

    def test_identity_keeps_previous_state(self):
        m = np.stack([0.4 * np.eye(2), -2.0 * np.eye(2)]).astype(np.complex128)
        prev = random_unit_rows(np.random.default_rng(25), 2)
        vals, vecs = _qubit_ground(m, prev)
        assert np.array_equal(vals, [0.4, -2.0])
        assert np.array_equal(vecs, prev)


class TestRing:
    @pytest.mark.parametrize("n,b", [(4, 0.3), (4, 3.0), (4, 5.0), (6, 0.3), (6, 1.0)])
    def test_matches_canted_neel_closed_form(self, h_xxx, n, b):
        """Even periodic XXX ring: a canted Neel product state below |B| = 4J,
        the field-polarized state above it."""
        j = 1.0
        expected = -n * j - n * b * b / (8 * j) if abs(b) <= 4 * j else n * j - n * abs(b)
        rep = esep_seesaw(h_xxx(j, b, n, "periodic"), Partition.singletons(n), restarts=8)
        assert abs(rep.esep - expected) < 1e-9
        assert rep.converged


class TestGrid:
    def test_field_free_value(self, h_xxx):
        assert esep_grid(h_xxx(), SINGLETONS, 64) == pytest.approx(-1.0, abs=2e-3)

    def test_constant_operator(self):
        h = HermitianOperator(Q2, np.eye(4))
        assert esep_grid(h, SINGLETONS, 16) == pytest.approx(1.0, abs=1e-12)

    def test_nested_grid_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = HermitianOperator(Q2, (g + g.conj().T) / 2)
            coarse = esep_grid(h, SINGLETONS, 16)
            fine = esep_grid(h, SINGLETONS, 128)
            assert fine <= coarse + 1e-12

    def test_rejects_small_resolution(self, h_xxx):
        with pytest.raises(ValueError):
            esep_grid(h_xxx(), SINGLETONS, 4)

    def test_rejects_large_blocks(self):
        shape = SystemShape([2, 2, 2, 2])
        h = HermitianOperator(shape, np.eye(16))
        with pytest.raises(ValueError):
            esep_grid(h, Partition([[0, 1, 2], [3]]), 8)

    def test_three_blocks(self):
        shape = SystemShape([2, 2, 2])
        zzz = np.kron(np.kron(PAULI["Z"], PAULI["Z"]), PAULI["Z"])
        h = HermitianOperator(shape, zzz)
        val = esep_grid(h, Partition.singletons(3), 8)
        assert val == pytest.approx(-1.0, abs=1e-9)

    def test_seesaw_at_least_as_good_as_grid(self, h_xxx):
        for b in (0.0, 0.8, 1.7):
            h = h_xxx(1.0, b)
            see = esep_seesaw(h, SINGLETONS, restarts=32, seed=8).esep
            grid = esep_grid(h, SINGLETONS, 32)
            assert see <= grid + 1e-9


class TestClosedForm:
    @pytest.mark.parametrize(
        "b,expected",
        [(0.0, -1.0), (1.0, -1.5), (2.0, -3.0), (3.0, -5.0), (-3.0, -5.0)],
    )
    def test_values(self, b, expected):
        assert esep_closed_form_xxx(XXXParams(1.0, b)) == pytest.approx(expected, abs=1e-12)

    def test_branch_continuity(self):
        inner = -1.0 - 2.0**2 / 2.0
        outer = 1.0 - 2.0 * 2.0
        assert inner == outer == esep_closed_form_xxx(XXXParams(1.0, 2.0))

    def test_rejects_chains(self):
        with pytest.raises(ValueError):
            esep_closed_form_xxx(XXXParams(1.0, 0.0, n_sites=3))

    def test_ansatz_attains_value(self):
        for b in (0.0, 0.5, 1.9, 2.5, -2.5):
            p = XXXParams(1.0, b)
            h = build_xxx(p)
            energy = ansatz_energy(h, closed_form_ansatz_xxx(p))
            assert energy == pytest.approx(esep_closed_form_xxx(p), abs=1e-12)


class TestReference:
    def test_passthrough(self):
        rep = esep_reference(-2.0)
        assert rep.esep == -2.0
        assert rep.source == "user-supplied"
        assert rep.minimizer is None

    def test_vacuous_value_detects_nothing(self, h_xxx):
        from enwit import make_witness, robustness_lower_bound

        w = make_witness(h_xxx(), esep_reference(-1e6))
        report = robustness_lower_bound(w, -3.0)
        assert report.bound <= 0.0
        assert not report.detected


class TestPartitionRefinement:
    def test_refining_never_decreases_minimum(self):
        rng = np.random.default_rng(11)
        shape = SystemShape([2, 2, 2])
        coarse = Partition([[0, 1], [2]])
        fine = Partition.singletons(3)
        for _ in range(5):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            h = HermitianOperator(shape, (g + g.conj().T) / 2)
            e_coarse = esep_seesaw(h, coarse, restarts=24, seed=12).esep
            e_fine = esep_seesaw(h, fine, restarts=24, seed=12).esep
            assert e_fine >= e_coarse - 1e-9
