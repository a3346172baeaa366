import numpy as np
import pytest

from enwit import (
    HermitianOperator,
    Partition,
    PauliString,
    ProductStateAnsatz,
    SystemShape,
    XXXParams,
    build_pauli,
    build_xxx,
    eig,
    esep_closed_form_xxx,
    esep_reference,
    esep_search,
    esep_seesaw,
)
from enwit.bloch import (
    NEWTON_TOL,
    _bloch_derivatives,
    _riemannian,
    _states_to_bloch,
    _tangent_bases,
    bloch_search,
    pauli_terms,
)
from enwit.sep_energy import _block_operators, closed_form_ansatz_xxx

from conftest import PAULI, ansatz_energy, full_vector, random_ansatz
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

    def test_counts_agreeing_restarts(self):
        # every restart reaches the minimum of Z1 Z2; under -Z1 Z2 - 0.1 (Z1 + Z2)
        # the pair pointing down (-0.8) is a local minimum above the global -1.2
        zz = np.kron(PAULI["Z"], PAULI["Z"])
        h = HermitianOperator(Q2, zz)
        assert esep_seesaw(h, SINGLETONS, restarts=8, seed=2).restarts_agreeing == 8
        fields = np.kron(PAULI["Z"], PAULI["I"]) + np.kron(PAULI["I"], PAULI["Z"])
        rep = esep_seesaw(HermitianOperator(Q2, -zz - 0.1 * fields), SINGLETONS, restarts=16)
        assert rep.esep == pytest.approx(-1.2, abs=1e-12)
        assert rep.restarts_agreeing == 8

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


class TestPauliTerms:
    def test_recovers_summed_coefficients(self):
        """Repeated strings sum; cancelling and identity strings behave like any other."""
        terms = [
            PauliString(0.5, "XYZ"),
            PauliString(-1.25, "IZI"),
            PauliString(0.75, "XYZ"),
            PauliString(2.0, "III"),
            PauliString(0.3, "YYX"),
            PauliString(-0.3, "YYX"),
            PauliString(1e-3, "ZIY"),
        ]
        h = build_pauli(SystemShape([2, 2, 2]), terms)
        letters, coeffs = pauli_terms([h])
        got = {"".join("IXYZ"[a] for a in row): c for row, c in zip(letters, coeffs[:, 0])}
        assert got.keys() == {"XYZ", "IZI", "III", "ZIY"}
        expected = {"XYZ": 1.25, "IZI": -1.25, "III": 2.0, "ZIY": 1e-3}
        for key, c in expected.items():
            assert got[key] == pytest.approx(c, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_build_pauli_rebuilds_random_operators(self, n):
        rng = np.random.default_rng(30 + n)
        shape = SystemShape([2] * n)
        h = HermitianOperator(shape, random_hermitian(rng, shape.total_dim))
        letters, coeffs = pauli_terms([h])
        terms = [
            PauliString(c, "".join("IXYZ"[a] for a in row)) for row, c in zip(letters, coeffs[:, 0])
        ]
        assert np.abs(build_pauli(shape, terms).entries - h.entries).max() < 1e-12


class TestBlochSearch:
    @pytest.mark.parametrize("seed", [0, 1, 90])
    def test_two_site_field_grid(self, seed):
        """The 41 fields of the figure grid: within 1e-11 of the closed form, certified.

        With seed 90 the best restart at B = 0.65 takes a last Newton step whose
        energy decrease is below round-off; Armijo without its round-off slack
        refuses it and leaves the gradient above the tolerance."""
        for b in np.linspace(0.0, 2.0, 41):
            p = XXXParams(1.0, float(b))
            rep = esep_seesaw(build_xxx(p), SINGLETONS, restarts=32, seed=seed)
            assert abs(rep.esep - esep_closed_form_xxx(p)) < 1e-11, b
            assert rep.converged, b

    def test_certificate_numbers(self, h_xxx):
        """The best restart's gradient norm and smallest Hessian eigenvalue back `converged`."""
        rep = esep_seesaw(h_xxx(1.0, 0.5), SINGLETONS, restarts=8, seed=4)
        tol = NEWTON_TOL * (3.0 + 2 * 0.5)  # sum of |c_k| over XX, YY, ZZ, ZI, IZ
        assert rep.converged
        assert 0.0 <= rep.gradient_norm <= tol
        assert rep.hessian_min >= -tol
        assert ansatz_energy(h_xxx(1.0, 0.5), rep.minimizer) == pytest.approx(rep.esep, abs=1e-14)

    def test_derivatives_match_the_dense_energy(self):
        """Energy against <psi|H|psi>; gradient and Hessian against central differences,
        which are exact up to round-off because the energy is multilinear."""
        rng = np.random.default_rng(32)
        shape = SystemShape([2, 2, 2])
        h = HermitianOperator(shape, random_hermitian(rng, 8))
        letters, table = pauli_terms([h])
        coeffs = table[:, [0, 0]]  # one coefficient column per row
        onehot = (letters[..., None] == np.arange(1, 4)).astype(float)
        states = [random_unit_rows(rng, 2) for _ in range(3)]
        v = np.ones((2, 3, 4))
        v[..., 1:] = np.stack([_states_to_bloch(s) for s in states], axis=1)
        energy, grad, hess = _bloch_derivatives(v, letters, coeffs, onehot)
        part = Partition.singletons(3)
        for r in range(2):
            dense = ansatz_energy(h, ProductStateAnsatz(part, [s[r] for s in states]))
            assert energy[r] == pytest.approx(dense, abs=1e-12)

        def e(*moves):  # energy with v[:, i, 1 + a] shifted by s for each (i, a, s)
            w = v.copy()
            for i, a, s in moves:
                w[:, i, 1 + a] += s
            return _bloch_derivatives(w, letters, coeffs, onehot)[0]

        for i, a in np.ndindex(3, 3):
            assert np.abs(grad[:, i, a] - (e((i, a, 0.5)) - e((i, a, -0.5)))).max() < 1e-12
            for j, b in np.ndindex(3, 3):
                if i == j:
                    assert (hess[:, i, a, j, b] == 0.0).all()
                    continue
                fd = sum(
                    sa * sb * e((i, a, 0.5 * sa), (j, b, 0.5 * sb))
                    for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))
                )
                assert np.abs(hess[:, i, a, j, b] - fd).max() < 1e-12

    def test_reduced_hessian_against_one_contraction(self):
        """The two-step contraction B^T H B equals the three-operand einsum it replaced."""
        rng = np.random.default_rng(33)
        rows, n = 5, 4
        r = rng.standard_normal((rows, n, 3))
        r /= np.linalg.norm(r, axis=-1, keepdims=True)
        grad = rng.standard_normal((rows, n, 3))
        hess = rng.standard_normal((rows, n, 3, n, 3))
        bases = _tangent_bases(r)
        _, h = _riemannian(r, grad, hess, bases)
        ref = np.einsum("rixa,rixjy,rjyb->riajb", bases, hess, bases)
        shift = np.einsum("rix,rix->ri", r, grad)
        ref[:, range(n), :, range(n), :] -= shift.T[:, :, None, None] * np.eye(2)
        ref = ref.reshape(rows, 2 * n, 2 * n)
        assert np.abs(h - (ref + ref.transpose(0, 2, 1)) / 2.0).max() < 1e-13

    def test_saddle_is_not_certified(self, h_xxx):
        """Both spins down is a stationary point of s1.s2 + 1.5 (sz1 + sz2) that no
        single-site move improves, but canting the pair lowers the energy: a saddle.
        Started exactly there, the search stays (zero gradient) and must not certify it."""
        down = np.tile([0.0, 1.0 + 0j], (1, 1))
        states, gnorm, hmin, converged = bloch_search([h_xxx(1.0, 1.5)], [0, 1], [down, down])
        assert gnorm[0] == 0.0
        # canting both spins by theta the opposite way: E'' = 2B - 4 along |xi|^2 = 2
        assert hmin[0] == pytest.approx(1.5 - 2.0, abs=1e-12)
        assert not converged[0]
        assert all(abs(abs(s[0, 1]) - 1.0) < 1e-15 for s in states)

    def test_dense_path_has_no_certificate_numbers(self):
        shape = SystemShape([2, 2, 2])
        h = HermitianOperator(shape, random_hermitian(np.random.default_rng(31), 8))
        rep = esep_seesaw(h, Partition([[0, 1], [2]]), restarts=4, seed=0)
        assert rep.gradient_norm is None and rep.hessian_min is None

    def test_untouched_site_keeps_its_start(self):
        """No term acts on site 2 of ZZI, so its effective operator is a multiple of I."""
        shape = SystemShape([2, 2, 2])
        part = Partition.singletons(3)
        h = build_pauli(shape, [PauliString(1.0, "ZZI")])
        rep = esep_seesaw(h, part, restarts=1, seed=7)
        assert rep.esep == pytest.approx(-1.0, abs=1e-12)
        assert rep.converged
        assert all(np.isfinite(v).all() for v in rep.minimizer.block_states)
        start = random_ansatz(shape, part, np.random.default_rng([7, 0])).block_states[2]
        overlap = abs(np.vdot(start, rep.minimizer.block_states[2]))
        assert overlap == pytest.approx(1.0, abs=1e-12)


class TestStackedSearch:
    """One search over a list of Hamiltonians gives each the report of its own search."""

    @staticmethod
    def assert_matches_single_searches(hs, part, restarts, seed, exact):
        for h, rep, value in zip(hs, esep_search(hs, part, restarts=restarts, seed=seed), exact):
            alone = esep_seesaw(h, part, restarts=restarts, seed=seed)
            assert abs(rep.esep - alone.esep) < 1e-12
            assert abs(rep.esep - value) < 1e-11
            assert rep.restarts_agreeing == alone.restarts_agreeing
            assert rep.converged == alone.converged

    @pytest.mark.parametrize("seed", [0, 1, 90])
    def test_two_site_field_grid(self, seed):
        params = [XXXParams(1.0, float(b)) for b in np.linspace(0.0, 2.0, 41)]
        hs = [build_xxx(p) for p in params]
        exact = [esep_closed_form_xxx(p) for p in params]
        self.assert_matches_single_searches(hs, SINGLETONS, 32, seed, exact)

    @pytest.mark.parametrize("n", [4, 6])
    def test_ring_fields(self, h_xxx, n):
        fields = [0.05, 0.3, 5.0]
        hs = [h_xxx(1.0, b, n, "periodic") for b in fields]
        exact = [-n - n * b * b / 8 if b <= 4 else n - n * b for b in fields]
        self.assert_matches_single_searches(hs, Partition.singletons(n), 8, 0, exact)

    def test_each_field_keeps_its_own_tolerance(self, h_xxx):
        """Both spins down is stationary, with smallest Hessian eigenvalue B - 2, and the
        tolerance of s1.s2 + B (sz1 + sz2) is NEWTON_TOL (3 + 2B): about 7e-9 near B = 2,
        3e-9 at B = 0 and 1.1e-8 at B = 4.  So B = 2 - 5e-9 is certified and B = 2 - 8e-9
        is not, which a tolerance shared with the B = 0 or the B = 4 field would swap."""
        fields = [0.0, 2.0 - 8e-9, 2.0 - 5e-9, 4.0]
        hs = [h_xxx(1.0, b) for b in fields]
        down = np.tile([0.0, 1.0 + 0j], (len(fields), 1))
        _, gnorm, hmin, converged = bloch_search(hs, [0, 1], [down, down])
        assert hmin[1:3] == pytest.approx([-8e-9, -5e-9], abs=1e-12)
        assert list(converged[1:]) == [False, True, True]
        for j, h in enumerate(hs):
            one = down[j : j + 1]
            _, gnorm_alone, hmin_alone, converged_alone = bloch_search([h], [0, 1], [one, one])
            assert gnorm[j] == pytest.approx(gnorm_alone[0], abs=1e-14)
            assert hmin[j] == pytest.approx(hmin_alone[0], abs=1e-14)
            assert converged[j] == converged_alone[0]
        for b, rep in zip(fields, esep_search(hs, SINGLETONS, restarts=8, seed=3)):
            assert rep.converged
            assert rep.gradient_norm <= NEWTON_TOL * (3.0 + 2.0 * b)

    def test_block_seesaw_runs_each_hamiltonian(self):
        rng = np.random.default_rng(33)
        shape = SystemShape([2, 2, 2])
        hs = [HermitianOperator(shape, random_hermitian(rng, 8)) for _ in range(2)]
        part = Partition([[0, 1], [2]])
        for h, rep in zip(hs, esep_search(hs, part, restarts=4, seed=0)):
            alone = esep_seesaw(h, part, restarts=4, seed=0)
            assert rep.esep == alone.esep
            assert rep.restarts_agreeing == alone.restarts_agreeing

    def test_refuses_mixed_shapes(self, h_xxx):
        with pytest.raises(ValueError, match="Hamiltonians of one shape"):
            esep_search([h_xxx(1.0, 0.0), h_xxx(1.0, 0.0, 4)], SINGLETONS)


class TestRing:
    @pytest.mark.parametrize(
        "n,b",
        [(4, 0.3), (4, 3.0), (4, 5.0), (6, 0.3), (6, 1.0), (4, 0.05), (6, 0.05), (8, 0.05)],
    )
    def test_matches_canted_neel_closed_form(self, h_xxx, n, b):
        """Even periodic XXX ring: a canted Neel product state below |B| = 4J,
        the field-polarized state above it."""
        j = 1.0
        expected = -n * j - n * b * b / (8 * j) if abs(b) <= 4 * j else n * j - n * abs(b)
        rep = esep_seesaw(h_xxx(j, b, n, "periodic"), Partition.singletons(n), restarts=8)
        assert abs(rep.esep - expected) < 1e-11
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
        assert rep.restarts_agreeing == 0

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
