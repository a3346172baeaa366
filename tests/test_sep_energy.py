import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from enwit import (
    HermitianOperator,
    NumericalError,
    Partition,
    PauliString,
    SystemShape,
    XXXParams,
    build_pauli,
    build_xxx,
    eig,
    esep_closed_form_xxx,
    esep_reference,
    esep_search,
    esep_seesaw,
    parse_pauli_terms,
)
from enwit import bloch
from enwit.bloch import (
    NEWTON_TOL,
    _bloch_derivatives,
    _riemannian,
    _states_to_bloch,
    _tangent_bases,
    bloch_search,
    pauli_terms,
)
from enwit.states import bloch_angles

from conftest import PAULI, _bloch_to_states, ansatz_energy, block_dims, dm_chain, random_ansatz
from grid_oracle import esep_grid

Q2 = SystemShape([2, 2])
SINGLETONS = Partition.singletons(2)
PAIR = [[0], [1]]  # the grid oracle's blocks of two qubits


class TestPartition:
    """The grid oracle's blocks: two or more, holding every site once."""

    def test_needs_two_blocks(self):
        with pytest.raises(ValueError, match="at least 2 blocks"):
            esep_grid(HermitianOperator(Q2, np.eye(4)), [[0, 1]], 8)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="once"):
            esep_grid(HermitianOperator(Q2, np.eye(4)), [[0, 1], [1]], 8)

    def test_coverage_check(self):
        with pytest.raises(ValueError, match="once"):
            esep_grid(HermitianOperator(Q2, np.eye(4)), [[0], [2]], 8)

    def test_block_dims(self):
        assert block_dims([[0, 2], [1]], SystemShape([2, 3, 2])) == [4, 3]


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
        assert np.array_equal(a.minimizer, b.minimizer)

    def test_product_states_never_beat_seesaw(self, h_xxx):
        h = h_xxx(1.0, 0.5)
        rep = esep_seesaw(h, SINGLETONS, restarts=32, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(1000):
            sigma = random_ansatz(2, rng)
            assert ansatz_energy(h, sigma) >= rep.esep - 1e-9


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_unit_rows(rng, size):
    z = rng.standard_normal((size, 2)) + 1j * rng.standard_normal((size, 2))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _random_pauli_operator(n):
    """A random Hermitian matrix on n qubits, and build_pauli of its 4^n strings."""
    rng = np.random.default_rng(30 + n)
    shape = SystemShape([2] * n)
    h = HermitianOperator(shape, random_hermitian(rng, shape.total_dim))
    letters, coeffs = pauli_terms([h])
    terms = [
        PauliString(c, "".join("IXYZ"[a] for a in row)) for row, c in zip(letters, coeffs[:, 0])
    ]
    return h, build_pauli(shape, terms)


def _pauli_operator(*lines):
    """build_pauli of '<coef> <letters>' lines."""
    n = len(lines[0].split()[1])
    return build_pauli(SystemShape([2] * n), parse_pauli_terms("\n".join(lines)))


STRING_CASES = {
    "random-2": lambda: [_random_pauli_operator(2)[1]],
    "random-3": lambda: [_random_pauli_operator(3)[1]],
    "random-4": lambda: [_random_pauli_operator(4)[1]],
    "duplicate": lambda: [
        _pauli_operator("0.5 XYZ", "-1.25 IZI", "0.75 XYZ", "0.3 YYX", "-0.3 YYX")
    ],
    "identity": lambda: [_pauli_operator("2.0 III", "1.0 ZZI", "-0.5 IXX")],
    "xxx-b0": lambda: [build_xxx(XXXParams(1.0, 0.0, 4, "periodic"))],
    "complex-chain": lambda: [dm_chain(4)],
    "field-grid": lambda: [build_xxx(XXXParams(1.0, float(b))) for b in np.linspace(0.0, 2.0, 41)],
}


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
        h, rebuilt = _random_pauli_operator(n)
        assert np.abs(rebuilt.entries - h.entries).max() < 1e-12

    @pytest.mark.parametrize("case", sorted(STRING_CASES))
    def test_strings_give_the_dense_table(self, case):
        """From build_pauli's strings: the dense transform's letters, in its order, and
        each H's coefficients within 1e-15 times its sum of |c|."""
        hs = STRING_CASES[case]()
        letters, table = pauli_terms(hs)
        stripped = [HermitianOperator(h.shape, h.entries) for h in hs]  # no strings: dense path
        dense_letters, dense_table = pauli_terms(stripped)
        assert np.array_equal(letters, dense_letters)
        scale = np.array([sum(abs(t.coefficient) for t in h.terms) for h in hs])
        assert (np.abs(table - dense_table) <= 1e-15 * scale).all()

    def test_mixed_list_takes_each_column_from_its_source(self, monkeypatch):
        """The strings of an operator that has them, the dense transform of one without:
        each column has the bits of that operator's table alone."""
        built = _pauli_operator("0.1 XYZ", "0.2 XYZ", "-1.25 IZI", "0.5 ZZX")
        dense = HermitianOperator(built.shape, _pauli_operator("0.3 XYZ", "0.7 YII").entries)
        alone = [pauli_terms([h]) for h in (built, dense)]
        transformed = []
        real = bloch._dense_pauli_coefficients
        monkeypatch.setattr(
            bloch, "_dense_pauli_coefficients", lambda h: transformed.append(h) or real(h)
        )
        letters, table = pauli_terms([built, dense])
        assert transformed == [dense]
        for column, (own_letters, own_table) in zip(table.T, alone):
            got = {tuple(row): c for row, c in zip(letters.tolist(), column) if c != 0.0}
            assert got == dict(zip(map(tuple, own_letters.tolist()), own_table[:, 0]))

    def test_search_on_build_pauli_operators_skips_the_dense_transform(self, monkeypatch):
        def refuse(h):
            raise AssertionError("the dense Pauli transform ran")

        monkeypatch.setattr(bloch, "_dense_pauli_coefficients", refuse)
        fields = [build_xxx(XXXParams(1.0, b)) for b in (0.0, 0.5, 3.0)]
        esep_search(fields, restarts=4, seed=0)
        esep_seesaw(build_xxx(XXXParams(1.0, 0.3, 6, "periodic")), Partition.singletons(6), 4)
        esep_seesaw(dm_chain(4), Partition.singletons(4), restarts=4)
        # an operator without strings still takes the dense transform
        with pytest.raises(AssertionError, match="dense Pauli transform"):
            esep_seesaw(HermitianOperator(Q2, fields[0].entries), SINGLETONS, restarts=4)

    def test_strings_allocate_no_4n_array(self):
        """At n = 10 one byte per string would be 1 MiB; the dense transform takes more."""
        h = build_xxx(XXXParams(1.0, 0.3, 10, "periodic"))
        peaks = []
        for op in (h, HermitianOperator(h.shape, h.entries)):
            tracemalloc.start()
            pauli_terms([op])
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[0] < 4**10 < 8 * 4**10 < peaks[1]


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
            assert abs(rep.esep - esep_closed_form_xxx(p).esep) < 1e-11, b
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
        for r in range(2):
            dense = ansatz_energy(h, v[r, :, 1:])
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
        down = np.tile([0.0, 0.0, -1.0], (1, 2, 1))
        r, energy, gnorm, hmin, converged, _ = bloch_search([h_xxx(1.0, 1.5)], down)
        assert energy[0] == pytest.approx(1.0 - 2.0 * 1.5, abs=1e-14)  # zz + 1.5 (-1 - 1)
        assert gnorm[0] == 0.0
        # canting both spins by theta the opposite way: E'' = 2B - 4 along |xi|^2 = 2
        assert hmin[0] == pytest.approx(1.5 - 2.0, abs=1e-12)
        assert not converged[0]
        assert np.abs(r - down).max() < 1e-15

    def test_rising_energy_raises(self, h_xxx, monkeypatch):
        """A negative round-off slack makes every sweep look like a rise; the check
        survives ``python -O`` because it raises, not asserts."""
        import enwit.bloch

        monkeypatch.setattr(enwit.bloch, "_ROUNDOFF", -1.0)
        with pytest.raises(NumericalError, match="raised the product-state energy"):
            esep_seesaw(h_xxx(1.0, 0.5), SINGLETONS, restarts=4, seed=0)

    def test_untouched_site_keeps_its_start(self):
        """No term acts on site 2 of ZZI, so its effective operator is a multiple of I."""
        shape = SystemShape([2, 2, 2])
        h = build_pauli(shape, [PauliString(1.0, "ZZI")])
        rep = esep_seesaw(h, Partition.singletons(3), restarts=1, seed=7)
        assert rep.esep == pytest.approx(-1.0, abs=1e-12)
        assert rep.converged
        assert np.isfinite(rep.minimizer).all()
        start = random_ansatz(3, np.random.default_rng([7, 0]))[2]
        assert float(start @ rep.minimizer[2]) == pytest.approx(1.0, abs=1e-12)


class TestStackedSearch:
    """One search over a list of Hamiltonians gives each the report of its own search."""

    @staticmethod
    def assert_matches_single_searches(hs, part, restarts, seed, exact):
        for h, rep, value in zip(hs, esep_search(hs, restarts=restarts, seed=seed), exact):
            alone = esep_seesaw(h, part, restarts=restarts, seed=seed)
            assert abs(rep.esep - alone.esep) < 1e-12
            assert abs(rep.esep - ansatz_energy(h, rep.minimizer)) < 1e-12
            assert abs(rep.esep - value) < 1e-11
            assert rep.restarts_agreeing == alone.restarts_agreeing
            assert rep.converged == alone.converged

    @pytest.mark.parametrize("seed", [0, 1, 90])
    def test_two_site_field_grid(self, seed):
        params = [XXXParams(1.0, float(b)) for b in np.linspace(0.0, 2.0, 41)]
        hs = [build_xxx(p) for p in params]
        exact = [esep_closed_form_xxx(p).esep for p in params]
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
        down = np.tile([0.0, 0.0, -1.0], (len(fields), 2, 1))
        _, _, gnorm, hmin, converged, _ = bloch_search(hs, down)
        assert hmin[1:3] == pytest.approx([-8e-9, -5e-9], abs=1e-12)
        assert list(converged[1:]) == [False, True, True]
        for j, h in enumerate(hs):
            one = down[j : j + 1]
            _, _, gnorm_alone, hmin_alone, converged_alone, _ = bloch_search([h], one)
            assert gnorm[j] == pytest.approx(gnorm_alone[0], abs=1e-14)
            assert hmin[j] == pytest.approx(hmin_alone[0], abs=1e-14)
            assert converged[j] == converged_alone[0]
        for b, rep in zip(fields, esep_search(hs, restarts=8, seed=3)):
            assert rep.converged
            assert rep.gradient_norm <= NEWTON_TOL * (3.0 + 2.0 * b)

    def test_refuses_mixed_shapes(self, h_xxx):
        with pytest.raises(ValueError, match="Hamiltonians of one shape"):
            esep_search([h_xxx(1.0, 0.0), h_xxx(1.0, 0.0, 4)])

    @pytest.mark.parametrize(
        "dims, part",
        [([2, 2, 2], Partition([[0, 1], [2]])), ([3, 2], Partition.singletons(2))],
        ids=["multi_site_block", "qutrit_site"],
    )
    def test_refuses_all_but_one_qubit_per_block(self, dims, part):
        shape = SystemShape(dims)
        h = HermitianOperator(shape, np.eye(shape.total_dim))
        with pytest.raises(ValueError, match="one qubit per block"):
            esep_seesaw(h, part)


def search_digest(reports):
    """sha256 of each report's esep, restarts_agreeing, converged, gradient_norm,
    hessian_min (floats as hex) and the bytes of its minimizer's qubit states, in order."""
    h = hashlib.sha256()
    for r in reports:
        h.update(
            f"{r.esep.hex()} {r.restarts_agreeing} {r.converged} "
            f"{r.gradient_norm.hex()} {r.hessian_min.hex()}".encode()
        )
        h.update(_bloch_to_states(r.minimizer).tobytes())
    return h.hexdigest()


class TestSearchQuality:
    """On 200 seeded random 3-qubit Hamiltonians of 8 Pauli strings each, the
    8-restart search misses E_sep no more often, and agrees across restarts no
    less, than the search whose numbers are recorded here (mean-field sweeps
    until round-off, then SVD Newton steps)."""

    # E_sep of each Hamiltonian from that search with 256 restarts, seed 0
    REFERENCE = (
        -4.573069636803678, -3.3420799447166525, -3.3720598403002024, -3.6325134962364816,
        -2.963422635067491, -1.9017495746137087, -2.240826528139262, -2.180393949811181,
        -2.3872713358967896, -4.093631812840187, -2.870412985032669, -5.105461802496233,
        -4.44818315841163, -4.020562843261413, -4.872510996162254, -2.186088299101694,
        -2.6434110648592677, -2.6076166928630857, -1.940966485461434, -2.725292950742989,
        -4.6560989695750905, -3.3684567288746807, -3.1369228230543933, -3.1685808522551504,
        -1.970849927025533, -2.7154010622981977, -2.1274673826109685, -3.051302148156488,
        -2.7724248140649053, -2.9214871713970374, -2.0810001111673033, -2.630376893124791,
        -3.4126611622451315, -4.256392321398217, -2.1743340364773123, -3.1292005212584524,
        -4.029496867484847, -3.6161792800660146, -4.343259887786455, -4.720614173308996,
        -4.291538539602706, -2.987713764511242, -2.72672184502017, -1.8075927814680317,
        -3.923635939059636, -3.2774410570271146, -3.5251894118334715, -2.0484682763532125,
        -2.798073997227114, -2.0788314591722665, -3.2029978421466456, -1.820491063400188,
        -3.980964141956855, -3.62231127369527, -3.388499363603939, -4.256692930907927,
        -3.130604555023691, -2.779017588154061, -2.529913651563303, -4.86461492595141,
        -2.2586616790427825, -2.499992320240212, -3.131415004739, -2.91831944221068,
        -2.751004518070604, -3.1949223260871307, -2.1613299539919555, -2.586203712047939,
        -2.367416686023988, -3.590132256117197, -2.6835489106738257, -1.1993098574535188,
        -2.739622918852276, -2.0229098406819492, -3.3676740507106038, -2.7101544929036625,
        -3.0460405802381425, -4.467563202807229, -2.903537552658233, -1.4453496473856036,
        -2.4205154110405154, -1.409177920101397, -1.2278678412202757, -3.9477699692303774,
        -2.2735110307459605, -3.226455166904133, -5.073783112574894, -2.084833590346732,
        -3.0548104200868718, -4.183437624781334, -5.429074176730021, -1.978778132524728,
        -4.346299799718706, -2.913654575411208, -2.3208139295144066, -3.8553670616681965,
        -3.567353222709471, -2.282977203140773, -3.124489168445958, -4.884306121374995,
        -2.82328341322852, -2.3179541470612897, -2.837152181498115, -2.914045228759616,
        -3.907653839185871, -2.8226738297036027, -5.1548501896791015, -2.3036113241738048,
        -2.4838557247192656, -3.183484518557348, -2.4834626769367416, -2.0727607183475296,
        -2.0712040235924323, -2.231643907525049, -3.482032930252696, -3.1351381860913197,
        -2.0401439879111045, -4.056134541998014, -2.7231805660266377, -2.841012084094221,
        -2.95339971451816, -3.1535131025895002, -1.619636665381872, -1.2133041229753836,
        -3.971815071919266, -3.9510928707394264, -2.407410410495635, -3.815110976078405,
        -4.092767089182641, -3.312196717045979, -2.9414089775593837, -1.7357745303489174,
        -2.2485986691218676, -4.7300062924704465, -3.49392928945017, -2.4952795349564085,
        -4.039294863543177, -3.311749734303959, -3.424223383003298, -2.4235805449855987,
        -2.749394486990919, -2.9312609046826053, -3.594620533090261, -3.584122851539263,
        -2.124993076346812, -2.9303139435543715, -2.817515253286029, -4.16450658009761,
        -3.6991688815052277, -2.702517062321819, -2.790688743187713, -3.1592511443628175,
        -4.311372717229137, -4.462748459449374, -2.18795748027933, -4.657218885314802,
        -2.494595474105544, -3.081561081142772, -1.450944685497317, -2.4301685185285913,
        -2.240368022621072, -3.9218753715428405, -3.1274930470409155, -4.163003561854027,
        -2.5258959479853402, -3.923255031282812, -2.176367342253981, -2.8656010495241024,
        -1.3124611721177517, -2.153841446445704, -2.9448666127801166, -2.9313480195616686,
        -2.6485662858158285, -2.4343187486051083, -2.409875779046726, -3.8361141420252265,
        -3.0023392443317105, -1.3124876926563815, -2.9409059884300826, -2.0410618465377564,
        -2.8264492328516213, -3.956748425195052, -2.892352814578092, -3.1637418824751524,
        -2.420245518098586, -2.464403279015601, -3.1761157059765934, -2.449182379464973,
        -2.3978771812321176, -2.8647904342757284, -1.8749914024155525, -2.48727945003428,
        -2.572830131638358, -2.3108195664436795, -1.3352283236361286, -3.064538411535677,
        -3.4989416223854417, -1.6026127328757342, -1.6095202196027645, -4.026515217495476,
    )
    MISSED = 2  # its 8-restart searches that ended more than 1e-9 above REFERENCE
    AGREEING = 985  # its restarts_agreeing summed over the 200, a mean of 4.925

    @staticmethod
    def hamiltonians():
        rng = np.random.default_rng(5)
        hs = []
        for _ in range(len(TestSearchQuality.REFERENCE)):
            codes = rng.choice(63, 8, replace=False) + 1  # non-identity strings in base 4
            coeffs = rng.standard_normal(8)
            terms = [
                PauliString(float(c), "".join("IXYZ"[(int(k) >> 2 * (2 - i)) & 3] for i in range(3)))
                for k, c in zip(codes, coeffs)
            ]
            hs.append(build_pauli(SystemShape([2, 2, 2]), terms))
        return hs

    def test_no_worse_than_recorded(self):
        reports = esep_search(self.hamiltonians(), restarts=8, seed=0)
        esep = np.array([r.esep for r in reports])
        assert int((esep > np.array(self.REFERENCE) + 1e-9).sum()) <= self.MISSED
        assert sum(r.restarts_agreeing for r in reports) >= self.AGREEING


class TestSearchBits:
    """The search's written-out forms keep every bit: of ``np.cross`` and
    ``np.linalg.norm`` in the tangent bases, and of recorded search results."""

    @staticmethod
    def unit_vectors():
        rng = np.random.default_rng(2424)
        r = rng.standard_normal((200, 4, 3))
        # axes and ties in |r_i| give zero components and argmin ties
        r[0] = [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 1.0, 1.0]]
        r[1] = [[-1.0, 1.0, 0.0], [0.0, 1.0, -1.0], [1.0, -1.0, 1.0], [0.0, 0.0, 1.0]]
        return r / np.linalg.norm(r, axis=-1, keepdims=True)

    def test_tangent_bases_match_np_cross(self):
        r = self.unit_vectors()
        axis = np.eye(3)[np.argmin(abs(r), axis=-1)]
        u = np.cross(r, axis)
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        expected = np.stack([u, np.cross(r, u)], axis=-1)
        got = _tangent_bases(r)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()  # signed zeros included

    def test_tangent_bases_are_orthonormal_and_tangent(self):
        r = self.unit_vectors()
        bases = _tangent_bases(r)
        gram = np.einsum("...xa,...xb->...ab", bases, bases)
        assert np.abs(gram - np.eye(2)).max() <= 1e-15
        assert np.abs(np.einsum("...x,...xa->...a", r, bases)).max() <= 1e-15

    # search_digest of seeded searches, recorded when the sweeps first handed
    # over to Newton at MEAN_FIELD_HANDOVER and the Newton step came from eigh
    RECORDED = {
        "ring-4-0.3": "cd3949692d381b8a0eae625d3d384feca8dbe6ea49cce01046de44c29341d781",
        "ring-4-1": "2d05825cc06e51f345a489adee5752e4ed46bbe83f0ed418fef5c2e81b576f8d",
        "ring-4-5": "b5e8f338091aab8e2ecbf267d03505ecee6bcc74a6b5808617ec4e70ca994699",
        "ring-6-1": "3d5c91bc99b931ab422c68861b6e72162ff99124db44cc8e9329ad41ecb67e24",
        "ring-6-5": "6e91ba30749945b5c19c5597f224533695ed507aadb31fd031bcefebc5f04e0c",
        "fields-41": "795b1c969ada1a3f4da80be1dee32940905f728491d387000a759e90ec564b3f",
    }

    @pytest.mark.parametrize("case", list(RECORDED))
    def test_search_results_keep_recorded_bits(self, case):
        """The periodic rings of the chain_scaling benchmark (8 restarts) and the 41
        two-site fields of the figure grid (one stacked search, 32 restarts), seed 0."""
        if case == "fields-41":
            hs = [build_xxx(XXXParams(1.0, float(b))) for b in np.linspace(0.0, 2.0, 41)]
            reports = esep_search(hs, restarts=32, seed=0)
        else:
            _, n, b = case.split("-")
            h = build_xxx(XXXParams(1.0, float(b), int(n), "periodic"))
            reports = esep_search([h], restarts=8, seed=0)
        assert search_digest(reports) == self.RECORDED[case]


def state_angles(state):
    """Reference angles read from a qubit state (a, b), the state-vector form of
    bloch_angles: theta = 2 atan2(|b|, |a|), phi = arg b - arg a, and phi = 0 when
    |a| or |b| < 1e-15."""
    v = np.asarray(state, dtype=np.complex128).reshape(2)
    v = v / np.linalg.norm(v)
    theta = 2.0 * math.atan2(abs(v[1]), abs(v[0]))
    phi = float(np.angle(v[1]) - np.angle(v[0])) % (2.0 * math.pi)
    if phi == 2.0 * math.pi or abs(v[1]) < 1e-15 or abs(v[0]) < 1e-15:
        phi = 0.0
    return theta, phi


class TestBlochAngles:
    @pytest.mark.parametrize("phase", [1e-16, -1e-16, 1e-17, -1e-17], ids=str)
    def test_phi_below_two_pi_near_zero_phase(self, phase):
        """An azimuth just below 0 must not round up to phi = 2 pi."""
        theta, phi = bloch_angles(np.array([math.cos(phase), math.sin(phase), 0.0]))
        assert theta == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert 0.0 <= phi < 2.0 * math.pi
        assert phi == pytest.approx(0.0, abs=1e-15)

    def test_phi_just_below_two_pi_stays(self):
        """-1e-15 mod 2 pi is the float just below 2 pi, a valid angle that stays."""
        _, phi = bloch_angles(np.array([math.cos(-1e-15), math.sin(-1e-15), 0.0]))
        assert phi == np.nextafter(2.0 * math.pi, 0.0)

    @staticmethod
    def assert_same_printed_angles(r):
        """Six decimals of bloch_angles(r) against those of the states made from r."""
        for v, state in zip(r, _bloch_to_states(r)):
            assert "%.6f %.6f" % bloch_angles(v) == "%.6f %.6f" % state_angles(state), v

    def test_seeded_unit_vectors_and_axes_print_as_states(self):
        rng = np.random.default_rng(2929)
        r = rng.standard_normal((20000, 3))
        r = np.concatenate([r / np.linalg.norm(r, axis=1, keepdims=True), np.eye(3), -np.eye(3)])
        self.assert_same_printed_angles(r)

    def test_search_rows_print_as_states(self):
        """Every row of seeded searches at fields up to and past polarization: the
        polarized rows end within round-off of a pole, where the pole rule prints phi = 0."""
        fields = np.linspace(0.0, 5.0, 11)
        hs = [build_xxx(XXXParams(1.0, float(b))) for b in fields]
        hs += [build_xxx(XXXParams(1.0, float(b), 4, "periodic")) for b in 2.0 * fields]
        rings = np.stack([random_ansatz(4, np.random.default_rng([0, k])) for k in range(16)])
        pairs = rings[:, :2]
        r = np.concatenate(
            [
                bloch_search(hs[:11], np.tile(pairs, (11, 1, 1)))[0].reshape(-1, 3),
                bloch_search(hs[11:], np.tile(rings, (11, 1, 1)))[0].reshape(-1, 3),
            ]
        )
        rho = np.hypot(r[:, 0], r[:, 1])
        assert ((0.0 < rho) & (rho < 2e-15)).any()
        self.assert_same_printed_angles(r)


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
        assert esep_grid(h_xxx(), PAIR, 64) == pytest.approx(-1.0, abs=2e-3)

    def test_constant_operator(self):
        h = HermitianOperator(Q2, np.eye(4))
        assert esep_grid(h, PAIR, 16) == pytest.approx(1.0, abs=1e-12)

    def test_nested_grid_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = HermitianOperator(Q2, (g + g.conj().T) / 2)
            coarse = esep_grid(h, PAIR, 16)
            fine = esep_grid(h, PAIR, 128)
            assert fine <= coarse + 1e-12

    def test_rejects_small_resolution(self, h_xxx):
        with pytest.raises(ValueError):
            esep_grid(h_xxx(), PAIR, 4)

    def test_rejects_large_blocks(self):
        shape = SystemShape([2, 2, 2, 2])
        h = HermitianOperator(shape, np.eye(16))
        with pytest.raises(ValueError):
            esep_grid(h, [[0, 1, 2], [3]], 8)

    def test_three_blocks(self):
        shape = SystemShape([2, 2, 2])
        zzz = np.kron(np.kron(PAULI["Z"], PAULI["Z"]), PAULI["Z"])
        h = HermitianOperator(shape, zzz)
        val = esep_grid(h, [[0], [1], [2]], 8)
        assert val == pytest.approx(-1.0, abs=1e-9)

    def test_seesaw_at_least_as_good_as_grid(self, h_xxx):
        for b in (0.0, 0.8, 1.7):
            h = h_xxx(1.0, b)
            see = esep_seesaw(h, SINGLETONS, restarts=32, seed=8).esep
            grid = esep_grid(h, PAIR, 32)
            assert see <= grid + 1e-9


def test_every_esep_function_returns_reports():
    import inspect

    from enwit import sep_energy

    functions = {
        name: f
        for name, f in vars(sep_energy).items()
        if name.startswith("esep_") and inspect.isfunction(f)
    }
    assert {"esep_closed_form_xxx", "esep_reference", "esep_search"} <= set(functions)
    for name, f in functions.items():
        returns = inspect.signature(f).return_annotation
        assert returns in ("SepEnergyReport", "list[SepEnergyReport]"), name


class TestClosedForm:
    @pytest.mark.parametrize(
        "b,expected",
        [(0.0, -1.0), (1.0, -1.5), (2.0, -3.0), (3.0, -5.0), (-3.0, -5.0)],
    )
    def test_values(self, b, expected):
        assert esep_closed_form_xxx(XXXParams(1.0, b)).esep == pytest.approx(expected, abs=1e-12)

    def test_branch_continuity(self):
        inner = -1.0 - 2.0**2 / 2.0
        outer = 1.0 - 2.0 * 2.0
        assert inner == outer == esep_closed_form_xxx(XXXParams(1.0, 2.0)).esep

    def test_rejects_chains(self):
        with pytest.raises(ValueError):
            esep_closed_form_xxx(XXXParams(1.0, 0.0, n_sites=3)).esep

    def test_ansatz_attains_value(self):
        for b in (0.0, 0.5, 1.9, 2.5, -2.5):
            p = XXXParams(1.0, b)
            h = build_xxx(p)
            energy = ansatz_energy(h, esep_closed_form_xxx(p).minimizer)
            assert energy == pytest.approx(esep_closed_form_xxx(p).esep, abs=1e-12)


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

