import math
import time
import tracemalloc

import numpy as np
import pytest

from enwit import (
    DensityMatrix,
    XXXParams,
    bound_with_confidence,
    build_xxx,
    eig,
    esep_reference,
    gibbs,
    ground_state,
    make_witness,
    measure_energy,
)
from enwit.measurement import _eigenspace_distribution
from enwit.states import singlet

from conftest import dm_chain, random_dm, random_pure_state


def reference_distribution(h, rho):
    """Level probabilities from the three-operand einsum, merged as the library merges."""
    dec = eig(h)
    diag = np.einsum("ik,ij,jk->k", dec.eigenvectors.conj(), rho.entries, dec.eigenvectors).real
    levels, counts = dec.levels()
    pr = np.clip(np.add.reduceat(diag, np.cumsum(counts) - counts), 0.0, None)
    return levels, pr / pr.sum()


class TestEigenspaceDistribution:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_einsum_on_random_states(self, n):
        """Full-rank random states, every entry nonzero: from n = 6 up they cross
        the magnetization sectors that the distribution is read from."""
        rng = np.random.default_rng(40 + n)
        h = build_xxx(XXXParams(1.0, float(rng.uniform(-2, 2)), n, "periodic"))
        for _ in range(3):
            rho = DensityMatrix.from_entries(h.shape, random_dm(rng, 2**n))
            levels, probs = _eigenspace_distribution(h, rho)
            ref_levels, ref_probs = reference_distribution(h, rho)
            assert np.array_equal(levels, ref_levels)
            assert np.abs(probs - ref_probs).max() <= 1e-12

    @pytest.mark.parametrize("n", [7, 8])
    def test_matches_einsum_on_a_pure_state(self, n):
        rng = np.random.default_rng(50 + n)
        h = build_xxx(XXXParams(1.0, 0.3, n, "periodic"))
        rho = DensityMatrix.pure(h.shape, random_pure_state(rng, 2**n))
        levels, probs = _eigenspace_distribution(h, rho)
        ref_levels, ref_probs = reference_distribution(h, rho)
        assert np.array_equal(levels, ref_levels)
        assert np.abs(probs - ref_probs).max() <= 1e-12

    def test_matches_einsum_on_a_complex_hamiltonian(self):
        """Complex sector eigenvectors (n = 6 with a Dzyaloshinskii-Moriya term)."""
        rng = np.random.default_rng(56)
        h = dm_chain(6)
        for rho in (
            DensityMatrix.from_entries(h.shape, random_dm(rng, 64)),
            DensityMatrix.pure(h.shape, random_pure_state(rng, 64)),
        ):
            levels, probs = _eigenspace_distribution(h, rho)
            ref_levels, ref_probs = reference_distribution(h, rho)
            assert np.array_equal(levels, ref_levels)
            assert np.abs(probs - ref_probs).max() <= 1e-12

    def test_matches_einsum_on_degenerate_spectrum(self, near_degenerate):
        rng = np.random.default_rng(46)
        for _ in range(3):
            rho = DensityMatrix.from_entries(near_degenerate.shape, random_dm(rng, 6))
            levels, probs = _eigenspace_distribution(near_degenerate, rho)
            ref_levels, ref_probs = reference_distribution(near_degenerate, rho)
            assert np.array_equal(levels, ref_levels)
            assert probs.size == 4
            assert np.abs(probs - ref_probs).max() <= 1e-12


class TestSpectralStates:
    """A state built over eig(h) gives its populations to the measurement directly."""

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_measuring_forms_no_dense_state(self, n):
        h = build_xxx(XXXParams(1.0, 0.3, n, "periodic"))
        for rho in (gibbs(h, 0.9)[0], ground_state(h)):
            w = make_witness(h, esep_reference(-n - n * 0.3**2 / 8))
            est = measure_energy(h, rho, shots=10_000, seed=n)
            bound_with_confidence(w, est, 3.0)
            assert "op" not in vars(rho)

    @pytest.mark.parametrize("n", [2, 4, 7, 8])
    def test_populations_match_the_sector_read(self, n):
        """The same levels, and probabilities within 1e-12 of <v_k|rho|v_k> read
        from the same state built from its entries, which carries no spectrum."""
        h = build_xxx(XXXParams(1.0, 0.3, n, "periodic"))
        for rho in (gibbs(h, 0.9)[0], ground_state(h)):
            levels, probs = _eigenspace_distribution(h, rho)
            dense = DensityMatrix.from_entries(h.shape, rho.entries)
            ref_levels, ref_probs = _eigenspace_distribution(h, dense)
            assert np.array_equal(levels, ref_levels)
            assert np.abs(probs - ref_probs).max() <= 1e-12

    def test_a_state_over_another_decomposition_is_read_from_its_matrix(self):
        """Equal Hamiltonians have separate spectra, so the identity test fails and
        the level probabilities come from the state's entries."""
        h, other = (build_xxx(XXXParams(1.0, 0.3, 4, "periodic")) for _ in range(2))
        rho, _ = gibbs(other, 0.9)
        levels, probs = _eigenspace_distribution(h, rho)
        assert "op" in vars(rho)
        assert np.array_equal(levels, eig(other).levels()[0])
        assert np.abs(probs - _eigenspace_distribution(other, rho)[1]).max() <= 1e-12


class TestMeasureEnergy:
    def test_eigenstate_has_zero_spread(self, h_xxx):
        h = h_xxx()
        est = measure_energy(h, ground_state(h), shots=500, seed=0)
        assert est.mean == pytest.approx(-3.0, abs=1e-12)
        assert est.stderr == 0.0

    def test_single_shot_convention(self, h_xxx):
        h = h_xxx()
        rho, _ = gibbs(h, 1.0)
        est = measure_energy(h, rho, shots=1, seed=1)
        assert est.stderr == 0.0
        assert est.shots == 1

    def test_thermal_mean_within_four_sigma(self, h_xxx):
        h = h_xxx()
        rho, pt = gibbs(h, 1.0)
        est = measure_energy(h, rho, shots=100_000, seed=2)
        assert est.stderr > 0.0
        assert abs(est.mean - pt.mean_energy) <= 4.0 * est.stderr

    def test_stderr_scaling_law(self, h_xxx):
        h = h_xxx()
        rho, _ = gibbs(h, 1.0)
        for seed in range(5):
            small = measure_energy(h, rho, shots=10_000, seed=seed)
            large = measure_energy(h, rho, shots=1_000_000, seed=seed)
            assert 8.0 <= small.stderr / large.stderr <= 12.5

    def test_bit_identical_given_seed(self, h_xxx):
        h = h_xxx(1.0, 0.4)
        rho, _ = gibbs(h, 0.8)
        a = measure_energy(h, rho, shots=5000, seed=77)
        b = measure_energy(h, rho, shots=5000, seed=77)
        assert a == b

    def test_mean_within_spectral_range(self, h_xxx):
        h = h_xxx(1.0, 1.2)
        rho, _ = gibbs(h, 2.0)
        est = measure_energy(h, rho, shots=100, seed=3)
        from enwit import eig

        dec = eig(h)
        assert dec.e_min <= est.mean <= dec.e_max

    def test_rejects_zero_shots(self, h_xxx):
        h = h_xxx()
        with pytest.raises(ValueError):
            measure_energy(h, ground_state(h), shots=0, seed=0)

    def test_rejects_shape_mismatch(self, h_xxx):
        with pytest.raises(ValueError):
            measure_energy(h_xxx(1.0, 0.0, 3), singlet(), shots=10, seed=0)

    def test_draws_are_level_values(self, near_degenerate):
        h = near_degenerate
        rho = DensityMatrix.from_entries(h.shape, np.eye(6) / 6)
        drawn = {measure_energy(h, rho, shots=1, seed=s).mean for s in range(200)}
        assert drawn == {0.0, 1.0, 1.0 + 1.6e-9, 3.0}

    def test_mean_converges_over_seeds(self, h_xxx):
        h = h_xxx()
        rho, pt = gibbs(h, 1.0)
        runs = [measure_energy(h, rho, shots=100_000, seed=s) for s in range(50)]
        pooled_mean = float(np.mean([r.mean for r in runs]))
        pooled_se = float(np.mean([r.stderr for r in runs])) / math.sqrt(len(runs))
        assert abs(pooled_mean - pt.mean_energy) <= 3.0 * pooled_se


class TestHistogramSampler:
    """The shots of one measurement are one multinomial histogram over the levels."""

    @staticmethod
    def ring_state():
        h = build_xxx(XXXParams(1.0, 0.3, 6, "periodic"))
        rho, point = gibbs(h, 1.3)
        return h, rho, point

    @pytest.mark.parametrize("shots", [2, 3, 1000, 100_000])
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_matches_the_expanded_draws(self, shots, seed):
        h, rho, _ = self.ring_state()
        est = measure_energy(h, rho, shots, seed)
        levels, probs = _eigenspace_distribution(h, rho)
        draws = np.repeat(levels, np.random.default_rng(seed).multinomial(shots, probs))
        assert est.mean == pytest.approx(float(draws.mean()), rel=1e-12, abs=0.0)
        stderr = float(draws.std(ddof=1)) / math.sqrt(shots)
        assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)

    def test_a_billion_shots_cost_what_the_levels_cost(self):
        """Time and memory grow with the levels, not the shots."""
        h, rho, point = self.ring_state()
        measure_energy(h, rho, 10, 0)  # warm: the level distribution's first call
        start = time.perf_counter()
        est = measure_energy(h, rho, 10**9, 3)
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            measure_energy(h, rho, 10**9, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 1 << 20
        assert est.shots == 10**9
        assert abs(est.mean - point.mean_energy) <= 5.0 * est.stderr


class TestBoundWithConfidence:
    def test_zero_spread_degenerates(self, h_xxx):
        h = h_xxx()
        w = make_witness(h, esep_reference(-2.0))
        est = measure_energy(h, ground_state(h), shots=10, seed=0)
        iv = bound_with_confidence(w, est, z=3.0)
        assert iv.lo == iv.hi == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert iv.detected

    def test_reference_preset_arithmetic(self, h_xxx):
        from enwit.measurement import EnergyEstimate

        w = make_witness(h_xxx(), esep_reference(-2.0))
        est = EnergyEstimate(mean=-3.0, stderr=0.03, shots=100, seed=0)
        iv = bound_with_confidence(w, est, z=3.0)
        assert iv.lo == pytest.approx(0.30333333, abs=1e-6)
        assert iv.hi == pytest.approx(0.36333333, abs=1e-6)

    def test_straddles_zero_at_threshold(self, h_xxx):
        from enwit.measurement import EnergyEstimate

        w = make_witness(h_xxx(), esep_reference(-2.0))
        est = EnergyEstimate(mean=-2.0, stderr=0.05, shots=100, seed=0)
        iv = bound_with_confidence(w, est, z=2.0)
        assert iv.lo < 0.0 < iv.hi
        assert not iv.detected

    def test_larger_z_widens_interval(self, h_xxx):
        h = h_xxx()
        w = make_witness(h, esep_reference(-2.0))
        rho, _ = gibbs(h, 1.0)
        est = measure_energy(h, rho, shots=1000, seed=5)
        narrow = bound_with_confidence(w, est, z=1.0)
        wide = bound_with_confidence(w, est, z=4.0)
        assert wide.lo <= narrow.lo and narrow.hi <= wide.hi

    def test_z_zero_degenerate(self, h_xxx):
        h = h_xxx()
        w = make_witness(h, esep_reference(-2.0))
        rho, _ = gibbs(h, 1.0)
        est = measure_energy(h, rho, shots=1000, seed=6)
        iv = bound_with_confidence(w, est, z=0.0)
        assert iv.lo == iv.hi

    def test_rejects_negative_z(self, h_xxx):
        h = h_xxx()
        w = make_witness(h, esep_reference(-2.0))
        est = measure_energy(h, ground_state(h), shots=10, seed=0)
        with pytest.raises(ValueError):
            bound_with_confidence(w, est, z=-1.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_rejects_non_finite_z(self, h_xxx, z):
        h = h_xxx()
        w = make_witness(h, esep_reference(-2.0))
        est = measure_energy(h, ground_state(h), shots=10, seed=0)
        with pytest.raises(ValueError):
            bound_with_confidence(w, est, z=z)
