import math

import numpy as np
import pytest

from enwit import (
    DensityMatrix,
    bound_with_confidence,
    esep_reference,
    gibbs,
    ground_state,
    make_witness,
    measure_energy,
)
from enwit.states import singlet


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
