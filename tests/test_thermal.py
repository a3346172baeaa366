import math
from dataclasses import fields

import numpy as np
import pytest

from enwit import (
    DensityMatrix,
    HermitianOperator,
    SystemShape,
    ThermalPoint,
    XXXParams,
    build_xxx,
    eig,
    energy_curve,
    expectation,
    gibbs,
    ground_state,
    thermal,
)
from enwit.errors import NumericalError
from enwit.states import singlet

from conftest import PAULI


def xxx_mean_energy(temperature):
    """Scalar oracle for <H> of the field-free two-site model: levels -3 (x1), +1 (x3)."""
    beta = 1.0 / temperature
    num = -3.0 * math.exp(3.0 * beta) + 3.0 * math.exp(-beta)
    den = math.exp(3.0 * beta) + 3.0 * math.exp(-beta)
    return num / den


class TestGibbs:
    def test_rejects_nonpositive_temperature(self, h_xxx):
        with pytest.raises(ValueError):
            gibbs(h_xxx(), 0.0)

    def test_rejects_nan_temperature(self, h_xxx):
        with pytest.raises(ValueError):
            gibbs(h_xxx(), math.nan)

    def test_infinite_temperature_limit(self, h_xxx):
        rho, pt = gibbs(h_xxx(), 1e9)
        assert np.abs(rho.entries - np.eye(4) / 4).max() < 1e-6
        assert abs(pt.mean_energy) < 1e-6

    def test_mean_energy_at_unit_temperature(self, h_xxx):
        _, pt = gibbs(h_xxx(), 1.0)
        assert pt.mean_energy == pytest.approx(xxx_mean_energy(1.0), abs=1e-12)
        assert pt.mean_energy == pytest.approx(-2.7916, abs=1e-3)

    def test_mean_energy_hits_minus_one(self, h_xxx):
        # <H>(T) = -1 exactly when exp(4/T) = 3
        t_star = 4.0 / math.log(3.0)
        _, pt = gibbs(h_xxx(), t_star)
        assert pt.mean_energy == pytest.approx(-1.0, abs=1e-9)

    def test_partition_function_value(self, h_xxx):
        _, pt = gibbs(h_xxx(), 1.0)
        z_oracle = math.exp(3.0) + 3.0 * math.exp(-1.0)
        assert pt.partition_z == pytest.approx(z_oracle, rel=1e-12)
        assert pt.beta * pt.temperature_t == pytest.approx(1.0, abs=1e-15)

    def test_partition_function_overflow_goes_to_log(self, h_xxx):
        _, pt = gibbs(h_xxx(), 1e-3)
        assert pt.partition_z == math.inf
        assert pt.log_partition_z == pytest.approx(3.0 / 1e-3, rel=1e-6)

    def test_state_commutes_with_hamiltonian(self, h_xxx):
        for t in (0.2, 1.0, 5.0):
            h = h_xxx(1.0, 0.8)
            rho, _ = gibbs(h, t)
            comm = h.entries @ rho.entries - rho.entries @ h.entries
            assert np.abs(comm).max() < 1e-9

    def test_partition_floor(self, h_xxx):
        h = h_xxx()
        for t in (0.5, 2.0):
            _, pt = gibbs(h, t)
            assert pt.partition_z >= 4 * math.exp(-pt.beta * 1.0)


class TestGroundState:
    def test_field_free_ground_is_singlet(self, h_xxx, singlet):
        rho = ground_state(h_xxx())
        assert np.abs(rho.entries - singlet.entries).max() < 1e-12

    def test_diagonal_hamiltonian(self):
        shape = SystemShape([2, 2])
        h = HermitianOperator(
            shape, np.kron(PAULI["Z"], PAULI["I"]) + np.kron(PAULI["I"], PAULI["Z"])
        )
        rho = ground_state(h)
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        assert np.abs(rho.entries - expected).max() < 1e-12

    def test_zero_operator_fully_degenerate(self):
        shape = SystemShape([2, 2])
        rho = ground_state(HermitianOperator(shape, np.zeros((4, 4))))
        assert np.abs(rho.entries - np.eye(4) / 4).max() < 1e-12

    def test_near_degenerate_ground_level_has_rank_two(self, near_degenerate):
        rho = ground_state(near_degenerate)
        assert np.linalg.matrix_rank(rho.entries, tol=1e-9) == 2
        assert np.abs(rho.entries - np.diag([0.5, 0.5, 0, 0, 0, 0])).max() < 1e-12


def sector_state(h, p):
    """Reference dense state: each sector's V diag(p) V^dagger written into zeros,
    then passed through HermitianOperator."""
    rho = np.zeros((h.dim, h.dim), dtype=np.complex128)
    for block in eig(h).sectors:
        v = block.vectors
        block.put(rho, (v * p[block.ranks][:, None, :]) @ v.conj().swapaxes(1, 2))
    return HermitianOperator(h.shape, rho).entries


class TestSpectralStates:
    """Gibbs and ground states hold eig(h) and their populations; the dense state
    is formed only when read, with the bits of the sector construction."""

    @pytest.mark.parametrize(
        "kind, n, b",
        [(kind, n, 0.3) for kind in ("gibbs", "ground") for n in (2, 4, 8)] + [("ground", 7, 0.0)],
        ids=str,
    )
    def test_entries_match_the_sector_construction(self, kind, n, b):
        h = build_xxx(XXXParams(1.0, b, n, "periodic"))
        dec = eig(h)
        if kind == "gibbs":
            rho, _ = gibbs(h, 0.7)
            p = thermal._thermal_table(dec.eigenvalues[None], np.array([0.7]))[0][0, 0]
        else:
            rho = ground_state(h)
            k = int(dec.levels()[1][0])
            p = np.where(np.arange(h.dim) < k, 1.0 / k, 0.0)
            if n == 7:  # the odd ring's frustrated ground level: two doublets
                assert k == 4
        assert rho.spectrum is dec
        assert np.array_equal(rho.populations, p)
        assert "op" not in vars(rho)  # nothing dense yet
        assert np.array_equal(rho.entries, sector_state(h, p))
        assert rho.op.shape == rho.shape == h.shape

    @pytest.mark.parametrize(
        "p, match",
        [
            ([1.1, -0.1, 0.0, 0.0], "nonnegative"),
            ([np.nan, 1.0, 0.0, 0.0], "finite"),
            ([np.inf, 0.0, 0.0, 0.0], "finite"),
            ([0.5, 0.4, 0.0, 0.0], "sum to"),
            ([0.5, 0.5, 1e-9, 0.0], "sum to"),
            ([0.5, 0.5, 0.0], "entries"),
        ],
        ids=["negative", "nan", "inf", "short-sum", "long-sum", "wrong-length"],
    )
    def test_bad_populations_raise(self, h_xxx, p, match):
        h = h_xxx(1.0, 0.3)
        with pytest.raises(ValueError, match=match):
            DensityMatrix.from_spectrum(h.shape, eig(h), np.array(p))

    def test_populations_are_copied_and_frozen(self, h_xxx):
        h = h_xxx(1.0, 0.3)
        p = np.array([1.0, 0.0, 0.0, 0.0])
        rho = DensityMatrix.from_spectrum(h.shape, eig(h), p)
        p[0] = 5.0
        assert rho.populations[0] == 1.0
        with pytest.raises(ValueError):
            rho.populations[0] = 0.0


class TestEnergyCurve:
    def test_monotone_mean_energy(self, h_xxx):
        pts = energy_curve(h_xxx(), [0.5, 1.0, 2.0])
        means = [p.mean_energy for p in pts]
        assert means[0] < means[1] < means[2]

    def test_matches_gibbs_pointwise(self, h_xxx):
        h = h_xxx(1.0, 0.6)
        (pt,) = energy_curve(h, [1.0])
        _, ref = gibbs(h, 1.0)
        assert pt.mean_energy == ref.mean_energy
        assert pt.partition_z == ref.partition_z

    def test_grid_matches_scalar_reference(self, h_xxx):
        """The (T x levels) table against a per-temperature loop over the spectrum."""
        h = h_xxx(1.0, 0.6)
        temps = np.linspace(0.01, 6.0, 60)
        pts = energy_curve(h, temps)
        assert pts.dtype.names == tuple(f.name for f in fields(ThermalPoint))
        lam = eig(h).eigenvalues
        for t, pt in zip(temps, pts):
            w = np.exp(-(lam - lam[0]) / t)
            assert pt.temperature_t == t
            assert pt.mean_energy == pytest.approx(np.dot(w / w.sum(), lam), abs=1e-12)
            assert pt.log_partition_z == pytest.approx(np.log(w.sum()) - lam[0] / t, abs=1e-12)

    def test_detection_threshold_mean(self, h_xxx):
        # exp(4/T) = 9 makes <H> = -2
        (pt,) = energy_curve(h_xxx(), [1.8205])
        assert pt.mean_energy == pytest.approx(-2.0, abs=1e-3)

    def test_rejects_unsorted(self, h_xxx):
        with pytest.raises(ValueError):
            energy_curve(h_xxx(), [2.0, 1.0])

    def test_rejects_nonpositive(self, h_xxx):
        with pytest.raises(ValueError):
            energy_curve(h_xxx(), [0.0, 1.0])

    def test_rejects_nan(self, h_xxx):
        with pytest.raises(ValueError):
            energy_curve(h_xxx(), [math.nan, 1.0])

    def test_limits(self, h_xxx):
        h = h_xxx(1.0, 0.4)
        lo = energy_curve(h, [1e-3])[0].mean_energy
        hi = energy_curve(h, [1e9])[0].mean_energy
        assert lo == pytest.approx(eig(h).e_min, abs=1e-6)
        assert hi == pytest.approx(h.trace() / 4.0, abs=1e-6)

    @pytest.mark.parametrize("j", [1e-13, 1.0, 1e3, 1e6, 1e8], ids=["1e-13", "1", "1e3", "1e6", "1e8"])
    def test_monotonicity_check_scales_with_the_spectrum(self, j):
        """The 6-site ring at B = 0.3 J over T = 0.01-4 J: round-off in <H> grows
        with J (a fixed 1e-12 tolerance failed at J = 1e3 and 1e6), and the check
        with it, so each J gives the unit curve scaled by J."""
        temps = np.linspace(0.01, 4.0, 400)
        unit = energy_curve(build_xxx(XXXParams(1.0, 0.3, 6, "periodic")), temps)
        pts = energy_curve(build_xxx(XXXParams(j, 0.3 * j, 6, "periodic")), j * temps)
        assert np.abs(pts.mean_energy / j - unit.mean_energy).max() <= 1e-12

    @pytest.mark.parametrize("chunk", [1, 2 * 400 * 16, 1 << 20], ids=["field", "two", "all"])
    def test_stacked_fields_keep_each_curve(self, chunk, monkeypatch):
        """energy_table over a stack of spectra, in table groups of any size, gives
        each field's energy_curve bit for bit (16-level rings, 400 temperatures)."""
        temps = np.linspace(0.01, 4.0, 400)
        hs = [build_xxx(XXXParams(1.0, b, 4, "periodic")) for b in (0.0, 0.3, 1.0, 2.5, 5.0)]
        monkeypatch.setattr(thermal, "_TABLE_CHUNK", chunk)
        log_z, mean = thermal.energy_table(np.stack([eig(h).eigenvalues for h in hs]), temps)
        for j, h in enumerate(hs):
            pts = energy_curve(h, temps)
            assert log_z[j].tobytes() == pts.log_partition_z.tobytes()
            assert mean[j].tobytes() == pts.mean_energy.tobytes()

    def test_falling_mean_energy_raises_numerical_error(self, h_xxx, monkeypatch):
        real = thermal._thermal_table

        def reversed_means(spectra, temps):
            probs, log_z, mean = real(spectra, temps)
            return probs, log_z, mean[:, ::-1].copy()

        monkeypatch.setattr(thermal, "_thermal_table", reversed_means)
        with pytest.raises(NumericalError, match="mean energy falls"):
            energy_curve(h_xxx(), [0.5, 1.0, 2.0])

    def test_thermal_states_valid_density_matrices(self, h_xxx):
        h = h_xxx(1.0, 1.3)
        for t in (0.1, 1.0, 10.0):
            rho, _ = gibbs(h, t)
            assert isinstance(rho, DensityMatrix)
            assert expectation(h, rho) <= 1e-9 + energy_curve(h, [t])[0].mean_energy
