import math
import re

import numpy as np
import pytest

from enwit import (
    EsepPolicy,
    HermitianOperator,
    Partition,
    SystemShape,
    XXXParams,
    bound_sweep,
    build_xxx,
    eig,
    esep_reference,
    esep_seesaw,
    expectation,
    gibbs,
    make_witness,
    robustness_lower_bound,
)
from enwit import thermal
from enwit.errors import NumericalError
from enwit.sep_energy import esep_search
from enwit.thermal import ground_state
from enwit.witness import SWEEP_DTYPE, resolve_esep, sweep_single_hamiltonian

from conftest import PAULI, ansatz_energy, full_vector, normalized_witness, random_ansatz

Q2 = SystemShape([2, 2])


class TestMakeWitness:
    def test_exact_esep_normalizer(self, h_xxx):
        w = make_witness(h_xxx(), esep_reference(-1.0))
        assert w.normalizer_a == pytest.approx(2.0, abs=1e-12)
        assert w.entanglement_gap == pytest.approx(2.0, abs=1e-12)
        assert not w.conservative_esep

    def test_preset_normalizer(self, h_xxx):
        w = make_witness(h_xxx(), esep_reference(-2.0))
        assert w.normalizer_a == pytest.approx(3.0, abs=1e-12)

    def test_single_qubit_witness_saturates_identity(self):
        h = HermitianOperator(SystemShape([2]), PAULI["Z"])
        w = make_witness(h, esep_reference(-1.0))
        assert w.normalizer_a == pytest.approx(2.0, abs=1e-12)
        vals = eig(normalized_witness(w)).eigenvalues
        assert np.allclose(vals, [0.0, 1.0], atol=1e-12)

    def test_normalized_witness_below_identity(self, h_xxx):
        for esep in (-2.5, -1.0, 0.3):
            w = make_witness(h_xxx(1.0, 0.7), esep_reference(esep))
            top = eig(normalized_witness(w)).e_max
            assert top <= 1.0 + 1e-10

    def test_conservative_flagging(self, h_xxx):
        w = make_witness(h_xxx(), esep_reference(-4.0))
        assert w.conservative_esep

    def test_constant_hamiltonian_rejected(self):
        h = HermitianOperator(Q2, np.eye(4))
        with pytest.raises(ValueError):
            make_witness(h, esep_reference(1.0))


class TestRobustnessLowerBound:
    def test_singlet_under_preset(self, h_xxx):
        w = make_witness(h_xxx(), esep_reference(-2.0))
        rep = robustness_lower_bound(w, -3.0)
        assert rep.bound == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.detected

    def test_boundary_not_detected(self, h_xxx):
        w = make_witness(h_xxx(), esep_reference(-1.0))
        rep = robustness_lower_bound(w, -1.0)
        assert rep.bound == 0.0
        assert not rep.detected

    def test_thermal_mean_under_preset(self, h_xxx):
        h = h_xxx()
        w = make_witness(h, esep_reference(-2.0))
        _, pt = gibbs(h, 1.0)
        rep = robustness_lower_bound(w, pt.mean_energy)
        assert rep.bound == pytest.approx(0.2639, abs=1e-3)

    def test_rejects_out_of_range_mean(self, h_xxx):
        w = make_witness(h_xxx(), esep_reference(-1.0))
        with pytest.raises(ValueError):
            robustness_lower_bound(w, -3.5)

    def test_rejects_out_of_range_mean_at_small_scale(self):
        """A mean 1666 times below E_min at J = 1e-10 is refused as at J = 1."""
        w = make_witness(build_xxx(XXXParams(1e-10)), esep_reference(-1e-10))
        with pytest.raises(ValueError, match="outside the spectral range"):
            robustness_lower_bound(w, -5e-7)

    def test_accepts_mean_rounded_past_the_range_at_large_scale(self):
        """At J = 1e10 one rounding step of E_min is 4e-6, beyond an absolute 1e-6 slack."""
        w = make_witness(build_xxx(XXXParams(1e10)), esep_reference(-1e10))
        e_min = np.nextafter(w.e_min, -np.inf)
        assert robustness_lower_bound(w, e_min).bound == pytest.approx(1.0, rel=1e-12)

    def test_bound_capped_by_normalized_gap(self, h_xxx):
        h = h_xxx(1.0, 0.9)
        part = Partition.singletons(2)
        w = make_witness(h, esep_seesaw(h, part, restarts=16, seed=0))
        cap = (w.esep - w.e_min) / w.normalizer_a
        for t in (0.05, 0.5, 2.0):
            _, pt = gibbs(h, t)
            assert robustness_lower_bound(w, pt.mean_energy).bound <= cap + 1e-12
        assert cap <= 1.0 + 1e-10


class TestWitnessValidity:
    def test_nonnegative_on_product_states(self, h_xxx):
        h = h_xxx()
        part = Partition.singletons(2)
        w = make_witness(h, esep_seesaw(h, part, restarts=32, seed=1))
        wmat = normalized_witness(w).entries
        rng = np.random.default_rng(2)
        vecs = np.stack([full_vector(random_ansatz(2, rng)) for _ in range(1000)])
        vals = np.einsum("ij,jk,ik->i", vecs.conj(), wmat, vecs).real
        assert vals.min() >= -1e-9

    def test_negative_on_detected_state(self, h_xxx, singlet):
        h = h_xxx()
        w = make_witness(h, esep_reference(-1.0))
        tr_w_rho = np.einsum(
            "ij,ji->", normalized_witness(w).entries, singlet.entries
        ).real
        rep = robustness_lower_bound(w, expectation(h, singlet))
        assert tr_w_rho == pytest.approx(-rep.bound, abs=1e-12)


class TestSweep:
    def test_rows_ordered_b_major(self):
        cells = bound_sweep(
            XXXParams(1.0, 0.0),
            EsepPolicy("fixed", -2.0),
            [0.5, 1.0],
            [0.0, 1.0],
        )
        assert [(c.b, c.t) for c in cells] == [(0.0, 0.5), (0.0, 1.0), (1.0, 0.5), (1.0, 1.0)]

    def test_preset_detection_window(self):
        cells = bound_sweep(
            XXXParams(1.0, 0.0), EsepPolicy("fixed", -2.0), [1.8200, 1.8210], [0.0]
        )
        assert cells[0].bound_raw > 0.0
        assert cells[1].bound_raw < 0.0

    def test_exact_policy_tight_on_singlet(self):
        cells = bound_sweep(XXXParams(1.0, 0.0), EsepPolicy("exact"), [0.01], [0.0])
        assert cells[0].bound_raw == pytest.approx(1.0, abs=1e-3)

    def test_exact_policy_zero_crossing(self):
        t_star = 4.0 / math.log(3.0)
        cells = bound_sweep(
            XXXParams(1.0, 0.0),
            EsepPolicy("exact"),
            [t_star - 1e-3, t_star + 1e-3],
            [0.0],
        )
        assert cells[0].bound_raw > 0.0
        assert cells[1].bound_raw < 0.0

    def test_bound_monotone_in_temperature(self):
        temps = [0.1 * k for k in range(1, 30)]
        cells = bound_sweep(XXXParams(1.0, 0.0), EsepPolicy("closed-form"), temps, [0.0])
        bounds = [c.bound_raw for c in cells]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))

    def test_rejects_nan_temperature(self, h_xxx):
        # NaN fails both t < 0 and t > 0; it must not be served by the ground state
        with pytest.raises(ValueError, match="temperatures"):
            sweep_single_hamiltonian(h_xxx(), esep_reference(-2.0), [math.nan])

    def test_temperature_zero_uses_ground_state(self, h_xxx):
        cells = sweep_single_hamiltonian(h_xxx(), esep_reference(-2.0), [0.0])
        assert cells[0].mean_energy == pytest.approx(-3.0, abs=1e-12)

    def test_rejects_unsorted_grids(self):
        with pytest.raises(ValueError):
            bound_sweep(XXXParams(1.0, 0.0), EsepPolicy("fixed", -2.0), [1.0, 0.5], [0.0])

    def test_double_counted_bond(self):
        # counting the two-site bond twice is the same chain at 2J
        p = XXXParams(1.0, 0.0, 2, "periodic")
        doubled_p = XXXParams(2.0, 0.0, 2, "periodic")
        fixed = EsepPolicy("fixed", -2.0)
        assert bound_sweep(p, fixed, [1.0], [0.0]).normalizer_a[0] == pytest.approx(3.0, abs=1e-12)
        doubled = bound_sweep(doubled_p, fixed, [1.0], [0.0])
        assert doubled.normalizer_a[0] == pytest.approx(4.0, abs=1e-12)
        closed = bound_sweep(doubled_p, EsepPolicy("closed-form"), [1.0], [0.0]).esep[0]
        exact = bound_sweep(doubled_p, EsepPolicy("exact"), [1.0], [0.0]).esep[0]
        assert closed == -2.0
        assert closed == pytest.approx(exact, abs=1e-9)


FIELDS = [float(b) for b in np.linspace(0.0, 2.0, 41)]
FIGURE_TEMPS = [float(t) for t in np.linspace(0.01, 4.0, 400)]


def per_field_sweeps(policy, temps, fields, restarts=32, seed=0):
    """bound_sweep's rows, built one field at a time by sweep_single_hamiltonian."""
    params = [XXXParams(1.0, b) for b in fields]
    hs = [build_xxx(p) for p in params]
    if policy.kind == "exact":
        reports = esep_search(hs, restarts, seed)
    else:
        reports = [resolve_esep(policy, h, params=p) for h, p in zip(hs, params)]
    parts = [
        sweep_single_hamiltonian(h, rep, temps, b_value=b) for h, rep, b in zip(hs, reports, fields)
    ]
    return np.concatenate(parts)


def edit_mean_of_field(field, edit):
    """A _thermal_table whose mean energies of one field's row go through ``edit``."""
    real = thermal._thermal_table

    def edited(spectra, temps):
        probs, log_z, mean = real(spectra, temps)
        mean = mean.copy()
        mean[field] = edit(mean[field])
        return probs, log_z, mean

    return edited


class TestStackedSweep:
    """bound_sweep's one array pass gives the bits of one sweep per field."""

    @pytest.mark.parametrize("policy", ["closed-form", "exact", "fixed:-1.5"])
    def test_equals_per_field_sweeps(self, policy):
        policy = EsepPolicy.parse(policy)
        stacked = bound_sweep(XXXParams(1.0), policy, FIGURE_TEMPS, FIELDS)
        single = per_field_sweeps(policy, FIGURE_TEMPS, FIELDS)
        assert stacked.dtype == SWEEP_DTYPE and len(stacked) == 41 * 400
        for name in SWEEP_DTYPE.names:
            assert stacked[name].tobytes() == single[name].tobytes(), name

    def test_zero_temperature_column(self):
        temps = [0.0, 0.5, 1.0]
        fields = [0.0, 0.7, 2.5]
        policy = EsepPolicy("closed-form")
        stacked = bound_sweep(XXXParams(1.0), policy, temps, fields)
        single = per_field_sweeps(policy, temps, fields)
        for name in SWEEP_DTYPE.names:
            assert stacked[name].tobytes() == single[name].tobytes(), name
        for b, cell in zip(fields, stacked[stacked.t == 0.0]):
            h = build_xxx(XXXParams(1.0, b))
            assert cell.mean_energy == expectation(h, ground_state(h))

    def test_mean_outside_one_fields_range_names_that_range(self, monkeypatch):
        fields = [0.0, 0.5, 1.0, 1.5]
        monkeypatch.setattr(thermal, "_thermal_table", edit_mean_of_field(2, lambda m: m + 10.0))
        dec = eig(build_xxx(XXXParams(1.0, 1.0)))
        match = re.escape(f"lies outside the spectral range [{dec.e_min}, {dec.e_max}]")
        with pytest.raises(ValueError, match=match):
            bound_sweep(XXXParams(1.0), EsepPolicy("closed-form"), [0.5, 1.0], fields)

    def test_falling_mean_in_one_of_several_fields(self, monkeypatch):
        monkeypatch.setattr(thermal, "_thermal_table", edit_mean_of_field(1, lambda m: m[::-1]))
        with pytest.raises(NumericalError, match="mean energy falls by "):
            bound_sweep(XXXParams(1.0), EsepPolicy("closed-form"), [0.5, 1.0, 2.0], FIELDS[:4])


class TestPolicy:
    def test_parse_fixed(self):
        p = EsepPolicy.parse("fixed:-2")
        assert p.kind == "fixed" and p.value == -2.0

    def test_parse_exact(self):
        assert EsepPolicy.parse("exact").kind == "exact"

    @pytest.mark.parametrize("text", ["fixed:nan", "fixed:inf", "fixed:-inf"])
    def test_rejects_non_finite_fixed_value(self, text):
        with pytest.raises(ValueError, match="finite"):
            EsepPolicy.parse(text)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            EsepPolicy.parse("guess")

    def test_resolve_closed_form_attaches_minimizer(self, h_xxx):
        p = XXXParams(1.0, 0.5)
        rep = resolve_esep(EsepPolicy("closed-form"), h_xxx(1.0, 0.5), params=p)
        assert rep.source == "closed-form"
        assert rep.minimizer is not None
        assert rep.restarts_agreeing == 0
        assert ansatz_energy(h_xxx(1.0, 0.5), rep.minimizer) == pytest.approx(
            rep.esep, abs=1e-12
        )


class TestSoundnessVsOracle:
    def test_bound_never_exceeds_exact_robustness(self, h_xxx, singlet):
        """Random low-energy states: the energy bound stays below the oracle value."""
        from enwit import rg_exact_2q
        from conftest import random_dm
        from enwit import DensityMatrix

        h = h_xxx()
        part = Partition.singletons(2)
        w = make_witness(h, esep_seesaw(h, part, restarts=32, seed=3))
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 200:
            base = random_dm(rng)
            m_base = float(np.einsum("ij,ji->", h.entries, base).real)
            # mix toward the singlet until the mean energy drops below esep
            lam_min = (m_base - w.esep) / (m_base + 3.0)
            lam = rng.uniform(max(0.0, lam_min) + 1e-3, 1.0)
            mixed = (1.0 - lam) * base + lam * singlet.entries
            rho = DensityMatrix.from_entries(Q2, mixed)
            mean = expectation(h, rho)
            if mean >= w.esep:
                continue
            bound = robustness_lower_bound(w, mean).bound
            assert bound <= rg_exact_2q(rho).rg_value + 1e-6
            checked += 1


class TestAffineInvariance:
    def test_bound_unchanged_under_affine_map(self, h_xxx):
        h = h_xxx(1.0, 0.3)
        esep = -1.0 - 0.3**2 / 2.0
        w = make_witness(h, esep_reference(esep))
        shifted = HermitianOperator(Q2, 2.0 * h.entries + 5.0 * np.eye(4))
        w2 = make_witness(shifted, esep_reference(2.0 * esep + 5.0))
        for t in (0.05, 0.7, 3.0):
            _, pt = gibbs(h, t)
            b1 = robustness_lower_bound(w, pt.mean_energy).bound
            b2 = robustness_lower_bound(w2, 2.0 * pt.mean_energy + 5.0).bound
            assert abs(b1 - b2) <= 1e-10
