import math

import numpy as np
import pytest

from enwit import (
    DensityMatrix,
    EsepPolicy,
    Partition,
    SystemShape,
    XXXParams,
    build_xxx,
    esep_seesaw,
    expectation,
    gibbs,
    is_entangled_2q,
    make_witness,
    rg_exact_2q,
    robustness_lower_bound,
)
from enwit.errors import NumericalError
from enwit.states import product_state, singlet

from conftest import random_dm, random_pure_state, rg_pure

Q2 = SystemShape([2, 2])


def rand_dm(rng):
    return DensityMatrix.from_entries(Q2, random_dm(rng))


class TestExactRobustness:
    def test_singlet_value(self):
        cert = rg_exact_2q(singlet())
        assert cert.rg_value == pytest.approx(1.0, abs=1e-5)
        assert cert.duality_gap <= 1e-5

    def test_product_state_is_free(self):
        cert = rg_exact_2q(product_state(0.7, 1.1, 2.0, 0.3))
        assert cert.rg_value == pytest.approx(0.0, abs=1e-5)
        assert cert.primal_mixing.trace() == pytest.approx(0.0, abs=1e-4)

    def test_thermal_state_beats_energy_bound(self, h_xxx):
        h = h_xxx()
        rho, pt = gibbs(h, 1.0)
        cert = rg_exact_2q(rho)
        assert cert.rg_value > 0.25
        w = make_witness(h, esep_seesaw(h, Partition.singletons(2), restarts=16, seed=0))
        bound = robustness_lower_bound(w, pt.mean_energy).bound
        assert bound <= cert.rg_value + 1e-6

    def test_refuses_larger_systems(self):
        shape = SystemShape([2, 2, 2])
        rho = DensityMatrix.from_entries(shape, np.eye(8) / 8)
        with pytest.raises(ValueError):
            rg_exact_2q(rho)

    def test_weak_duality_on_every_iterate(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            trace = []
            rg_exact_2q(rand_dm(rng), trace=trace)
            assert trace, "solver must record at least one stage"
            for _, primal, dual in trace:
                assert dual <= primal + 1e-9

    def test_certificate_feasibility(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = rand_dm(rng)
            cert = rg_exact_2q(rho)
            x = cert.primal_mixing.entries
            w = cert.dual_witness.entries
            assert np.linalg.eigvalsh(x)[0] >= -1e-9
            from enwit.robustness import _pt

            assert np.linalg.eigvalsh(_pt(rho.entries + x))[0] >= -1e-9
            assert np.linalg.eigvalsh(w)[-1] <= 1.0 + 1e-9
            assert np.linalg.eigvalsh(_pt(w))[0] >= -1e-9
            dual_val = -np.einsum("ij,ji->", w, rho.entries).real
            primal_val = cert.primal_mixing.trace()
            assert dual_val - 1e-12 <= cert.rg_value <= primal_val + 1e-12
            assert cert.duality_gap == pytest.approx(primal_val - dual_val, abs=1e-12)

    def test_witness_reproduces_value(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            rho = rand_dm(rng)
            cert = rg_exact_2q(rho)
            witnessed = max(
                0.0, -float(np.einsum("ij,ji->", cert.dual_witness.entries, rho.entries).real)
            )
            assert abs(witnessed - cert.rg_value) <= cert.duality_gap

    def test_mixing_yields_ppt_state(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = rand_dm(rng)
            cert = rg_exact_2q(rho)
            s = cert.primal_mixing.trace()
            mixed = DensityMatrix.from_entries(
                Q2, (rho.entries + cert.primal_mixing.entries) / (1.0 + s)
            )
            assert not is_entangled_2q(mixed).entangled or is_entangled_2q(mixed).margin > -1e-8

    def test_zero_iff_ppt(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rho = rand_dm(rng)
            cert = rg_exact_2q(rho)
            assert is_entangled_2q(rho).entangled == (cert.rg_value > 1e-6)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            rho = rand_dm(rng)
            ua, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            ub, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            u = np.kron(ua, ub)
            rotated = DensityMatrix.from_entries(Q2, u @ rho.entries @ u.conj().T)
            assert rg_exact_2q(rotated).rg_value == pytest.approx(
                rg_exact_2q(rho).rg_value, abs=1e-6
            )


def _werner(p):
    return DensityMatrix.from_entries(Q2, p * singlet().entries + (1.0 - p) * np.eye(4) / 4.0)


def _hard_states():
    """Seeded states whose optimal X, S, Z1 or Z2 is singular, or that sit at the PPT edge."""
    rng = np.random.default_rng(2024)
    states = []
    for _ in range(20):
        a, b = (random_pure_state(rng, dim=2) for _ in range(2))
        states.append(DensityMatrix.pure(Q2, np.kron(a, b)))
    for _ in range(40):
        u, v = random_pure_state(rng), random_pure_state(rng)
        p = rng.uniform()
        mixed = p * np.outer(u, u.conj()) + (1.0 - p) * np.outer(v, v.conj())
        states.append(DensityMatrix.from_entries(Q2, mixed))
    states.append(_werner(1.0 / 3.0))
    h = build_xxx(XXXParams(1.0, 0.0, 2, "open"))
    states.extend(gibbs(h, float(t))[0] for t in np.linspace(3.55, 3.75, 21))
    return states


class TestAccuracy:
    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.4, 0.5, 0.7, 0.9, 1.0])
    def test_werner_family(self, p):
        assert abs(rg_exact_2q(_werner(p)).rg_value - max(0.0, (3.0 * p - 1.0) / 2.0)) <= 1e-8

    def test_hard_states_close_the_gap(self):
        for rho in _hard_states():
            trace = []
            cert = rg_exact_2q(rho, trace=trace)
            assert cert.duality_gap <= 1e-8
            for _, primal, dual in trace:
                assert dual <= primal + 1e-9

    def test_linalg_error_keeps_the_last_iterate(self, monkeypatch):
        """A failed solve ends the iteration; the last feasible iterate decides, as any other."""
        rho = rand_dm(np.random.default_rng(0))
        real_solve = np.linalg.solve
        solves = []

        def failing_after(limit):
            def solve(*args, **kwargs):
                solves.append(1)
                if len(solves) > limit:
                    raise np.linalg.LinAlgError("singular matrix")
                return real_solve(*args, **kwargs)

            return solve

        monkeypatch.setattr(np.linalg, "solve", failing_after(10))
        trace = []
        cert = rg_exact_2q(rho, trace=trace)
        assert len(trace) == 6  # the start and 5 iterations
        assert cert.duality_gap == trace[-1][1] - trace[-1][2]
        assert cert.duality_gap <= 1e-5
        solves.clear()
        monkeypatch.setattr(np.linalg, "solve", failing_after(2))
        with pytest.raises(NumericalError, match="did not converge"):
            rg_exact_2q(rho)


def _random_pd(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T + 0.1 * np.eye(dim)


def _sym(m):
    return (m + m.conj().T) / 2.0


class TestNewtonOperator:
    def test_matches_matrix_products(self):
        """The 16 x 16 matrix applied to vec(D) equals the operator built from 4 x 4 products."""
        from enwit.robustness import _operator, _pt

        rng = np.random.default_rng(11)
        for _ in range(5):
            blocks = np.stack([_random_pd(rng) for _ in range(4)])
            inv = np.linalg.inv(blocks)
            op = _operator(inv, blocks)
            for _ in range(4):
                g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                d = g + g.conj().T
                direct = _sym(inv[0] @ d @ blocks[2]) + _pt(_sym(inv[1] @ _pt(d) @ blocks[3]))
                assert np.abs(op @ d.reshape(16) - direct.reshape(16)).max() <= 1e-12


def _thermal(j, b, t):
    return gibbs(build_xxx(XXXParams(j, b, 2, "open")), t)[0]


class TestRgPin:
    """R_g on seeded states: the singlet's exact value 1, the others pinned to 12 digits."""

    @pytest.mark.parametrize(
        "make_rho, expected",
        [
            (singlet, 1.0),
            (lambda: _thermal(1.0, 0.0, 1.0), 0.895829987875),
            (lambda: _thermal(1.0, 0.3, 0.5), 0.996904245165),
            (lambda: _thermal(2.0, 1.5, 1.2), 0.966798568900),
            (lambda: _thermal(0.5, -0.2, 0.1), 0.999999770974),
            (lambda: rand_dm(np.random.default_rng(0)), 0.0193270609395),
            (lambda: rand_dm(np.random.default_rng(1)), 0.0377292906608),
            (lambda: rand_dm(np.random.default_rng(2)), 0.0576920656057),
        ],
        ids=[
            "singlet",
            "thermal_b0_t1",
            "thermal_b03_t05",
            "thermal_j2",
            "thermal_cold",
            "hs_seed0",
            "hs_seed1",
            "hs_seed2",
        ],
    )
    def test_value(self, make_rho, expected):
        assert abs(rg_exact_2q(make_rho()).rg_value - expected) <= 1e-8


class TestLinalgBudget:
    # numpy.linalg calls per solve: singlet 37, seeded HS state 37 (7 iterations each)
    @pytest.mark.parametrize(
        "make_rho",
        [singlet, lambda: rand_dm(np.random.default_rng(0))],
        ids=["singlet", "hs_seed0"],
    )
    def test_calls_per_solve(self, make_rho, monkeypatch):
        rho = make_rho()
        calls = []
        for name in ("cholesky", "inv", "solve", "eigvals", "eigvalsh", "eigh"):
            real = getattr(np.linalg, name)

            def counting(*args, _real=real, **kwargs):
                calls.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        rg_exact_2q(rho)
        assert 0 < len(calls) <= 60


class TestPureClosedForm:
    def test_product(self):
        assert rg_pure([1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_singlet(self):
        s = 1.0 / math.sqrt(2.0)
        assert rg_pure([s, s]) == pytest.approx(1.0, abs=1e-12)

    def test_skewed_state_vs_oracle(self):
        lam = [math.sqrt(0.9), math.sqrt(0.1)]
        assert rg_pure(lam) == pytest.approx(0.6, abs=1e-9)
        vec = lam[0] * np.array([1, 0, 0, 0]) + lam[1] * np.array([0, 0, 0, 1])
        cert = rg_exact_2q(DensityMatrix.pure(Q2, vec))
        assert abs(rg_pure(lam) - cert.rg_value) <= 1e-7

    def test_matches_sdp_on_random_pure_states(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            v = random_pure_state(rng)
            lam = np.linalg.svd(v.reshape(2, 2), compute_uv=False)
            cert = rg_exact_2q(DensityMatrix.pure(Q2, v))
            assert abs(rg_pure(lam) - cert.rg_value) <= 1e-7

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            rg_pure([1.0, 1.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rg_pure([-1.0])


class TestPptCheck:
    def test_singlet_margin(self):
        check = is_entangled_2q(singlet())
        assert check.entangled
        assert check.margin == pytest.approx(-0.5, abs=1e-12)

    def test_maximally_mixed(self):
        check = is_entangled_2q(DensityMatrix.from_entries(Q2, np.eye(4) / 4))
        assert not check.entangled
        assert check.margin == pytest.approx(0.25, abs=1e-12)

    def test_thermal_transition_by_bisection(self, h_xxx):
        h = h_xxx()

        def margin(t):
            rho, _ = gibbs(h, t)
            return is_entangled_2q(rho).margin

        lo, hi = 3.0, 4.5
        assert margin(lo) < 0 < margin(hi)
        for _ in range(60):
            mid = (lo + hi) / 2
            if margin(mid) < 0:
                lo = mid
            else:
                hi = mid
        t_star = (lo + hi) / 2
        assert t_star == pytest.approx(4.0 / math.log(3.0), abs=1e-3)
