import hashlib
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
        assert cert.rg_value == 0.0
        assert cert.primal_mixing.trace() == 0.0

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
    states.extend(_werner(p) for p in (1.0 / 3.0, 1.0 / 3.0 + 1e-6))
    h = build_xxx(XXXParams(1.0, 0.0, 2, "open"))
    states.extend(gibbs(h, float(t))[0] for t in np.linspace(3.55, 3.75, 21))
    return states


class TestAccuracy:
    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 1.0 / 3.0 + 1e-6, 0.4, 0.5, 0.7, 0.9, 1.0])
    def test_werner_family(self, p):
        assert abs(rg_exact_2q(_werner(p)).rg_value - max(0.0, (3.0 * p - 1.0) / 2.0)) <= 1e-8

    def test_hard_states_close_the_gap(self):
        """NPT states iterate, also just past the PPT edge; PPT states do not."""
        for rho in _hard_states():
            trace = []
            cert = rg_exact_2q(rho, trace=trace)
            assert cert.duality_gap <= 1e-8
            for _, primal, dual in trace:
                assert dual <= primal + 1e-9
            if is_entangled_2q(rho).entangled:
                assert len(trace) > 1 and cert.rg_value > 0.0
            else:
                assert trace == [(0.0, 0.0, 0.0)]

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
    return (m + np.swapaxes(m, -1, -2).conj()) / 2.0


def _ppt_hs_states(count):
    """Seeded Hilbert-Schmidt states whose partial transpose has no negative eigenvalue."""
    from enwit.robustness import _pt

    rng = np.random.default_rng(17)
    states = []
    while len(states) < count:
        rho = random_dm(rng)
        if np.linalg.eigvalsh(_pt(rho))[0] >= 0.0:
            states.append(DensityMatrix.from_entries(Q2, rho))
    return states


_PPT_STATES = [
    ("product_a", lambda: product_state(0.7, 1.1, 2.0, 0.3)),
    ("product_b", lambda: product_state(0.0, 0.0, math.pi, 0.0)),
    ("product_c", lambda: product_state(1.9, 4.0, 0.4, 5.5)),
    ("maximally_mixed", lambda: DensityMatrix.from_entries(Q2, np.eye(4) / 4.0)),
    ("werner_0", lambda: _werner(0.0)),
    ("werner_0.2", lambda: _werner(0.2)),
    ("werner_0.3", lambda: _werner(0.3)),
    ("thermal_t3.9", lambda: _thermal(1.0, 0.0, 3.9)),
    ("thermal_t4.0", lambda: _thermal(1.0, 0.0, 4.0)),
] + [(f"hs_ppt{k}", lambda k=k: _ppt_hs_states(4)[k]) for k in range(4)]


class TestZeroCertificate:
    """Two-qubit PPT states are separable: X = W = 0 certifies R_g = 0 with gap 0."""

    @pytest.mark.parametrize(
        "make_rho", [m for _, m in _PPT_STATES], ids=[i for i, _ in _PPT_STATES]
    )
    def test_ppt_state_is_exactly_zero(self, make_rho):
        rho = make_rho()
        assert not is_entangled_2q(rho).entangled
        trace = []
        cert = rg_exact_2q(rho, trace=trace)
        assert cert.rg_value == 0.0
        assert cert.duality_gap == 0.0
        assert not cert.primal_mixing.entries.any()
        assert not cert.dual_witness.entries.any()
        assert trace == [(0.0, 0.0, 0.0)]

    def test_certificate_is_still_checked(self, monkeypatch):
        import enwit.robustness as robustness

        checked = []
        monkeypatch.setattr(
            robustness, "_check_certificate", lambda *args: checked.append(args)
        )
        rho = _werner(0.2)
        rg_exact_2q(rho)
        assert len(checked) == 1
        rho_mat, x, w = checked[0]
        assert np.array_equal(rho_mat, rho.entries)
        assert not x.any() and not w.any()


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


class TestStepLength:
    @staticmethod
    def _reference(inv, delta):
        """The step from the eigenvalues of the nonsymmetric A^-1 dA."""
        lowest = np.linalg.eigvals(inv @ delta).real.min()
        return 0.98 / max(-lowest, 0.98)

    @staticmethod
    def _stack(rng):
        blocks = np.stack([_random_pd(rng) for _ in range(4)])
        inv = _sym(np.linalg.inv(blocks))
        whitener = np.linalg.cholesky(inv)
        return blocks, inv, (np.swapaxes(whitener, -1, -2).conj(), whitener)

    def test_matches_nonsymmetric_eigenvalues(self):
        """Cholesky whitening gives the step of min Re eig(A^-1 dA), within 1e-12 relative."""
        from enwit.robustness import _step_length

        rng = np.random.default_rng(12)
        steps = []
        for _ in range(20):
            blocks, inv, whitener = self._stack(rng)
            for scale in (0.1, 1.0, 10.0, 100.0):
                g = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
                delta = scale * (g + np.swapaxes(g, -1, -2).conj())
                expected = self._reference(inv, delta)
                step = _step_length(*whitener, delta)
                assert abs(step - expected) <= 1e-12 * expected
                steps.append(step)
        assert min(steps) < 0.1 and max(steps) == 1.0

    def test_full_step_when_no_block_reaches_its_boundary(self):
        """A direction that grows every block, or shrinks it by under 98%, keeps the step 1."""
        from enwit.robustness import _step_length

        rng = np.random.default_rng(13)
        for _ in range(10):
            blocks, inv, whitener = self._stack(rng)
            g = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
            growing = g @ np.swapaxes(g, -1, -2).conj()
            shrinking = -0.9 * blocks
            for delta in (growing, shrinking, growing + shrinking):
                assert self._reference(inv, delta) == 1.0
                assert _step_length(*whitener, delta) == 1.0


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
    # numpy.linalg calls per solve: singlet 44, seeded HS state 44 (7 iterations of one
    # inv, one cholesky, two solve and two eigvalsh, plus the eigvalsh of PT(rho) and of
    # the certificate check); I/4 2 (those two eigvalsh: PPT needs no iteration)
    @pytest.mark.parametrize(
        "make_rho, count",
        [
            (singlet, 44),
            (lambda: rand_dm(np.random.default_rng(0)), 44),
            (lambda: DensityMatrix.from_entries(Q2, np.eye(4) / 4.0), 2),
        ],
        ids=["singlet", "hs_seed0", "maximally_mixed"],
    )
    def test_calls_per_solve(self, make_rho, count, monkeypatch):
        rho = make_rho()
        calls = []
        for name in ("cholesky", "inv", "solve", "eigvals", "eigvalsh", "eigh"):
            real = getattr(np.linalg, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        rg_exact_2q(rho)
        assert len(calls) == count
        assert "eigvals" not in calls


def _seeded_states():
    """480 seeded states: Hilbert-Schmidt random and thermal two-site XXX, alternating."""
    rng = np.random.default_rng(2525)
    states = []
    for _ in range(240):
        states.append(rand_dm(rng))
        b, t = rng.uniform(0.0, 2.0), rng.uniform(0.05, 4.0)
        states.append(_thermal(1.0, b, t))
    return states


class TestIterationPins:
    """Per-state iteration counts and R_g values, recorded before the iteration was
    rewritten with its blocks updated in place; any change to the steps shows here."""

    COUNTS_SHA256 = "9e4fecb19074b907399a1e31657793d83ccb1abea7b0c7800e614690279fa133"
    # (index into _seeded_states(), R_g to 12 significant digits)
    RG = [
        (0, 0.0821278762139), (10, 0.165163815833), (18, 0.106861118323),
        (27, 0.0127066525034), (35, 0.567679821989), (43, 0.0048863976788),
        (50, 0.00923760141986), (58, 0.0059736581604), (66, 0.0428602299797),
        (75, 0.184283988472), (83, 0.0433243086732), (90, 0.405690084432),
        (98, 0.0473582886083), (107, 1.00000000024), (116, 0.0115876950145),
        (124, 0.0657912560313), (133, 0.0491759565283), (140, 0.519436007037),
        (150, 0.0493882145765), (157, 0.0165781596123), (167, 0.521708915768),
        (175, 0.12650717436), (182, 0.0633662705289), (189, 0.649290619496),
        (197, 0.999465019756), (207, 0.930729956103), (216, 0.0615241699525),
        (224, 0.0793451822589), (233, 0.435127676126), (243, 0.0929070558632),
        (251, 0.686789257458), (259, 0.747565176549), (267, 0.154303236332),
        (275, 0.645816933806), (284, 0.145660947769), (291, 0.178571375579),
        (300, 0.148619169483), (309, 0.154220835044), (317, 0.301351434655),
        (325, 0.0989868281577), (333, 0.0431023209667), (340, 0.00991874251201),
        (349, 0.0306444059889), (357, 0.208374392566), (365, 0.246800231963),
        (373, 0.995182460964), (381, 0.0530188755519), (389, 0.260775975407),
        (396, 0.0963424373129), (405, 0.277777067844),
    ]

    def test_iteration_counts_and_values(self):
        counts, values = [], []
        for rho in _seeded_states():
            trace = []
            values.append(rg_exact_2q(rho, trace=trace).rg_value)
            counts.append(len(trace) - 1)
        assert sum(c > 0 for c in counts) == 404  # the rest are PPT
        digest = hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()
        assert digest == self.COUNTS_SHA256
        for k, expected in self.RG:
            assert abs(values[k] - expected) <= 1e-9


class TestNearThePptEdge:
    """Just below T = 4/ln 3, the dimer's PPT edge for every B, a thermal state is
    entangled with R_g far below 1e-6; the library reports both consistently."""

    @pytest.mark.parametrize(
        "b, t",
        [(1.617539170914093, 3.64095532606061), (1.2121354536872477, 3.6409555974717565)],
    )
    def test_entangled_with_tiny_robustness(self, b, t):
        assert t < 4.0 / math.log(3.0)
        rho = _thermal(1.0, b, t)
        check = is_entangled_2q(rho)
        assert check.entangled and -1e-7 < check.margin < 0.0
        cert = rg_exact_2q(rho)
        assert 0.0 < cert.rg_value < 1e-6
        assert cert.duality_gap <= 1e-8


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
