"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

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
    bound_sweep,
    build_xxx,
    energy_curve,
    esep_closed_form_xxx,
    esep_reference,
    esep_seesaw,
    gibbs,
    is_entangled_2q,
    make_witness,
    measure_energy,
    rg_exact_2q,
    robustness_lower_bound,
)
from enwit.cli import cmd_reproduce_figure, main
from enwit.operators import HermitianOperator
from enwit.states import singlet

from conftest import (
    full_vector,
    normalized_witness,
    random_ansatz,
    random_dm,
    random_pure_state,
    rg_pure,
)
from grid_oracle import esep_grid

Q2 = SystemShape([2, 2])
SINGLETONS = Partition.singletons(2)
T_DETECT = 2.0 / math.log(3.0)  # mean energy crosses -2
T_PPT = 4.0 / math.log(3.0)  # partial transpose changes sign


def thermal_mean(h, t):
    return energy_curve(h, [t])[0].mean_energy


def bisect(f, lo, hi, iters=50):
    f_lo = f(lo)
    assert f_lo * f(hi) < 0, "bisection bracket must straddle the root"
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(mid) * f_lo > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_criterion_01_bound_at_zero_temperature_preset():
    h = build_xxx(XXXParams(1.0, 0.0))
    w = make_witness(h, esep_reference(-2.0))
    assert w.normalizer_a == pytest.approx(3.0, abs=1e-12)
    bound = robustness_lower_bound(w, thermal_mean(h, 0.01)).bound
    assert abs(bound - 1.0 / 3.0) <= 0.005
    assert abs(bound - 0.33) <= 0.005
    print(f"\ncriterion 01 PASS: preset bound at T->0 is {bound:.6f} (1/3 within 0.005)")


def test_criterion_02_detection_threshold_preset():
    h = build_xxx(XXXParams(1.0, 0.0))
    w = make_witness(h, esep_reference(-2.0))

    def signed_bound(t):
        return robustness_lower_bound(w, thermal_mean(h, t)).bound

    t_star = bisect(signed_bound, 1.5, 2.5)
    assert abs(t_star - T_DETECT) <= 0.001
    assert t_star >= 1.82
    print(
        f"criterion 02 PASS: preset bound changes sign at T = {t_star:.4f} "
        f"(2/ln3 = {T_DETECT:.4f} within 0.001)"
    )


def test_criterion_03_true_transition():
    h = build_xxx(XXXParams(1.0, 0.0))

    def margin(t):
        rho, _ = gibbs(h, t)
        return is_entangled_2q(rho).margin

    t_star = bisect(margin, 3.0, 4.5)
    assert abs(t_star - T_PPT) <= 0.001
    # the commonly quoted 3.65 is a rounding of 4/ln3; the gap stays below 0.01
    assert abs(t_star - 3.65) <= 0.01
    print(
        f"criterion 03 PASS: PPT flip at T = {t_star:.4f} "
        f"(4/ln3 = {T_PPT:.4f} within 0.001; quoted 3.65 differs by {abs(t_star-3.65):.4f})"
    )


def test_criterion_04_singlet_robustness():
    cert = rg_exact_2q(singlet())
    assert abs(cert.rg_value - 1.0) <= 1e-5
    assert cert.duality_gap <= 1e-5
    print(
        f"criterion 04 PASS: rg(singlet) = {cert.rg_value:.7f} "
        f"(1 within 1e-5, gap {cert.duality_gap:.1e})"
    )


def test_criterion_05_soundness_sweep():
    b_values = np.linspace(0.0, 2.0, 41)
    t_values = np.linspace(0.05, 4.0, 40)
    worst = -np.inf
    for b in b_values:
        h = build_xxx(XXXParams(1.0, float(b)))
        w = make_witness(h, esep_seesaw(h, SINGLETONS, restarts=32, seed=17))
        points = energy_curve(h, t_values)
        for t, pt in zip(t_values, points):
            bound = robustness_lower_bound(w, pt.mean_energy).bound
            rho, _ = gibbs(h, float(t))
            rg = rg_exact_2q(rho).rg_value
            assert bound <= rg + 1e-6, (b, t, bound, rg)
            worst = max(worst, bound - rg)
    print(
        f"criterion 05 PASS: bound <= rg + 1e-6 on all {len(b_values) * len(t_values)} "
        f"grid points (worst bound - rg = {worst:.2e})"
    )


def test_criterion_06_esep_correctness():
    worst_seesaw = 0.0
    worst_grid = 0.0
    for b in np.linspace(-4.0, 4.0, 41):
        p = XXXParams(1.0, float(b))
        h = build_xxx(p)
        exact = esep_closed_form_xxx(p)
        if abs(b) <= 2.0:
            assert exact == pytest.approx(-1.0 - b * b / 2.0, abs=1e-12)
        else:
            assert exact == pytest.approx(1.0 - 2.0 * abs(b), abs=1e-12)
        see = esep_seesaw(h, SINGLETONS, restarts=32, seed=23).esep
        grid = esep_grid(h, [[0], [1]], 128)
        assert abs(see - exact) <= 1e-7, (b, see, exact)
        assert abs(grid - exact) <= 2e-3, (b, grid, exact)
        worst_seesaw = max(worst_seesaw, abs(see - exact))
        worst_grid = max(worst_grid, abs(grid - exact))
    print(
        f"criterion 06 PASS: seesaw matches closed form within {worst_seesaw:.1e} "
        f"(tol 1e-7), grid(128) within {worst_grid:.1e} (tol 2e-3) on 41 fields"
    )


def test_criterion_07_witness_validity_on_product_states():
    rng = np.random.default_rng(29)
    worst = np.inf
    for b in (0.0, 1.3):
        h = build_xxx(XXXParams(1.0, b))
        w = make_witness(h, esep_seesaw(h, SINGLETONS, restarts=32, seed=31))
        wmat = normalized_witness(w).entries
        vecs = np.stack([full_vector(random_ansatz(2, rng)) for _ in range(1000)])
        vals = np.einsum("ij,jk,ik->i", vecs.conj(), wmat, vecs).real
        assert vals.min() >= -1e-9
        worst = min(worst, float(vals.min()))
    print(
        f"criterion 07 PASS: Tr(W sigma) >= -1e-9 on 2x1000 random product states "
        f"(minimum seen {worst:.2e})"
    )


def test_criterion_08_oracle_self_consistency():
    rng = np.random.default_rng(37)
    for _ in range(200):
        rho = DensityMatrix.from_entries(Q2, random_dm(rng))
        trace = []
        cert = rg_exact_2q(rho, trace=trace)
        for _, primal, dual in trace:
            assert dual <= primal + 1e-9
        assert is_entangled_2q(rho).entangled == (cert.rg_value > 1e-6)
    worst = 0.0
    for _ in range(50):
        v = random_pure_state(rng)
        lam = np.linalg.svd(v.reshape(2, 2), compute_uv=False)
        cert = rg_exact_2q(DensityMatrix.pure(Q2, v))
        err = abs(rg_pure(lam) - cert.rg_value)
        assert err <= 1e-7
        worst = max(worst, err)
    print(
        "criterion 08 PASS: weak duality on every stage, rg = 0 iff PPT on 200 states, "
        f"rg_pure vs SDP within {worst:.1e} on 50 pure states (tol 1e-7)"
    )


def test_criterion_09_affine_invariance():
    worst = 0.0
    for b in np.linspace(0.0, 2.0, 41):
        p = XXXParams(1.0, float(b))
        h = build_xxx(p)
        esep = esep_closed_form_xxx(p)
        w1 = make_witness(h, esep_reference(esep))
        h2 = HermitianOperator(Q2, 2.0 * h.entries + 5.0 * np.eye(4))
        w2 = make_witness(h2, esep_reference(2.0 * esep + 5.0))
        for pt in energy_curve(h, np.linspace(0.05, 4.0, 40)):
            b1 = robustness_lower_bound(w1, pt.mean_energy).bound
            b2 = robustness_lower_bound(w2, 2.0 * pt.mean_energy + 5.0).bound
            assert abs(b1 - b2) <= 1e-10
            worst = max(worst, abs(b1 - b2))
    print(f"criterion 09 PASS: bounds invariant under H -> 2H + 5I (worst drift {worst:.1e})")


def test_criterion_10_measurement_statistics():
    h = build_xxx(XXXParams(1.0, 0.0))
    rho, pt = gibbs(h, 1.0)
    ratios = []
    for seed in range(20):
        small = measure_energy(h, rho, shots=10_000, seed=seed)
        large = measure_energy(h, rho, shots=1_000_000, seed=seed)
        ratio = small.stderr / large.stderr
        assert 8.0 <= ratio <= 12.5
        ratios.append(ratio)
        assert abs(small.mean - pt.mean_energy) <= 4.0 * small.stderr
        assert abs(large.mean - pt.mean_energy) <= 4.0 * large.stderr
    print(
        f"criterion 10 PASS: stderr ratios in [{min(ratios):.2f}, {max(ratios):.2f}] "
        "(band [8, 12.5]), all means within 4 sigma"
    )


# sha256 of the reference figure files; any change to the sweep arithmetic or
# the CSV writer that alters a printed digit changes these.
FIGURE_SHA256 = {
    "figure_preset_b0.csv": "90999b931eb260793f89c085920c72f9c7f2173bea39c50c19340e2eef498dd5",
    "figure_closed_form.csv": "0495f82747e8c2093ca98f61850edf1054e9ffc26e2c3f956b0a0015c6b81f05",
}


def test_criterion_11_reproducible_figure_output(tmp_path, capsys):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert cmd_reproduce_figure(str(dir_a)) == 0
    assert cmd_reproduce_figure(str(dir_b)) == 0
    capsys.readouterr()
    names = list(FIGURE_SHA256)
    for name in names:
        data = (dir_a / name).read_bytes()
        assert data == (dir_b / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == FIGURE_SHA256[name], name
    print(
        f"criterion 11 PASS: {' and '.join(names)} byte-identical across runs "
        "and to the recorded sha256 digests"
    )


# sha256 of the 41 x 400 exact-policy sweep at seed 0: the E_sep search, the
# thermal table and the CSV writer all show in it.  The search meets the closed
# form to every printed digit and ``detected`` is read from the printed bound,
# so the file is the closed-form figure's, byte for byte.
EXACT_SWEEP_SHA256 = "0495f82747e8c2093ca98f61850edf1054e9ffc26e2c3f956b0a0015c6b81f05"


def test_exact_sweep_output_is_pinned(tmp_path, capsys):
    path = tmp_path / "exact.csv"
    argv = [
        "bound-sweep", "--J", "1", "--policy", "exact", "--seed", "0",
        "--T-min", "0.01", "--T-max", "4", "--T-steps", "400",
        "--B-min", "0", "--B-max", "2", "--B-steps", "41", "--out", str(path),
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == f"wrote {path} (16400 rows)\n"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXACT_SWEEP_SHA256
    print("exact sweep PASS: 41 x 400 CSV matches its recorded sha256, nothing on stderr")
