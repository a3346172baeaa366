"""Soundness audit: printed bounds checked against the exact R_g over seeded families.

A bound is sound when it is at most the state's exact generalized
robustness; the tolerance is the one ``enwit robustness`` uses before it
prints ``>!`` and exits 3.  Each family's sizes are fixed here and are not
tuned to its outcome.

Family 1: 200 random two-qubit Pauli Hamiltonians, ``default_rng(32)``, each
a sum of 2-15 distinct non-identity strings with N(0, 1) coefficients.  Each
is audited at its ground state and at its Gibbs states at 0.05 and 0.3 times
its spectral width, through the library path every command uses
(``resolve_esep`` under ``exact`` with 32 restarts and seed 0,
``make_witness``, ``robustness_lower_bound``), against ``rg_exact_2q``.
"""

import itertools

import numpy as np
import pytest

from enwit import (
    EsepPolicy,
    PauliString,
    SystemShape,
    build_pauli,
    eig,
    expectation,
    gibbs,
    ground_state,
    make_witness,
    resolve_esep,
    rg_exact_2q,
    robustness_lower_bound,
)
from enwit.cli import main

SOUND_TOL = 1e-6  # the CLI's `>!` tolerance on bound - R_g
TWO_QUBIT_STRINGS = ["".join(s) for s in itertools.product("IXYZ", repeat=2)][1:]
N_HAMILTONIANS = 200
WIDTH_FRACTIONS = (0.05, 0.3)  # Gibbs temperatures, in units of the spectral width


def _two_qubit_family() -> list[list[PauliString]]:
    rng = np.random.default_rng(32)
    family = []
    for _ in range(N_HAMILTONIANS):
        k = int(rng.integers(2, 16))
        picked = rng.choice(len(TWO_QUBIT_STRINGS), size=k, replace=False)
        coefficients = rng.normal(size=k)
        family.append(
            [PauliString(float(c), TWO_QUBIT_STRINGS[i]) for c, i in zip(coefficients, picked)]
        )
    return family


def _states(h):
    """(label, temperature or None, state): the ground state, then each Gibbs state."""
    dec = eig(h)
    yield "ground", None, ground_state(h)
    for fraction in WIDTH_FRACTIONS:
        t = fraction * (dec.e_max - dec.e_min)
        yield "thermal", t, gibbs(h, t)[0]


def _audit(terms):
    """One row per state of ``terms``'s H: (label, T, bound, R_g, duality gap)."""
    h = build_pauli(SystemShape([2, 2]), terms)
    w = make_witness(h, resolve_esep(EsepPolicy("exact"), h, None, 32, 0))
    rows = []
    for label, t, rho in _states(h):
        cert = rg_exact_2q(rho)
        bound = robustness_lower_bound(w, expectation(h, rho)).bound
        rows.append((label, t, bound, cert.rg_value, cert.duality_gap))
    return rows


@pytest.fixture(scope="module")
def two_qubit_audit():
    family = _two_qubit_family()
    return family, [_audit(terms) for terms in family]


def test_two_qubit_pauli_family_is_sound(two_qubit_audit):
    _, audits = two_qubit_audit
    rows = [row for rows in audits for row in rows]
    margins = np.array([bound - rg for _, _, bound, rg, _ in rows])
    detected = sum(bound > 0.0 for _, _, bound, _, _ in rows)
    print(
        f"two-qubit Pauli family: {len(rows)} states, {detected} detected, "
        f"worst bound - R_g = {margins.max():.3e}"
    )
    assert len(rows) == N_HAMILTONIANS * (1 + len(WIDTH_FRACTIONS))
    assert 0 < detected < len(rows)
    unsound = np.flatnonzero(margins > SOUND_TOL)
    assert unsound.size == 0, [(i // 3, rows[i]) for i in unsound]


@pytest.mark.parametrize("index", [0, 1, 2])
def test_cli_prints_and_checks_the_same_bounds(index, two_qubit_audit, tmp_path, capsys):
    """`enwit robustness --model pauli-file` prints each bound of the library path
    and its `<=` check, for the ground state and both Gibbs states."""
    family, audits = two_qubit_audit
    pf = tmp_path / "h.txt"
    pf.write_text("".join(f"{term.coefficient!r} {term.letters}\n" for term in family[index]))
    for label, t, bound, rg, gap in audits[index]:
        argv = ["robustness", "--model", "pauli-file", "--pauli-file", str(pf), "--state", label]
        code = main(argv + ([] if t is None else ["--T", repr(t)]))
        out = capsys.readouterr().out
        assert code == 0
        assert out == (
            f"rg_value = {rg:.5f}\n"
            f"duality_gap = {gap:.3e}\n"
            f"energy_bound = {bound:.5f} (<= rg_value)\n"
        )
