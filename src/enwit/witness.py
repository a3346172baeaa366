"""Normalized energy witnesses and the robustness lower bound they certify.

The witness W = (H - E_sep I)/A with A = max(E_max - E_sep, E_sep - E_min)
satisfies W <= I because expectation values of H fill exactly
[E_min, E_max]; for any state with mean energy below E_sep this yields
R_g >= (E_sep - <H>)/A.

A sweep is one array pass over its (F fields, T temperatures) grid: one
witness per field, then the mean energies of every field from one stacked
Boltzmann table (:func:`enwit.thermal.energy_table`), the range checks and
bounds in one call, and each column of the ``SWEEP_DTYPE`` record array
written once.  :func:`sweep_single_hamiltonian` is the same pass with F = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .hamiltonians import XXXParams, build_xxx
from .operators import HermitianOperator, eig, expectation
from .sep_energy import (
    SepEnergyReport,
    closed_form_ansatz_xxx,
    esep_closed_form_xxx,
    esep_reference,
    esep_search,
)
from .thermal import energy_table, ground_state

DEGENERATE_NORMALIZER = 1e-12
CONSERVATIVE_ESEP_TOL = 1e-9
MEAN_RANGE_TOL = 1e-6


@dataclass(frozen=True)
class WitnessSpec:
    """All the numbers that define the normalized energy witness.

    ``conservative_esep`` is set when the supplied separability energy lies
    below the ground energy, by more than ``CONSERVATIVE_ESEP_TOL`` times the
    largest |eigenvalue| of H; that makes the witness vacuous but still valid.
    """

    hamiltonian: HermitianOperator
    esep: float
    e_min: float
    e_max: float
    normalizer_a: float
    conservative_esep: bool = False

    @property
    def entanglement_gap(self) -> float:
        return self.esep - self.e_min


@dataclass(frozen=True)
class BoundReport:
    """The robustness lower bound at one mean energy (unclipped; may be negative)."""

    mean_energy: float
    esep: float
    bound: float
    detected: bool
    entanglement_gap: float


def make_witness(h: HermitianOperator, esep_report: SepEnergyReport) -> WitnessSpec:
    """Build the normalized witness for ``h`` from a separability-energy report."""
    dec = eig(h)
    esep = float(esep_report.esep)
    a = max(dec.e_max - esep, esep - dec.e_min)
    scale = max(-dec.e_min, dec.e_max)
    # relative to the spectral scale below unit scale, so scaling H down keeps its witness
    if a <= DEGENERATE_NORMALIZER * min(1.0, scale):
        raise ValueError("constant Hamiltonian: the energy witness does not exist")
    return WitnessSpec(
        hamiltonian=h,
        esep=esep,
        e_min=dec.e_min,
        e_max=dec.e_max,
        normalizer_a=a,
        conservative_esep=esep < dec.e_min - CONSERVATIVE_ESEP_TOL * scale,
    )


def _bound(esep, e_min, e_max, a, mean: np.ndarray) -> np.ndarray:
    """(esep - <H>)/A for an (F, T) table of mean energies, row f within field f's spectral range.

    The witness numbers are scalars or (F, 1) columns.  Each range is widened
    by ``MEAN_RANGE_TOL`` times the largest |eigenvalue| of its H, so the
    check does not depend on the energy unit; the refusal names the first
    mean outside its range, field-major.
    """
    slack = MEAN_RANGE_TOL * np.maximum(-e_min, e_max)
    outside = (mean < e_min - slack) | (mean > e_max + slack)
    if outside.any():
        f, k = np.argwhere(outside)[0]
        lo, hi = (np.broadcast_to(e, mean.shape)[f, k] for e in (e_min, e_max))
        raise ValueError(f"mean energy {mean[f, k]} lies outside the spectral range [{lo}, {hi}]")
    return (esep - mean) / a


def robustness_lower_bound(w: WitnessSpec, mean_energy: float) -> BoundReport:
    """Evaluate (esep - <H>)/A for a measured or computed mean energy."""
    m = float(mean_energy)
    bound = float(_bound(w.esep, w.e_min, w.e_max, w.normalizer_a, np.array([[m]]))[0, 0])
    return BoundReport(
        mean_energy=m,
        esep=w.esep,
        bound=bound,
        detected=bound > 0.0,
        entanglement_gap=w.entanglement_gap,
    )


@dataclass(frozen=True)
class EsepPolicy:
    """How to obtain E_sep for each Hamiltonian in a sweep.

    ``kind`` is one of ``exact`` (:func:`esep_search`), ``closed-form`` (two-site
    Heisenberg analytic value) or ``fixed`` (a user-supplied constant,
    carried in ``value``).
    """

    kind: str
    value: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("exact", "closed-form", "fixed"):
            raise ValueError(f"unknown esep policy {self.kind!r}")
        if self.kind == "fixed" and (self.value is None or not math.isfinite(self.value)):
            raise ValueError("fixed policy needs a finite value")

    @staticmethod
    def parse(text: str) -> "EsepPolicy":
        t = text.strip()
        if t.startswith("fixed:"):
            return EsepPolicy("fixed", float(t.split(":", 1)[1]))
        return EsepPolicy(t)


def resolve_esep(
    policy: EsepPolicy,
    h: HermitianOperator,
    params: Optional[XXXParams] = None,
    restarts: int = 32,
    seed: int = 0,
) -> SepEnergyReport:
    """Produce a SepEnergyReport for ``h`` according to the policy.

    ``exact`` runs :func:`esep_search` on ``h`` alone.
    """
    if policy.kind == "fixed":
        return esep_reference(policy.value)
    if policy.kind == "closed-form":
        if params is None:
            raise ValueError("closed-form policy needs the xxx model")
        return SepEnergyReport(
            esep=esep_closed_form_xxx(params),
            minimizer=closed_form_ansatz_xxx(params),
            restarts_used=0,
            restarts_agreeing=0,
            converged=True,
            source="closed-form",
        )
    return esep_search([h], restarts=restarts, seed=seed)[0]


SWEEP_DTYPE = np.dtype(
    [
        ("b", float),
        ("t", float),
        ("mean_energy", float),
        ("esep", float),
        ("normalizer_a", float),
        ("bound_raw", float),
        ("detected", bool),
        ("entanglement_gap", float),
        ("restarts_agreeing", int),
    ]
)


def _sweep(
    hs: list[HermitianOperator],
    reports: Sequence[SepEnergyReport],
    t: np.ndarray,
    b_values: Sequence[float],
) -> np.recarray:
    """Bound columns of the fields ``hs`` (E_sep from ``reports``) at every temperature of ``t``.

    One witness per field, then one array pass over the (F, T) grid: the
    thermal means of all fields from one :func:`energy_table`, the range
    checks and bounds in one :func:`_bound`, and each ``SWEEP_DTYPE`` column
    written once.  T = 0 is served by each field's ground state.  Each H is
    popped off ``hs`` as soon as its numbers are read, so its cached
    spectrum goes with it.
    """
    if not (t >= 0.0).all():
        raise ValueError("temperatures must be >= 0")
    positive = t > 0.0
    ws, spectra, ground = [], [], []
    for report in reports:
        h = hs.pop(0)
        ws.append(make_witness(h, report))
        spectra.append(eig(h).eigenvalues)
        if not positive.all():
            ground.append(expectation(h, ground_state(h)))
    mean = np.empty((len(ws), t.size))
    mean[:, positive] = energy_table(np.stack(spectra), t[positive])[1]
    if ground:
        mean[:, ~positive] = np.array(ground)[:, None]
    esep, e_min, e_max, a = np.array(
        [[w.esep, w.e_min, w.e_max, w.normalizer_a] for w in ws]
    ).T[..., None]  # (F, 1) columns
    bound = _bound(esep, e_min, e_max, a, mean).ravel()
    cells = np.recarray(mean.size, dtype=SWEEP_DTYPE)
    cells.b = np.repeat(b_values, t.size)
    cells.t = np.tile(t, len(ws))
    cells.mean_energy = mean.ravel()
    cells.esep = np.repeat(esep, t.size)
    cells.normalizer_a = np.repeat(a, t.size)
    cells.bound_raw = bound
    cells.detected = bound > 0.0
    cells.entanglement_gap = np.repeat(esep - e_min, t.size)
    cells.restarts_agreeing = np.repeat([r.restarts_agreeing for r in reports], t.size)
    return cells


def sweep_single_hamiltonian(
    h: HermitianOperator,
    esep_report: SepEnergyReport,
    t_grid: Sequence[float],
    b_value: float = 0.0,
) -> np.recarray:
    """Bound columns along a temperature grid for one fixed Hamiltonian.

    Returns a record array of ``SWEEP_DTYPE``, one row per temperature;
    ``bound_raw`` is unclipped.  A temperature of exactly 0 is served by the
    ground state.  This is :func:`bound_sweep`'s array pass for one field.
    """
    return _sweep([h], [esep_report], np.fromiter(t_grid, dtype=float), [b_value])


def bound_sweep(
    params: XXXParams,
    policy: EsepPolicy,
    t_grid: Sequence[float],
    b_grid: Sequence[float],
    restarts: int = 32,
    seed: int = 0,
) -> np.recarray:
    """Robustness lower bounds on a (B, T) grid of thermal Heisenberg states.

    Every field's H is built from ``params`` first and E_sep resolved per the
    policy (``exact``: one :func:`esep_search` over all fields).  Then one
    array pass covers the whole grid: each field's witness, the thermal
    means of all fields from one stacked table, and the bounds and record
    columns, each computed once.  Returns a ``SWEEP_DTYPE`` record array,
    rows B-major then T.
    """
    t_list = [float(t) for t in t_grid]
    b_list = [float(b) for b in b_grid]
    if not t_list or not b_list:
        raise ValueError("grids must be nonempty")
    if any(y < x for x, y in zip(t_list, t_list[1:])) or any(
        y < x for x, y in zip(b_list, b_list[1:])
    ):
        raise ValueError("grids must be ascending")
    hs = [build_xxx(replace(params, field_b=b)) for b in b_list]
    return _sweep_fields(params, hs, policy, t_list, b_list, restarts, seed)


def _sweep_fields(
    params: XXXParams,
    hs: list[HermitianOperator],
    policy: EsepPolicy,
    t_list: list[float],
    b_list: list[float],
    restarts: int,
    seed: int,
) -> np.recarray:
    """:func:`bound_sweep` once every field's H is built: ``hs[j]`` is ``params`` at ``b_list[j]``.

    The CLI builds the fields itself to refute a ``fixed:`` E_sep first, and
    hands that list in here, so no field is built twice.
    """
    if policy.kind == "exact":
        reports = esep_search(hs, restarts, seed)
    else:
        reports = [
            resolve_esep(policy, h, params=replace(params, field_b=b)) for h, b in zip(hs, b_list)
        ]
    return _sweep(hs, reports, np.array(t_list), b_list)
