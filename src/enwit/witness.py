"""Normalized energy witnesses and the robustness lower bound they certify.

The witness W = (H - E_sep I)/A with A = max(E_max - E_sep, E_sep - E_min)
satisfies W <= I because expectation values of H fill exactly
[E_min, E_max]; for any state with mean energy below E_sep this yields
R_g >= (E_sep - <H>)/A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .hamiltonians import XXXParams, build_xxx
from .operators import HermitianOperator, eig, expectation
from .sep_energy import (
    Partition,
    SepEnergyReport,
    closed_form_ansatz_xxx,
    esep_closed_form_xxx,
    esep_reference,
    esep_search,
    esep_seesaw,
)
from .thermal import energy_curve, ground_state

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


def _bound(w: WitnessSpec, mean_energy):
    """(esep - <H>)/A for one mean energy or an array of them, each within the spectral range.

    The range is widened by ``MEAN_RANGE_TOL`` times the largest |eigenvalue|
    of H, so the check does not depend on the energy unit.
    """
    m = np.asarray(mean_energy, dtype=float)
    slack = MEAN_RANGE_TOL * max(-w.e_min, w.e_max)
    outside = (m < w.e_min - slack) | (m > w.e_max + slack)
    if outside.any():
        raise ValueError(
            f"mean energy {m[outside][0]} lies outside the spectral range [{w.e_min}, {w.e_max}]"
        )
    return (w.esep - m) / w.normalizer_a


def robustness_lower_bound(w: WitnessSpec, mean_energy: float) -> BoundReport:
    """Evaluate (esep - <H>)/A for a measured or computed mean energy."""
    m = float(mean_energy)
    bound = float(_bound(w, m))
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

    ``kind`` is one of ``exact`` (:func:`esep_seesaw`), ``closed-form`` (two-site
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

    ``exact`` runs :func:`esep_seesaw` with one qubit per block, the only
    partition it searches.
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
    return esep_seesaw(h, Partition.singletons(h.shape.n_sites), restarts=restarts, seed=seed)


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


def sweep_single_hamiltonian(
    h: HermitianOperator,
    esep_report: SepEnergyReport,
    t_grid: Sequence[float],
    b_value: float = 0.0,
) -> np.recarray:
    """Bound columns along a temperature grid for one fixed Hamiltonian.

    Returns a record array of ``SWEEP_DTYPE``, one row per temperature;
    ``bound_raw`` is unclipped.  A temperature of exactly 0 is served by the
    ground state.
    """
    w = make_witness(h, esep_report)
    t = np.fromiter(t_grid, dtype=float)
    if not (t >= 0.0).all():
        raise ValueError("temperatures must be >= 0")
    positive = t > 0.0
    mean = np.empty_like(t)
    mean[positive] = energy_curve(h, t[positive]).mean_energy
    if not positive.all():
        mean[~positive] = expectation(h, ground_state(h))
    bound = _bound(w, mean)
    cells = np.recarray(t.size, dtype=SWEEP_DTYPE)
    cells.b = b_value
    cells.t = t
    cells.mean_energy = mean
    cells.esep = w.esep
    cells.normalizer_a = w.normalizer_a
    cells.bound_raw = bound
    cells.detected = bound > 0.0
    cells.entanglement_gap = w.entanglement_gap
    cells.restarts_agreeing = esep_report.restarts_agreeing
    return cells


def bound_sweep(
    params: XXXParams,
    policy: EsepPolicy,
    t_grid: Sequence[float],
    b_grid: Sequence[float],
    restarts: int = 32,
    seed: int = 0,
) -> np.recarray:
    """Robustness lower bounds on a (B, T) grid of thermal Heisenberg states.

    Every field's H is built from ``params`` first, E_sep resolved per the policy
    (``exact``: one :func:`esep_search` over all fields), and every temperature
    evaluated.  Returns a ``SWEEP_DTYPE`` record array, rows B-major then T.
    """
    t_list = [float(t) for t in t_grid]
    b_list = [float(b) for b in b_grid]
    if not t_list or not b_list:
        raise ValueError("grids must be nonempty")
    if any(y < x for x, y in zip(t_list, t_list[1:])) or any(
        y < x for x, y in zip(b_list, b_list[1:])
    ):
        raise ValueError("grids must be ascending")
    fields = [replace(params, field_b=b) for b in b_list]
    hs = [build_xxx(p) for p in fields]
    if policy.kind == "exact":
        reports = esep_search(hs, Partition.singletons(params.n_sites), restarts, seed)
    else:
        reports = [resolve_esep(policy, h, params=p) for h, p in zip(hs, fields)]
    parts = [  # pop drops each H, with its cached spectrum, once its field is swept
        sweep_single_hamiltonian(hs.pop(0), report, t_list, b_value=b)
        for report, b in zip(reports, b_list)
    ]
    return np.concatenate(parts).view(np.recarray)
