"""Normalized energy witnesses and the robustness lower bound they certify.

The witness W = (H - E_sep I)/A with A = max(E_max - E_sep, E_sep - E_min)
satisfies W <= I because expectation values of H fill exactly
[E_min, E_max]; for any state with mean energy below E_sep this yields
R_g >= (E_sep - <H>)/A.

A sweep is one array pass over its (F fields, T temperatures) grid: one
witness per field, then the mean energies of every field from one stacked
Boltzmann table (:func:`enwit.thermal.energy_table`), the range check and
the bounds in one call each, and each column of the ``SWEEP_DTYPE`` record
array written once (:func:`sweep_fields`).  :func:`resolve_fields` is the one
place an ``EsepPolicy`` is turned into E_sep reports, and :func:`energy_bound`
the one place a bound and its detection are formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .hamiltonians import XXXParams, build_xxx
from .operators import HermitianOperator, eig, expectation
from .sep_energy import SepEnergyReport, esep_closed_form_xxx, esep_reference, esep_search
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

    bound: float
    detected: bool


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
        esep=esep,
        e_min=dec.e_min,
        e_max=dec.e_max,
        normalizer_a=a,
        conservative_esep=esep < dec.e_min - CONSERVATIVE_ESEP_TOL * scale,
    )


def energy_bound(esep, a, mean, margin=0.0):
    """The bound (esep - <H> - margin)/A and whether it detects (bound > 0).

    Scalars or arrays that broadcast; ``margin`` is subtracted after
    esep - <H>, so a margin of 0 leaves every bit of the bound as it is.
    No range check is made here (see :func:`_check_range`).
    """
    bound = (esep - mean - margin) / a
    return bound, bound > 0.0


def _check_range(e_min, e_max, mean: np.ndarray) -> None:
    """Refuse an (F, T) table of mean energies with a row f outside field f's spectral range.

    The spectral ends are scalars or (F, 1) columns.  Each range is widened
    by ``MEAN_RANGE_TOL`` times the largest |eigenvalue| of its H, so the
    check does not depend on the energy unit; a NaN mean is outside every
    range.  The refusal names the first mean outside its range, field-major.
    """
    slack = MEAN_RANGE_TOL * np.maximum(-e_min, e_max)
    outside = ~((mean >= e_min - slack) & (mean <= e_max + slack))
    if outside.any():
        f, k = np.argwhere(outside)[0]
        lo, hi = (np.broadcast_to(e, mean.shape)[f, k] for e in (e_min, e_max))
        raise ValueError(f"mean energy {mean[f, k]} lies outside the spectral range [{lo}, {hi}]")


def robustness_lower_bound(w: WitnessSpec, mean_energy: float) -> BoundReport:
    """Evaluate (esep - <H>)/A for a measured or computed mean energy in H's spectral range."""
    m = float(mean_energy)
    _check_range(w.e_min, w.e_max, np.array([[m]]))
    bound, detected = energy_bound(w.esep, w.normalizer_a, m)
    return BoundReport(bound=bound, detected=detected)


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


def resolve_fields(
    policy: EsepPolicy,
    hs: Sequence[HermitianOperator],
    params: Sequence[Optional[XXXParams]],
    restarts: int = 32,
    seed: int = 0,
) -> list[SepEnergyReport]:
    """One SepEnergyReport per Hamiltonian of ``hs``, according to the policy.

    ``params[j]`` describes ``hs[j]`` as an XXX chain, or is ``None`` for
    any other model.  ``exact`` runs one :func:`esep_search` over all of
    ``hs``; ``fixed`` wraps its value once per field; ``closed-form``
    evaluates the two-site formula at each ``params[j]``.  Every report is
    built in :mod:`enwit.sep_energy`.
    """
    if policy.kind == "exact":
        return esep_search(hs, restarts=restarts, seed=seed)
    if policy.kind == "fixed":
        return [esep_reference(policy.value) for _ in hs]
    if any(p is None for p in params):
        raise ValueError("closed-form policy needs the xxx model")
    return [esep_closed_form_xxx(p) for p in params]


def resolve_esep(
    policy: EsepPolicy,
    h: HermitianOperator,
    params: Optional[XXXParams] = None,
    restarts: int = 32,
    seed: int = 0,
) -> SepEnergyReport:
    """:func:`resolve_fields` for the one Hamiltonian ``h``."""
    return resolve_fields(policy, [h], [params], restarts, seed)[0]


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


def sweep_fields(
    hs: list[HermitianOperator],
    reports: Sequence[SepEnergyReport],
    t_grid: Sequence[float],
    b_values: Sequence[float],
) -> np.recarray:
    """Bound columns of the built fields ``hs`` at every temperature of ``t_grid``.

    Field j is ``hs[j]``, with E_sep from ``reports[j]``, and is printed at
    B = ``b_values[j]``.  One witness per field, then one array pass over
    the (F, T) grid: the thermal means of all fields from one
    :func:`energy_table`, the range check, the bounds in one
    :func:`energy_bound`, and each ``SWEEP_DTYPE`` column written once.
    Returns a ``SWEEP_DTYPE`` record array, rows field-major then T;
    ``bound_raw`` is unclipped.
    T = 0 is served by each field's ground state.  ``hs`` is emptied: each
    H is popped off as soon as its numbers are read, so, unless the caller
    keeps it, its cached spectrum goes with it.
    """
    t = np.array(t_grid, dtype=float)
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
        del h  # the last field is released too
    mean = np.empty((len(ws), t.size))
    mean[:, positive] = energy_table(np.stack(spectra), t[positive])[1]
    if ground:
        mean[:, ~positive] = np.array(ground)[:, None]
    esep, e_min, e_max, a = np.array(
        [[w.esep, w.e_min, w.e_max, w.normalizer_a] for w in ws]
    ).T[..., None]  # (F, 1) columns
    _check_range(e_min, e_max, mean)
    bound, detected = energy_bound(esep, a, mean)
    cells = np.recarray(mean.size, dtype=SWEEP_DTYPE)
    cells.b = np.repeat(b_values, t.size)
    cells.t = np.tile(t, len(ws))
    cells.mean_energy = mean.ravel()
    cells.esep = np.repeat(esep, t.size)
    cells.normalizer_a = np.repeat(a, t.size)
    cells.bound_raw = bound.ravel()
    cells.detected = detected.ravel()
    cells.entanglement_gap = np.repeat(esep - e_min, t.size)
    cells.restarts_agreeing = np.repeat([r.restarts_agreeing for r in reports], t.size)
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

    Builds every field's H from ``params``, resolves E_sep for all of them
    per the policy (:func:`resolve_fields`), and sweeps them in one array
    pass (:func:`sweep_fields`).  Returns a ``SWEEP_DTYPE`` record array,
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
    fields = [replace(params, field_b=b) for b in b_list]
    hs = [build_xxx(p) for p in fields]
    reports = resolve_fields(policy, hs, fields, restarts, seed)
    return sweep_fields(hs, reports, t_list, b_list)
