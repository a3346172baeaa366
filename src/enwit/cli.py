"""Command-line front end.

Subcommands: spectrum | esep | witness | bound-sweep | robustness | measure |
reproduce-figure.  Options can also be supplied through a config file of
``key: value`` lines (same keys as the flags); flags override the file.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import states
from .errors import NumericalError
from .hamiltonians import (
    XXXParams,
    build_pauli,
    build_xxx,
    level_degeneracies,
    parse_pauli_terms,
    summarize,
)
from .measurement import bound_with_confidence, measure_energy
from .operators import DensityMatrix, HermitianOperator, SystemShape, expectation
from .robustness import rg_exact_2q
from .sep_energy import SepEnergyReport
from .thermal import gibbs, ground_state
from .witness import (
    EsepPolicy,
    bound_sweep,
    make_witness,
    resolve_esep,
    robustness_lower_bound,
    sweep_single_hamiltonian,
)

CSV_HEADER = "B,T,mean_energy,esep,A,bound_raw,bound_clipped,detected"


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("grid steps must be >= 1")
        if self.lo > self.hi:
            raise ConfigError("grid min must not exceed max")

    def values(self) -> list[float]:
        if self.steps == 1:
            return [self.lo]
        return [self.lo + (self.hi - self.lo) * k / (self.steps - 1) for k in range(self.steps)]


@dataclass(frozen=True)
class RunConfig:
    model: str
    coupling_j: Optional[float]
    b_grid: GridSpec
    t_grid: GridSpec
    esep_policy: EsepPolicy
    restarts: int
    seed: int
    output_path: str
    precision_digits: int
    n_sites: int
    boundary: str
    double_count_two_site_bond: bool
    pauli_file: Optional[str]
    state: str
    shots: int
    z: float

    def __post_init__(self):
        if self.model not in ("xxx", "pauli-file"):
            raise ConfigError(f"model must be 'xxx' or 'pauli-file', got {self.model!r}")
        if not (6 <= self.precision_digits <= 17):
            raise ConfigError("precision must lie in [6, 17]")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        if self.z < 0:
            raise ConfigError("z must be >= 0")


def _flag(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


# option name -> (parser from string, default, extra argparse keywords).  The
# table generates the subcommands' flags (dest = name with '-' -> '_') and
# the config-file keys; the parser converts both flag and file values, except
# for store_const flags, which take no value.
_OPTION_SPECS: dict = {
    "model": (str, "xxx", {"choices": ["xxx", "pauli-file"]}),
    "pauli-file": (str, None, {}),
    "J": (float, None, {}),
    "B": (float, None, {}),
    "B-min": (float, None, {}),
    "B-max": (float, None, {}),
    "B-steps": (int, None, {}),
    "T": (float, None, {}),
    "T-min": (float, None, {}),
    "T-max": (float, None, {}),
    "T-steps": (int, None, {}),
    "sites": (int, 2, {}),
    "boundary": (str, "open", {"choices": ["open", "periodic"]}),
    "double-count-two-site-bond": (_flag, False, {"action": "store_const", "const": True}),
    "policy": (str, "exact", {"help": "exact | closed-form | fixed:<value>"}),
    "restarts": (int, 32, {}),
    "seed": (int, 0, {}),
    "out": (str, None, {"help": "output path for CSV commands"}),
    "precision": (int, 10, {"help": "significant digits for printed floats"}),
    "state": (str, "thermal", {"help": "singlet | thermal | ground | product:th,ph[,th,ph]"}),
    "shots": (int, 100000, {}),
    "z": (float, 3.0, {}),
}


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key: value', got {raw!r}")
        key, _, val = line.partition(":")
        key, val = key.strip(), val.strip()
        if key not in _OPTION_SPECS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        parser = _OPTION_SPECS[key][0]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def _merged(args: argparse.Namespace) -> dict:
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    merged = {}
    for key, (_, default, _) in _OPTION_SPECS.items():
        attr = key.replace("-", "_")
        cli_val = getattr(args, attr, None)
        if cli_val is not None:
            merged[key] = cli_val
        elif key in file_values:
            merged[key] = file_values[key]
        else:
            merged[key] = default
    return merged


def _grid_from(merged: dict, prefix: str, default_scalar: float) -> GridSpec:
    scalar = merged[prefix]
    lo, hi, steps = merged[f"{prefix}-min"], merged[f"{prefix}-max"], merged[f"{prefix}-steps"]
    if scalar is not None:
        if lo is not None or hi is not None or steps is not None:
            raise ConfigError(f"give either --{prefix} or --{prefix}-min/max/steps, not both")
        return GridSpec(scalar, scalar, 1)
    if lo is None and hi is None and steps is None:
        return GridSpec(default_scalar, default_scalar, 1)
    if lo is None or hi is None or steps is None:
        raise ConfigError(f"--{prefix}-min/max/steps must be given together")
    return GridSpec(lo, hi, steps)


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    m = _merged(args)
    try:
        policy = EsepPolicy.parse(m["policy"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        model=m["model"],
        coupling_j=m["J"],
        b_grid=_grid_from(m, "B", 0.0),
        t_grid=_grid_from(m, "T", 1.0),
        esep_policy=policy,
        restarts=m["restarts"],
        seed=m["seed"],
        output_path=m["out"] or "bound_sweep.csv",
        precision_digits=m["precision"],
        n_sites=m["sites"],
        boundary=m["boundary"],
        double_count_two_site_bond=m["double-count-two-site-bond"],
        pauli_file=m["pauli-file"],
        state=m["state"],
        shots=m["shots"],
        z=m["z"],
    )


def _require_j(cfg: RunConfig) -> float:
    if cfg.coupling_j is None:
        raise ConfigError("--J is required for the xxx model")
    return cfg.coupling_j


def _xxx_params(cfg: RunConfig) -> Optional[XXXParams]:
    if cfg.model != "xxx":
        return None
    return XXXParams(_require_j(cfg), cfg.b_grid.lo, cfg.n_sites, cfg.boundary)


def _build_hamiltonian(cfg: RunConfig) -> HermitianOperator:
    params = _xxx_params(cfg)
    if params is not None:
        return build_xxx(params, cfg.double_count_two_site_bond)
    if not cfg.pauli_file:
        raise ConfigError("--pauli-file is required for the pauli-file model")
    try:
        text = Path(cfg.pauli_file).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {cfg.pauli_file}: {exc}") from exc
    try:
        terms = parse_pauli_terms(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not terms:
        raise ConfigError(f"{cfg.pauli_file} contains no terms")
    n = len(terms[0].letters)
    return build_pauli(SystemShape([2] * n), terms)


def _esep_report(cfg: RunConfig, h: HermitianOperator) -> SepEnergyReport:
    """E_sep for ``h`` under the configured policy."""
    if cfg.esep_policy.kind == "closed-form" and cfg.model != "xxx":
        raise ConfigError("closed-form policy needs the xxx model")
    return resolve_esep(
        cfg.esep_policy, h, params=_xxx_params(cfg), restarts=cfg.restarts, seed=cfg.seed
    )


def _fmt(x: float, digits: int) -> str:
    return format(float(x), f".{digits}g")


def _state_from_spec(cfg: RunConfig, h: Optional[HermitianOperator]) -> DensityMatrix:
    """The state named by ``cfg.state``; ``h`` is needed for thermal and ground states."""
    spec = cfg.state
    if spec == "singlet":
        return states.singlet()
    if spec.startswith("product:"):
        try:
            angles = [float(v) for v in spec.split(":", 1)[1].split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad product state spec {spec!r}") from exc
        if len(angles) == 2:
            angles = angles * 2
        if len(angles) != 4:
            raise ConfigError("product state spec needs 2 or 4 comma-separated angles")
        return states.product_state(*angles)
    if spec == "thermal" and cfg.t_grid.lo != 0.0:
        rho, _ = gibbs(h, cfg.t_grid.lo)
        return rho
    if spec in ("thermal", "ground"):
        return ground_state(h)
    raise ConfigError(f"unknown state spec {spec!r}")


def _write_sweep_csv(path: str, cells: np.recarray, digits: int) -> None:
    """Emit the sweep as CSV with LF endings.

    The bound columns are recomputed from the rounded mean/esep/A columns, so
    the printed table is self-consistent: a reader recomputing bound_raw from
    the file reproduces the column to the last printed digit.
    """
    lines = [CSV_HEADER]
    columns = ("b", "t", "mean_energy", "esep", "normalizer_a", "detected")
    for b, t, mean, esep, a, detected in zip(*(cells[c].tolist() for c in columns)):
        mean_s = _fmt(mean, digits)
        esep_s = _fmt(esep, digits)
        a_s = _fmt(a, digits)
        bound = (float(esep_s) - float(mean_s)) / float(a_s)
        lines.append(
            ",".join(
                [
                    _fmt(b, digits),
                    _fmt(t, digits),
                    mean_s,
                    esep_s,
                    a_s,
                    _fmt(bound, digits),
                    _fmt(max(0.0, bound), digits),
                    "true" if detected else "false",
                ]
            )
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_spectrum(cfg: RunConfig) -> int:
    h = _build_hamiltonian(cfg)
    summary = summarize(h)
    d = cfg.precision_digits
    print(f"e_min = {_fmt(summary.e_min, d)}")
    print(f"e_max = {_fmt(summary.e_max, d)}")
    levels = level_degeneracies(h)
    print("levels: " + ", ".join(f"{_fmt(v, d)} (x{k})" for v, k in levels))
    return 0


def cmd_esep(cfg: RunConfig) -> int:
    report = _esep_report(cfg, _build_hamiltonian(cfg))
    d = cfg.precision_digits
    print(f"esep = {report.esep:.{d}f}")
    print(f"source = {report.source}")
    print(f"restarts_used = {report.restarts_used}")
    print(f"converged = {str(report.converged).lower()}")
    if report.minimizer is not None:
        for i, (block, vec) in enumerate(
            zip(report.minimizer.partition.blocks, report.minimizer.block_states)
        ):
            if vec.size == 2:
                theta, phi = states.bloch_angles(vec)
                print(f"block {i} (sites {list(block)}): theta = {theta:.6f}, phi = {phi:.6f}")
            else:
                print(f"block {i} (sites {list(block)}): dim {vec.size} state")
    return 0


def cmd_witness(cfg: RunConfig) -> int:
    h = _build_hamiltonian(cfg)
    report = _esep_report(cfg, h)
    w = make_witness(h, report)
    d = cfg.precision_digits
    print(f"esep = {_fmt(w.esep, d)} (source = {report.source})")
    print(f"e_min = {_fmt(w.e_min, d)}")
    print(f"e_max = {_fmt(w.e_max, d)}")
    print(f"A = {_fmt(w.normalizer_a, d)}")
    print(f"entanglement_gap = {_fmt(w.entanglement_gap, d)}")
    if w.conservative_esep:
        print("note: esep lies below the ground energy; the witness detects nothing")
    return 0


def cmd_bound_sweep(cfg: RunConfig) -> int:
    t_values = cfg.t_grid.values()
    params = _xxx_params(cfg)
    if params is not None:
        cells = bound_sweep(
            params,
            cfg.esep_policy,
            t_values,
            cfg.b_grid.values(),
            restarts=cfg.restarts,
            seed=cfg.seed,
        )
    else:
        h = _build_hamiltonian(cfg)
        cells = sweep_single_hamiltonian(h, _esep_report(cfg, h), t_values, b_value=0.0)
    _write_sweep_csv(cfg.output_path, cells, cfg.precision_digits)
    print(f"wrote {cfg.output_path} ({len(cells)} rows)")
    return 0


def cmd_robustness(cfg: RunConfig) -> int:
    with_bound = cfg.model == "xxx" and cfg.coupling_j is not None
    needs_h = with_bound or cfg.state in ("thermal", "ground")
    h = _build_hamiltonian(cfg) if needs_h else None
    rho = _state_from_spec(cfg, h)
    cert = rg_exact_2q(rho)
    print(f"rg_value = {cert.rg_value:.5f}")
    print(f"duality_gap = {cert.duality_gap:.3e}")
    if with_bound:
        report = _esep_report(cfg, h)
        w = make_witness(h, report)
        bound = robustness_lower_bound(w, expectation(h, rho))
        ok = bound.bound <= cert.rg_value + 1e-6
        print(f"energy_bound = {bound.bound:.5f} ({'<=' if ok else '>!'} rg_value)")
        if not ok:
            raise NumericalError(
                f"energy bound {bound.bound:.5f} exceeds the exact R_g {cert.rg_value:.5f}, "
                f"so the certificate is unsound (E_sep = {w.esep}, source = {report.source})"
            )
    return 0


def cmd_measure(cfg: RunConfig) -> int:
    h = _build_hamiltonian(cfg)
    rho = _state_from_spec(cfg, h)
    est = measure_energy(h, rho, cfg.shots, cfg.seed)
    w = make_witness(h, _esep_report(cfg, h))
    interval = bound_with_confidence(w, est, cfg.z)
    d = cfg.precision_digits
    print(f"mean = {_fmt(est.mean, d)}")
    print(f"stderr = {_fmt(est.stderr, d)}")
    print(f"shots = {est.shots}")
    print(f"bound_interval = [{_fmt(interval.lo, d)}, {_fmt(interval.hi, d)}] (z = {cfg.z:g})")
    print(f"detected = {str(interval.detected).lower()}")
    return 0


FIGURE_PRESET_FILE = "figure_preset_b0.csv"
FIGURE_CLOSED_FORM_FILE = "figure_closed_form.csv"


def cmd_reproduce_figure(out_dir: str, digits: int = 10) -> int:
    """Write the two reference sweep CSVs (see the README's figure guide).

    File 1: B = 0 column under the fixed reference value E_sep = -2.
    File 2: the full 41-point field grid under the exact closed form.
    """
    t_values = GridSpec(0.01, 4.0, 400).values()
    b_values = GridSpec(0.0, 2.0, 41).values()
    params = XXXParams(1.0, 0.0, 2, "open")

    preset = bound_sweep(params, EsepPolicy("fixed", -2.0), t_values, [0.0])
    closed = bound_sweep(params, EsepPolicy("closed-form"), t_values, b_values)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path1 = out / FIGURE_PRESET_FILE
    path2 = out / FIGURE_CLOSED_FORM_FILE
    _write_sweep_csv(str(path1), preset, digits)
    _write_sweep_csv(str(path2), closed, digits)
    print(f"wrote {path1} ({len(preset)} rows)")
    print(f"wrote {path2} ({len(closed)} rows)")
    return 0


def _add_common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file of 'key: value' lines; flags override")
    for name, (parser, _, extra) in _OPTION_SPECS.items():
        typed = {} if extra.get("action") == "store_const" else {"type": parser}
        p.add_argument(f"--{name}", dest=name.replace("-", "_"), **typed, **extra)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enwit",
        description="Energy-based entanglement witnesses and robustness bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "esep", "witness", "bound-sweep", "robustness", "measure"):
        p = sub.add_parser(name)
        _add_common_options(p)
    fig = sub.add_parser("reproduce-figure")
    fig.add_argument("--out-dir", dest="out_dir", default=".")
    fig.add_argument("--precision", type=int, default=10)
    return parser


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "esep": cmd_esep,
    "witness": cmd_witness,
    "bound-sweep": cmd_bound_sweep,
    "robustness": cmd_robustness,
    "measure": cmd_measure,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        if args.command == "reproduce-figure":
            if not (6 <= args.precision <= 17):
                raise ConfigError("precision must lie in [6, 17]")
            return cmd_reproduce_figure(args.out_dir, args.precision)
        cfg = _build_run_config(args)
        return _DISPATCH[args.command](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
