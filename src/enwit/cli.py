"""Command-line front end.

Subcommands: spectrum | esep | witness | bound-sweep | robustness | measure |
reproduce-figure.  Options can also be supplied through a config file of
``key: value`` lines (same keys as the flags); flags override the file.
Every option is declared once, in ``_OPTION_SPECS``, whose parser converts
and checks flag and file values alike (``bad value for <key>``; NaN and
infinities fail).  Rules on the physics inputs, such as J > 0 and the closed
form's bond convention, are the library's and exit 2 as well.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import states
from .errors import NumericalError
from .hamiltonians import XXXParams, build_pauli, build_xxx, parse_pauli_terms
from .measurement import bound_with_confidence, measure_energy
from .operators import DensityMatrix, HermitianOperator, SystemShape, eig, expectation
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


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("grid steps must be >= 1")
        if self.lo > self.hi:
            raise ValueError("grid min must not exceed max")

    def values(self) -> list[float]:
        if self.steps == 1:
            return [self.lo]
        return [self.lo + (self.hi - self.lo) * k / (self.steps - 1) for k in range(self.steps)]


def _flag(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError("expected one of 1/true/yes/0/false/no")


def _number(kind: type, lo: float = -math.inf, hi: float = math.inf):
    """Parser for a finite int or float in [lo, hi]; NaN and infinities fail."""

    def parse(text: str):
        x = kind(text)
        if not (math.isfinite(x) and lo <= x <= hi):
            bounds = "" if (lo, hi) == (-math.inf, math.inf) else f" in [{lo:g}, {hi:g}]"
            raise ValueError(f"expected a finite number{bounds}")
        return x

    return parse


def _one_of(*words: str):
    """Parser accepting only ``words``; ``metavar`` lists them for --help."""

    def parse(text: str) -> str:
        if text not in words:
            raise ValueError(f"expected one of {', '.join(words)}")
        return text

    parse.metavar = "{" + ",".join(words) + "}"
    return parse


def _state_spec(text: str):
    """singlet | thermal | ground, or the four angles of product:th,ph[,th,ph]."""
    if text in ("singlet", "thermal", "ground"):
        return text
    if not text.startswith("product:"):
        raise ValueError("expected singlet, thermal, ground or product:th,ph[,th,ph]")
    angles = [_number(float)(v) for v in text.split(":", 1)[1].split(",")]
    if len(angles) not in (2, 4):
        raise ValueError("product state spec needs 2 or 4 comma-separated angles")
    return tuple(angles * (4 // len(angles)))


# option name -> (parser from string, default, extra argparse keywords).  This
# table is the CLI's configuration: it generates the subcommands' flags (dest =
# name with '-' -> '_') and the config-file keys.  argparse converts nothing;
# the parser converts and checks flag and file values alike.
_OPTION_SPECS: dict = {
    "model": (_one_of("xxx", "pauli-file"), "xxx", {}),
    "pauli-file": (str, None, {}),
    "J": (_number(float), None, {}),
    "B": (_number(float), None, {}),
    "B-min": (_number(float), None, {}),
    "B-max": (_number(float), None, {}),
    "B-steps": (_number(int), None, {}),
    "T": (_number(float), None, {}),
    "T-min": (_number(float), None, {}),
    "T-max": (_number(float), None, {}),
    "T-steps": (_number(int), None, {}),
    "sites": (_number(int), 2, {}),
    "boundary": (_one_of("open", "periodic"), "open", {}),
    "double-count-two-site-bond": (_flag, False, {"action": "store_const", "const": "true"}),
    "policy": (
        EsepPolicy.parse, EsepPolicy("exact"), {"help": "exact | closed-form | fixed:<value>"}
    ),
    "restarts": (_number(int, 1), 32, {}),
    "seed": (_number(int), 0, {}),
    "out": (str, None, {"help": "output path for CSV commands"}),
    "precision": (_number(int, 6, 17), 10, {"help": "significant digits for printed floats"}),
    "state": (
        _state_spec, "thermal", {"help": "singlet | thermal | ground | product:th,ph[,th,ph]"}
    ),
    "shots": (_number(int, 1), 100000, {}),
    "z": (_number(float, 0.0), 3.0, {}),
}


def _parse(key: str, text: str, where: str = ""):
    """Option ``key``'s value given as ``text``; a bad value raises ValueError naming the key."""
    try:
        return _OPTION_SPECS[key][0](text)
    except ValueError as exc:
        raise ValueError(f"{where}bad value for {key}: {text!r} ({exc})") from exc


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key: value', got {raw!r}")
        key, _, val = line.partition(":")
        key, val = key.strip(), val.strip()
        if key not in _OPTION_SPECS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _parse(key, val, f"{path}:{lineno}: ")
    return values


def _grid_from(values: dict, prefix: str, default_scalar: float) -> GridSpec:
    scalar = values[prefix]
    lo, hi, steps = values[f"{prefix}-min"], values[f"{prefix}-max"], values[f"{prefix}-steps"]
    if scalar is not None:
        if lo is not None or hi is not None or steps is not None:
            raise ValueError(f"give either --{prefix} or --{prefix}-min/max/steps, not both")
        return GridSpec(scalar, scalar, 1)
    if lo is None and hi is None and steps is None:
        return GridSpec(default_scalar, default_scalar, 1)
    if lo is None or hi is None or steps is None:
        raise ValueError(f"--{prefix}-min/max/steps must be given together")
    return GridSpec(lo, hi, steps)


def _config(args: argparse.Namespace) -> argparse.Namespace:
    """Parsed option values (defaults, then the config file, then flags) and the two grids."""
    values = {key: default for key, (_, default, _) in _OPTION_SPECS.items()}
    if args.config:
        values.update(_read_config_file(args.config))
    for key in _OPTION_SPECS:
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            values[key] = _parse(key, flag)
    cfg = argparse.Namespace(**{key.replace("-", "_"): v for key, v in values.items()})
    cfg.b_grid = _grid_from(values, "B", 0.0)
    cfg.t_grid = _grid_from(values, "T", 1.0)
    return cfg


def _xxx_params(cfg: argparse.Namespace) -> Optional[XXXParams]:
    if cfg.model != "xxx":
        return None
    if cfg.J is None:
        raise ValueError("--J is required for the xxx model")
    return XXXParams(cfg.J, cfg.b_grid.lo, cfg.sites, cfg.boundary, cfg.double_count_two_site_bond)


def _build_hamiltonian(cfg: argparse.Namespace) -> HermitianOperator:
    params = _xxx_params(cfg)
    if params is not None:
        return build_xxx(params)
    if not cfg.pauli_file:
        raise ValueError("--pauli-file is required for the pauli-file model")
    try:
        text = Path(cfg.pauli_file).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {cfg.pauli_file}: {exc}") from exc
    terms = parse_pauli_terms(text)
    if not terms:
        raise ValueError(f"{cfg.pauli_file} contains no terms")
    n = len(terms[0].letters)
    return build_pauli(SystemShape([2] * n), terms)


def _esep_report(cfg: argparse.Namespace, h: HermitianOperator) -> SepEnergyReport:
    """E_sep for ``h`` under the configured policy."""
    params = _xxx_params(cfg)
    return resolve_esep(cfg.policy, h, params=params, restarts=cfg.restarts, seed=cfg.seed)


def _fmt(x: float, digits: int) -> str:
    return format(float(x), f".{digits}g")


def _state_from_spec(cfg: argparse.Namespace, h: Optional[HermitianOperator]) -> DensityMatrix:
    """The state named by ``cfg.state``; ``h`` is needed for thermal and ground states."""
    spec = cfg.state
    if spec == "singlet":
        return states.singlet()
    if isinstance(spec, tuple):
        return states.product_state(*spec)
    if spec == "thermal" and cfg.t_grid.lo != 0.0:
        rho, _ = gibbs(h, cfg.t_grid.lo)
        return rho
    return ground_state(h)


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


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    dec = eig(_build_hamiltonian(cfg))
    d = cfg.precision
    print(f"e_min = {_fmt(dec.e_min, d)}")
    print(f"e_max = {_fmt(dec.e_max, d)}")
    print("levels: " + ", ".join(f"{_fmt(v, d)} (x{k})" for v, k in zip(*dec.levels())))
    return 0


def cmd_esep(cfg: argparse.Namespace) -> int:
    report = _esep_report(cfg, _build_hamiltonian(cfg))
    d = cfg.precision
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


def cmd_witness(cfg: argparse.Namespace) -> int:
    h = _build_hamiltonian(cfg)
    report = _esep_report(cfg, h)
    w = make_witness(h, report)
    d = cfg.precision
    print(f"esep = {_fmt(w.esep, d)} (source = {report.source})")
    print(f"e_min = {_fmt(w.e_min, d)}")
    print(f"e_max = {_fmt(w.e_max, d)}")
    print(f"A = {_fmt(w.normalizer_a, d)}")
    print(f"entanglement_gap = {_fmt(w.entanglement_gap, d)}")
    if w.conservative_esep:
        print("note: esep lies below the ground energy; the witness detects nothing")
    return 0


def cmd_bound_sweep(cfg: argparse.Namespace) -> int:
    t_values = cfg.t_grid.values()
    params = _xxx_params(cfg)
    if params is not None:
        cells = bound_sweep(
            params, cfg.policy, t_values, cfg.b_grid.values(), restarts=cfg.restarts, seed=cfg.seed
        )
    else:
        h = _build_hamiltonian(cfg)
        cells = sweep_single_hamiltonian(h, _esep_report(cfg, h), t_values, b_value=0.0)
    path = cfg.out or "bound_sweep.csv"
    _write_sweep_csv(path, cells, cfg.precision)
    print(f"wrote {path} ({len(cells)} rows)")
    return 0


def cmd_robustness(cfg: argparse.Namespace) -> int:
    with_bound = cfg.model == "xxx" and cfg.J is not None
    needs_h = with_bound or cfg.state in ("thermal", "ground")
    h = _build_hamiltonian(cfg) if needs_h else None
    rho = _state_from_spec(cfg, h)
    if with_bound:  # refuse a bad E_sep before any output
        report = _esep_report(cfg, h)
        w = make_witness(h, report)
    cert = rg_exact_2q(rho)
    print(f"rg_value = {cert.rg_value:.5f}")
    print(f"duality_gap = {cert.duality_gap:.3e}")
    if with_bound:
        bound = robustness_lower_bound(w, expectation(h, rho))
        ok = bound.bound <= cert.rg_value + 1e-6
        print(f"energy_bound = {bound.bound:.5f} ({'<=' if ok else '>!'} rg_value)")
        if not ok:
            raise NumericalError(
                f"energy bound {bound.bound:.5f} exceeds the exact R_g {cert.rg_value:.5f}, "
                f"so the certificate is unsound (E_sep = {w.esep}, source = {report.source})"
            )
    return 0


def cmd_measure(cfg: argparse.Namespace) -> int:
    h = _build_hamiltonian(cfg)
    rho = _state_from_spec(cfg, h)
    w = make_witness(h, _esep_report(cfg, h))
    est = measure_energy(h, rho, cfg.shots, cfg.seed)
    interval = bound_with_confidence(w, est, cfg.z)
    d = cfg.precision
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
        metavar = getattr(parser, "metavar", None)
        p.add_argument(f"--{name}", dest=name.replace("-", "_"), metavar=metavar, **extra)


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
    fig.add_argument("--precision", default="10")
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
            return cmd_reproduce_figure(args.out_dir, _parse("precision", args.precision))
        return _DISPATCH[args.command](_config(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
