"""Command-line front end.

Subcommands: spectrum | esep | witness | bound-sweep | robustness | measure |
reproduce-figure.  Options can also be supplied through a config file of
``key: value`` lines (same keys as the flags); flags override the file.
Every option is declared once, in ``_OPTION_SPECS``, whose parser converts
and checks flag and file values alike (``bad value for <key>``; NaN and
infinities fail).  Each command takes only the options ``_COMMANDS`` lists
for it and refuses any other (``<command> does not take <flag>``).  Rules on
the physics inputs, such as J > 0, are the library's and exit 2 as well, as
does a file that cannot be read or written.  The pauli-file model refuses
the XXX chain's options (``_XXX_ONLY_OPTIONS``), and the xxx model refuses
pauli-file.
Every command with ``--policy`` but ``robustness`` (which checks the bound
against the exact R_g) refuses a ``fixed:`` E_sep that a product state undercuts.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import states
from .errors import NumericalError
from .hamiltonians import XXXParams, build_pauli, build_xxx, parse_pauli_terms
from .measurement import bound_with_confidence, measure_energy
from .operators import DensityMatrix, HermitianOperator, SystemShape, eig, expectation
from .robustness import rg_exact_2q
from .sep_energy import SepEnergyReport, esep_search
from .thermal import gibbs, ground_state
from .witness import (
    EsepPolicy,
    bound_sweep,
    energy_bound,
    make_witness,
    resolve_esep,
    resolve_fields,
    robustness_lower_bound,
    sweep_fields,
)

CSV_HEADER = "B,T,mean_energy,esep,A,bound_raw,bound_clipped,detected"
_CSV_CHUNK = 4096  # rows formatted and written at a time
FIXED_REFUTATION_TOL = 1e-9


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
        if self.lo == self.hi and self.steps > 1:
            raise ValueError("grid min equals max, so its points would repeat; give one point")

    def values(self) -> list[float]:
        if self.steps == 1:
            return [self.lo]
        return [self.lo + (self.hi - self.lo) * k / (self.steps - 1) for k in range(self.steps)]


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


# option name -> (parser from string, default, help).  With ``_COMMANDS`` this
# table is the CLI's configuration: it generates the subcommands' flags (dest =
# name with '-' -> '_') and config-file keys.  argparse converts nothing; the
# parser converts and checks flag and file values alike.
_OPTION_SPECS: dict = {
    "model": (_one_of("xxx", "pauli-file"), "xxx", None),
    "pauli-file": (str, None, None),
    "J": (_number(float), None, None),
    "B": (_number(float), 0.0, None),
    "B-min": (_number(float), None, None),
    "B-max": (_number(float), None, None),
    "B-steps": (_number(int), None, None),
    "T": (_number(float), 1.0, None),
    "T-min": (_number(float), None, None),
    "T-max": (_number(float), None, None),
    "T-steps": (_number(int), None, None),
    "sites": (_number(int), 2, None),
    "boundary": (_one_of("open", "periodic"), "open", None),
    "policy": (EsepPolicy.parse, EsepPolicy("exact"), "exact | closed-form | fixed:<value>"),
    "restarts": (_number(int, 1), 32, None),
    "seed": (_number(int), 0, None),
    "out": (str, None, "output path for CSV commands"),
    "precision": (_number(int, 6, 17), 10, "significant digits for printed floats"),
    "state": (_state_spec, "thermal", "singlet | thermal | ground | product:th,ph[,th,ph]"),
    "shots": (_number(int, 1), 100000, None),
    "z": (_number(float, 0.0), 3.0, None),
}

# Options that describe the XXX chain; the pauli-file model refuses them.
_XXX_ONLY_OPTIONS = ("J", "B", "B-min", "B-max", "B-steps", "sites", "boundary")


def _parse(key: str, text: str, where: str = ""):
    """Option ``key``'s value given as ``text``; a bad value raises ValueError naming the key."""
    try:
        return _OPTION_SPECS[key][0](text)
    except ValueError as exc:
        raise ValueError(f"{where}bad value for {key}: {text!r} ({exc})") from exc


def _read_config_file(path: str, command: str, options: Sequence[str]) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key: value', got {raw!r}")
        key, _, val = line.partition(":")
        key, val = key.strip(), val.strip()
        if key not in _OPTION_SPECS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key not in options:
            raise ValueError(f"{path}:{lineno}: {command} does not take {key}")
        values[key] = _parse(key, val, f"{path}:{lineno}: ")
    return values


def _grid_from(given: dict, prefix: str) -> GridSpec:
    """bound-sweep's B or T grid: the single value ``prefix`` or ``prefix``-min/max/steps."""
    keys = [f"{prefix}-min", f"{prefix}-max", f"{prefix}-steps"]
    present = [key for key in keys if key in given]
    if not present:
        value = given.get(prefix, _OPTION_SPECS[prefix][1])
        return GridSpec(value, value, 1)
    if prefix in given:
        raise ValueError(f"give either --{prefix} or --{prefix}-min/max/steps, not both")
    if len(present) < len(keys):
        raise ValueError(f"--{prefix}-min/max/steps must be given together")
    return GridSpec(*(given[key] for key in keys))


def _config(args: argparse.Namespace) -> argparse.Namespace:
    """The command's options (defaults, then config file, then flags); bound-sweep's grids."""
    options = _COMMANDS[args.command][1]
    given = _read_config_file(args.config, args.command, options) if args.config else {}
    for key in options:
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            given[key] = _parse(key, flag)
    if given.get("model") == "pauli-file":
        for key in _XXX_ONLY_OPTIONS:
            if key in given:
                raise ValueError(f"{key} does not apply to the pauli-file model")
    elif "pauli-file" in given:
        raise ValueError("pauli-file does not apply to the xxx model")
    cfg = argparse.Namespace(
        **{key.replace("-", "_"): given.get(key, _OPTION_SPECS[key][1]) for key in options}
    )
    if args.command == "bound-sweep":
        cfg.b_grid = _grid_from(given, "B")
        cfg.t_grid = _grid_from(given, "T")
    return cfg


def _fields(
    cfg: argparse.Namespace, b_values: Sequence[float]
) -> tuple[list[Optional[XXXParams]], list[HermitianOperator]]:
    """Every field's parameters and Hamiltonian: the xxx chain at each B of
    ``b_values``, or the one pauli-file operator, whose parameters are ``None``."""
    if cfg.model == "xxx":
        if cfg.J is None:
            raise ValueError("--J is required for the xxx model")
        fields = [XXXParams(cfg.J, b, cfg.sites, cfg.boundary) for b in b_values]
        return fields, [build_xxx(p) for p in fields]
    if not cfg.pauli_file:
        raise ValueError("--pauli-file is required for the pauli-file model")
    terms = parse_pauli_terms(Path(cfg.pauli_file).read_text())
    if not terms:
        raise ValueError(f"{cfg.pauli_file} contains no terms")
    n = len(terms[0].letters)
    return [None], [build_pauli(SystemShape([2] * n), terms)]


def _warn_if_one_restart(report: SepEnergyReport, where: str = "") -> None:
    """Warn on stderr when a search's one restart alone reached its best E_sep.

    The search is local, so such a value may lie above the true E_sep.
    """
    if report.restarts_agreeing == 1:
        message = f"warning: a single restart reached this esep{where}; raise --restarts"
        print(message, file=sys.stderr)


def _esep_reports(
    cfg: argparse.Namespace,
    params: list[Optional[XXXParams]],
    hs: list[HermitianOperator],
    where: Sequence[str] = ("",),
) -> list[SepEnergyReport]:
    """E_sep of each field of ``hs`` under ``--policy``; ``where[j]`` names ``hs[j]``.

    Under ``fixed:<v>``, v is refused first when a product state of any
    field has an energy below it, which proves that v is not E_sep.
    "Below" means by more than ``FIXED_REFUTATION_TOL`` times that H's sum
    of |Pauli coefficients| (the search's ``coefficient_sum``, at least H's
    largest absolute row sum), so the verdict does not depend on the energy
    unit; one search, with the command's ``--restarts`` and ``--seed``,
    covers all of ``hs``.  Then the policy is resolved
    (:func:`resolve_fields`), and each single-restart E_sep is warned about.
    """
    if cfg.policy.kind == "fixed":
        for found, at in zip(esep_search(hs, restarts=cfg.restarts, seed=cfg.seed), where):
            if found.esep < cfg.policy.value - FIXED_REFUTATION_TOL * found.coefficient_sum:
                angles = ", ".join(
                    "({:.6f}, {:.6f})".format(*states.bloch_angles(r)) for r in found.minimizer
                )
                raise ValueError(
                    f"fixed esep {cfg.policy.value:g} is refuted{at}: the product state with "
                    f"Bloch angles (theta, phi) = {angles} has energy {found.esep:.10g}"
                )
    reports = resolve_fields(cfg.policy, hs, params, cfg.restarts, cfg.seed)
    for report, at in zip(reports, where):
        _warn_if_one_restart(report, at)
    return reports


def _fmt(x: float, digits: int) -> str:
    return format(float(x), f".{digits}g")


def _state_from_spec(cfg: argparse.Namespace, h: Optional[HermitianOperator]) -> DensityMatrix:
    """The state named by ``cfg.state``; ``h`` is needed for thermal and ground states."""
    spec = cfg.state
    if spec == "singlet":
        return states.singlet()
    if isinstance(spec, tuple):
        return states.product_state(*spec)
    if spec == "thermal" and cfg.T != 0.0:
        rho, _ = gibbs(h, cfg.T)
        return rho
    return ground_state(h)


def _write_sweep_csv(path: str, cells: np.recarray, digits: int) -> None:
    """Emit the sweep as CSV with LF endings, ``_CSV_CHUNK`` rows at a time.

    The bound columns are recomputed from the rounded mean/esep/A columns
    (:func:`energy_bound` on the values parsed back), so the printed table
    is self-consistent: a reader recomputing bound_raw from the file
    reproduces the column to the last printed digit, and ``detected`` is
    true exactly when the printed bound_clipped is positive.

    A chunk formats each float column with one ``%`` operation on a repeated
    ``%.{digits}g`` template (the same strings as ``format``), parses the
    rounded means back with one ``np.array`` call, gathers the B, T, esep and
    A strings as lists and writes its rows with one ``write``.
    """
    spec = f"%.{digits}g\n"

    def fmt(values: np.ndarray) -> list[str]:
        return (spec * len(values) % tuple(values.tolist())).split("\n")[:-1]

    # B, T, esep and A repeat along the grid, so each distinct value, told apart
    # by its bits (-0.0 prints as -0), is formatted and parsed back once
    index, strings = [], []
    for column in ("b", "t", "esep", "normalizer_a"):
        keys, at = np.unique(cells[column].view(np.int64), return_inverse=True)
        index.append(at)
        strings.append(np.array(fmt(keys.view(float)), dtype=object))
    esep_v, a_v = (np.array(s, dtype=float) for s in strings[2:])
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for lo in range(0, len(cells), _CSV_CHUNK):
            rows = slice(lo, lo + _CSV_CHUNK)
            at = [i[rows] for i in index]
            b, t, esep, a = (s[i].tolist() for s, i in zip(strings, at))
            mean = fmt(cells.mean_energy[rows])
            bound, positive = energy_bound(esep_v[at[2]], a_v[at[3]], np.array(mean, dtype=float))
            bound_s = fmt(bound)
            positive = positive.tolist()
            clipped = [s if p else "0" for s, p in zip(bound_s, positive)]
            detected = ["true\n" if p else "false\n" for p in positive]  # it ends the row
            fh.write("".join(map(",".join, zip(b, t, mean, esep, a, bound_s, clipped, detected))))


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    dec = eig(_fields(cfg, [cfg.B])[1][0])
    d = cfg.precision
    print(f"e_min = {_fmt(dec.e_min, d)}")
    print(f"e_max = {_fmt(dec.e_max, d)}")
    print("levels: " + ", ".join(f"{_fmt(v, d)} (x{k})" for v, k in zip(*dec.levels())))
    return 0


def cmd_esep(cfg: argparse.Namespace) -> int:
    [report] = _esep_reports(cfg, *_fields(cfg, [cfg.B]))
    d = cfg.precision
    print(f"esep = {_fmt(report.esep, d)}")
    print(f"source = {report.source}")
    print(f"restarts_used = {report.restarts_used}")
    if report.restarts_used > 0:
        print(f"restarts_agreeing = {report.restarts_agreeing}")
    print(f"converged = {str(report.converged).lower()}")
    if report.gradient_norm is not None:
        print(f"gradient_norm = {report.gradient_norm:.3e}")
        print(f"hessian_min = {report.hessian_min:.3e}")
    if report.minimizer is not None:
        for i, r in enumerate(report.minimizer):
            theta, phi = states.bloch_angles(r)
            print(f"block {i} (sites [{i}]): theta = {theta:.6f}, phi = {phi:.6f}")
    return 0


def cmd_witness(cfg: argparse.Namespace) -> int:
    params, hs = _fields(cfg, [cfg.B])
    [report] = _esep_reports(cfg, params, hs)
    w = make_witness(hs[0], report)
    d = cfg.precision
    print(f"esep = {_fmt(w.esep, d)} (source = {report.source})")
    if report.restarts_used > 0:
        print(f"restarts_agreeing = {report.restarts_agreeing}")
    print(f"e_min = {_fmt(w.e_min, d)}")
    print(f"e_max = {_fmt(w.e_max, d)}")
    print(f"A = {_fmt(w.normalizer_a, d)}")
    print(f"entanglement_gap = {_fmt(w.entanglement_gap, d)}")
    if w.conservative_esep:
        print("note: esep lies below the ground energy; the witness detects nothing")
    return 0


def cmd_bound_sweep(cfg: argparse.Namespace) -> int:
    b_values = cfg.b_grid.values()  # [0.0] for the pauli-file model, which takes no B
    params, hs = _fields(cfg, b_values)
    reports = _esep_reports(cfg, params, hs, [f" at B = {b:g}" for b in b_values])
    cells = sweep_fields(hs, reports, cfg.t_grid.values(), b_values)
    path = cfg.out or "bound_sweep.csv"
    _write_sweep_csv(path, cells, cfg.precision)
    print(f"wrote {path} ({len(cells)} rows)")
    return 0


def cmd_robustness(cfg: argparse.Namespace) -> int:
    with_bound = cfg.model == "xxx" and cfg.J is not None
    needs_h = with_bound or cfg.state in ("thermal", "ground")
    [params], [h] = _fields(cfg, [cfg.B]) if needs_h else ([None], [None])
    rho = _state_from_spec(cfg, h)
    if with_bound:  # refuse a bad E_sep before any output
        report = resolve_esep(cfg.policy, h, params, cfg.restarts, cfg.seed)
        w = make_witness(h, report)
        _warn_if_one_restart(report)
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
    params, hs = _fields(cfg, [cfg.B])
    [report] = _esep_reports(cfg, params, hs)
    [h] = hs
    rho = _state_from_spec(cfg, h)
    w = make_witness(h, report)
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


# command -> (function, the options it reads).  A command declares only these,
# as flags and as config keys, and refuses any other.
_MODEL = ("model", "pauli-file", "J", "B", "sites", "boundary")
_SEARCH = ("policy", "restarts", "seed")
_GRIDS = ("B-min", "B-max", "B-steps", "T", "T-min", "T-max", "T-steps")
_COMMANDS = {
    "spectrum": (cmd_spectrum, _MODEL + ("precision",)),
    "esep": (cmd_esep, _MODEL + _SEARCH + ("precision",)),
    "witness": (cmd_witness, _MODEL + _SEARCH + ("precision",)),
    "bound-sweep": (cmd_bound_sweep, _MODEL + _GRIDS + _SEARCH + ("out", "precision")),
    "robustness": (cmd_robustness, _MODEL + ("T",) + _SEARCH + ("state",)),
    "measure": (cmd_measure, _MODEL + ("T",) + _SEARCH + ("state", "shots", "z", "precision")),
}


@cache
def _make_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="enwit",
        description="Energy-based entanglement witnesses and robustness bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="config file of 'key: value' lines; flags override")
        for key in options:
            parse, _, help_text = _OPTION_SPECS[key]
            metavar = getattr(parse, "metavar", None)
            p.add_argument(f"--{key}", dest=key.replace("-", "_"), metavar=metavar, help=help_text)
    fig = sub.add_parser("reproduce-figure")
    fig.add_argument("--out-dir", dest="out_dir", default=".")
    fig.add_argument("--precision", default="10")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, undeclared = _make_parser().parse_known_args(argv)
    try:
        if undeclared:
            raise ValueError(f"{args.command} does not take {undeclared[0].split('=')[0]}")
        if args.command == "reproduce-figure":
            return cmd_reproduce_figure(args.out_dir, _parse("precision", args.precision))
        return _COMMANDS[args.command][0](_config(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
