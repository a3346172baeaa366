"""The benchmark's workloads: seeded inputs, timed items and output checks.

A workload runs in rounds.  Round ``k`` draws its inputs from the stream
``(seed, k)`` alone, so a seed fixes every round's inputs while the number
of rounds follows the time budget.  Each round yields :class:`Item`
records: the wall time of one unit of user-visible work and, if its output
failed a check or it raised, why.  Checks run outside the timed region
and, in a traced pass, with the tracer paused.  Reference values come from
closed forms written out here, not from enwit.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import sys
import tempfile
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import numpy as np

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"  # records, spans and the CLI's scratch output

# sha256 of the two reproduce-figure CSVs, recorded from the package before
# any benchmarked change; the roadmap requires them to stay byte-identical.
FIGURE_SHA256 = {
    "figure_preset_b0.csv": "90999b931eb260793f89c085920c72f9c7f2173bea39c50c19340e2eef498dd5",
    "figure_closed_form.csv": "0495f82747e8c2093ca98f61850edf1054e9ffc26e2c3f956b0a0015c6b81f05",
}


@dataclass
class Item:
    kind: str
    start: float  # time.perf_counter() when the work began
    seconds: float  # wall time; the runner rescales it to reference-speed seconds
    failure: str | None = None
    obs: dict = field(default_factory=dict)


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, k])


def _timed(kind: str, fn, *args):
    """Run ``fn`` and return ``(Item, result)``; an exception becomes the failure."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # the item failed; the benchmark keeps going
        return Item(kind, start, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"), None
    return Item(kind, start, time.perf_counter() - start), result


def _joined(problems: list[str]) -> str | None:
    return "; ".join(problems) if problems else None


def xxx_esep_two_site(j: float, b: float) -> float:
    """E_sep of J s1.s2 + B(z1 + z2): canted pair below |B| = 2J, polarized above."""
    return -j - b * b / (2.0 * j) if abs(b) <= 2.0 * j else j - 2.0 * abs(b)


def xxx_esep_ring(n: int, j: float, b: float) -> float:
    """E_sep of an even periodic XXX ring: canted Neel below |B| = 4J, polarized above."""
    return -n * j - n * b * b / (8.0 * j) if abs(b) <= 4.0 * j else n * j - n * abs(b)


# -- oracle_soundness ---------------------------------------------------------
# Thermal two-site XXX states (B in [0, 2], T in [0.05, 4]) and Hilbert-Schmidt
# random two-qubit states, each certified end to end: Hamiltonian, state,
# closed-form E_sep, witness, exact R_g with certificate, energy bound.


def _oracle_inputs(seed: int, k: int, tiny: bool) -> list:
    rng = _rng(seed, k)
    half = 5 if tiny else 50
    points = []
    for _ in range(half):
        points.append((float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.05, 4.0)), None))
    for _ in range(half):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        points.append((float(rng.uniform(0.0, 2.0)), None, m / np.trace(m).real))
    return points


def _certify(lib, b: float, t: float | None, rho_entries):
    params = lib.hamiltonians.XXXParams(1.0, b, 2, "open")
    h = lib.hamiltonians.build_xxx(params)
    if rho_entries is None:
        rho, point = lib.thermal.gibbs(h, t)
        mean = point.mean_energy
    else:
        rho = lib.operators.DensityMatrix.from_entries(h.shape, rho_entries)
        mean = lib.operators.expectation(h, rho)
    policy = lib.witness.EsepPolicy("closed-form")
    w = lib.witness.make_witness(h, lib.witness.resolve_esep(policy, h, params=params))
    cert = lib.robustness.rg_exact_2q(rho, trace=[])
    bound = lib.witness.robustness_lower_bound(w, mean)
    return rho, cert, bound


def _oracle_round(lib, inputs, paused):
    for b, t, rho_entries in inputs:
        item, out = _timed("point", _certify, lib, b, t, rho_entries)
        if out is not None:
            rho, cert, bound = out
            with paused():
                entangled = lib.robustness.is_entangled_2q(rho).entangled
            problems = []
            if bound.bound > cert.rg_value + 1e-6:
                problems.append(f"bound {bound.bound} > R_g {cert.rg_value} at B={b}, T={t}")
            if cert.duality_gap > 1e-5:
                problems.append(f"duality gap {cert.duality_gap} at B={b}, T={t}")
            if (cert.rg_value > 1e-6) != entangled:
                problems.append(f"R_g {cert.rg_value} disagrees with PPT={entangled} at B={b}, T={t}")
            item.failure = _joined(problems)
        yield item


def _oracle_warm_up(lib, inputs) -> None:
    for b, t, rho_entries in (inputs[0], inputs[-1]):
        _certify(lib, b, t, rho_entries)


# -- cli_sweeps ---------------------------------------------------------------
# `enwit reproduce-figure` and `enwit bound-sweep --policy exact` over the
# figure's 41 x 400 (B, T) grid, run in-process through enwit.cli.main.


def _cli_inputs(seed: int, k: int, tiny: bool) -> dict:
    b_steps, t_steps = (3, 10) if tiny else (41, 400)
    return {
        "sweep_seed": int(_rng(seed, k).integers(2**31)),
        "b_steps": b_steps,
        "t_steps": t_steps,
    }


def _sweep_argv(inputs: dict, out: Path) -> list[str]:
    return [
        "bound-sweep", "--J", "1", "--policy", "exact", "--seed", str(inputs["sweep_seed"]),
        "--B-min", "0", "--B-max", "2", "--B-steps", str(inputs["b_steps"]),
        "--T-min", "0.01", "--T-max", "4", "--T-steps", str(inputs["t_steps"]),
        "--out", str(out),
    ]  # fmt: skip


def _run_cli(lib, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return lib.cli.main(argv)


def _check_figure(out_dir: Path, code: int) -> tuple[list[str], int]:
    if code != 0:
        return [f"reproduce-figure exited {code}"], 0
    problems, size = [], 0
    for name, digest in FIGURE_SHA256.items():
        data = (out_dir / name).read_bytes()
        size += len(data)
        if hashlib.sha256(data).hexdigest() != digest:
            problems.append(f"{name} differs from the recorded figure")
    return problems, size


def _check_sweep(path: Path, code: int, inputs: dict) -> tuple[list[str], int, float]:
    if code != 0:
        return [f"bound-sweep exited {code}"], 0, 0.0
    data = path.read_bytes()
    rows = data.decode().splitlines()[1:]
    problems, err_max = [], 0.0
    if len(rows) != inputs["b_steps"] * inputs["t_steps"]:
        problems.append(f"bound-sweep wrote {len(rows)} rows")
    for row in rows:
        b, _, _, esep = (float(v) for v in row.split(",")[:4])
        err_max = max(err_max, abs(esep - xxx_esep_two_site(1.0, b)))
    if err_max > 1e-7:
        problems.append(f"exact esep column is {err_max:.3e} from the closed form")
    return problems, len(data), err_max


def _cli_round(lib, inputs, paused):
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        out_dir = Path(tmp)
        item, code = _timed("figure", _run_cli, lib, ["reproduce-figure", "--out-dir", str(out_dir)])
        if code is not None:
            problems, size = _check_figure(out_dir, code)
            item.failure, item.obs["csv_bytes"] = _joined(problems), size
        yield item
        sweep_csv = out_dir / "sweep.csv"
        item, code = _timed("exact_sweep", _run_cli, lib, _sweep_argv(inputs, sweep_csv))
        if code is not None:
            problems, size, err = _check_sweep(sweep_csv, code, inputs)
            item.failure = _joined(problems)
            item.obs.update(csv_bytes=size, esep_err=err)
        yield item


def _cli_warm_up(lib, inputs) -> None:
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        small = dict(inputs, b_steps=1, t_steps=3)
        if _run_cli(lib, _sweep_argv(small, Path(tmp) / "warm.csv")) != 0:
            raise RuntimeError("enwit bound-sweep failed during warm-up")


# -- chain_scaling ------------------------------------------------------------
# Periodic XXX rings along the n axis: the seesaw at n = 4 and 6, and the
# dense build -> Gibbs -> witness -> sampled energy -> bound pipeline at n = 8.


def _chain_inputs(seed: int, k: int, tiny: bool) -> dict:
    rng = _rng(seed, k)
    esep = [(4, 1.0), (4, 5.0), (6, 5.0)] if tiny else [(4, 0.3), (4, 1.0), (4, 5.0), (6, 1.0), (6, 5.0)]
    return {
        "esep": [(n, b, int(rng.integers(2**31))) for n, b in esep],
        "pipeline": {
            "n": 4 if tiny else 8,
            "b": 0.3,
            "t": float(rng.uniform(0.5, 2.0)),
            "shot_seed": int(rng.integers(2**31)),
        },
    }


def _ring(lib, n: int, b: float):
    return lib.hamiltonians.build_xxx(lib.hamiltonians.XXXParams(1.0, b, n, "periodic"))


def _seesaw(lib, n: int, b: float, seed: int):
    h = _ring(lib, n, b)
    return lib.sep_energy.esep_seesaw(h, lib.sep_energy.Partition.singletons(n), restarts=8, seed=seed)


def _pipeline(lib, n: int, b: float, t: float, shot_seed: int):
    h = _ring(lib, n, b)
    rho, point = lib.thermal.gibbs(h, t)
    w = lib.witness.make_witness(h, lib.sep_energy.esep_reference(xxx_esep_ring(n, 1.0, b)))
    est = lib.measurement.measure_energy(h, rho, 100_000, shot_seed)
    lib.measurement.bound_with_confidence(w, est, 3.0)
    return point, w, est


def _chain_round(lib, inputs, paused):
    for n, b, seed in inputs["esep"]:
        item, report = _timed(f"esep_n{n}", _seesaw, lib, n, b, seed)
        if report is not None:
            err = abs(report.esep - xxx_esep_ring(n, 1.0, b))
            item.obs["esep_err"] = err
            if err > 1e-9:
                item.failure = f"seesaw E_sep {report.esep} is {err:.3e} from the closed form (n={n}, B={b})"
        yield item
    p = inputs["pipeline"]
    item, out = _timed(f"pipeline_n{p['n']}", _pipeline, lib, p["n"], p["b"], p["t"], p["shot_seed"])
    if out is not None:
        point, w, est = out
        problems = []
        if abs(est.mean - point.mean_energy) > 5.0 * est.stderr:
            problems.append(f"sampled mean {est.mean} is over 5 stderr from {point.mean_energy}")
        if not w.e_min < w.esep:
            problems.append(f"e_min {w.e_min} is not below E_sep {w.esep}")
        item.failure = _joined(problems)
    yield item


def _chain_warm_up(lib, inputs) -> None:
    _seesaw(lib, 4, 1.0, inputs["esep"][0][2])
    _pipeline(lib, 4, 0.3, 1.0, inputs["pipeline"]["shot_seed"])


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int, int, bool], object]  # (seed, round, tiny) -> that round's inputs
    run_round: Callable[..., Iterator[Item]]  # (lib, inputs, paused) -> items
    warm_up: Callable[[SimpleNamespace, object], None]  # (lib, inputs)
    details: Callable[[list], dict]  # rounds -> {name: (value, unit, samples)}


def _per_round(rounds, kind: str) -> tuple[float, str, int]:
    """Median over rounds of the seconds spent on items of one kind."""
    return median([sum(i.seconds for i in r if i.kind == kind) for r in rounds]), "s", len(rounds)


def _oracle_details(rounds) -> dict:
    times = sorted(i.seconds for r in rounds for i in r)
    n = len(times)
    rank = math.ceil(0.95 * n)
    return {
        "points_per_s": (n / sum(times), "1/s", n),
        "point_ms_p50": (1e3 * median(times), "ms", n),
        "point_ms_p95": (1e3 * times[rank - 1], "ms", n),
        "point_ms_p95_beyond": (n - rank, "count", n),
    }


def _cli_details(rounds) -> dict:
    return {f"{kind}_s": _per_round(rounds, kind) for kind in ("figure", "exact_sweep")}


def _chain_details(rounds) -> dict:
    kinds = sorted({i.kind for i in rounds[0]})
    return {kind.replace("_n", "_s_n"): _per_round(rounds, kind) for kind in kinds}


WORKLOADS = {
    "oracle_soundness": Workload(_oracle_inputs, _oracle_round, _oracle_warm_up, _oracle_details),
    "cli_sweeps": Workload(_cli_inputs, _cli_round, _cli_warm_up, _cli_details),
    "chain_scaling": Workload(_chain_inputs, _chain_round, _chain_warm_up, _chain_details),
}


def load_enwit() -> SimpleNamespace:
    """Import enwit afresh from the checkout's ``src/`` and return its layer modules."""
    for name in [m for m in sys.modules if m == "enwit" or m.startswith("enwit.")]:
        del sys.modules[name]
    enwit = importlib.import_module("enwit")
    if Path(enwit.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"enwit was imported from {enwit.__file__}, not from {ROOT / 'src'}")
    return SimpleNamespace(**{n: importlib.import_module(f"enwit.{n}") for n in LAYERS})
