"""enwit benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout; enwit is imported from ``src/``.
BLAS is pinned to one thread before numpy is imported.

``--trace 0`` runs rounds of the workload until ``--seconds`` have passed
and reports the end-to-end metrics of BENCHMARK.json; enwit and numpy are
checked to be left unwrapped.  ``--trace 1`` runs the first round twice,
plain and then traced, and reports the per-layer metrics and the tracing
overhead; its counts depend only on the seed.  ``--tiny`` shrinks the
inputs for the smoke test.  Every output is checked.

Set-up is a fresh import of enwit, the first round's inputs and a warm-up;
it is repeated ``SETUP_REPEATS`` times and its median is ``setup_s``.
Times are in reference-speed seconds (see ``probe.py``); raw wall times are
kept in the record as ``*_wall_s``.

The second-to-last line of standard output is the full record
(environment, every metric with its unit and sample count, failures); the
last line is the summary ``{"correct", "attempted", "failed", "metrics"}``.
The record, with the spans of a traced run, is also written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


def _pin_blas() -> dict:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def _git_sha() -> str | None:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(np, blas_env: dict) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "blas_thread_env": blas_env,
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


def _run(args) -> tuple[dict, dict]:
    blas_env = _pin_blas()
    started = time.perf_counter()
    import numpy as np

    numpy_import_s = time.perf_counter() - started
    sys.path.insert(0, str(ROOT / "src"))
    from probe import SpeedProbe
    from tracer import Tracer, wrapped_names
    from workloads import OUT_DIR, WORKLOADS, load_enwit

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    def assert_unwrapped() -> None:
        left = wrapped_names(np)
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left}")

    def run_round(inputs, tracer=None) -> tuple[list, float, float]:
        """One round's items, its start time and its wall seconds."""
        start = time.perf_counter()
        if tracer is None:
            items = list(workload.run_round(lib, inputs, contextlib.nullcontext))
        else:
            tracer.install()
            try:
                items = list(workload.run_round(lib, inputs, tracer.paused))
            finally:
                tracer.uninstall()
        assert_unwrapped()
        return items, start, time.perf_counter() - start

    setup_spans, rounds = [], []
    tracer = Tracer(np) if args.trace else None
    with SpeedProbe(np) as probe:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            lib = load_enwit()
            first_inputs = workload.inputs(args.seed, 0, args.tiny)
            workload.warm_up(lib, first_inputs)
            setup_spans.append((start, time.perf_counter() - start))
        if tracer:
            rounds = [run_round(first_inputs), run_round(first_inputs, tracer)]
        else:
            deadline = time.perf_counter() + args.seconds
            while not rounds or time.perf_counter() < deadline:
                inputs = workload.inputs(args.seed, len(rounds), args.tiny) if rounds else first_inputs
                rounds.append(run_round(inputs))

    def scaled(start: float, wall: float) -> float:
        return probe.work_seconds(start, start + wall)

    for items, _, _ in rounds:
        for i in items:
            i.seconds = scaled(i.start, i.seconds)
    round_items = [items for items, _, _ in rounds]
    setup_s = median(scaled(s, w) for s, w in setup_spans)

    metrics: dict[str, tuple[float, str]] = {}
    details: dict[str, tuple[float, str, int]] = {}
    if tracer:
        plain, traced = round_items
        (_, plain_start, plain_wall), (_, traced_start, traced_wall) = rounds
        speed = scaled(traced_start, traced_wall) / traced_wall
        for name, (value, unit) in tracer.metrics().items():
            metrics[name] = (value * speed if unit == "s" else value, unit)
        metrics["trace.overhead_s"] = (scaled(traced_start, traced_wall) - scaled(plain_start, plain_wall), "s")
        metrics["sep_energy.err_max"] = (max(i.obs.get("esep_err", 0.0) for i in traced), "J")
        metrics["cli.csv_bytes"] = (sum(i.obs.get("csv_bytes", 0) for i in traced), "B")
        details["trace.overhead_wall_s"] = (traced_wall - plain_wall, "s", 1)
    else:
        metrics["pass_s"] = (median(sum(i.seconds for i in r) for r in round_items), "s")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        details.update(workload.details(round_items))
        details["pass_s"] = (*metrics["pass_s"], len(rounds))
        details["pass_wall_s"] = (median(wall for _, _, wall in rounds), "s", len(rounds))
        details["peak_rss_mb"] = (*metrics["peak_rss_mb"], 1)

    items = [i for r in round_items for i in r]
    failures = [f"{i.kind}: {i.failure}" for i in items if i.failure]
    details["setup_s"] = (setup_s, "s", SETUP_REPEATS)
    details["setup_wall_s"] = (median(w for _, w in setup_spans), "s", SETUP_REPEATS)
    details["probe_burst_wall_s"] = (median(probe.burst_seconds), "s", len(probe.burst_seconds))
    details["numpy_import_wall_s"] = (numpy_import_s, "s", 1)
    details["fail_ratio"] = (len(failures) / len(items), "ratio", len(items))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": _environment(np, blas_env),
        "details": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in details.items()},
        "failures": failures[:20],
    }
    summary = {
        "correct": not failures,
        "attempted": len(items),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    spans = tracer.span_records() if tracer else None
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(dict(record, summary=summary, spans=spans)))
    return record, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)
    record, summary = _run(args)
    for failure in record["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
