"""Spans and counters around the public functions of each enwit layer.

A layer is one module of the package.  While a :class:`Tracer` is
installed, every public module-level function of a layer module is
replaced, wherever a module of the package binds it, by a wrapper that
opens a span when a call crosses into that layer from outside it; calls
that stay inside one layer open no further span.  ``numpy.einsum`` and the
``numpy.linalg`` routines in :data:`LINALG` are wrapped too, and each call
is charged to the layer of the innermost open span.  :meth:`Tracer.uninstall`
restores every original, and :func:`wrapped_names` lists any wrapper left
behind, so an untraced run can prove it ran on the plain program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "cli",
    "witness",
    "sep_energy",
    "robustness",
    "thermal",
    "hamiltonians",
    "operators",
    "measurement",
)
LINALG = ("eigh", "eigvalsh", "cholesky", "inv", "solve")
_MARK = "__bench_wrapped__"


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "enwit" or name.startswith("enwit.")]


def _public_functions(module) -> dict:
    return {
        name: f
        for name, f in vars(module).items()
        if inspect.isfunction(f) and f.__module__ == module.__name__ and not name.startswith("_")
    }


def wrapped_names(np) -> list[str]:
    """Every attribute of enwit or numpy that currently holds a tracing wrapper."""
    found = [
        f"{mod.__name__}.{name}"
        for mod in _package_modules()
        for name, value in vars(mod).items()
        if hasattr(value, _MARK)
    ]
    found += [f"numpy.linalg.{n}" for n in LINALG if hasattr(getattr(np.linalg, n), _MARK)]
    if hasattr(np.einsum, _MARK):
        found.append("numpy.einsum")
    return found


class Tracer:
    """In-memory spans and per-layer counts for one traced pass."""

    def __init__(self, np):
        self._np = np
        self._origin = time.perf_counter()
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [layer, span index, child seconds]
        self._paused = False
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.self_s: Counter = Counter()

    # -- installation -------------------------------------------------
    def install(self) -> None:
        replacement = {}
        for layer in LAYERS:
            module = importlib.import_module(f"enwit.{layer}")
            for name, fn in _public_functions(module).items():
                replacement[fn] = self._layer_wrapper(layer, name, fn)
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacement:
                    self._patch(module, name, replacement[value])
        for name in LINALG:
            self._patch(self._np.linalg, name, self._numpy_wrapper(name, getattr(self._np.linalg, name)))
        self._patch(self._np, "einsum", self._numpy_wrapper("einsum", self._np.einsum))

    def uninstall(self) -> None:
        while self._patched:
            target, name, original = self._patched.pop()
            setattr(target, name, original)

    def _patch(self, target, name: str, wrapper) -> None:
        self._patched.append((target, name, getattr(target, name)))
        setattr(target, name, wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Let calls through unrecorded, e.g. while the benchmark checks outputs."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- wrappers -----------------------------------------------------
    def _layer_wrapper(self, layer: str, name: str, fn):
        qualname = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused or (self._stack and self._stack[-1][0] == layer):
                return fn(*args, **kwargs)
            parent = self._stack[-1][1] if self._stack else -1
            frame = [layer, len(self.spans), 0.0]
            self.spans.append((qualname, 0.0, 0.0, parent))
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[frame[1]] = (qualname, start - self._origin, end - self._origin, parent)
                self.self_s[layer] += (end - start) - frame[2]
                if self._stack:
                    self._stack[-1][2] += end - start
                self.counts[f"{layer}.calls"] += 1
                self.counts[qualname] += 1
            self._observe(qualname, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _numpy_wrapper(self, name: str, fn):
        is_linalg = name in LINALG

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and not self._paused:
                layer = self._stack[-1][0]
                self.counts[f"{layer}.{name}_calls"] += 1
                if is_linalg:
                    self.counts[f"{layer}.linalg_calls"] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _observe(self, qualname: str, args, kwargs, result) -> None:
        """Counts read off a layer's result at the boundary where it is returned."""
        c, m = self.counts, self.maxima
        if qualname in ("hamiltonians.build_xxx", "hamiltonians.build_pauli"):
            c["hamiltonians.builds"] += 1
            m["hamiltonians.max_dim"] = max(m["hamiltonians.max_dim"], result.dim)
        elif qualname == "sep_energy.esep_seesaw":
            c["sep_energy.converged"] += bool(result.converged)
        elif qualname == "thermal.gibbs":
            c["thermal.points"] += 1
        elif qualname == "thermal.energy_curve":
            c["thermal.points"] += len(result)
        elif qualname in ("witness.bound_sweep", "witness.sweep_single_hamiltonian"):
            c["witness.cells"] += len(result)
        elif qualname == "measurement.measure_energy":
            c["measurement.shots"] += result.shots
        elif qualname == "robustness.rg_exact_2q":
            stages = kwargs.get("trace", args[1] if len(args) > 1 else None)
            c["robustness.stages"] += len(stages or ())
            m["robustness.gap_max"] = max(m["robustness.gap_max"], result.duality_gap)

    # -- results ------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (c[f"{layer}.calls"], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.linalg_calls"] = (c[f"{layer}.linalg_calls"], "count")
            out[f"{layer}.errors"] = (c[f"{layer}.errors"], "count")
        solves = c["robustness.rg_exact_2q"]
        seesaws = c["sep_energy.esep_seesaw"]
        out["robustness.linalg_per_solve"] = (_ratio(c["robustness.linalg_calls"], solves), "count")
        out["robustness.stages_per_solve"] = (_ratio(c["robustness.stages"], solves), "count")
        out["robustness.gap_max"] = (self.maxima["robustness.gap_max"], "1")
        out["sep_energy.eigh_calls"] = (c["sep_energy.eigh_calls"], "count")
        out["sep_energy.einsum_calls"] = (c["sep_energy.einsum_calls"], "count")
        out["sep_energy.converged_ratio"] = (_ratio(c["sep_energy.converged"], seesaws), "ratio")
        out["operators.eig_calls"] = (c["operators.eig"], "count")
        out["operators.eig_per_build"] = (_ratio(c["operators.eig"], c["hamiltonians.builds"]), "count")
        out["hamiltonians.max_dim"] = (self.maxima["hamiltonians.max_dim"], "count")
        out["measurement.shots"] = (c["measurement.shots"], "count")
        out["thermal.points"] = (c["thermal.points"], "count")
        out["witness.cells"] = (c["witness.cells"], "count")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
