"""In-memory spans around enaqt's layers, recorded from outside the package.

A Tracer replaces module attributes with wrappers while it is installed.
Each wrapper counts its calls and, for a spanned layer, records a span with
its name, start, end, parent span and the label of the sweep being run.
The attribute patched is the one the caller resolves at call time: e.g.
`run_sweep` looks up `steady_state` in `enaqt.sweep`, while `steady_state`
looks up `check_density_matrix` in `enaqt.solver`.

A site whose module or attribute no longer exists is skipped, so a layer
that a later change deletes reports zero calls instead of failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    label: str


def _generator_bytes(counts, args, kwargs, out) -> None:
    if hasattr(out, "indptr"):  # CSR/CSC: the stored arrays, not a dense view
        counts["lindblad.generator_bytes"] += out.data.nbytes + out.indices.nbytes + out.indptr.nbytes
    else:
        counts["lindblad.generator_bytes"] += getattr(out, "nbytes", 0)


def _steady_state_shape(counts, args, kwargs, out) -> None:
    L = args[0] if args else kwargs.get("L")
    counts["solver.steady_state.unknowns"] += getattr(L, "shape", (0,))[0]
    counts["solver.steady_state.null_space"] += getattr(out, "method", None) == "null_space"


def _emitted_bytes(counts, args, kwargs, out) -> None:
    path = args[3] if len(args) > 3 else kwargs.get("path")
    counts["results.emit_results.bytes"] += os.path.getsize(path)


@dataclass(frozen=True)
class Site:
    name: str              # "<defining module>.<function>", the prefix of its counters
    module: str            # module whose attribute the caller resolves
    attr: str
    layer: str | None      # span name; None counts calls without a span
    observe: Callable | None = None


# apply_liouvillian runs once per RK45 stage evaluation (~1e5 calls per pulse
# sweep), so it is counted without a span and its time stays in propagate.
SITES = (
    Site("presets.build_preset", "enaqt.presets", "build_preset", "presets.build_preset"),
    Site("sweep.run_sweep", "enaqt.sweep", "run_sweep", "sweep.run_sweep"),
    Site("lindblad.build_liouvillian", "enaqt.sweep", "build_liouvillian",
         "lindblad.build_liouvillian", _generator_bytes),
    Site("solver.steady_state", "enaqt.sweep", "steady_state", "solver.steady_state",
         _steady_state_shape),
    Site("solver.check_density_matrix", "enaqt.solver", "check_density_matrix",
         "solver.check_density_matrix"),
    Site("solver.propagate", "enaqt.sweep", "propagate", "solver.propagate"),
    Site("lindblad.apply_liouvillian", "enaqt.solver", "apply_liouvillian", None),
    Site("observables.occupations", "enaqt.sweep", "occupations", "observables"),
    Site("observables.exciton_current", "enaqt.sweep", "exciton_current", "observables"),
    Site("observables.heat_current", "enaqt.sweep", "heat_current", "observables"),
    Site("observables.delta_n", "enaqt.sweep", "delta_n", "observables"),
    Site("observables.classify_sweep", "enaqt.sweep", "classify_sweep", "observables"),
    Site("symmetry.detect_inversion_symmetry", "enaqt.symmetry", "detect_inversion_symmetry",
         "symmetry.detect_inversion_symmetry"),
    Site("results.emit_results", "enaqt.results", "emit_results", "results.emit_results",
         _emitted_bytes),
)
LAYERS = tuple(dict.fromkeys(s.layer for s in SITES if s.layer))


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.label = ""
        self._stack: list[int] = []
        self._ids = itertools.count()

    def _wrap(self, site: Site, fn: Callable) -> Callable:
        calls = site.name + ".calls"

        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            if site.layer is None:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans.append(Span(sid, site.layer, start, self.clock(), parent, self.label))
            if site.observe is not None:
                site.observe(self.counts, args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def installed(self, sites=SITES):
        """Patch every site that exists; restore the originals on exit."""
        patched = []
        try:
            for site in sites:
                try:
                    module = importlib.import_module(site.module)
                except ModuleNotFoundError:
                    continue
                fn = getattr(module, site.attr, None)
                if fn is None:
                    continue
                setattr(module, site.attr, self._wrap(site, fn))
                patched.append((module, site.attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: durations minus the time their direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        kids = [
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(s.id, ())
            if hi > s.start and lo < s.end
        ]
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - _covered(kids)
    return out


def layer_metrics(spans: list[Span], counts: Counter, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced pass of `wall` seconds."""
    selfs = self_times(spans)
    m = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
    m.update({f"{s.name}.calls": float(counts[s.name + ".calls"]) for s in SITES})
    solves = counts["solver.steady_state.calls"]
    m["solver.steady_state.unknowns"] = (
        counts["solver.steady_state.unknowns"] / solves if solves else 0.0
    )
    m["solver.steady_state.fallback_frac"] = (
        counts["solver.steady_state.null_space"] / solves if solves else 0.0
    )
    m["lindblad.generator_bytes"] = float(counts["lindblad.generator_bytes"])
    m["results.emit_results.bytes"] = float(counts["results.emit_results.bytes"])
    m["trace.wall_s"] = wall
    m["trace.unaccounted_s"] = wall - sum(selfs.get(layer, 0.0) for layer in LAYERS)
    return m
