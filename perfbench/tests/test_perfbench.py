"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from enaqt import presets  # noqa: E402
from enaqt.observables import SweepClassification  # noqa: E402
from spans import Span, Tracer  # noqa: E402


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    synthetic = [
        Span(0, "outer", 0.0, 10.0, None, "a"),
        Span(1, "inner", 1.0, 3.0, 0, "a"),
        Span(2, "inner", 2.0, 5.0, 0, "a"),      # overlaps its sibling
        Span(3, "leaf", 2.5, 3.5, 2, "a"),       # grandchild: charged to span 2 only
        Span(4, "inner", 8.0, 12.0, 0, "a"),     # runs past its parent's end
        Span(5, "outer", 20.0, 21.0, None, "b"),
    ]
    got = spans.self_times(synthetic)
    # outer: 10 - |[1,5] u [8,10]| = 4, plus the childless second span
    assert got["outer"] == pytest.approx(4.0 + 1.0)
    assert got["inner"] == pytest.approx(2.0 + (3.0 - 1.0) + 4.0)
    assert got["leaf"] == pytest.approx(1.0)


def test_layer_metrics_account_for_wall_time():
    synthetic = [
        Span(0, "sweep.run_sweep", 0.0, 6.0, None, "x"),
        Span(1, "solver.steady_state", 1.0, 5.0, 0, "x"),
        Span(2, "solver.check_density_matrix", 4.0, 4.5, 1, "x"),
    ]
    counts = spans.Counter({"solver.steady_state.calls": 2, "solver.steady_state.unknowns": 98,
                            "solver.steady_state.null_space": 1})
    m = spans.layer_metrics(synthetic, counts, wall=6.5)
    assert m["sweep.run_sweep.self_s"] == pytest.approx(2.0)
    assert m["solver.steady_state.self_s"] == pytest.approx(3.5)
    assert m["trace.unaccounted_s"] == pytest.approx(0.5)
    assert m["solver.steady_state.unknowns"] == 49
    assert m["solver.steady_state.fallback_frac"] == 0.5
    assert m["solver.propagate.calls"] == 0.0


def test_every_per_layer_metric_is_produced():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(spans.layer_metrics([], spans.Counter(), 1.0)) | {"trace.overhead_s"}
    assert {m["name"] for m in manifest["per_layer"]} <= produced


def test_tracer_records_nesting_and_tolerates_missing_sites(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    sites = (
        spans.Site("fake.outer", "fake_layers", "outer", "outer"),
        spans.Site("fake.inner", "fake_layers", "inner", "inner"),
        spans.Site("fake.deleted", "fake_layers", "deleted", "deleted"),
        spans.Site("gone.fn", "no_such_module_here", "fn", "gone"),
    )
    with tracer.installed(sites):
        tracer.label = "sweep-1"
        assert mod.outer(1) == 4
    assert mod.outer is outer and mod.inner is inner
    assert tracer.counts["fake.outer.calls"] == 1
    assert tracer.counts["fake.deleted.calls"] == 0
    assert tracer.counts["gone.fn.calls"] == 0
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert {s.label for s in tracer.spans} == {"sweep-1"}
    assert spans.self_times(tracer.spans) == {"outer": 2.0, "inner": 1.0}


def _outcome(j_p, classification, points=6):
    job = workloads.Job("synthetic", lambda: None, points)
    return workloads.Outcome(job, SimpleNamespace(j_p=np.asarray(j_p)), classification, symmetric=False)


def test_output_check_flags_a_perturbed_curve():
    ref = np.array([0.5, 0.6, 0.7, 0.65, 0.55, 0.4])
    cls = SweepClassification(kind="enaqt", gamma_star=1.0, delta_n_gamma_star=1.0,
                              j_p_argmax=2, delta_n_argmax=2)
    expected = checks.Expected(ref, checks.STEADY_RTOL * ref, asdict(cls), False)

    assert checks.failed_points(_outcome(ref * (1 + 1e-12), cls), expected) == 0
    bumped = ref.copy()
    bumped[3] *= 1 + 1e-9
    assert checks.failed_points(_outcome(bumped, cls), expected) == 1
    nan = ref.copy()
    nan[0] = np.nan
    assert checks.failed_points(_outcome(nan, cls), expected) == 1
    other = SweepClassification(kind="monotonic_decreasing", j_p_argmax=2, delta_n_argmax=2)
    assert checks.failed_points(_outcome(ref, other), expected) == 6
    no_reference = checks.Expected(np.where(np.arange(6) == 1, np.nan, ref), checks.STEADY_RTOL * ref)
    assert checks.failed_points(_outcome(bumped, cls), no_reference) == 1
    assert checks.unchecked_points(no_reference) == 1
    errored = workloads.Outcome(workloads.Job("synthetic", lambda: None, 6), error="SolveFailure: x")
    assert checks.failed_points(errored, expected) == 6


def test_workload_inputs_are_deterministic_in_the_seed():
    for workload in workloads.WORKLOADS:
        first = [job.build() for job in workloads.jobs(workload, 7)]
        again = [job.build() for job in workloads.jobs(workload, 7)]
        assert first == again

    pinned = {job.label: job.build() for job in workloads.jobs("presets_steady", 0)}
    held_out = {job.label: job.build() for job in workloads.jobs("presets_steady", 1)}
    for name in workloads.PRESETS:
        assert pinned[name] == presets.build_preset(name)
        assert (pinned[name].network != held_out[name].network) == (name in workloads.DISORDERED)
