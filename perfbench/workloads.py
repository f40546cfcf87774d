"""The benchmark's workloads, built from the seed through enaqt's public API.

    presets_steady  every shipped steady preset (fig3h needs external data)
                    on its own 60-point grid, with inversion-symmetry
                    detection and JSON emit: the `enaqt figure --preset all`
                    path.  The dense steady-state solve dominates.
    pulse_fig2      fig2 pulse sweep, t_end = 20 ps, 20 points over
                    gamma in [1e-2, 1e2].  All in propagation; never calls
                    steady_state or build_liouvillian.
    chain40_sparse  40-site uniform chain, inject 1, extract 40, default
                    60-point grid.  Above DENSE_SITE_LIMIT, so it takes the
                    CSR path; generator assembly dominates time and memory.

The seed chooses the disorder draw of fig3d, fig3f and fig3g; seed 0 keeps
the pinned draws the stored curves were recorded with.  The other
workloads have no random input.

Every call into enaqt resolves a module attribute at call time, so the
tracer's wrappers see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from enaqt import presets, results, sweep, symmetry
from enaqt.network import Uniform, Unit, generate_geometry

WORKLOADS = ("presets_steady", "pulse_fig2", "chain40_sparse")

PRESETS = ("fig1", "fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "fig3g", "fig3i")
# disordered presets and the pinned seeds of their stored curves
DISORDERED = {"fig3d": 0, "fig3f": 2, "fig3g": 8}

PULSE = dict(mode="pulse", t_end=20.0, gamma_min=1e-2, gamma_max=1e2, points=20)
CHAIN_SITES = 40
SITE_ENERGY_CM = 1.23e4
COUPLING_CM = 60.0


@dataclass(frozen=True)
class Job:
    """One sweep of a pass: build its config, run it, optionally test symmetry, emit."""

    label: str
    build: Callable[[], sweep.SweepConfig]
    points: int
    symmetry: bool = False


@dataclass
class Outcome:
    job: Job
    curve: object = None
    classification: object = None
    symmetric: bool | None = None
    error: str | None = None


def preset_seed(name: str, seed: int) -> int:
    return (DISORDERED[name] + seed) % 2**32


def _preset_job(name: str, seed: int) -> Job:
    kw = {"seed": preset_seed(name, seed)} if name in DISORDERED else {}
    return Job(name, lambda: presets.build_preset(name, **kw), sweep.DEFAULT_POINTS, symmetry=True)


def chain_config() -> sweep.SweepConfig:
    spec = generate_geometry(
        "chain",
        CHAIN_SITES,
        Uniform(SITE_ENERGY_CM),
        Uniform(COUPLING_CM),
        inject={1},
        extract={CHAIN_SITES},
        unit=Unit.WAVENUMBER,
    )
    return sweep.SweepConfig(network=spec, label=f"chain{CHAIN_SITES}")


def jobs(workload: str, seed: int) -> list[Job]:
    if workload == "presets_steady":
        return [_preset_job(name, seed) for name in PRESETS]
    if workload == "pulse_fig2":
        return [Job("fig2_pulse", lambda: presets.build_preset("fig2", **PULSE), PULSE["points"])]
    if workload == "chain40_sparse":
        return [Job(f"chain{CHAIN_SITES}", chain_config, sweep.DEFAULT_POINTS)]
    raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def warmup_config(workload: str) -> sweep.SweepConfig:
    """A small sweep that pays the first-call costs of the workload's path."""
    if workload == "pulse_fig2":
        return presets.build_preset("fig2", **{**PULSE, "t_end": 1.0, "points": 5})
    return presets.build_preset("fig1")


def run_pass(pass_jobs: list[Job], outdir: Path, tracer=None) -> list[Outcome]:
    """Run every job once; a job that raises is recorded and the pass goes on."""
    outcomes = []
    for job in pass_jobs:
        if tracer is not None:
            tracer.label = job.label
        try:
            cfg = job.build()
            curve, classification = sweep.run_sweep(cfg)
            symmetric = None
            if job.symmetry:
                net = cfg.network
                symmetric = symmetry.detect_inversion_symmetry(net, site_limit=net.n_sites).symmetric
            results.emit_results(curve, classification, "json", outdir / f"{job.label}.json", config=cfg)
        except Exception as exc:  # counted as failed points by the output check
            outcomes.append(Outcome(job, error=f"{type(exc).__name__}: {exc}"))
            continue
        outcomes.append(Outcome(job, curve, classification, symmetric))
    return outcomes
