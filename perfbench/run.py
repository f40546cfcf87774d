#!/usr/bin/env python3
"""Dephasing-sweep benchmark of enaqt, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload presets_steady --seed 0 --seconds 36 --trace 0

Workloads are described in workloads.py.  One run:

1. set-up: five fresh interpreters each import enaqt, numpy and scipy,
   build the workload's configs and run one warm-up sweep; `setup_s` is
   the median of their wall times.  The run then sets itself up the same
   way, untimed.
2. timed phase: whole passes over the workload's jobs (sweep,
   classification, symmetry detection, JSON emit) until the next pass
   would end after --seconds; `wall_s` is the median pass time.
   With --trace 1, untraced and traced passes alternate: the per-layer
   figures are medians over traced passes (see spans.py), and
   `trace.overhead_s` is the traced minus the untraced median pass time.
3. output check on every pass (checks.py); `ok_frac` is the share of grid
   points that ran and passed, i.e. 1 - failed_frac.

BLAS keeps its default thread count.  Emitted results and the span dump go
to .perfbench/ in the repository root.  An info line (environment, pass
times, errors) precedes the last line, which is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def set_up(workload: str, seed: int) -> list:
    """Import the program, build the workload's configs and run a warm-up sweep."""
    sys.path.insert(0, str(SRC))
    import enaqt
    import workloads

    if not Path(enaqt.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"enaqt imported from {enaqt.__file__}, not from {SRC}")
    jobs = workloads.jobs(workload, seed)
    for job in jobs:
        job.build()
    enaqt.sweep.run_sweep(workloads.warmup_config(workload))
    return jobs


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t = time.perf_counter()
    # a pipe ends the wait at exit; waiting with a timeout alone polls in 50 ms steps
    subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=PROBE_TIMEOUT_S, check=True)
    return time.perf_counter() - t


def blas_threads() -> dict:
    """Thread count of every loaded OpenBLAS, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        paths = []
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = {"threads": fn(), "source": f"{sym}()"}
                break
    if not out:
        var = next((v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if v in os.environ), None)
        out["unknown"] = {"threads": os.environ.get(var), "source": f"env {var}" if var else "unset"}
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": dep.get("name"), "version": dep.get("version")}

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "enaqt" / "__init__.py").is_file():
        print(f"error: no enaqt source tree under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(args.workload, args.seed)
        return 0

    setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
    jobs = set_up(args.workload, args.seed)
    # importable only once set_up has put the source tree on sys.path
    import checks
    import spans
    import workloads

    outdir = OUT / "results"
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    walls = {False: [], True: []}
    layer_passes, outcomes = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls[True]) < len(walls[False])
        if traced:
            first_span = len(tracer.spans)
            tracer.counts.clear()
        with tracer.installed() if traced else nullcontext():
            t = time.perf_counter()
            outcomes += workloads.run_pass(jobs, outdir, tracer if traced else None)
            wall = time.perf_counter() - t
        walls[traced].append(wall)
        if traced:
            layer_passes.append(spans.layer_metrics(tracer.spans[first_span:], tracer.counts, wall))
        elapsed = time.perf_counter() - start
        out_of_time = elapsed + statistics.median(walls[False] + walls[True]) > args.seconds
        if out_of_time and (tracer is None or walls[True]):
            break

    expected = checks.expected_for(args.workload, args.seed, checks.load_stored())
    attempted = sum(o.job.points for o in outcomes)
    failed = sum(checks.failed_points(o, expected[o.job.label]) for o in outcomes)
    unchecked = sum(checks.unchecked_points(expected[o.job.label]) for o in outcomes if not o.error)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if tracer is not None:
        values = {k: statistics.median(p[k] for p in layer_passes) for k in layer_passes[0]}
        values["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        wanted = manifest["per_layer"]
        trace_file = OUT / f"trace_{args.workload}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": [asdict(s) for s in tracer.spans]}, fh)
    else:
        values = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - failed / attempted,
        }
        wanted = manifest["end_to_end"]

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "setup_probes_s": setup,
        "untraced_pass_s": walls[False],
        "traced_pass_s": walls[True],
        "errors": sorted({o.error for o in outcomes if o.error}),
        "unchecked_points": unchecked,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
