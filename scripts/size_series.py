#!/usr/bin/env python3
"""Cost of whole dephasing sweeps by network size, one case per sweep.

Usage, from the repository root (--src ../other/src --label other measures another checkout):

    python3 scripts/size_series.py --series chains presets grid pulse --output BENCH_13.json

Every case is one `SweepConfig`, timed through `run_sweep`.  The series:

    chains   60-point steady sweeps of uniform chains of SIZES sites: on-site
             energy 1.23e4 cm^-1, coupling 60 cm^-1, injection and extraction
             5 ps^-1 at sites 1 and n; the row adds the largest relative
             error of J_p against `analytic_chain_current`.
    presets  every shipped steady preset (not fig3h) on its own grid.
    grid     a GRID_SWEEP_POINTS-point steady sweep of a GRID_SIDE-square
             lattice with the chain parameters, corner to opposite corner.
    pulse    fig2 at t_end PULSE_T_END ps on 20 and 60 points over gamma_deph
             in [1e-2, 1e2], and fig3a on 5 points of its default grid.

Each case runs in CHILDREN fresh interpreters, so no one child's speed
decides a row; each runs it once untimed, then REPEATS timed times.  A row
gives the min and median over all runs, and each child's min, of the sweep
time (`sweep_s`) and of the minor page faults of the process during a
timed run (`minflt`, the change in ru_minflt), then the largest peak RSS,
the largest J_p (eta in pulse mode), the classification, the solve methods
and the BLAS thread count.  Children import enaqt from --src
(default: this repository's src) and cap their address space at
--mem-limit-mb above their imports; a case that runs out is recorded as
not run.  --output stores the result under --label.
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
from pathlib import Path

SERIES = ("chains", "presets", "grid", "pulse")
SIZES = (8, 16, 25, 40, 48, 64)
PRESETS = ("fig1", "fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "fig3g", "fig3i")
GRID_SIDE = 10
GRID_SWEEP_POINTS = 5
PULSE_T_END = 20.0  # ps, the pulse benchmark's horizon
PULSE_SWEEPS = {"fig2:20": dict(points=20, gamma_min=1e-2, gamma_max=1e2),
                "fig2:60": dict(points=60, gamma_min=1e-2, gamma_max=1e2),
                "fig3a:5": dict(points=5)}
CASES = {"chains": [str(n) for n in SIZES], "presets": list(PRESETS), "grid": [str(GRID_SIDE)],
         "pulse": list(PULSE_SWEEPS)}
RATE = 5.0  # ps^-1, injection and extraction
CHILDREN = 3
REPEATS = 5
BLAS_THREAD_SYMBOLS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def blas_threads() -> dict:
    """Thread count of every loaded OpenBLAS, read from the library itself."""
    maps = Path("/proc/self/maps")
    lines = maps.read_text(encoding="utf-8").splitlines() if maps.exists() else []
    paths = sorted({ln.split()[-1] for ln in lines if "openblas" in ln.lower() and "/" in ln})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def cap_address_space(extra_mb: int) -> None:
    """Limit this process to its current address space plus extra_mb."""
    statm = Path("/proc/self/statm")
    if not statm.exists():
        return
    used = int(statm.read_text(encoding="utf-8").split()[0]) * os.sysconf("SC_PAGE_SIZE")
    limit = used + extra_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def config(series: str, case: str):
    """The SweepConfig of one case."""
    from enaqt.network import Uniform, Unit, generate_geometry
    from enaqt.presets import build_preset
    from enaqt.sweep import SweepConfig

    if series == "presets":
        return build_preset(case)
    if series == "pulse":
        return build_preset(case.split(":")[0], mode="pulse", t_end=PULSE_T_END, **PULSE_SWEEPS[case])
    side = int(case)
    kind, shape, n = ("chain", side, side) if series == "chains" else ("grid", (side, side), side * side)
    network = generate_geometry(kind, shape, Uniform(1.23e4), Uniform(60.0), inject={1}, extract={n},
                                unit=Unit.WAVENUMBER)
    grid = {} if series == "chains" else dict(points=GRID_SWEEP_POINTS)
    return SweepConfig(network=network, gamma_inj=RATE, gamma_ext=RATE, **grid)


def child(series: str, case: str, mem_limit_mb: int) -> dict:
    """One warm-up and REPEATS timed `run_sweep` calls of one case."""
    import numpy as np

    from enaqt.network import to_internal_units
    from enaqt.reference import ChainParams, analytic_chain_current
    from enaqt.sweep import run_sweep

    cfg = config(series, case)
    out = {"series": series, "case": case, "sites": cfg.network.n_sites, "mode": cfg.mode,
           "points": cfg.points, "gamma_min": cfg.gamma_min, "gamma_max": cfg.gamma_max,
           "blas_threads": blas_threads()}
    cap_address_space(mem_limit_mb)
    samples, faults = [], []
    try:
        run_sweep(cfg)
        for _ in range(REPEATS):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            curve, cls = run_sweep(cfg)
            samples.append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    except MemoryError:
        out["status"] = f"not run: out of memory under a {mem_limit_mb} MB address-space cap"
        return out
    out.update(status="ok", sweep_s=samples, minflt=faults, max_j_p=float(curve.j_p.max()), kind=cls.kind,
               methods=sorted(set(curve.method or ())))
    if series == "chains":
        t = to_internal_units(cfg.network).couplings[0][2]
        ref = np.array([analytic_chain_current(ChainParams(cfg.network.n_sites, t, RATE, RATE, g))
                        for g in curve.gamma_grid])
        out["rel_err_vs_analytic"] = float(np.max(np.abs(curve.j_p - ref) / ref))
    return out


def run_case(series: str, case: str, mem_limit_mb: int, env: dict) -> dict:
    """Run one case in CHILDREN fresh children and merge their rows."""
    rows = []
    for _ in range(CHILDREN):
        cmd = [sys.executable, __file__, "--child", series, case, "--mem-limit-mb", str(mem_limit_mb)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            return {"series": series, "case": case, "status": f"not run: child exited {proc.returncode}",
                    "stderr": proc.stderr.strip().splitlines()[-1:]}
        rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if rows[-1]["status"] != "ok":
            return rows[-1]
    merged = {}
    for key in ("sweep_s", "minflt"):
        samples = [s for row in rows for s in row[key]]
        merged[key] = {"min": min(samples), "median": statistics.median(samples),
                       "child_min": [min(row[key]) for row in rows]}
    return {**rows[0], **merged, "peak_rss_mb": max(row["peak_rss_mb"] for row in rows)}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--mem-limit-mb", type=int, default=1024,
                    help="address space each child may add after its imports")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory the children import enaqt from")
    ap.add_argument("--output", default=None, help="JSON file to store the series in")
    ap.add_argument("--label", default="series", help="key of this series in --output")
    ap.add_argument("--series", nargs="+", choices=SERIES, default=["chains"],
                    help="which series to run (default: chains)")
    ap.add_argument("--child", nargs=2, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child is not None:
        result = child(*args.child, args.mem_limit_mb)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return

    import numpy
    import scipy

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [args.src, os.environ.get("PYTHONPATH")])))
    rows = []
    for series in args.series:
        for case in CASES[series]:
            rows.append(run_case(series, case, args.mem_limit_mb, env))
            print(json.dumps(rows[-1]), flush=True)

    environment = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                   "numpy": numpy.__version__, "scipy": scipy.__version__}
    result = {"environment": environment, "children": CHILDREN, "repeats": REPEATS,
              "mem_limit_mb": args.mem_limit_mb, "series": rows}
    if args.output:
        path = Path(args.output)
        data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        data[args.label] = result
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
