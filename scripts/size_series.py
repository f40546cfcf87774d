#!/usr/bin/env python3
"""Cost of generator assembly, steady solves, preset sweeps and pulse propagation.

Usage, from the repository root:

    python3 scripts/size_series.py --output BENCH_4.json --label change
    python3 scripts/size_series.py --series presets grid --output BENCH_5.json --label change
    python3 scripts/size_series.py --series pulse --output BENCH_9.json --label change
    python3 scripts/size_series.py --series presets --output BENCH_10.json --label change

Each case runs in its own fresh interpreter, so peak RSS
(resource.getrusage) belongs to that case alone.  Four series exist:

    chains   uniform chains of SIZES sites with the preset parameters
             (on-site energy 1.23e4 cm^-1, coupling 60 cm^-1, injection
             and extraction 5 ps^-1, source at site 1 and sink at the far
             end) at gamma_deph = GAMMA_DEPH.  The child times
             `build_liouvillian` and `steady_state(L)` REPEATS times each
             and reports the min and median, the number of stored
             generator entries and the relative error of the current
             against `analytic_chain_current`.
    presets  every shipped steady preset (fig3h needs external data) on
             its own 60-point grid: `run_sweep(build_preset(name))`
             REPEATS times, min and median.  Then a whole steady sweep of
             each SWEEP_CHAINS-site uniform chain with the chain
             parameters over the default 60-point grid, the same way.
    grid     one steady solve `steady_state(L)` on a GRID_SIDE x GRID_SIDE
             square lattice with the chain parameters, source at a corner
             and sink at the opposite one, and a GRID_SWEEP_POINTS-point
             `run_sweep` of the same lattice over the default dephasing
             range, each GRID_REPEATS times.
    pulse    one `propagate` of a PULSE_PRESETS pulse, as a pulse sweep
             point runs it (a single excitation on the lowest injection
             site, no injection channel, PULSE_T_END ps, 201 samples), at
             each dephasing rate of PULSE_GAMMAS, each case in its own
             child: REPEATS times, min and median, and the transfer
             efficiency it reached.  Then two whole pulse sweeps,
             `run_sweep` of each PULSE_SWEEPS preset in pulse mode over
             PULSE_T_END ps (fig2 as the benchmark's pulse workload runs
             it, 20 points over gamma in [1e-2, 1e2]; fig3a on 5 points of
             its default grid): REPEATS times, min and median, the
             largest transfer efficiency and the classification.

Preset, grid and pulse rows give both unknown counts: (n+1)^2 complex
ones for a solve in the full space and n^2+1 real ones for a solve in the
real charge-conserving sector (a pulse propagator borders either with one
more row).  Every row carries the BLAS thread count.

Children import enaqt from --src (default: this repository's src), so the
same script measures any checkout.  Each child caps its address space at
--mem-limit-mb above what its imports already use; a case that runs out
is recorded as not run.  With --output, the result is stored under --label
in that JSON file, next to any other labels already there.
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
SWEEP_CHAINS = (40, 64)
GRID_SIDE = 10
REPEATS = 5
GRID_REPEATS = 3
GRID_SWEEP_POINTS = 5
GAMMA_DEPH = 10.0  # ps^-1, mid-grid of the default sweep
PULSE_PRESETS = ("fig2", "fig3a")
PULSE_GAMMAS = (1e-2, 1.0, 1e2)  # ps^-1
PULSE_T_END = 20.0  # ps, the pulse benchmark's horizon
PULSE_SWEEPS = {"fig2": dict(points=20, gamma_min=1e-2, gamma_max=1e2), "fig3a": dict(points=5)}
RATE = 5.0
BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


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
        for sym in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def cap_address_space(extra_mb: int) -> None:
    """Limit this process to its current address space plus extra_mb."""
    try:
        with open("/proc/self/statm", encoding="utf-8") as fh:
            used = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return
    limit = used + extra_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def stats(samples: list[float]) -> dict:
    return {"min": min(samples), "median": statistics.median(samples)}


def timed(fn, repeats: int) -> tuple[dict, object]:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        samples.append(time.perf_counter() - t0)
    return stats(samples), out


def chain_network(n: int):
    """Uniform n-site chain with the chain parameters, source at site 1 and sink at n."""
    from enaqt.network import Uniform, Unit, generate_geometry

    return generate_geometry(
        "chain", n, Uniform(1.23e4), Uniform(60.0), inject={1}, extract={n}, unit=Unit.WAVENUMBER,
    )


def child_chain(n: int, mem_limit_mb: int) -> dict:
    import numpy as np

    from enaqt.lindblad import ChannelSet, build_liouvillian
    from enaqt.network import assemble_hamiltonian, to_internal_units
    from enaqt.reference import ChainParams, analytic_chain_current
    from enaqt.solver import steady_state

    spec = to_internal_units(chain_network(n))
    H = assemble_hamiltonian(spec)
    channels = ChannelSet(RATE, RATE, GAMMA_DEPH)
    out = {"sites": n, "unknowns": spec.dim**2, "blas_threads": blas_threads()}
    cap_address_space(mem_limit_mb)
    try:
        assembly_s, L = timed(lambda: build_liouvillian(H, channels, spec), REPEATS)
        solve_s, sol = timed(lambda: steady_state(L), REPEATS)
    except MemoryError:
        out["status"] = f"not run: out of memory under a {mem_limit_mb} MB address-space cap"
        return out
    ref = analytic_chain_current(ChainParams(n, spec.couplings[0][2], RATE, RATE, GAMMA_DEPH))
    j_p = RATE * sol.rho[n, n].real
    out.update(
        status="ok",
        assembly_s=assembly_s,
        solve_s=solve_s,
        stored_entries=int(L.nnz) if hasattr(L, "nnz") else int(np.count_nonzero(L)),
        generator_storage="sparse" if hasattr(L, "nnz") else "dense",
        rel_err_vs_analytic=abs(j_p - ref) / ref,
    )
    return out


def unknowns(n: int) -> dict:
    return {"unknowns_full": (n + 1) ** 2, "unknowns_sector": n * n + 1}


def child_preset(name: str, mem_limit_mb: int) -> dict:
    from enaqt.presets import build_preset
    from enaqt.sweep import SweepConfig, run_sweep

    if name.startswith("chain"):
        cfg = SweepConfig(network=chain_network(int(name[5:])), gamma_inj=RATE, gamma_ext=RATE)
    else:
        cfg = build_preset(name)
    n = cfg.network.n_sites
    out = {"preset": name, "sites": n, **unknowns(n), "points": cfg.points,
           "blas_threads": blas_threads()}
    cap_address_space(mem_limit_mb)
    try:
        sweep_s, (curve, cls) = timed(lambda: run_sweep(cfg), REPEATS)
    except MemoryError:
        out["status"] = f"not run: out of memory under a {mem_limit_mb} MB address-space cap"
        return out
    out.update(status="ok", sweep_s=sweep_s, max_j_p=float(curve.j_p.max()), kind=cls.kind,
               methods=sorted(set(curve.method)))
    return out


def child_grid(side: int, mem_limit_mb: int) -> dict:
    from enaqt.lindblad import ChannelSet, build_liouvillian
    from enaqt.network import Uniform, Unit, assemble_hamiltonian, generate_geometry, to_internal_units
    from enaqt.solver import steady_state
    from enaqt.sweep import SweepConfig, run_sweep

    n = side * side
    network = generate_geometry(
        "grid", (side, side), Uniform(1.23e4), Uniform(60.0), inject={1}, extract={n},
        unit=Unit.WAVENUMBER,
    )
    spec = to_internal_units(network)
    H = assemble_hamiltonian(spec)
    cfg = SweepConfig(network=network, points=GRID_SWEEP_POINTS, gamma_inj=RATE, gamma_ext=RATE)
    out = {"grid": f"{side}x{side}", "sites": n, **unknowns(n), "blas_threads": blas_threads()}
    cap_address_space(mem_limit_mb)
    try:
        L = build_liouvillian(H, ChannelSet(RATE, RATE, GAMMA_DEPH), spec)
        solve_s, sol = timed(lambda: steady_state(L), GRID_REPEATS)
        sweep_s, (curve, _) = timed(lambda: run_sweep(cfg), GRID_REPEATS)
    except MemoryError:
        out["status"] = f"not run: out of memory under a {mem_limit_mb} MB address-space cap"
        return out
    out.update(status="ok", solve_s=solve_s, repeats=GRID_REPEATS, method="sector_lu",
               j_p=RATE * float(sol.rho[n, n].real), sweep_points=GRID_SWEEP_POINTS,
               sweep_s=sweep_s, sweep_methods=sorted(set(curve.method)),
               sweep_max_j_p=float(curve.j_p.max()))
    return out


def child_pulse(case: str, mem_limit_mb: int) -> dict:
    import numpy as np

    from enaqt.lindblad import ChannelSet
    from enaqt.network import assemble_hamiltonian, to_internal_units, validate_network
    from enaqt.presets import build_preset
    from enaqt.solver import propagate, transfer_efficiency

    name, gamma = case.split(":")
    if gamma == "sweep":
        return pulse_sweep(name, mem_limit_mb)
    gamma = float(gamma)
    cfg = build_preset(name)
    spec = to_internal_units(validate_network(cfg.network))
    H = assemble_hamiltonian(spec)
    site = min(spec.inject_sites)
    rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho0[site, site] = 1.0
    channels = ChannelSet(0.0, cfg.gamma_ext, gamma)
    n = spec.n_sites
    out = {"preset": name, "gamma_deph": gamma, "sites": n, **unknowns(n), "t_end": PULSE_T_END,
           "blas_threads": blas_threads()}
    cap_address_space(mem_limit_mb)
    try:
        propagate_s, traj = timed(lambda: propagate(H, channels, spec, rho0, PULSE_T_END), REPEATS)
    except MemoryError:
        out["status"] = f"not run: out of memory under a {mem_limit_mb} MB address-space cap"
        return out
    out.update(status="ok", propagate_s=propagate_s, eta=transfer_efficiency(traj))
    return out


def pulse_sweep(name: str, mem_limit_mb: int) -> dict:
    from enaqt.presets import build_preset
    from enaqt.sweep import run_sweep

    cfg = build_preset(name, mode="pulse", t_end=PULSE_T_END, **PULSE_SWEEPS[name])
    n = cfg.network.n_sites
    out = {"preset": name, "sweep": "pulse", "sites": n, **unknowns(n), "points": cfg.points,
           "gamma_min": cfg.gamma_min, "gamma_max": cfg.gamma_max, "t_end": PULSE_T_END,
           "blas_threads": blas_threads()}
    cap_address_space(mem_limit_mb)
    try:
        sweep_s, (curve, cls) = timed(lambda: run_sweep(cfg), REPEATS)
    except MemoryError:
        out["status"] = f"not run: out of memory under a {mem_limit_mb} MB address-space cap"
        return out
    out.update(status="ok", sweep_s=sweep_s, max_eta=float(curve.j_p.max()), kind=cls.kind)
    return out


CHILDREN = {"chains": child_chain, "presets": child_preset, "grid": child_grid, "pulse": child_pulse}


def cases(series: list[str]) -> list[tuple[str, str]]:
    out = []
    for name in series:
        if name == "chains":
            out += [("chains", str(n)) for n in SIZES]
        elif name == "presets":
            out += [("presets", p) for p in PRESETS]
            out += [("presets", f"chain{n}") for n in SWEEP_CHAINS]
        elif name == "pulse":
            out += [("pulse", f"{p}:{g:g}") for p in PULSE_PRESETS for g in PULSE_GAMMAS]
            out += [("pulse", f"{p}:sweep") for p in PULSE_SWEEPS]
        else:
            out.append(("grid", str(GRID_SIDE)))
    return out


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
        series, case = args.child
        arg = case if series in ("presets", "pulse") else int(case)
        result = CHILDREN[series](arg, args.mem_limit_mb)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return

    import numpy
    import scipy

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [args.src, env.get("PYTHONPATH")]))
    rows = []
    for series, case in cases(args.series):
        cmd = [sys.executable, __file__, "--child", series, case,
               "--mem-limit-mb", str(args.mem_limit_mb)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            row = {"case": case, "status": f"not run: child exited {proc.returncode}",
                   "stderr": proc.stderr.strip().splitlines()[-1:]}
        else:
            row = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps(row), flush=True)
        rows.append(row)

    result = {
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "gamma_deph": GAMMA_DEPH,
        "repeats": REPEATS,
        "mem_limit_mb": args.mem_limit_mb,
        "series": rows,
    }
    if args.output:
        path = Path(args.output)
        data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        data[args.label] = result
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
