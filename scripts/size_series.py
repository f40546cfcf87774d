#!/usr/bin/env python3
"""Cost of generator assembly and one steady solve on uniform chains.

Usage, from the repository root:

    python3 scripts/size_series.py --output BENCH_4.json --label change

Each chain size runs in its own fresh interpreter, so peak RSS
(resource.getrusage) belongs to that size alone.  The chain has the
preset parameters (on-site energy 1.23e4 cm^-1, coupling 60 cm^-1,
injection and extraction 5 ps^-1, source at site 1 and sink at the far
end) at gamma_deph = GAMMA_DEPH.  The child times `build_liouvillian` and
`steady_state(L)` REPEATS times each and reports the min and median,
the number of stored generator entries, the BLAS thread count and the
relative error of the current against `analytic_chain_current`.

Children import enaqt from --src (default: this repository's src), so the
same script measures any checkout.  Each child caps its address space at
--mem-limit-mb above what its imports already use; a size that runs out
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

SIZES = (8, 16, 25, 40, 48, 64)
REPEATS = 5
GAMMA_DEPH = 10.0  # ps^-1, mid-grid of the default sweep
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


def child(n: int, mem_limit_mb: int) -> dict:
    import numpy as np

    from enaqt.lindblad import ChannelSet, build_liouvillian
    from enaqt.network import Uniform, Unit, assemble_hamiltonian, generate_geometry, to_internal_units
    from enaqt.reference import ChainParams, analytic_chain_current
    from enaqt.solver import steady_state

    spec = to_internal_units(generate_geometry(
        "chain", n, Uniform(1.23e4), Uniform(60.0), inject={1}, extract={n}, unit=Unit.WAVENUMBER,
    ))
    H = assemble_hamiltonian(spec)
    channels = ChannelSet(RATE, RATE, GAMMA_DEPH)
    out = {"sites": n, "unknowns": spec.dim**2, "blas_threads": blas_threads()}
    cap_address_space(mem_limit_mb)
    try:
        assembly, solve = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            L = build_liouvillian(H, channels, spec)
            assembly.append(time.perf_counter() - t0)
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            rho = steady_state(L).rho
            solve.append(time.perf_counter() - t0)
    except MemoryError:
        out["status"] = f"not run: out of memory under a {mem_limit_mb} MB address-space cap"
        return out
    ref = analytic_chain_current(ChainParams(n, spec.couplings[0][2], RATE, RATE, GAMMA_DEPH))
    j_p = RATE * rho[n, n].real
    out.update(
        status="ok",
        assembly_s=stats(assembly),
        solve_s=stats(solve),
        stored_entries=int(L.nnz) if hasattr(L, "nnz") else int(np.count_nonzero(L)),
        generator_storage="sparse" if hasattr(L, "nnz") else "dense",
        rel_err_vs_analytic=abs(j_p - ref) / ref,
    )
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--mem-limit-mb", type=int, default=1024,
                    help="address space each child may add after its imports")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory the children import enaqt from")
    ap.add_argument("--output", default=None, help="JSON file to store the series in")
    ap.add_argument("--label", default="series", help="key of this series in --output")
    ap.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child is not None:
        result = child(args.child, args.mem_limit_mb)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return

    import numpy
    import scipy

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [args.src, env.get("PYTHONPATH")]))
    series = []
    for n in SIZES:
        cmd = [sys.executable, __file__, "--child", str(n), "--mem-limit-mb", str(args.mem_limit_mb)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            row = {"sites": n, "status": f"not run: child exited {proc.returncode}",
                   "stderr": proc.stderr.strip().splitlines()[-1:]}
        else:
            row = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps(row), flush=True)
        series.append(row)

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
        "series": series,
    }
    if args.output:
        path = Path(args.output)
        data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        data[args.label] = result
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
