"""Machine-readable emission and re-ingestion of sweep results.

CSV files carry one comment line (tool version and config hash), a header
row, and one data row per grid point in increasing dephasing rate:

    gamma_deph, j_p, j_q, delta_n, vacuum, n_1, ..., n_L

They are written and read by numpy's text codec (`savetxt`, `loadtxt`),
with floats at 17 significant digits, so re-parsing reproduces the binary
values exactly.  A JSON file is one compact line (no indentation, no
spaces after separators) and a newline, written by `json.dumps` without
indent, the one call that runs CPython's C encoder: floats by
`float.__repr__`, the shortest string that parses back to the same bits,
and NaN as JSON's NaN token.  Files written indented by earlier versions
read back the same.  JSON files mirror the same columns and add the
configuration echo and the classification block, and, for a steady sweep,
a diagnostics block with each point's solve method, residual, reciprocal
condition of the eigenbasis system (NaN on sector-LU points, written as
JSON's NaN token) and smallest eigenvalue of rho.  An environment block
records the numpy and scipy versions, the BLAS each was built against
(name and version, from `show_config(mode="dicts")`, read once per
library) and the OPENBLAS_NUM_THREADS and OMP_NUM_THREADS settings (null
when unset).  scipy is recorded only if it is loaded when the file is
written, and is null otherwise: this module never imports it, and a
steady sweep that needs no sector-LU fallback never loads it.  Emitting
and re-ingesting a JSON file is lossless; files without the diagnostics
or environment block read back the same, with no diagnostics recorded.
A diagnostics block must hold all four columns, and every column one
entry per grid point; files that break this, such as those written
before rcond and min_eigenvalue were recorded, are rejected with
ValueError.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from ._version import __version__
from .observables import SweepClassification, SweepCurve
from .sweep import SweepConfig, config_to_dict


def config_hash(config: dict | None) -> str:
    payload = json.dumps(config or {}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def csv_header(n_sites: int) -> list[str]:
    return ["gamma_deph", "j_p", "j_q", "delta_n", "vacuum"] + [
        f"n_{i}" for i in range(1, n_sites + 1)
    ]


def emit_results(
    curve: SweepCurve,
    classification: SweepClassification,
    fmt: str,
    path,
    config: SweepConfig | dict | None = None,
) -> None:
    """Write a completed sweep to `path` as CSV or JSON."""
    if isinstance(config, SweepConfig):
        config = config_to_dict(config)
    if fmt == "csv":
        _emit_csv(curve, path, config)
    elif fmt == "json":
        _emit_json(curve, classification, path, config)
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def _environment() -> dict:
    """Library versions, their BLAS builds and the BLAS thread settings, as loaded now."""
    return {
        "numpy": _build("numpy"),
        "scipy": _build("scipy") if "scipy" in sys.modules else None,
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


@functools.cache
def _build(name: str) -> dict:
    """Version and BLAS build of a loaded library."""
    mod = sys.modules[name]
    blas = mod.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"version": mod.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def _emit_csv(curve: SweepCurve, path, config: dict | None) -> None:
    table = np.column_stack([curve.gamma_grid, curve.j_p, curve.j_q, curve.delta_n, curve.vacuum,
                             curve.occupations])
    header = (f"# enaqt {__version__} config={config_hash(config)}\n"
              + ",".join(csv_header(curve.occupations.shape[1])))
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="",
               encoding="utf-8")


def _emit_json(
    curve: SweepCurve,
    classification: SweepClassification,
    path,
    config: dict | None,
) -> None:
    doc = {
        "tool": "enaqt",
        "version": __version__,
        "config_hash": config_hash(config),
        "config": config or {},
        "classification": asdict(classification),
        "curve": {
            "gamma_deph": curve.gamma_grid.tolist(),
            "j_p": curve.j_p.tolist(),
            "j_q": curve.j_q.tolist(),
            "delta_n": curve.delta_n.tolist(),
            "vacuum": curve.vacuum.tolist(),
            "occupations": curve.occupations.tolist(),
        },
        "environment": _environment(),
    }
    if curve.method is not None:
        doc["diagnostics"] = {"method": list(curve.method)} | {
            name: getattr(curve, name).tolist() for name in ("residual", "rcond", "min_eigenvalue")
        }
    # json.dumps without indent is the one call that runs the C encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")))
        fh.write("\n")


def read_results_json(path) -> tuple[SweepCurve, SweepClassification, dict]:
    """Re-ingest an emitted JSON file; bit-exact inverse of emit_results."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    c = doc["curve"]
    diag = doc.get("diagnostics", {})
    curve = SweepCurve(
        gamma_grid=c["gamma_deph"],
        j_p=c["j_p"],
        j_q=c["j_q"],
        delta_n=c["delta_n"],
        vacuum=c["vacuum"],
        occupations=c["occupations"],
        method=diag.get("method"),
        residual=diag.get("residual"),
        rcond=diag.get("rcond"),
        min_eigenvalue=diag.get("min_eigenvalue"),
    )
    cls = SweepClassification(**doc["classification"])
    return curve, cls, doc.get("config", {})


def read_results_csv(path) -> SweepCurve:
    """Parse an emitted CSV file back into a SweepCurve."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on a file with no rows
        data = np.loadtxt(path, delimiter=",", comments=("#", "gamma_deph"), ndmin=2,
                          encoding="utf-8")
    if not data.size:
        raise ValueError(f"{path} holds no data rows")
    return SweepCurve(
        gamma_grid=data[:, 0],
        j_p=data[:, 1],
        j_q=data[:, 2],
        delta_n=data[:, 3],
        vacuum=data[:, 4],
        occupations=data[:, 5:],
    )
