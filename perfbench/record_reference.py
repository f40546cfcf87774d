#!/usr/bin/env python3
"""Record the stored curves that the benchmark's output check compares with.

Run once, from the repository root, at the commit whose curves define the
reference:

    python3 perfbench/record_reference.py

It writes perfbench/reference_curves.json: J_p, classification and symmetry
verdict of every steady preset at its pinned seed, and the fig2 pulse
efficiencies.  A change that claims to keep the curves must not re-record.
"""

import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def record(workload: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        outcomes = workloads.run_pass(workloads.jobs(workload, 0), Path(tmp))
    out = {}
    for o in outcomes:
        if o.error:
            raise RuntimeError(f"{o.job.label}: {o.error}")
        out[o.job.label] = {"j_p": o.curve.j_p.tolist()}
        if o.symmetric is not None:
            out[o.job.label].update(classification=asdict(o.classification), symmetric=o.symmetric)
    return out


def main() -> None:
    doc = {"steady": record("presets_steady"), "pulse": record("pulse_fig2")}
    with open(checks.STORED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
