#!/usr/bin/env python3
"""Run every built-in figure preset and emit plot-ready result tables.

Each preset produces one file <output>/<name>.<format> with the dephasing
sweep of the exciton current, heat current, occupation spread and site
occupations, plus the sweep classification (JSON format only).

The fig3h benchmark needs an externally supplied network file (pass
--fmo-file); it is skipped otherwise.
"""

import argparse
import time
from pathlib import Path

from enaqt.presets import PRESET_NAMES, build_preset
from enaqt.results import emit_results
from enaqt.sweep import run_sweep
from enaqt.symmetry import detect_inversion_symmetry


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output", default="results", help="output directory")
    ap.add_argument("--format", choices=("csv", "json"), default="json")
    ap.add_argument("--fmo-file", default=None)
    ap.add_argument("--seed", type=int, default=None,
                    help="override the pinned seeds of the random presets")
    args = ap.parse_args()

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    for name in PRESET_NAMES:
        if name == "fig3h" and args.fmo_file is None:
            print(f"{name}: skipped (needs --fmo-file)")
            continue
        t0 = time.time()
        cfg = build_preset(name, fmo_file=args.fmo_file, seed=args.seed)
        curve, cls = run_sweep(cfg)
        sym = detect_inversion_symmetry(cfg.network, site_limit=25)
        path = outdir / f"{name}.{args.format}"
        emit_results(curve, cls, args.format, path, config=cfg)
        star = f" gamma*={cls.gamma_star:.3g}" if cls.gamma_star else ""
        print(
            f"{name}: {'symmetric' if sym.symmetric else 'asymmetric'}, "
            f"{cls.kind}{star}  [{time.time() - t0:.1f}s] -> {path}"
        )


if __name__ == "__main__":
    main()
