#!/usr/bin/env python3
"""Compare steady-state and pulse-mode transport optima on one network.

Runs two dephasing sweeps over the same grid: the steady exciton current
under continuous driving, and the transfer efficiency eta(T) of a single
exciton injected as a pulse (no source channel).  Both curves are emitted
and the positions of their maxima are compared; on asymmetric networks the
two optima should sit within a couple of grid steps of each other.
"""

import argparse
from pathlib import Path

import numpy as np

from enaqt.network import load_network
from enaqt.presets import preset_network
from enaqt.results import emit_results
from enaqt.sweep import SweepConfig, run_sweep


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    src = ap.add_mutually_exclusive_group()
    src.add_argument("--network", help="network spec JSON file")
    src.add_argument("--preset", default="fig2", help="preset name (default fig2)")
    ap.add_argument("--t-end", type=float, default=20.0, help="pulse horizon (ps)")
    ap.add_argument("--pulse-site", type=int, default=None)
    ap.add_argument("--gamma-min", type=float, default=1e-2)
    ap.add_argument("--gamma-max", type=float, default=1e2,
                    help="highest dephasing rate (ps^-1); the exact propagator has no upper limit")
    ap.add_argument("--points", type=int, default=60)
    ap.add_argument("--gamma-inj", type=float, default=5.0)
    ap.add_argument("--gamma-ext", type=float, default=5.0)
    ap.add_argument("--output", default="results", help="output directory")
    args = ap.parse_args()

    if args.network:
        spec = load_network(args.network)
        label = Path(args.network).stem
    else:
        spec, _ = preset_network(args.preset)
        label = args.preset

    common = dict(
        network=spec,
        gamma_min=args.gamma_min,
        gamma_max=args.gamma_max,
        points=args.points,
        gamma_ext=args.gamma_ext,
    )
    steady_cfg = SweepConfig(gamma_inj=args.gamma_inj, label=f"{label}-steady", **common)
    pulse_cfg = SweepConfig(
        mode="pulse", t_end=args.t_end, pulse_site=args.pulse_site,
        gamma_inj=0.0, label=f"{label}-pulse", **common,
    )

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    steady_curve, steady_cls = run_sweep(steady_cfg)
    pulse_curve, pulse_cls = run_sweep(pulse_cfg)
    emit_results(steady_curve, steady_cls, "json", outdir / f"{label}_steady.json", steady_cfg)
    emit_results(pulse_curve, pulse_cls, "json", outdir / f"{label}_pulse.json", pulse_cfg)

    ks = int(np.argmax(steady_curve.j_p))
    kp = int(np.argmax(pulse_curve.j_p))
    grid = steady_curve.gamma_grid
    print(f"steady:  {steady_cls.kind}, J_p max {steady_curve.j_p[ks]:.6g} ps^-1 "
          f"at gamma_deph={grid[ks]:.3g}")
    print(f"pulse:   {pulse_cls.kind}, eta({args.t_end:g} ps) max "
          f"{pulse_curve.j_p[kp]:.6f} at gamma_deph={grid[kp]:.3g}")
    print(f"argmax offset: {abs(ks - kp)} grid steps")


if __name__ == "__main__":
    main()
