"""Command-line driver.

Subcommands:
    sweep     dephasing sweep of the steady-state observables
    pulse     dephasing sweep of pulse-excitation transfer efficiency
    figure    run one or all built-in figure presets
    validate  check a network file against the schema invariants
    symmetry  report the inversion-symmetry involution of a network

Each sweep prints one summary line, `<label>: <classification> -> <file>`,
with ` gamma*=<rate>` after an enhanced classification; `figure` puts each
preset's inversion-symmetry verdict (`symmetric, ` or `asymmetric, `)
before the classification.  Exit status is 0 on success and 1 on any
structured error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._version import __version__
from .errors import _seed
from .network import load_network
from .presets import PRESET_NAMES, build_preset
from .results import emit_results
from .sweep import SweepConfig, run_sweep
from .symmetry import detect_inversion_symmetry


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma-min", type=float, default=None, help="lowest dephasing rate (ps^-1)")
    p.add_argument("--gamma-max", type=float, default=None, help="highest dephasing rate (ps^-1)")
    p.add_argument("--points", type=int, default=None, help="number of grid points")
    spacing = p.add_mutually_exclusive_group()
    spacing.add_argument("--log", dest="spacing", action="store_const", const="log",
                         help="logarithmic grid spacing (default)")
    spacing.add_argument("--linear", dest="spacing", action="store_const", const="linear",
                         help="linear grid spacing")
    p.set_defaults(spacing=None)
    p.add_argument("--gamma-ext", type=float, default=None, help="extraction rate (ps^-1)")
    p.add_argument("--seed", type=int, default=None, help="seed for random presets")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", required=True, help="result file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _network_or_preset(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--network", help="network spec JSON file")
    src.add_argument("--preset", choices=PRESET_NAMES, help="built-in preset name")
    p.add_argument("--fmo-file", default=None, help="network file for the fig3h preset")


def _build_config(args) -> SweepConfig:
    grid = ("gamma_min", "gamma_max", "points", "spacing", "gamma_inj", "gamma_ext")
    overrides = {name: value for name in grid if (value := getattr(args, name, None)) is not None}
    if args.command == "pulse":
        overrides.update(mode="pulse", t_end=args.t_end, pulse_site=args.pulse_site)
    if args.preset:
        return build_preset(args.preset, fmo_file=args.fmo_file, seed=args.seed, **overrides)
    spec = load_network(args.network)
    # a network file draws nothing, so no seed is echoed, but a bad one is refused as for a preset
    if args.seed is not None:
        _seed(args.seed)
    return SweepConfig(network=spec, label=Path(args.network).stem, **overrides)


def _run(cfg: SweepConfig, fmt: str, path, verdict: str = "") -> None:
    """Run one sweep, write its result file and print its summary line."""
    curve, classification = run_sweep(cfg)
    emit_results(curve, classification, fmt, path, config=cfg)
    star = "" if classification.gamma_star is None else f" gamma*={classification.gamma_star:.3g}"
    print(f"{cfg.label}: {verdict}{classification.kind}{star} -> {path}")


def _cmd_sweep(args) -> int:
    _run(_build_config(args), args.format, args.output)
    return 0


def _cmd_figure(args) -> int:
    names = list(PRESET_NAMES) if args.preset == "all" else [args.preset]
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in names:
        if name == "fig3h" and args.fmo_file is None and args.preset == "all":
            print("fig3h: skipped (no --fmo-file supplied)")
            continue
        cfg = build_preset(name, fmo_file=args.fmo_file, seed=args.seed)
        verdict = "symmetric, " if detect_inversion_symmetry(cfg.network).symmetric else "asymmetric, "
        _run(cfg, args.format, outdir / f"{name}.{args.format}", verdict)
    return 0


def _cmd_validate(args) -> int:
    spec = load_network(args.network)
    print(
        f"valid network: {spec.n_sites} sites, {len(spec.couplings)} edges, "
        f"inject {sorted(spec.inject_sites)}, extract {sorted(spec.extract_sites)}, "
        f"unit {spec.unit.value}"
    )
    return 0


def _cmd_symmetry(args) -> int:
    spec = load_network(args.network)
    report = detect_inversion_symmetry(spec)
    print(json.dumps({
        "symmetric": report.symmetric,
        "permutation": list(report.permutation) if report.permutation else None,
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enaqt",
        description="Exciton transport through dephasing-coupled quantum networks",
    )
    parser.add_argument("--version", action="version", version=f"enaqt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="steady-state dephasing sweep")
    _network_or_preset(p)
    _add_grid_flags(p)
    p.add_argument("--gamma-inj", type=float, default=None, help="injection rate (ps^-1)")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_sweep)

    # a pulse has no injection channel, so it takes no --gamma-inj
    p = sub.add_parser("pulse", help="pulse-excitation dephasing sweep")
    _network_or_preset(p)
    _add_grid_flags(p)
    _add_io_flags(p)
    p.add_argument("--t-end", type=float, required=True, help="pulse horizon (ps)")
    p.add_argument("--pulse-site", type=int, default=None,
                   help="initially excited site (default: lowest injection site)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figure", help="run figure presets")
    p.add_argument("--preset", required=True, choices=PRESET_NAMES + ("all",))
    p.add_argument("--fmo-file", default=None, help="network file for fig3h")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("validate", help="validate a network file")
    p.add_argument("--network", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("symmetry", help="inversion-symmetry report for a network")
    p.add_argument("--network", required=True)
    p.set_defaults(func=_cmd_symmetry)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # structured nonzero exit for scripting
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
