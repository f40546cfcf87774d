"""Built-in network/sweep presets for the standard benchmark geometries.

All presets share the chromophore-scale parameters: uniform on-site energy
1.23e4 cm^-1, coupling 60 cm^-1, and SweepConfig's injection/extraction
rates of 5 ps^-1 (a pulse injects nothing).  Inject/extract placements
are fixed conventions of this package:

    fig1    symmetric 7-site chain, inject 1, extract 7
    fig2    asymmetric 7-site chain, inject 1, extract 5 (sink pulled two
            sites off the end, breaking the mirror symmetry)
    fig3a   5x5 grid, opposite corners (1 -> 25): inversion-symmetric
    fig3b   5x5 grid, extraction one lattice step off the corner (1 -> 24)
    fig3c   uniform 8-site ring, inject 1, extract 5 (any uniform-ring
            placement admits a reflection symmetry)
    fig3d   8-site ring with random energies in [1e2, 1e5] cm^-1
    fig3e   cube, antipodal corners (1 -> 8): inversion-symmetric
    fig3f   cube with +-10% random energy disorder, extraction one step off
            the antipode (1 -> 7).  A uniform cube admits an involutive
            automorphism between *any* vertex pair, so placement alone
            cannot break the symmetry; disorder does.
    fig3g   16-site full graph, random energies [1e2, 1e5] cm^-1 and random
            couplings [10, 100] cm^-1, two extraction sites {8, 16}
    fig3h   user-supplied network file (the FMO benchmark Hamiltonian is
            external data, e.g. Cho et al., J. Phys. Chem. B 109, 10542
            (2005); it is never shipped with the package)
    fig3i   pyramid (square base + apex), inject base corner 1, extract
            apex 5

The strongly disordered presets fig3d and fig3g sweep up to 1e5 ps^-1:
their current maximum sits near the detuning scale, far above the default
1e3 ps^-1 ceiling used for the uniform geometries.  Random presets carry
pinned seeds so their output is reproducible; the seed is echoed in the
emitted configuration.  A preset that draws nothing echoes no seed, even
when one is passed.
"""

from __future__ import annotations

from .errors import MissingExternalData
from .network import (
    NetworkSpec,
    RandomUniform,
    Uniform,
    Unit,
    generate_geometry,
    load_network,
)
from .sweep import SweepConfig

SITE_ENERGY_CM = 1.23e4
COUPLING_CM = 60.0
DISORDER_WIDE_CM = (1e2, 1e5)
DISORDER_BAND_CM = (1.1e4, 1.35e4)
COUPLING_RANGE_CM = (10.0, 100.0)

_UNIFORM_E = Uniform(SITE_ENERGY_CM)
_UNIFORM_T = Uniform(COUPLING_CM)

# (kind, params, energy spec, coupling spec, inject, extract, default seed);
# a preset that draws nothing has no default seed and takes none
_GEOMETRIES = {
    "fig1": ("chain", 7, _UNIFORM_E, _UNIFORM_T, {1}, {7}, None),
    "fig2": ("chain", 7, _UNIFORM_E, _UNIFORM_T, {1}, {5}, None),
    "fig3a": ("grid", (5, 5), _UNIFORM_E, _UNIFORM_T, {1}, {25}, None),
    "fig3b": ("grid", (5, 5), _UNIFORM_E, _UNIFORM_T, {1}, {24}, None),
    "fig3c": ("ring", 8, _UNIFORM_E, _UNIFORM_T, {1}, {5}, None),
    "fig3d": ("ring", 8, RandomUniform(*DISORDER_WIDE_CM), _UNIFORM_T, {1}, {5}, 0),
    "fig3e": ("cube", None, _UNIFORM_E, _UNIFORM_T, {1}, {8}, None),
    "fig3f": ("cube", None, RandomUniform(*DISORDER_BAND_CM), _UNIFORM_T, {1}, {7}, 2),
    "fig3g": (
        "full_graph",
        16,
        RandomUniform(*DISORDER_WIDE_CM),
        RandomUniform(*COUPLING_RANGE_CM),
        {1},
        {8, 16},
        8,
    ),
    "fig3i": ("pyramid", None, _UNIFORM_E, _UNIFORM_T, {1}, {5}, None),
}

# sweeps covering the current maximum of the strongly disordered presets
_WIDE_GAMMA_PRESETS = {"fig3d", "fig3g"}

PRESET_NAMES = tuple(sorted(_GEOMETRIES) + ["fig3h"])


def preset_network(
    name: str, *, fmo_file=None, seed: int | None = None
) -> tuple[NetworkSpec, int | None]:
    """Network for a named preset, plus the seed of its random draw (None if it draws nothing)."""
    if name == "fig3h":
        if fmo_file is None:
            raise MissingExternalData(
                "fig3h needs an externally supplied network file with the FMO "
                "Hamiltonian (site energies and couplings in cm^-1, e.g. from "
                "Cho et al., J. Phys. Chem. B 109, 10542 (2005)); pass it via "
                "fmo_file / --fmo-file"
            )
        return load_network(fmo_file), None
    if name not in _GEOMETRIES:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    kind, params, e_spec, t_spec, inj, ext, default_seed = _GEOMETRIES[name]
    used_seed = default_seed if seed is None or default_seed is None else seed
    spec = generate_geometry(
        kind,
        params,
        e_spec,
        t_spec,
        inject=inj,
        extract=ext,
        seed=used_seed if used_seed is not None else 0,
        unit=Unit.WAVENUMBER,
    )
    return spec, used_seed


def build_preset(
    name: str,
    *,
    fmo_file=None,
    seed: int | None = None,
    **overrides,
) -> SweepConfig:
    """SweepConfig for a named preset; keyword overrides win."""
    spec, used_seed = preset_network(name, fmo_file=fmo_file, seed=seed)
    kwargs = dict(network=spec, label=name, seed=used_seed)
    if name in _WIDE_GAMMA_PRESETS:
        kwargs["gamma_max"] = 1e5
    kwargs.update(overrides)
    return SweepConfig(**kwargs)
