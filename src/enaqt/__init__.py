"""Exciton transport through dephasing-coupled quantum networks.

Steady-state and time-dependent solutions of the Lindblad master equation
for tight-binding exciton networks driven by incoherent injection and
extraction, with site-local dephasing.  Built to study when an
intermediate dephasing strength enhances the steady exciton current
(environment-assisted quantum transport) and how that enhancement tracks
the spread of the site occupations.
"""

from ._version import __version__
from .lindblad import ChannelSet, check_density_matrix
from .network import (
    NetworkSpec,
    RandomUniform,
    Uniform,
    Unit,
    assemble_hamiltonian,
    convert_units,
    generate_geometry,
    load_network,
    save_network,
    to_internal_units,
    validate_network,
)
from .observables import (
    Occupations,
    SweepClassification,
    SweepCurve,
    classify_sweep,
    delta_n,
    exciton_current,
    heat_current,
    occupations,
)
from .presets import PRESET_NAMES, build_preset, preset_network
from .results import emit_results, read_results_csv, read_results_json
from .solver import (
    SteadyStateSolution,
    Trajectory,
    propagate,
    steady_state,
    transfer_efficiency,
)
from .sweep import SweepConfig, run_sweep
from .symmetry import SymmetryReport, apply_permutation, detect_inversion_symmetry

__all__ = [
    "__version__",
    "ChannelSet",
    "NetworkSpec",
    "Occupations",
    "RandomUniform",
    "SteadyStateSolution",
    "SweepClassification",
    "SweepConfig",
    "SweepCurve",
    "SymmetryReport",
    "Trajectory",
    "Uniform",
    "Unit",
    "apply_permutation",
    "assemble_hamiltonian",
    "build_preset",
    "check_density_matrix",
    "classify_sweep",
    "convert_units",
    "delta_n",
    "detect_inversion_symmetry",
    "emit_results",
    "exciton_current",
    "generate_geometry",
    "heat_current",
    "load_network",
    "occupations",
    "preset_network",
    "PRESET_NAMES",
    "propagate",
    "read_results_csv",
    "read_results_json",
    "run_sweep",
    "save_network",
    "steady_state",
    "to_internal_units",
    "transfer_efficiency",
    "validate_network",
]
