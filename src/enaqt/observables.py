"""Observables of a transport steady state and dephasing-sweep classification.

Current sign convention: both currents are flows *out of* the network
through the extraction channels, so they are the negatives of the trace
rates Tr(n L_ext[rho]) and Tr(H L_ext[rho]) at which the channel changes
the exciton number and energy of the system.  With this convention the
exciton current is gamma_ext times the sink occupation and is nonnegative
for every valid state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import GridTooCoarse, NonPhysicalState
from .lindblad import ChannelSet
from .network import NetworkSpec

OCCUPATION_FLOOR = -1e-10
IMAG_TOL = 1e-10
# an interior current maximum must exceed both endpoint values by this
# much, relative, to classify a sweep as enhanced
PROMINENCE_TOL = 1e-3


@dataclass(frozen=True)
class Occupations:
    """Site populations n_i = rho_ii (i = 1..n) and the vacuum population.

    Of a stack of k states, values is (k, n) and vacuum has k entries.
    """

    values: np.ndarray
    vacuum: float | np.ndarray


def occupations(rho: np.ndarray) -> Occupations:
    """Populations of a (d, d) state, or of each state of a (k, d, d) stack.

    A diagonal with an imaginary part above IMAG_TOL or a population below
    OCCUPATION_FLOOR, or a non-finite one, raises NonPhysicalState; on a
    stack the error names the first bad state by its `index`.
    """
    diag = np.diagonal(rho, axis1=-2, axis2=-1)
    real = diag.real
    worst_imag = np.atleast_1d(np.abs(diag.imag).max(axis=-1))
    lowest = np.atleast_1d(real.min(axis=-1))
    # written to fail on NaN, which no comparison passes
    bad = np.flatnonzero(~((worst_imag <= IMAG_TOL) & (lowest >= OCCUPATION_FLOOR)))
    if bad.size:
        k = int(bad[0])
        index = k if rho.ndim == 3 else None
        if not worst_imag[k] <= IMAG_TOL:
            raise NonPhysicalState(f"diagonal has imaginary part {worst_imag[k]:.3e}", index)
        what = "negative" if lowest[k] < OCCUPATION_FLOOR else "non-finite"
        raise NonPhysicalState(f"{what} occupation {lowest[k]:.3e}", index)
    vacuum = real[..., 0].copy()
    return Occupations(values=real[..., 1:].copy(), vacuum=float(vacuum) if rho.ndim == 2 else vacuum)


def exciton_current(rho: np.ndarray, channels: ChannelSet, spec: NetworkSpec) -> float | np.ndarray:
    """Steady extraction rate J_p = gamma_ext * sum of sink occupations (ps^-1).

    One value for a (d, d) state, one per state of a (k, d, d) stack.
    """
    sinks = sorted(spec.extract_sites)
    return _scalar(channels.gamma_ext * rho[..., sinks, sinks].real.sum(axis=-1))


def heat_current(
    rho: np.ndarray, H: np.ndarray, channels: ChannelSet, spec: NetworkSpec
) -> float | np.ndarray:
    """Energy flow out through the extraction channels, -Tr(H L_ext[rho]).

    With the vacuum row of H zero this is gamma_ext * sum_e Re (H rho)_ee
    over the sinks e; per sink that reads
        gamma_ext * (eps_e rho_ee + (1/2) sum_j H_ej (rho_ej + rho_je)).
    Linear in rho, so it also takes time-integrated states.  One value for
    a (d, d) state, one per state of a (k, d, d) stack.
    """
    sinks = sorted(spec.extract_sites)
    return _scalar(channels.gamma_ext * np.einsum("ej,...je->...", H[sinks], rho[..., :, sinks]).real)


def delta_n(occ: Occupations, extract_sites: Iterable[int]) -> float | np.ndarray:
    """Occupation-spread metric 1 - sqrt(sum_i (n_i - n_ext)^2).

    n_ext is the mean occupation over the extraction sites (with several
    sinks no single reference occupation exists; the mean is the symmetric
    aggregate).  The sum runs over all sites, so a single sink contributes
    a vanishing term.  Values can be negative for widely spread
    occupations; only the location of the maximum carries meaning.  Of
    the occupations of a stack it gives one value per state.
    """
    sinks = [s - 1 for s in sorted(extract_sites)]
    n_ext = occ.values[..., sinks].mean(axis=-1, keepdims=True)
    return _scalar(1.0 - np.sqrt(np.sum((occ.values - n_ext) ** 2, axis=-1)))


def _scalar(x: np.ndarray) -> float | np.ndarray:
    """A Python float for the 0-d result of a single state; a stack's array as it is."""
    return float(x) if x.ndim == 0 else x


@dataclass(frozen=True)
class SweepCurve:
    """Per-dephasing-rate observables of a sweep."""

    gamma_grid: np.ndarray
    j_p: np.ndarray
    j_q: np.ndarray
    delta_n: np.ndarray
    vacuum: np.ndarray
    occupations: np.ndarray  # (points, n_sites)
    # how each steady-state point was solved: all four or, in pulse mode, none
    method: tuple[str, ...] | None = None   # "eigenbasis" or "sector_lu"
    residual: np.ndarray | None = None      # max |L vec(rho)| in internal units
    rcond: np.ndarray | None = None         # reciprocal condition of N_gamma; NaN for "sector_lu"
    min_eigenvalue: np.ndarray | None = None  # smallest eigenvalue of rho

    def __post_init__(self) -> None:
        # a curve owns its arrays: a view would keep the array it views alive
        for name in ("gamma_grid", "j_p", "j_q", "delta_n", "vacuum", "occupations"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
        points = self.gamma_grid.shape
        if len(points) != 1:
            raise ValueError(f"gamma_grid must be one-dimensional, got shape {points}")
        for name in ("j_p", "j_q", "delta_n", "vacuum"):
            if getattr(self, name).shape != points:
                raise ValueError(f"{name} needs one entry per grid point")
        if self.occupations.ndim != 2 or self.occupations.shape[0] != points[0]:
            raise ValueError("occupations needs one row per grid point")
        diagnostics = ("residual", "rcond", "min_eigenvalue")
        recorded = [getattr(self, name) is not None for name in ("method",) + diagnostics]
        if any(recorded) and not all(recorded):
            raise ValueError("method, residual, rcond and min_eigenvalue are recorded "
                             "together or not at all")
        if self.method is not None:
            object.__setattr__(self, "method", tuple(self.method))
            if len(self.method) != points[0]:
                raise ValueError("method needs one entry per grid point")
            for name in diagnostics:
                object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
                if getattr(self, name).shape != points:
                    raise ValueError(f"{name} needs one entry per grid point")
        if np.any(np.diff(self.gamma_grid) <= 0):
            raise ValueError("gamma_grid must be strictly increasing")
        if not float(self.j_p.min(initial=0.0)) >= -1e-12:  # NaN fails too
            raise ValueError(f"negative or non-finite exciton current {self.j_p.min():.3e}")

    @property
    def n_points(self) -> int:
        return len(self.gamma_grid)


MONOTONIC = "monotonic_decreasing"
ENAQT = "enaqt"


@dataclass(frozen=True)
class SweepClassification:
    kind: str
    gamma_star: float | None = None          # dephasing rate of the J_p maximum
    delta_n_gamma_star: float | None = None  # dephasing rate of the delta_n maximum
    j_p_argmax: int = 0
    delta_n_argmax: int = 0


def classify_sweep(curve: SweepCurve) -> SweepClassification:
    """Label a sweep as dephasing-enhanced or monotonically suppressed.

    The enhanced label requires the current maximum at an interior grid
    point exceeding both endpoint values by more than PROMINENCE_TOL
    relative; the threshold separates genuine interior maxima from solver
    noise.
    Classification depends only on argmax positions and ratios, so it is
    invariant under uniform positive rescaling of the current column.
    """
    if curve.n_points < 5:
        raise GridTooCoarse(f"need at least 5 grid points, got {curve.n_points}")
    jp = curve.j_p
    k = int(np.argmax(jp))
    kd = int(np.argmax(curve.delta_n))
    interior = 0 < k < curve.n_points - 1
    prominent = jp[k] > jp[0] * (1.0 + PROMINENCE_TOL) and jp[k] > jp[-1] * (1.0 + PROMINENCE_TOL)
    if interior and prominent:
        return SweepClassification(
            kind=ENAQT,
            gamma_star=float(curve.gamma_grid[k]),
            delta_n_gamma_star=float(curve.gamma_grid[kd]),
            j_p_argmax=k,
            delta_n_argmax=kd,
        )
    return SweepClassification(kind=MONOTONIC, j_p_argmax=k, delta_n_argmax=kd)
