"""The Lindblad generator for driven, dephasing exciton networks.

The master equation is

    drho/dt = -i [H, rho] + L_inj rho + L_ext rho + L_dep rho,

where each dissipative channel contributes gamma * (V rho V+ - {V+ V, rho}/2)
with jump operators

    injection   V = a_s+ = |s><0|   at every injection site s,
    extraction  V = a_s  = |0><s|   at every extraction site s,
    dephasing   V = n_s  = |s><s|   at every site (the vacuum carries no
                                    dephasing operator: n_s annihilates it).

Vectorization convention
------------------------
Density matrices are vectorized by column stacking, vec(rho) =
rho.flatten(order="F"), under which vec(A X B) = (B^T kron A) vec(X).  The
materialized generator is therefore

    L = -i (I kron H - H^T kron I)
        + sum_k gamma_k [conj(V_k) kron V_k
                         - (I kron V_k+ V_k)/2 - (V_k^T conj(V_k) kron I)/2].

`build_liouvillian` is the only generator the solvers use.  A matrix-free
evaluation of the same action from the closed forms of the jump operators
lives in `reference.py`, where the tests use it as an independent check of
the materialized generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, NonPhysicalState
from .network import NetworkSpec

# dense superoperators up to 30 sites (31^2 = 961 rows); sparse beyond
DENSE_SITE_LIMIT = 30


@dataclass(frozen=True)
class ChannelSet:
    """Rates (ps^-1) of the injection, extraction and dephasing channels."""

    gamma_inj: float = 0.0
    gamma_ext: float = 0.0
    gamma_deph: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gamma_inj", "gamma_ext", "gamma_deph"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {rate}")


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return rho.flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


def creation_op(dim: int, site: int) -> np.ndarray:
    """a_site+ = |site><0| on the vacuum + single-excitation space."""
    V = np.zeros((dim, dim), dtype=complex)
    V[site, 0] = 1.0
    return V


def annihilation_op(dim: int, site: int) -> np.ndarray:
    """a_site = |0><site|."""
    V = np.zeros((dim, dim), dtype=complex)
    V[0, site] = 1.0
    return V


def number_op(dim: int, site: int) -> np.ndarray:
    """n_site = a_site+ a_site = |site><site|."""
    V = np.zeros((dim, dim), dtype=complex)
    V[site, site] = 1.0
    return V


def dissipator(V: np.ndarray, gamma: float) -> np.ndarray:
    """Materialized superoperator gamma*(V . V+ - {V+V, .}/2), column stacking."""
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise DimensionMismatch(f"jump operator must be square, got shape {V.shape}")
    d = V.shape[0]
    VdV = V.conj().T @ V
    eye = np.eye(d)
    return gamma * (
        np.kron(V.conj(), V)
        - 0.5 * np.kron(eye, VdV)
        - 0.5 * np.kron(VdV.T, eye)
    )


def _channel_ops(channels: ChannelSet, spec: NetworkSpec, dim: int):
    """Yield (jump operator, rate) for every dissipative channel."""
    for s in sorted(spec.inject_sites):
        yield creation_op(dim, s), channels.gamma_inj
    for s in sorted(spec.extract_sites):
        yield annihilation_op(dim, s), channels.gamma_ext
    for s in range(1, spec.n_sites + 1):
        yield number_op(dim, s), channels.gamma_deph


def build_liouvillian(
    H: np.ndarray,
    channels: ChannelSet,
    spec: NetworkSpec,
    sparse: bool | None = None,
):
    """Materialize the full generator as a d^2 x d^2 matrix.

    Returns a dense ndarray for networks up to DENSE_SITE_LIMIT sites and a
    CSR matrix above, unless `sparse` forces the storage.
    """
    d = spec.dim
    if H.shape != (d, d):
        raise DimensionMismatch(
            f"Hamiltonian shape {H.shape} does not match network dimension {d}"
        )
    if sparse is None:
        sparse = spec.n_sites > DENSE_SITE_LIMIT
    eye = np.eye(d)
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for V, gamma in _channel_ops(channels, spec, d):
        L += dissipator(V, gamma)
    if sparse:
        return sp.csr_matrix(L)
    return L


# ---------------------------------------------------------------------------
# density-matrix validation
# ---------------------------------------------------------------------------

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


def hermitize(rho: np.ndarray) -> np.ndarray:
    return 0.5 * (rho + rho.conj().T)


def check_density_matrix(
    rho: np.ndarray,
    *,
    herm_tol: float = HERMITICITY_TOL,
    trace_tol: float = TRACE_TOL,
    eig_floor: float = EIGENVALUE_FLOOR,
) -> np.ndarray:
    """Validate hermiticity, unit trace and positivity; return rho unchanged.

    Violations raise NonPhysicalState: they indicate solver bugs and must
    surface rather than being clipped away.
    """
    herm_err = np.max(np.abs(rho - rho.conj().T))
    if herm_err > herm_tol:
        raise NonPhysicalState(f"hermiticity violated by {herm_err:.3e}")
    trace_err = abs(np.trace(rho) - 1.0)
    if trace_err > trace_tol:
        raise NonPhysicalState(f"trace deviates from 1 by {trace_err:.3e}")
    lo = float(np.linalg.eigvalsh(hermitize(rho)).min())
    if lo < eig_floor:
        raise NonPhysicalState(f"negative eigenvalue {lo:.3e} below floor {eig_floor:.1e}")
    return rho
