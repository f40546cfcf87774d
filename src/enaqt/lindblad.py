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
rho.flatten(order="F"), so entry rho[i, j] sits at vec index i + j*d.

`generator_entries` lists the entries of the d^2 x d^2 generator as COO
arrays straight from the closed forms of these jump operators, numpy
alone, no index twice:

    commutator  every nonzero H[i, k] off the diagonal gives -i H[i, k] at
                (i + j d, k + j d) and +i H[i, k] at (j + k d, j + i d)
                for every j; the on-site energies give -i (H_ii - H_jj)
                on the diagonal;
    injection   rho_00 feeds rho_ss at rate gamma_inj, and the vacuum row
                and column decay at gamma_inj / 2 per source site;
    extraction  rho_ss feeds rho_00 at rate gamma_ext, and row and column s
                decay at gamma_ext / 2;
    dephasing   a diagonal: site-site coherences decay at gamma_deph,
                site-vacuum coherences at gamma_deph / 2, populations not
                at all.

That is at most 2 nnz(H) d + d^2 + |inject| + |extract| entries, never
d^4.  They are the only form of the generator a solver materializes:
`solver.SectorPropagator` and the sector LU `solver.steady_state` both
project them onto the charge sector.  Their CSR matrix,
`reference.build_liouvillian`, is a test oracle.

`apply_liouvillian` evaluates the generator's action on a state or a
(k, d, d) stack of them from the same closed forms, assembling nothing.
The steady-state sweep checks its states with it, a residual guard that
shares no code with the entries but the diagonal and its dephasing
rates (`unit_dephasing`).  The kron-product form,

    L = -i (I kron H - H^T kron I)
        + sum_k gamma_k [conj(V_k) kron V_k
                         - (I kron V_k+ V_k)/2 - (V_k^T conj(V_k) kron I)/2],

lives in `reference.py`; the tests check both the assembly and the action
against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPhysicalState, _real
from .network import NetworkSpec


@dataclass(frozen=True)
class ChannelSet:
    """Rates (ps^-1) of the injection, extraction and dephasing channels."""

    gamma_inj: float = 0.0
    gamma_ext: float = 0.0
    gamma_deph: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gamma_inj", "gamma_ext", "gamma_deph"):
            rate = _real(getattr(self, name), name, what="finite and nonnegative", least=0.0, finite=True)
            object.__setattr__(self, name, rate)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return rho.flatten(order="F")


def unit_dephasing(d: int) -> np.ndarray:
    """Decay rate of each rho[i, j] at unit dephasing: 1 between sites, 1/2 site-vacuum, 0 diagonal."""
    half = 0.5 * (np.arange(d) > 0)
    rates = half[:, None] + half[None, :]
    np.fill_diagonal(rates, 0.0)
    return rates


def _diagonal(H: np.ndarray, channels: ChannelSet, spec: NetworkSpec) -> np.ndarray:
    """The generator's diagonal as a (d, d) array: entry (i, j) multiplies rho[i, j] in drho[i, j]."""
    d = spec.dim
    e = np.diag(H)
    half = np.zeros(d)
    half[0] += 0.5 * channels.gamma_inj * len(spec.inject_sites)
    half[sorted(spec.extract_sites)] += 0.5 * channels.gamma_ext
    return (-1j * (e[:, None] - e[None, :]) - (half[:, None] + half[None, :])
            - channels.gamma_deph * unit_dephasing(d))


def generator_entries(H: np.ndarray, channels: ChannelSet,
                      spec: NetworkSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The generator's entries as COO arrays (rows, cols, vals), from the closed forms, no index twice."""
    d = spec.dim
    if H.shape != (d, d):
        raise DimensionMismatch(
            f"Hamiltonian shape {H.shape} does not match network dimension {d}"
        )
    idx = np.arange(d)[:, None]
    i, k = np.nonzero(H - np.diag(np.diag(H)))
    h = H[i, k]
    # -i H rho: drho[i, j] gets rho[k, j];  +i rho H: drho[j, k] gets rho[j, i]
    rows = [i + idx * d, idx + k * d]
    cols = [k + idx * d, idx + i * d]
    vals = [np.broadcast_to(-1j * h, rows[0].shape), np.broadcast_to(1j * h, rows[1].shape)]

    # diagonal: on-site energies and the decay of every rho[i, j]
    rows.append(np.arange(d * d))
    cols.append(np.arange(d * d))
    vals.append(vec(_diagonal(H, channels, spec)))

    # population transfer: vacuum -> sources, sinks -> vacuum
    src = np.array(sorted(spec.inject_sites), dtype=int) * (d + 1)
    snk = np.array(sorted(spec.extract_sites), dtype=int) * (d + 1)
    rows += [src, np.zeros_like(snk)]
    cols += [np.zeros_like(src), snk]
    vals += [np.full(src.size, channels.gamma_inj), np.full(snk.size, channels.gamma_ext)]
    return tuple(np.concatenate([np.ravel(a) for a in arrays]) for arrays in (rows, cols, vals))


def apply_liouvillian(H: np.ndarray, channels: ChannelSet, spec: NetworkSpec,
                      rho: np.ndarray) -> np.ndarray:
    """Action of the generator on rho, one (d, d) state or each of a (k, d, d) stack.

    Nothing is assembled: the off-diagonal part of H acts by two matrix
    products, and the generator's diagonal and the two
    population transfers (vacuum to the sources at gamma_inj, the sinks to
    the vacuum at gamma_ext) act entrywise.
    """
    d = spec.dim
    if H.shape != (d, d) or rho.ndim not in (2, 3) or rho.shape[-2:] != (d, d):
        raise DimensionMismatch(
            f"expected {d}x{d} operators, got H {H.shape} and rho {rho.shape}"
        )
    H_off = H - np.diag(np.diag(H))
    drho = -1j * (H_off @ rho - right_product(rho, H_off)) + _diagonal(H, channels, spec) * rho
    src = sorted(spec.inject_sites)
    snk = sorted(spec.extract_sites)
    drho[..., src, src] += channels.gamma_inj * rho[..., 0, 0, None]
    drho[..., 0, 0] += channels.gamma_ext * rho[..., snk, snk].sum(axis=-1)
    return drho


# ---------------------------------------------------------------------------
# density-matrix validation
# ---------------------------------------------------------------------------

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


def right_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for one (r, c) matrix or a (k, r, c) stack A and one (c, s) matrix B.

    The stack is multiplied as one (k r, c) matrix, one 2-D GEMM, where
    numpy's stacked matmul calls one small GEMM per layer.  A left product
    B @ A has no such form without a transposed copy of the stack, which
    costs about what it saves, so left products stay stacked.
    """
    return (A.reshape(-1, A.shape[-1]) @ B).reshape(A.shape[:-1] + B.shape[-1:])


def hermitize(rho: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix, or of each matrix of a stack."""
    return 0.5 * (rho + np.swapaxes(rho.conj(), -1, -2))


def check_density_matrix(rho: np.ndarray) -> float | np.ndarray:
    """Validate hermiticity, unit trace and positivity of rho.

    rho is one (d, d) matrix or a (k, d, d) stack of them.  Returns the
    smallest eigenvalue of rho, which the positivity check computes
    anyway, or one per state of a stack (from one stacked eigvalsh).
    Violations, non-finite entries included, raise NonPhysicalState; on a
    stack the error names the first bad state by its `index`.  They
    indicate solver bugs and must surface rather than being clipped away.
    """
    stack = rho.reshape((-1,) + rho.shape[-2:])
    finite = np.isfinite(stack).all(axis=(-2, -1))
    with np.errstate(invalid="ignore"):  # inf - inf on a non-finite state
        herm_err = np.abs(stack - np.swapaxes(stack.conj(), -1, -2)).max(axis=(-2, -1))
        trace_err = np.abs(np.einsum("kii->k", stack) - 1.0)
    # a NaN fails every comparison, so each check is written to pass only
    # on a value within its bound
    ok = finite & (herm_err <= HERMITICITY_TOL) & (trace_err <= TRACE_TOL)
    lo = np.full(ok.shape, np.nan)
    lo[ok] = np.linalg.eigvalsh(hermitize(stack[ok])).min(axis=-1)
    bad = np.flatnonzero(~(lo >= EIGENVALUE_FLOOR))
    if bad.size:
        k = int(bad[0])
        if not finite[k]:
            msg = "non-finite entry"
        elif not herm_err[k] <= HERMITICITY_TOL:
            msg = f"hermiticity violated by {herm_err[k]:.3e}"
        elif not trace_err[k] <= TRACE_TOL:
            msg = f"trace deviates from 1 by {trace_err[k]:.3e}"
        else:
            msg = f"negative eigenvalue {lo[k]:.3e} below floor {EIGENVALUE_FLOOR:.1e}"
        raise NonPhysicalState(msg, index=k if rho.ndim == 3 else None)
    return lo if rho.ndim == 3 else float(lo[0])
