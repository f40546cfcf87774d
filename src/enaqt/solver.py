"""Steady states and time propagation of the Lindblad equation.

Steady states live in the real, charge-conserving sector.  Every jump
operator changes the excitation number by -1, 0 or +1 and H conserves it
(the weak U(1) symmetry of Buca & Prosen, New J. Phys. 14, 073007 (2012)),
so the vacuum-site coherences never couple to the populations or to the
site-site coherences, and they vanish in the steady state.  Two solvers
work there, both on the network itself, (H, channels, spec), and both end
with the same guards: the residual of the full generator's closed-form
action `lindblad.apply_liouvillian`, which shares no code with either
solve (at most RESIDUAL_TOL), and `check_density_matrix`, whose smallest
eigenvalue of rho is recorded with the solution.

`EigenbasisSteadyState` serves the points of a dephasing sweep.  The site
block X = rho_S of every generator this package builds has Haken-Strobl
structure (Haken & Strobl, Z. Phys. 262, 135 (1973); with a trap, Cao &
Silbey, J. Phys. Chem. A 113, 13825 (2009)):

    (gamma - K) X - gamma diag(X) = gamma_inj rho_00 sum_s E_ss,
    K(X) = -i (H_eff X - X H_eff^+),
    H_eff = H_S - eps_mean I - (i gamma_ext / 2) sum_e E_ee,

where removing the mean on-site energy eps_mean (which the commutator
ignores) removes the ~2.3e3 ps^-1 rounding scale.  One eigendecomposition
H_eff = V Lambda W (W = V^-1) per sweep (np.linalg.eig, LAPACK geev)
makes K elementwise, with K -> -delta_ab and delta_ab = i (lambda_a -
conj(lambda_b)), so the resolvent R_gamma = (gamma - K)^-1 costs O(n^3)
to apply.  Per gamma, with rho_00 = 1, the populations p solve the real
n x n system

    N_gamma p = gamma_inj diag(R_gamma sum_s E_ss),
    N_gamma = Re(P diag(delta / (gamma + delta)) Q),

P[i, ab] = V_ia conj(V_ib), Q[ab, j] = W_aj conj(W_bj).  The (a, b) and
(b, a) terms are complex conjugates (so are delta_ab and delta_ba), so
only the m = n (n + 1) / 2 pairs a <= b are kept, weighted 2 off the
diagonal: with P_u held C-contiguous and Q_int the (2m x n) real array of
interleaved rows Re Q_u and -Im Q_u, both built once per sweep, N_gamma is
the float view of P_u * delta_u / (gamma + delta_u) times Q_int, one real
GEMM of n^3 (n + 1) multiply-adds and no copy, a quarter of the flops of
the full complex product.  (The equivalent form I - gamma diag R_gamma
diag cancels catastrophically at large gamma.)  Then X = R_gamma(B +
gamma diag p), refined on the n x n equation with its residual taken from
H_eff itself until a correction is below REFINE_TOL of 1 + tr X (one
pass almost always; a block that needs more, as an ill-conditioned
N_gamma does, goes on until a correction is below SLOW_REFINE_TOL), and
rho_00 = 1 / (1 + tr X) normalizes.  A point is gated to the sector LU
below when cond(V) exceeds COND_V_MAX (H_eff is not normal and is
defective at exceptional points), when the spectrum gamma + delta of the
resolvent or N_gamma has a reciprocal condition below RCOND_MIN (a dark
mode at gamma = 0, or no injection and extraction: the steady state need
not be unique there), when refinement stalls, or when the residual
fails; every gate is logged.

The rates of a sweep are solved in blocks of at most
max(1, BLOCK_ENTRIES // n^2), so no complex (block, n, n) stack exceeds
256 kB: a whole 60-point grid is one block up to 16 sites, and a 40-site
chain takes 10 rates per block.  A block is whole arrays: one 2-D GEMM
forms its stack of N_gamma, the float views of its k rates flattened to
(k n, 2m) times Q_int (through a complex temporary of at most
2^13 (n + 1) entries up to 128 sites, 5.2 MB at 40), one stacked 1-norm
condition number gates it, each site-block pass is matrix products and
one stacked solve, and the residual guard is one `apply_liouvillian` call
at zero dephasing on the stack of its states, plus gamma times the
unit-rate dephasing of `lindblad.unit_dephasing` for each rate: no
generator is assembled.  Every product of the whole (k, n, .) stack by
one fixed matrix from the right (the N_gamma product, the site-block
products by W^+ and V^+, X H_eff^+ in the refinement, rho H_off in the
guard) goes through `lindblad.right_product` as one GEMM over the stack
flattened to (k n, .): numpy's stacked matmul would make one small GEMM
per rate, and on a 40-site chain those ran at about a quarter of the
rate of one large GEMM (2-core OpenBLAS host).  A left product stays
stacked, because flattening it needs a transposed copy of the stack,
which costs about what it saves.  A block is validated by one
`check_density_matrix` call on the stack of its states (one stacked
eigvalsh) and handed out whole as a `SteadyStateBlock`: rho as a
(k, d, d) array, the residual, rcond and smallest eigenvalue per rate,
and a mask of the gated rows.
Before a block is handed out, each gated row is solved by the sector LU
below at its rate, so every row holds a validated state and only a gated
row's rcond is NaN.

`steady_state(H, channels, spec)` solves one network at one set of rates
by one real sparse LU.  The sector coordinates are the n + 1 populations
and Re, Im of rho_ij for 1 <= i < j <= n: n^2 + 1 real unknowns in place
of (n + 1)^2 complex ones.

  1. the closed-form COO entries of `lindblad.generator_entries` are
     projected onto the sector, A = Re(Tp L T), where T maps the sector
     coordinates to vec(rho) and Tp is its left inverse; both have at most
     two entries per vec index, so each entry of L gives at most four of
     A.  The projection raises NotChargeConserving, naming the entry, on
     an entry that couples the sector to a vacuum-site coherence;
  2. the trace functional replaces the last (population) row of A;
  3. one real sparse LU factorization (SuperLU via
     scipy.sparse.linalg.splu) serves the solve and two refinement passes,
     and the solution is mapped back to rho.

Real SuperLU reports an exactly singular system either as "Factor is
exactly singular" or as "failed to factorize matrix ... dpanel_bmod.c";
both raise NonUniqueSteadyState, and any other RuntimeError propagates.  A
residual above tolerance raises SolveFailure.  Positivity violations raise
instead of being clipped.  The dense SVD null vector of
`reference.brute_force_steady_state` is the test oracle for both solvers.

Propagation lives in the same real sector.  G is the real sector
generator, n^2 + 1 unknowns (rho_00 among them, so an injection channel
needs nothing extra), bordered by one row that accumulates the extracted
population (Van Loan, IEEE TAC 23, 395 (1978)): n^2 + 2 real unknowns,
n^4 real memory.  `SectorPropagator` holds G at zero dephasing: the
closed-form entries of `lindblad.generator_entries`, projected by the
same `_Sector.project` that forms the sector LU's system and that is the
one charge-conservation check;
dephasing is exactly diagonal in the sector (-gamma on the Re and Im
coordinate of every site-site coherence, 0 on the populations and the
border row, -gamma/2 on the vacuum-site coherences), so G at any rate is
a shifted copy.

A pulse point needs the state at t_end and the time integral of the
trajectory, and one exponential gives both: the (n^2 + 3)-square Van Loan
matrix [[G, x0], [0, 0]] t_end has exp(G t_end) as its leading block and
the integral of exp(G s) x0 over [0, t_end] as its last column, exact up
to rounding.  `SectorPropagator.pulse` takes the start site and its rates
in blocks of max(1, BLOCK_ENTRIES // (n^2 + 3)^2), 6 on fig2 (7 sites)
and 1 from 10 sites up: one stacked exponential per block, no samples and
no quadrature.  It returns eta(t_end) and the time-integrated density
matrices, so no caller reads sector coordinates.  Its `_check_trace`
checks the trace of every state at t_end against PULSE_TRACE_TOL; the
rounding of exp(G t_end) grows like eps ||G||_1 t_end, and on the shipped
presets' 20 ps grids the drift stays below that, at most 1.9e-10 (fig3g
at gamma = 5.8e4, ||G||_1 t_end ~ 1.5e6), while a horizon of 1e20 ps on
fig2 still delivers the whole pulse.  An exponential that overflows
gives a trace of inf or NaN, and the check, not a numpy warning, reports
it.

`propagate` samples a trajectory instead: one propagator P = exp(G dt)
carries the state from each sample to the next, one product per sample
in `_samples`, and every sample is mapped back to rho.  No sweep calls
it.  Every sample passes the same `_check_trace`, which names the first
bad one: the rounding of P compounds over the products, so on a 2-site
chain a horizon of 1e12 ps is already off by 6.7e-5 and one of 1e20
overflows.  At t_end = 0, dt is 0 and P is exactly I, so each of the
n_eval samples is the Hermitian part of rho0 and nothing is extracted.
The vacuum-site coherences, which rotate at the on-site energy
(~2.3e3 ps^-1) and which no observable reads, stay out of G; a start
state that carries them evolves its rho_s0 in their own decoupled
n-square complex block, taken from the same entries, through the same
`_samples`, and takes rho_0s = conj(rho_s0), the Hermitian part.

Every exponential is `_expm`, the degree-30 Taylor approximant with
scaling and squaring, evaluated by Paterson-Stockmeyer in nine matrix
products and no solve, with one squaring per factor of 2 in
||A||_1 / 3.54, over a whole stack of matrices whose members keep their
own number of squarings.  The degree-13 Pade approximant (Higham, SIAM J.
Matrix Anal. Appl. 26, 1179 (2005)) needs six products and one solve at
5.37, but numpy's stacked solve cost as much as 16 products on fig2's
stacks; degree 30 pays for its ninth product with one squaring fewer than
degree 25 on most points, and squaring is where the rounding grows.
There is no step-size control and no stiffness limit on the dephasing
rate.  The dense propagator costs n^4 memory, so large networks trade
memory for time against scipy.sparse.linalg.expm_multiply on the sparse
sector generator, whose cost scales with ||G||_1 t_end instead.  Measured
per 201-sample `propagate` call, the call that BENCH_7.json times (t_end
20 ps, 2-core OpenBLAS host, with scipy.linalg.expm for the dense
exponential): a 40-site chain took 0.25-0.54 s that way against 0.9-1.3 s
dense; a 64-site chain 0.36-0.88 s in 80 MB at gamma <= 100 but 6.2 s at
gamma = 1e3; fig3g (16 strongly coupled sites) 24-43 s against 19-27 ms
dense; fig2 125-209 ms against 4.5-7.1 ms dense.  No size wins on every
preset, so the dense path is the only one.

scipy is imported inside `steady_state`, the only function that uses it,
so it is loaded by the sector LU's first solve, which a sweep makes only
for a gated row.  A steady sweep whose rows all pass the eigenbasis gates,
every pulse sweep and `propagate` run on numpy alone and leave scipy
unloaded.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPhysicalState,
    NonUniqueSteadyState,
    NotChargeConserving,
    SolveFailure,
    _count,
    _real,
)
from .lindblad import (ChannelSet, apply_liouvillian, check_density_matrix, generator_entries, hermitize,
                       right_product, unit_dephasing)
from .network import NetworkSpec

logger = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-9
# Rounding in the eigenbasis solve grows like eps * cond(V)^2 (2e-8 at the
# bound) before the refinement pass; the presets sit below 10, and the
# exceptional-point dimer at 9e7.
COND_V_MAX = 1e4
# Below this reciprocal condition of N_gamma, or of the resolvent spectrum
# gamma + delta, the point goes to the sector LU.  The presets' N_gamma
# sit above 3e-7 (fig3d at small gamma, over 21 disorder draws); a
# non-unique steady state gives 0.
RCOND_MIN = 1e-10
# Refinement of the eigenbasis solve stops when every rate's largest
# correction to X is below REFINE_TOL of 1 + tr X after the first pass,
# or below SLOW_REFINE_TOL after a later one, for at most MAX_REFINE
# passes; a rate still above is gated.  One pass suffices on the presets
# but for fig3d at small gamma.  A block that needs a second pass
# converges slowly, and a correction just below REFINE_TOL then leaves
# errors near 1e-10: a random 3-site network with a site detuned by
# 466 ps^-1 and coupled at 0.11 ps^-1 needs more at gamma = 1e-3, where
# one pass left J_p off by 4.5e-10 with a residual of 5e-17, and a random
# 9-site network with sites detuned by up to 960 ps^-1 and couplings of
# 0.1 ps^-1 shrinks its corrections only 270-fold per pass there, so the
# third, at 9.1e-9, left J_p off by 1.1e-10.
REFINE_TOL = 1e-8
SLOW_REFINE_TOL = 1e-12
MAX_REFINE = 4
# entries of one stack: complex (block, n, n) in the sweep solver, 256 kB;
# real (block, n^2 + 3, n^2 + 3) Van Loan matrices of a pulse sweep,
# 128 kB, whose exponential works in 11 slabs of that size
BLOCK_ENTRIES = 2**14
# samples of a propagated trajectory, t = 0 and t_end included
N_EVAL = 201
# largest |tr rho(t_end) - 1| a pulse point may have: rounding in
# exp(G t_end) grows like eps ||G||_1 t_end, and the shipped presets'
# 20 ps grids read at most 1.9e-10 (fig3g at gamma = 5.79e4; fig3d
# reads 1.4e-10 at gamma = 1e5); fig2 sweeps at horizons of 1e12 to
# 1e20 ps deliver eta within 3e-14 of 1
PULSE_TRACE_TOL = 1e-8


@dataclass(frozen=True)
class SteadyStateSolution:
    rho: np.ndarray
    residual: float         # max |L(rho)| of the closed-form action, internal units
    min_eigenvalue: float   # smallest eigenvalue of rho


@dataclass(frozen=True)
class SteadyStateBlock:
    """Steady states at the k rates of one block, one row per rate.

    A gated row (see EigenbasisSteadyState) was solved by the sector LU
    of `steady_state`; its rcond is NaN.
    """

    rho: np.ndarray             # (k, d, d)
    residual: np.ndarray        # max |L(rho)| of the closed-form action, internal units
    rcond: np.ndarray           # reciprocal condition of N_gamma
    min_eigenvalue: np.ndarray  # smallest eigenvalue of rho
    gated: np.ndarray           # bool


@dataclass(frozen=True)
class Trajectory:
    """Propagated states rho(t) plus the cumulative extracted population."""

    times: np.ndarray       # ps, increasing
    states: np.ndarray      # (len(times), d, d)
    extracted: np.ndarray   # cumulative extracted population, nondecreasing to rounding


class EigenbasisSteadyState:
    """Steady states of one network across dephasing rates, from H_eff's eigenbasis.

    Built once per sweep from the Hamiltonian, the network and the
    injection and extraction rates.  `solve(gammas)` then works through
    the rates in blocks of at most max(1, BLOCK_ENTRIES // n^2), so no
    complex (block, n, n) stack exceeds 256 kB however many rates there
    are.  Per rate it costs a real product of n^3 (n + 1) multiply-adds to
    form N_gamma and n x n real solves, all stacked over the block.  The
    residual guard applies the generator without assembling it: the
    rate-free action of `apply_liouvillian` once per block, plus each
    rate times the unit-rate dephasing.  Only a gated row takes the
    generator's entries, which the sector LU projects.
    """

    def __init__(self, H: np.ndarray, spec: NetworkSpec, gamma_inj: float, gamma_ext: float):
        self.H, self.spec = H, spec
        self.channels = ChannelSet(gamma_inj, gamma_ext, 0.0)
        n = spec.n_sites
        H_S = H[1:, 1:]
        self.H_eff = (H_S - np.mean(np.diag(H_S).real) * np.eye(n)).astype(complex)
        sinks = [e - 1 for e in sorted(spec.extract_sites)]
        self.H_eff[sinks, sinks] -= 0.5j * gamma_ext
        sources = [s - 1 for s in sorted(spec.inject_sites)]
        self.B = np.zeros((n, n))
        self.B[sources, sources] = gamma_inj
        lam, V = np.linalg.eig(self.H_eff)
        cond_V = float(np.linalg.cond(V))
        self.gated = not cond_V <= COND_V_MAX
        if self.gated:
            logger.warning(
                "steady-state sweep: H_eff eigenvectors have cond(V) = %.3e above %.0e; "
                "every point falls back to the sector LU", cond_V, COND_V_MAX,
            )
            return
        W = np.linalg.inv(V)
        self.V, self.Vh, self.W, self.Wh = V, V.conj().T, W, W.conj().T
        self.delta = 1j * (lam[:, None] - lam.conj()[None, :])
        # the (a, b) and (b, a) terms of N_gamma are complex conjugates: keep
        # a <= b, weighted 2 off the diagonal, with Q's rows split into
        # interleaved Re Q_u and -Im Q_u so that Re(P_u c Q_u) is one real
        # product with the float view of P_u c, which needs P_u C-contiguous
        a, b = np.triu_indices(n)
        self.upper = (a, b)
        self.P_u = np.ascontiguousarray(V[:, a] * V.conj()[:, b] * np.where(a == b, 1.0, 2.0))
        Q_u = W[a] * W.conj()[b]
        self.Q_int = np.empty((2 * a.size, n))
        self.Q_int[0::2] = Q_u.real
        self.Q_int[1::2] = -Q_u.imag

    def solve(self, gammas: np.ndarray) -> Iterator[SteadyStateBlock]:
        """The steady states at the rates of gammas, one block of rates at a time, in order.

        A block is solved when it is asked for.  Each gated row has been
        logged and then solved by the sector LU, `steady_state` at its
        rate.  A state that fails `check_density_matrix`, and any error of
        the sector LU, is raised with `index` set to its row in the block.
        """
        gammas = np.asarray(gammas, dtype=float)
        n = self.B.shape[0]
        size = max(1, BLOCK_ENTRIES // n**2)
        for start in range(0, gammas.size, size):
            block = gammas[start:start + size]
            if self.gated:
                out = _gated_block(block.size, n + 1)
            else:
                out = self._solve_block(block)
            for k in np.flatnonzero(out.gated):
                try:
                    sol = steady_state(self.H, replace(self.channels, gamma_deph=float(block[k])), self.spec)
                except Exception as exc:
                    exc.index = int(k)
                    raise
                out.rho[k], out.residual[k] = sol.rho, sol.residual
                out.min_eigenvalue[k] = sol.min_eigenvalue
            yield out

    def _population_matrix(self, s_u: np.ndarray) -> np.ndarray:
        """N_gamma for each row of s = delta / (gamma + delta) at the pairs a <= b: one real 2-D GEMM.

        The float views of all rows, (k, n, 2m), are flattened to (k n, 2m)
        rows and multiplied by Q_int at once, not as k stacked products.
        """
        # the product must be C-contiguous for its float view
        return right_product(np.multiply(self.P_u, s_u[..., None, :], order="C").view(float), self.Q_int)

    def _solve_block(self, gammas: np.ndarray) -> SteadyStateBlock:
        """The states at the rates of one block; the gated rows are logged and left for `solve`."""
        n = self.B.shape[0]
        out = _gated_block(gammas.size, n + 1)
        reasons: dict[int, str] = {}
        den = gammas[:, None, None] + self.delta
        mag = np.abs(den).reshape(gammas.size, -1)
        lo, hi = mag.min(axis=1), mag.max(axis=1)
        singular = lo <= RCOND_MIN * hi
        for k in np.flatnonzero(singular):
            reasons[k] = f"the resolvent is singular: min |gamma + delta| = {lo[k]:.3e}"
        live = np.flatnonzero(~singular)
        c = 1.0 / den[live]
        N = self._population_matrix((self.delta * c)[:, self.upper[0], self.upper[1]])
        rcond = np.zeros(gammas.size)
        # the exact 1-norm reciprocal condition; a singular N_gamma gives 0
        rcond[live] = 1.0 / np.linalg.cond(N, 1)
        kept = rcond[live] >= RCOND_MIN
        for k in live[~kept]:
            reasons[k] = f"N_gamma has reciprocal condition {rcond[k]:.3e}"
        live, c, N = live[kept], c[kept], N[kept]
        g = gammas[live, None, None]

        def site_block(M: np.ndarray) -> np.ndarray:
            """X solving (gamma - K) X - gamma diag(X) = M, one rate per layer."""
            Y = c * right_product(self.W @ M, self.Wh)
            q = np.einsum("kib,bi->ki", self.V @ Y, self.Vh).real
            p = np.linalg.solve(N, q[..., None])
            Y += g * c * right_product(self.W * p.transpose(0, 2, 1), self.Wh)
            return right_product(self.V @ Y, self.Vh)

        X = site_block(self.B)
        off = ~np.eye(n, dtype=bool)
        tol = REFINE_TOL
        for _ in range(MAX_REFINE):
            KX = -1j * (self.H_eff @ X - right_product(X, self.H_eff.conj().T))
            dX = site_block(self.B - (g * (X * off) - KX))
            X += dX
            # relative to 1 + tr X, the trace of rho before it is normalized
            step = np.abs(dX).max(axis=(1, 2)) / (1.0 + np.einsum("kii->k", X).real)
            if np.all(step <= tol):
                break
            tol = SLOW_REFINE_TOL
        X = hermitize(X)
        rho = np.zeros((live.size, n + 1, n + 1), dtype=complex)
        rho[:, 0, 0] = 1.0
        rho[:, 1:, 1:] = X
        rho /= 1.0 + np.einsum("kii->k", X).real[:, None, None]
        # the generator at gamma is its rate-free part plus gamma times unit-rate dephasing
        drho = apply_liouvillian(self.H, self.channels, self.spec, rho) - g * unit_dephasing(n + 1) * rho
        res = np.abs(drho).max(axis=(1, 2))
        passed = (res <= RESIDUAL_TOL) & (step <= tol)
        for j in np.flatnonzero(~passed):
            if not res[j] <= RESIDUAL_TOL:
                reasons[live[j]] = f"residual {res[j]:.3e} exceeds {RESIDUAL_TOL:.1e}"
            else:
                reasons[live[j]] = f"refinement stalled at a correction of {step[j]:.3e}"
        for k in sorted(reasons):
            logger.warning("steady state at gamma_deph=%g: %s; falling back to the sector LU",
                           gammas[k], reasons[k])
        rows = live[passed]
        out.rho[rows] = rho[passed]
        try:
            out.min_eigenvalue[rows] = check_density_matrix(out.rho[rows])
        except NonPhysicalState as exc:
            exc.index = int(rows[exc.index])  # its row in the block, not in the stack checked
            raise
        out.residual[rows] = res[passed]
        out.rcond[rows] = rcond[rows]
        out.gated[rows] = False
        return out


def _gated_block(k: int, d: int) -> SteadyStateBlock:
    """A block of k gated rows, zero states and NaN diagnostics until the sector LU fills them."""
    nan = np.full(k, np.nan)
    return SteadyStateBlock(rho=np.zeros((k, d, d), dtype=complex), residual=nan, rcond=nan.copy(),
                            min_eigenvalue=nan.copy(), gated=np.ones(k, dtype=bool))


@dataclass(frozen=True)
class _Sector:
    """The real charge sector of the d^2 vec space and its coordinates.

    The sector coordinates are the n^2 + 1 vec indices that are not
    vacuum-site coherences, in vec order: a population rho_pp stands for
    itself, and for i < j the index of rho_ij holds Re rho_ij and the
    index of rho_ji holds Im rho_ij.  The last coordinate is the
    population of site n.  The map T from the coordinates to vec(rho) and
    its left inverse Tp = diag(1 or 1/2) T^H have at most two entries per
    vec index, which `slots`, `t` and `tp` hold row by row, and every map
    reads them: `state` is T, `coordinates` is Re Tp, and `project` takes
    a generator's entries to Re(Tp L T).
    """

    d: int
    vac: np.ndarray    # mask of the vacuum-site coherences over vec indices
    pops: np.ndarray   # sector positions of the populations, site 0 to n
    slots: np.ndarray  # (d^2, 2) sector positions that each vec index maps to and from
    t: np.ndarray      # (d^2, 2) entries of T at (vec index, slot): rho_ij = x_re + i x_im
    tp: np.ndarray     # (d^2, 2) entries of Tp at (slot, vec index): x_im = (rho_ji - rho_ij) i / 2

    @property
    def size(self) -> int:
        """Number of sector coordinates, n^2 + 1."""
        return int(np.count_nonzero(~self.vac))

    def coordinates(self, rho: np.ndarray) -> np.ndarray:
        """Sector coordinates, (..., n^2 + 1), of the Hermitian part of each (d, d) matrix of rho."""
        v = np.swapaxes(rho, -1, -2).reshape(rho.shape[:-2] + (self.d * self.d, 1))  # vec of each
        x = np.zeros(rho.shape[:-2] + (self.size,))
        np.add.at(x, (..., self.slots), (self.tp * v).real)
        return x

    def state(self, x: np.ndarray) -> np.ndarray:
        """The (d, d) matrices with sector coordinates x and no vacuum-site coherences."""
        v = (self.t * x[..., self.slots]).sum(axis=-1)  # vec of each, columns stacked
        return np.ascontiguousarray(np.swapaxes(v.reshape(x.shape[:-1] + (self.d, self.d)), -1, -2))

    def project(self, rows: np.ndarray, cols: np.ndarray,
                vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Re(Tp L T) of the generator L with entries vals at (rows, cols), as real COO arrays.

        Each entry of L gives at most four, summed where they repeat, and
        none where T and Tp hold nothing: among the vacuum-site coherences,
        or where the product's real part is zero.  An entry that
        links the sector to a vacuum-site coherence raises
        NotChargeConserving, naming the first such entry in row order.
        """
        bad = np.flatnonzero(self.vac[rows] != self.vac[cols])
        if bad.size:
            first = bad[np.lexsort((cols[bad], rows[bad]))[0]]
            (i, j), (k, m) = (divmod(int(x), self.d)[::-1] for x in (rows[first], cols[first]))
            raise NotChargeConserving(
                f"generator couples rho[{i}, {j}] and rho[{k}, {m}] across the charge sector "
                "and the vacuum-site coherences"
            )
        A = (self.tp[rows, :, None] * vals[:, None, None] * self.t[cols, None, :]).real.ravel()
        kept = np.flatnonzero(A)
        entry, (a, b) = kept // 4, np.divmod(kept % 4, 2)  # the entry and its slots in Tp and T
        return self.slots[rows[entry], a], self.slots[cols[entry], b], A[kept]


@functools.lru_cache(maxsize=8)
def _sector(d: int) -> _Sector:
    col, row = np.divmod(np.arange(d * d), d)  # vec index row + col*d
    vac = (row == 0) != (col == 0)
    pos = np.cumsum(~vac) - 1  # the sector position of each vec index outside vac
    diag = np.flatnonzero(row == col)
    ij = np.flatnonzero(~vac & (row < col))
    ji = col[ij] + row[ij] * d
    # rho_pp = x_p;  rho_ij = x_re + i x_im and rho_ji = x_re - i x_im
    slots = np.zeros((d * d, 2), dtype=np.intp)
    slots[diag, 0], slots[ij], slots[ji] = pos[diag], np.c_[pos[ij], pos[ji]], np.c_[pos[ij], pos[ji]]
    t = np.zeros((d * d, 2), dtype=complex)
    t[diag, 0], t[ij], t[ji] = 1.0, (1.0, 1j), (1.0, -1j)
    tp = t.conj() * np.where(t[:, 1:] != 0, 0.5, 1.0)  # Tp = diag(1 or 1/2) T^H
    return _Sector(d=d, vac=vac, pops=pos[diag], slots=slots, t=t, tp=tp)


def steady_state(H: np.ndarray, channels: ChannelSet, spec: NetworkSpec) -> SteadyStateSolution:
    """Unique steady state of the network at one set of rates, by the sector LU.

    A singular sector system, as without injection and extraction, raises
    NonUniqueSteadyState.  A Hamiltonian that does not conserve the
    excitation number raises NotChargeConserving, and the returned
    vacuum-site coherences are exactly zero; that state is the unique one
    whenever the vacuum-coherence block is nonsingular, which any injection
    or dephasing rate guarantees.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    # Re(Tp L T) with its last (population) row replaced by the trace
    d = spec.dim
    sec = _sector(d)
    rows, cols, vals = sec.project(*generator_entries(H, channels, spec))
    m = sec.size
    kept = rows != m - 1
    A = sp.csc_matrix((np.concatenate([vals[kept], np.ones(d)]),
                       (np.concatenate([rows[kept], np.full(d, m - 1)]), np.concatenate([cols[kept], sec.pops]))),
                      shape=(m, m))
    b = np.zeros(m)
    b[-1] = 1.0
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        # Real SuperLU may report an exactly singular system as "failed to
        # factorize matrix ... in dpanel_bmod.c" instead of "Factor is
        # exactly singular".
        if "singular" not in str(exc) and "failed to factorize" not in str(exc):
            raise
        raise NonUniqueSteadyState(f"sector system is singular (SuperLU: {exc})") from exc
    x = lu.solve(b)
    # two refinement passes pin the residual near machine precision
    for _ in range(2):
        x += lu.solve(b - A @ x)
    rho = sec.state(x)
    res = float(np.max(np.abs(apply_liouvillian(H, channels, spec, rho))))
    if not res <= RESIDUAL_TOL:
        raise SolveFailure(f"steady-state residual {res:.3e} exceeds {RESIDUAL_TOL:.1e}")
    lo = check_density_matrix(rho)
    return SteadyStateSolution(rho=rho, residual=res, min_eigenvalue=lo)


class SectorPropagator:
    """Exact propagation in the real charge sector of one network across dephasing rates.

    Built once per pulse sweep from the Hamiltonian, the network and the
    injection and extraction rates.  The constructor takes the generator's
    closed-form entries at zero dephasing once, from
    `lindblad.generator_entries`.  Their projection Re(Tp L T), the one the
    sector LU solves, fills the dense bordered sector generator G_base,
    whose border row holds gamma_ext at the sector position of each sink
    population; the projection raises NotChargeConserving on an entry
    that links the sector to a vacuum-site coherence.  The entries among
    the coherences rho_s0 (vec indices 1..n) are the block of
    `vacuum_block`.  Dephasing is diagonal in the sector, -gamma on the
    Re and Im coordinate of every site-site coherence and 0 on the
    populations and the border, so G(gamma) is G_base shifted on those
    diagonal entries, and `pulse` pays one stacked exponential per block
    of rates, of the Van Loan matrices to t_end.
    """

    def __init__(self, H: np.ndarray, spec: NetworkSpec, gamma_inj: float, gamma_ext: float):
        self.d = spec.dim
        self.sec = sec = _sector(self.d)
        m = sec.size
        rows, cols, vals = generator_entries(H, ChannelSet(gamma_inj, gamma_ext, 0.0), spec)
        r, c, a = sec.project(rows, cols, vals)
        self.G_base = np.zeros((m + 1, m + 1))
        np.add.at(self.G_base, (r, c), a)
        self.G_base[m, sec.pops[sorted(spec.extract_sites)]] = gamma_ext
        self.coherences = np.setdiff1d(np.arange(m), sec.pops)
        # rho_s0 is vec index s = 1..n; the closed form holds no index twice,
        # so its entries in those rows are the block's
        on = (rows > 0) & (rows < self.d)
        self._vacuum_base = np.zeros((self.d - 1, self.d - 1), dtype=complex)
        self._vacuum_base[rows[on] - 1, cols[on] - 1] = vals[on]

    def generator(self, gammas: np.ndarray | float) -> np.ndarray:
        """The bordered sector generator G at each dephasing rate: (k, m, m) for k rates, (m, m) for one scalar."""
        gammas = np.asarray(gammas, dtype=float)
        G = np.broadcast_to(self.G_base, gammas.shape + self.G_base.shape).copy()
        G[..., self.coherences, self.coherences] -= gammas[..., np.newaxis]
        return G

    def coordinates(self, rho: np.ndarray) -> np.ndarray:
        """Sector coordinates of rho, bordered by an extracted population of 0."""
        return np.append(self.sec.coordinates(rho), 0.0)

    def _check_trace(self, y: np.ndarray, what: str) -> None:
        """Raise NonPhysicalState if a row of bordered coordinates y has a trace off 1 by over PULSE_TRACE_TOL.

        Its `index` names the first such row; a trace of NaN or inf fails.
        """
        with np.errstate(invalid="ignore"):  # inf - inf in the sum is NaN, which fails below
            defect = np.abs(y[:, self.sec.pops].sum(axis=1) - 1.0)
        bad = np.flatnonzero(~(defect <= PULSE_TRACE_TOL))
        if bad.size:
            raise NonPhysicalState(f"trace of {what} deviates from 1 by {defect[bad[0]]:.3e}, "
                                   f"above {PULSE_TRACE_TOL:.0e}", index=int(bad[0]))

    def pulse(self, gammas: np.ndarray, site: int, t_end: float) -> tuple[np.ndarray, np.ndarray]:
        """Transfer efficiency and time-integrated state of a pulse from `site`, at each rate.

        The pulse starts as the pure state |site><site|, bordered
        coordinates x0.  The rates are taken in blocks of
        max(1, BLOCK_ENTRIES // (m + 1)^2), one stacked `_expm` of the Van
        Loan matrices [[G, x0], [0, 0]] t_end per block: the leading block
        of each is exp(G t_end), applied to x0, and its last column the
        exact integral of exp(G s) x0 over [0, t_end].  The results are
        eta(t_end), the border coordinate at t_end, as a (k,) array, and
        the integrals of rho(s) over [0, t_end] as a (k, d, d) stack.  A
        state at t_end that fails `_check_trace`, an overflow in the
        exponential among them, raises NonPhysicalState; that and any
        other error in a block is raised with `index` set to its rate's
        position in gammas, the block's first rate for an error that names
        no row.
        """
        m = self.G_base.shape[0]
        x0 = np.zeros(m)
        x0[self.sec.pops[site]] = 1.0
        size = max(1, BLOCK_ENTRIES // (m + 1)**2)
        y, integral = np.empty((gammas.size, m)), np.empty((gammas.size, m))
        for start in range(0, gammas.size, size):
            block = gammas[start:start + size]
            try:
                M = np.zeros((block.size, m + 1, m + 1))
                M[:, :m, :m] = self.generator(block)
                M[:, :m, m] = x0
                with np.errstate(over="ignore", invalid="ignore"):  # _check_trace reports an overflow
                    M *= t_end
                    E = _expm(M)
                    y[start:start + size] = E[:, :m, :m] @ x0
                integral[start:start + size] = E[:, :m, m]
                # this block's arrays go before the next block allocates its
                # own: kept alive, they made glibc map fresh pages, 665 minor
                # page faults per 20-point fig2 sweep against none
                del M, E
                self._check_trace(y[start:start + size], "rho(t_end)")
            except Exception as exc:
                exc.index = start + (getattr(exc, "index", None) or 0)
                raise
        return y[:, -1], self.sec.state(integral[:, :-1])

    def vacuum_block(self, gamma: float) -> np.ndarray:
        """The decoupled generator of the n coherences rho_s0 at dephasing rate gamma; rho_0s is their conjugate."""
        B = self._vacuum_base.copy()
        B[np.diag_indices_from(B)] -= 0.5 * gamma
        return B


def propagate(
    H: np.ndarray,
    channels: ChannelSet,
    spec: NetworkSpec,
    rho0: np.ndarray,
    t_end: float,
    n_eval: int = N_EVAL,
) -> Trajectory:
    """Evolve the master equation from rho0 over [0, t_end] ps.

    The returned trajectory samples n_eval equally spaced times, all 0
    for t_end = 0.  One `SectorPropagator` forms the bordered sector
    generator, whose extra component carries the cumulative extracted
    population integral(sum_s gamma_ext rho_ss dt), and `_samples` steps
    the samples by one product each with the propagator P = expm(G dt),
    which is exact on the grid up to rounding.  A sample whose trace is off
    1 by more than PULSE_TRACE_TOL raises NonPhysicalState with `index`
    naming it, as a pulse's state at t_end does; each sample is mapped back
    to rho.  The vacuum-site coherences rho_s0 of rho0 evolve by the
    exponential of their own n-square block, formed only when rho0 has
    one, and rho_0s = conj(rho_s0): both parts take the Hermitian part of
    rho0.  A generator that couples them to the sector raises
    NotChargeConserving.
    """
    d = spec.dim
    if rho0.shape != (d, d):
        raise DimensionMismatch(f"expected {d}x{d} initial state, got {rho0.shape}")
    check_density_matrix(rho0)
    t_end = _real(t_end, "t_end", what="finite and nonnegative", least=0.0, finite=True)
    n_eval = _count(n_eval, "n_eval", what="an integer of at least 2", least=2)
    prop = SectorPropagator(H, spec, channels.gamma_inj, channels.gamma_ext)
    times = np.linspace(0.0, t_end, n_eval)
    dt = times[1] - times[0]
    with np.errstate(over="ignore", invalid="ignore"):  # _check_trace reports an overflow
        y = _samples(_expm(prop.generator(channels.gamma_deph) * dt), prop.coordinates(rho0), n_eval)
    prop._check_trace(y, "a sample")
    states = prop.sec.state(y[:, :-1])
    if np.any(rho0[1:, 0]):
        c = _samples(_expm(prop.vacuum_block(channels.gamma_deph) * dt), rho0[1:, 0], n_eval)
        states[:, 1:, 0], states[:, 0, 1:] = c, c.conj()
    return Trajectory(times=times, states=states, extracted=y[:, -1])


def _samples(P: np.ndarray, x0: np.ndarray, n_eval: int) -> np.ndarray:
    """x0, P x0, ..., P^(n_eval-1) x0 as an (n_eval, m) array: one product by the m-square P per sample."""
    y = np.empty((n_eval, x0.size), dtype=np.result_type(P, x0))
    y[0] = x0
    for j in range(1, n_eval):
        np.matmul(P, y[j - 1], out=y[j])
    return y


def transfer_efficiency(traj: Trajectory) -> float:
    """Final cumulative extracted population of a pulse trajectory.

    Meaningful for trajectories propagated without an injection channel
    from a single-site excitation, where it is the fraction of the pulse
    delivered to the sinks by the end of the window.
    """
    return float(traj.extracted[-1])


# the degree of the Taylor approximant to exp, a multiple of _PS_BLOCK, and
# the largest 1-norm at which its backward error stays below 2^-53 (theta_30
# of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1,
# recomputed to 17 digits from the series of log(e^-x T_30(x)))
_TAYLOR_DEGREE = 30
_THETA = 3.5396663487436893
# Paterson-Stockmeyer block: the approximant is a polynomial in A^5 whose
# coefficients are polynomials of degree 4 in A
_PS_BLOCK = 5
_PS_ROWS = _TAYLOR_DEGREE // _PS_BLOCK
# row j, column i - 1: the coefficient 1/(5 j + i)! of A^i in the j-th
# block, i = 1..5; A^5 has one only in the last row, 1/30!
_PS_COEF = np.array([[1 / math.factorial(_PS_BLOCK * j + i) if i < _PS_BLOCK or j == _PS_ROWS - 1 else 0.0
                      for i in range(1, _PS_BLOCK + 1)] for j in range(_PS_ROWS)])
# the coefficient 1/(5 j)! of the identity in the j-th block
_PS_IDENTITY = np.array([1 / math.factorial(_PS_BLOCK * j) for j in range(_PS_ROWS)])


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) of a real or complex square matrix, or of each of a (k, m, m) stack, by scaling and squaring.

    Each matrix is scaled by 2^-s, with its own s, so that its 1-norm is
    below _THETA, and the degree-30 Taylor polynomial T(A) = sum A^i / i!
    is evaluated by Paterson-Stockmeyer (Bader, Blanes & Casas,
    Mathematics 7, 1174 (2019)): A^2 to A^5 in four products, the six
    coefficient blocks B_j = sum_i A^i / (5 j + i)!, of degree 4 in A, in
    one GEMM over the stacked powers, then T = B_0 + A^5 (B_1 + ... +
    A^5 (B_5 + A^5 / 30!)) in five more: nine products and no solve, each
    over the whole stack.  T is then squared s times.  The stack is
    ordered by s, so the matrices the i-th squaring takes, those whose s
    exceeds i, are its tail, and each gets the arithmetic it would get
    alone.  Every temporary is a slab of one workspace allocated per call
    and written through `out=`; exp(0) is exactly I.
    """
    single = A.ndim == 2
    if single:
        A = A[np.newaxis]
    k, m = A.shape[0], A.shape[-1]
    # slabs 0..4 hold A..A^5, slabs 5.. the coefficient blocks; the Horner
    # steps and the squarings then alternate between slabs 0 and 1
    work = np.empty((_PS_BLOCK + _PS_ROWS, k, m, m), dtype=np.result_type(A, float))
    powers, blocks = work[:_PS_BLOCK], work[_PS_BLOCK:]
    norm = np.abs(A, out=powers[0]).real.sum(axis=1).max(axis=1, initial=0.0)
    s = np.maximum(0, np.frexp(norm / _THETA)[1])  # 2^s > norm / _THETA
    order = np.argsort(s, kind="stable")
    s = s[order]
    X = powers[0]
    np.take(A, order, axis=0, out=X)
    X *= np.ldexp(1.0, -s)[:, None, None]
    for i in range(1, _PS_BLOCK):
        np.matmul(powers[i - 1], X, out=powers[i])
    np.matmul(_PS_COEF, powers.reshape(_PS_BLOCK, -1), out=blocks.reshape(_PS_ROWS, -1))
    diag = np.arange(m)
    blocks[:, :, diag, diag] += _PS_IDENTITY[:, None, None]
    A5 = powers[-1]
    cur, nxt, spare = blocks[-1], work[0], work[1]
    for j in range(_PS_ROWS - 2, -1, -1):
        np.matmul(cur, A5, out=nxt)
        nxt += blocks[j]
        cur, nxt, spare = nxt, spare, nxt
    # matrix j ends its s[j] squarings in `even` if s[j] is even, else in `odd`
    even, odd = cur, nxt
    for i in range(s[-1] if k else 0):
        lo = np.searchsorted(s, i, side="right")  # the matrices with s > i
        np.matmul(cur[lo:], cur[lo:], out=nxt[lo:])
        cur, nxt = nxt, cur
    np.copyto(even, odd, where=(s % 2 == 1)[:, None, None])
    out = np.empty_like(even)
    out[order] = even
    return out[0] if single else out
