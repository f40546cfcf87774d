import logging
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings

import enaqt.solver
from conftest import random_density_matrix, random_networks, slow_refinement_network, spectral_gap
from enaqt.errors import (
    DimensionMismatch,
    NonPhysicalState,
    NonUniqueSteadyState,
    NotChargeConserving,
    SolveFailure,
)
from enaqt.lindblad import ChannelSet, apply_liouvillian
from enaqt.network import (
    NetworkSpec,
    RandomUniform,
    Uniform,
    assemble_hamiltonian,
    generate_geometry,
    to_internal_units,
)
from enaqt.presets import PRESET_NAMES, build_preset, preset_network
from enaqt.reference import (
    ChainParams,
    analytic_chain_occupations,
    brute_force_steady_state,
    build_liouvillian,
    dense_propagate,
    kron_liouvillian,
)
from enaqt.solver import (
    N_EVAL,
    EigenbasisSteadyState,
    SectorPropagator,
    _expm,
    _sector,
    propagate,
    steady_state,
    transfer_efficiency,
)

RATE = 5.0


def chain_network(n, t, gi, ge, gd):
    """A uniform n-site chain driven end to end: its spec, Hamiltonian and channels."""
    spec = generate_geometry("chain", n, Uniform(0.0), Uniform(t), inject={1}, extract={n})
    return spec, assemble_hamiltonian(spec), ChannelSet(gi, ge, gd)


class TestSteadyState:
    def test_single_site_balance(self):
        spec = NetworkSpec(1, (0.0,), (), {1}, {1})
        # balance condition: one site pumped and drained at the same rate
        sol = steady_state(assemble_hamiltonian(spec), ChannelSet(2.0, 2.0, 0.0), spec)
        assert np.allclose(sol.rho, np.diag([0.5, 0.5]), atol=1e-12)

    def test_two_site_chain_fractions(self):
        spec, H, channels = chain_network(2, 1.0, 1.0, 1.0, 0.0)
        sol = steady_state(H, channels, spec)
        occ = np.real(np.diag(sol.rho))
        assert occ[1] == pytest.approx(5 / 13, abs=1e-10)
        assert occ[2] == pytest.approx(4 / 13, abs=1e-10)
        assert occ[0] == pytest.approx(4 / 13, abs=1e-10)
        assert sol.residual < 1e-9

    def test_coherent_symmetric_chain_is_nearly_uniform(self, symmetric_chain):
        # without dephasing the chain is uniformly occupied except the sink
        spec, H = symmetric_chain
        sol = steady_state(H, ChannelSet(RATE, RATE, 0.0), spec)
        occ = np.real(np.diag(sol.rho))[1:]
        assert np.max(np.abs(occ[:6] - occ[0])) < 1e-9
        assert occ[6] < occ[0]
        t = -H[1, 2].real
        ana = analytic_chain_occupations(ChainParams(7, t, RATE, RATE, 0.0))
        assert np.max(np.abs(occ - ana.values)) < 1e-10

    def test_linear_solve_agrees_with_null_space_method(self, asymmetric_chain):
        spec, H = asymmetric_chain
        channels = ChannelSet(RATE, RATE, 7.0)
        sol = steady_state(H, channels, spec)
        rho_ns = brute_force_steady_state(build_liouvillian(H, channels, spec))
        assert np.max(np.abs(sol.rho - rho_ns)) < 1e-8

    def test_flux_balance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            gi, ge, gd = rng.uniform(0.5, 20.0, size=3)
            spec, H, channels = chain_network(n, rng.uniform(0.5, 5.0), gi, ge, gd)
            rho = steady_state(H, channels, spec).rho
            influx = len(spec.inject_sites) * gi * rho[0, 0].real
            outflux = sum(ge * rho[s, s].real for s in spec.extract_sites)
            assert influx == pytest.approx(outflux, rel=1e-9)

    def test_no_dissipation_is_non_unique(self, symmetric_chain):
        spec, H = symmetric_chain
        with pytest.raises(NonUniqueSteadyState):
            steady_state(H, ChannelSet(0, 0, 0), spec)

    def test_dephasing_only_is_non_unique(self, symmetric_chain):
        spec, H = symmetric_chain
        with pytest.raises(NonUniqueSteadyState):
            steady_state(H, ChannelSet(0, 0, 3.0), spec)

    def test_rejects_non_square(self):
        # the Hamiltonian must be the network's (n + 1)-square matrix
        spec, _, channels = chain_network(2, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DimensionMismatch, match=r"shape \(3, 4\) does not match network dimension 3"):
            steady_state(np.zeros((3, 4)), channels, spec)
        with pytest.raises(DimensionMismatch, match=r"shape \(4, 4\) does not match network dimension 3"):
            steady_state(np.eye(4), channels, spec)

    def test_64_site_chain_matches_closed_form(self):
        # 65^2 = 4225 unknowns: the sparse path must stay exact at scale
        spec, H, channels = chain_network(64, 2.0, 3.0, 4.0, 1.5)
        sol = steady_state(H, channels, spec)
        ana = analytic_chain_occupations(ChainParams(64, 2.0, 3.0, 4.0, 1.5))
        occ = np.diag(sol.rho).real[1:]
        assert np.max(np.abs(occ - ana.values) / ana.values) < 1e-10

    def test_linear_solve_logs_nothing(self, asymmetric_chain, caplog):
        spec, H = asymmetric_chain
        with caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            sol = steady_state(H, ChannelSet(RATE, RATE, 2.0), spec)
        assert caplog.records == []

    def test_fallback_logs_warning_with_residual(self, monkeypatch, caplog):
        # (named for the null-space fallback this error replaced) A residual
        # above tolerance is a SolveFailure that quotes it.  The residual is
        # the closed-form action of the generator, which shares no code with
        # the sector LU; here it is made to read 1 on the solved state.
        spec, H, channels = chain_network(3, 1.0, 1.0, 2.0, 0.5)
        apply = enaqt.solver.apply_liouvillian
        monkeypatch.setattr(enaqt.solver, "apply_liouvillian",
                            lambda *args: apply(*args) + np.eye(spec.dim))
        with caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            with pytest.raises(SolveFailure, match=r"residual 1\.000e\+00 exceeds"):
                steady_state(H, channels, spec)
        assert caplog.records == []

    def test_singular_sparse_generator_is_non_unique(self, symmetric_chain, caplog):
        spec, H = symmetric_chain
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            # the singular sparse solve must be handled, not leak a warning
            warnings.simplefilter("error")
            with pytest.raises(NonUniqueSteadyState):
                steady_state(H, ChannelSet(0, 0, 0), spec)
        # raised directly: nothing falls back, so nothing is logged
        assert caplog.records == []

    def test_sparse_solve_errors_propagate(self, monkeypatch):
        import scipy.sparse.linalg

        def broken(*_args, **_kwargs):
            raise MemoryError("out of memory in the sparse factorization")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", broken)
        spec, H, channels = chain_network(3, 1.0, 1.0, 2.0, 0.5)
        with pytest.raises(MemoryError):
            steady_state(H, channels, spec)


    @pytest.mark.parametrize("message", [
        "failed to factorize matrix at line 406 in file dpanel_bmod.c",
        "Factor is exactly singular",
    ])
    def test_superlu_singular_messages_fall_back(self, monkeypatch, caplog, message):
        # (named for the null-space fallback this error replaced) Both ways
        # real SuperLU reports a singular system, some from dpanel_bmod,
        # raise NonUniqueSteadyState quoting SuperLU, and nothing is logged.
        import scipy.sparse.linalg

        def singular(*_args, **_kwargs):
            raise RuntimeError(message)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        spec, H, channels = chain_network(3, 1.0, 1.0, 2.0, 0.5)
        with caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            with pytest.raises(NonUniqueSteadyState, match=message):
                steady_state(H, channels, spec)
        assert caplog.records == []

    def test_other_superlu_runtime_errors_propagate(self, monkeypatch):
        import scipy.sparse.linalg

        def broken(*_args, **_kwargs):
            raise RuntimeError("not enough memory to perform factorization")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", broken)
        spec, H, channels = chain_network(3, 1.0, 1.0, 2.0, 0.5)
        with pytest.raises(RuntimeError, match="not enough memory"):
            steady_state(H, channels, spec)


def exact_populations(H, channels, spec, dps=50):
    """Steady-state populations from a dps-digit LU solve of the kron generator.

    The trace replaces the last population row, as in the sector LU; the
    double entries of the generator are taken exactly.
    """
    mpmath = pytest.importorskip("mpmath")
    L = kron_liouvillian(H, channels, spec)
    d = spec.dim
    pops = [p * (d + 1) for p in range(d)]  # the vec index of each rho_pp
    with mpmath.workdps(dps):
        A = mpmath.matrix([[mpmath.mpc(v.real, v.imag) for v in row] for row in L])
        b = mpmath.matrix(d * d, 1)
        for j in range(d * d):
            A[pops[-1], j] = 1 if j in pops else 0
        b[pops[-1]] = 1
        x = mpmath.lu_solve(A, b)
        return np.array([float(x[p].real) for p in pops])


class TestSectorLUAccuracy:
    """The sector LU against a 50-digit solve, where its residual cannot tell."""

    @pytest.mark.parametrize("gamma", [1e-8] + [
        pytest.param(gamma, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            "ROADMAP item 7: the sector LU loses accuracy near a dark mode at small gamma "
            "(rho_33 off by 1.39e-8 relative at 1e-9, 1.39e-7 at 1e-10, residual below 1e-16); "
            "a sweep sends gamma = 1e-10 here through the singular-resolvent gate")))
        for gamma in (1e-9, 1e-10)
    ])
    def test_dark_mode_ring_matches_a_50_digit_solve(self, gamma):
        # the uniform 4-ring's mode (0, 1, 0, -1)/sqrt(2) vanishes on the
        # sink, so it relaxes at gamma alone, and rho_33 is 0.186046511...
        spec = generate_geometry("ring", 4, Uniform(0.0), Uniform(1.0), inject={1}, extract={3})
        H, channels = assemble_hamiltonian(spec), ChannelSet(1.0, 1.0, gamma)
        ref = exact_populations(H, channels, spec)[3]
        sol = steady_state(H, channels, spec)
        assert sol.residual <= 1e-15
        assert abs(sol.rho[3, 3].real - ref) <= 1e-12 * ref


class TestChargeSector:
    """The steady state is solved in the real, charge-conserving sector."""

    @pytest.mark.parametrize("kind,params,inject,extract", [
        ("chain", 5, {1}, {5}),
        ("ring", 6, {1, 2}, {4, 5}),
        ("full_graph", 5, {1}, {2, 4}),
    ])
    def test_vacuum_coherences_are_exactly_zero(self, kind, params, inject, extract):
        spec = generate_geometry(kind, params, RandomUniform(0.0, 50.0), RandomUniform(1.0, 10.0),
                                 inject=inject, extract=extract, seed=4)
        H = assemble_hamiltonian(spec)
        sol = steady_state(H, ChannelSet(RATE, RATE, 3.0), spec)
        assert np.all(sol.rho[0, 1:] == 0) and np.all(sol.rho[1:, 0] == 0)
        assert np.array_equal(sol.rho, sol.rho.conj().T)

    @pytest.mark.parametrize("name", ["fig3d", "fig3f", "fig3g"])
    @pytest.mark.parametrize("seed", [101, 202])
    def test_disordered_presets_match_svd_oracle(self, name, seed):
        # new disorder draws; the SVD null vector is itself only accurate to
        # its perturbation bound eps * s_max / s_{n-1} (Wedin), which exceeds
        # 1e-10 on the slowly relaxing points (up to 8e-6 at gamma 0.1)
        spec = to_internal_units(preset_network(name, seed=seed)[0])
        H = assemble_hamiltonian(spec)
        for gamma in (0.1, 5.0, 1e3):
            channels = ChannelSet(RATE, RATE, gamma)
            sol = steady_state(H, channels, spec)
            L = build_liouvillian(H, channels, spec)
            s = np.linalg.svd(L.toarray(), compute_uv=False)
            tol = max(1e-10, np.finfo(float).eps * s[0] / s[-2])
            assert np.max(np.abs(sol.rho - brute_force_steady_state(L))) <= tol, gamma

    def test_non_charge_conserving_generator_falls_back(self, caplog):
        # (named for the null-space fallback this error replaced) A coherent
        # pump |0><1| + h.c. changes the excitation number, so the
        # vacuum-site coherences couple to the sector.  The typed error names
        # the first coupling entry, the commutator term linking rho[0, 0] to
        # rho[1, 0].
        spec, H, channels = chain_network(3, 1.0, 1.0, 2.0, 0.5)
        H = H.astype(complex)
        H[0, 1] = H[1, 0] = 0.7
        with caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            with pytest.raises(NotChargeConserving, match=r"rho\[0, 0\] and rho\[1, 0\].*vacuum-site"):
                steady_state(H, channels, spec)
        assert caplog.records == []


def preset_system(name):
    """Config, internal-units spec and Hamiltonian of a preset, as in run_sweep."""
    cfg = build_preset(name)
    spec = to_internal_units(cfg.network)
    return cfg, spec, assemble_hamiltonian(spec)


def perturbed_rows(monkeypatch, rows):
    """Make the residual guard of the sweep solver fail at the given rows of the stack it checks.

    The sector LU checks one state, not a stack, and its residual is left as it is.
    """
    apply = enaqt.solver.apply_liouvillian

    def perturbed(H, channels, spec, rho):
        drho = apply(H, channels, spec, rho)
        if rho.ndim == 3:
            drho[rows] += 1.0
        return drho

    monkeypatch.setattr(enaqt.solver, "apply_liouvillian", perturbed)


def full_population_matrix(solver, gamma):
    """N_gamma = Re(P diag(delta / (gamma + delta)) Q) over all n^2 pairs (a, b), in complex arithmetic."""
    n = solver.V.shape[0]
    P = (solver.V[:, :, None] * solver.V.conj()[:, None, :]).reshape(n, n * n)
    Q = (solver.W[:, None, :] * solver.W.conj()[None, :, :]).reshape(n * n, n)
    return ((P * (solver.delta / (gamma + solver.delta)).ravel()) @ Q).real


class TestEigenbasis:
    """The sweep solver in the eigenbasis of H_eff against the sector LU."""

    @pytest.mark.parametrize("name", [p for p in PRESET_NAMES if p != "fig3h"])
    def test_matches_sector_lu_on_every_preset(self, name, caplog):
        cfg, spec, H = preset_system(name)
        solver = EigenbasisSteadyState(H, spec, cfg.gamma_inj, cfg.gamma_ext)
        sinks = sorted(spec.extract_sites)
        gammas = np.array([1e-2, 1.0, 1e3, 1e5])  # one block on every preset
        with caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            [block] = solver.solve(gammas)
        assert caplog.records == [] and not block.gated.any()
        assert block.rho.shape == (gammas.size, spec.dim, spec.dim) and block.rho.base is None
        assert np.all((0 < block.rcond) & (block.rcond <= 1)) and np.all(block.residual <= 1e-9)
        for k, gamma in enumerate(gammas):
            channels = ChannelSet(cfg.gamma_inj, cfg.gamma_ext, gamma)
            ref = steady_state(H, channels, spec)
            rho = block.rho[k]
            assert np.max(np.abs(rho - ref.rho)) <= 1e-10 * np.max(np.abs(ref.rho)), gamma
            j_p, j_ref = (sum(r[e, e].real for e in sinks) for r in (rho, ref.rho))
            assert abs(j_p - j_ref) <= 1e-10 * j_ref, gamma
            assert block.min_eigenvalue[k] == pytest.approx(ref.min_eigenvalue, abs=1e-12)
            # the recorded rcond is exact; LAPACK's estimate from the LU factors is the oracle
            N = full_population_matrix(solver, gamma)
            lu, _, info = sla.lapack.dgetrf(N)
            estimate = sla.lapack.dgecon(lu, np.linalg.norm(N, 1), norm="1")[0]
            assert info == 0 and block.rcond[k] == pytest.approx(estimate, rel=1e-12), gamma

    @pytest.mark.parametrize("name", [p for p in PRESET_NAMES if p != "fig3h"] + ["chain40"])
    def test_half_term_population_matrix_matches_full_product(self, name):
        # N_gamma from the a <= b terms against the product over all n^2 terms,
        # and the stack of four rates from one call against one rate at a time
        if name == "chain40":
            spec, H, _ = chain_network(40, 1.0, RATE, RATE, 0.0)
            solver = EigenbasisSteadyState(H, spec, RATE, RATE)
        else:
            cfg, spec, H = preset_system(name)
            solver = EigenbasisSteadyState(H, spec, cfg.gamma_inj, cfg.gamma_ext)
        assert solver.P_u.flags.c_contiguous
        gammas = np.array([1e-2, 1.0, 1e3, 1e5])
        s_u = (solver.delta / (gammas[:, None, None] + solver.delta))[:, solver.upper[0], solver.upper[1]]
        stacked = solver._population_matrix(s_u)
        assert stacked.shape == (gammas.size, spec.n_sites, spec.n_sites)
        for gamma, row, half in zip(gammas, s_u, stacked):
            full = full_population_matrix(solver, gamma)
            assert np.max(np.abs(half - full)) <= 1e-13 * np.max(np.abs(full)), gamma
            one = solver._population_matrix(row)
            assert np.max(np.abs(half - one)) <= 1e-13 * np.max(np.abs(one)), gamma

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_population_matrix_matches_einsum_over_all_pairs(self, n, k):
        # the stack of k rates runs as one GEMM of k n rows; the oracle is
        # Re(P diag(s) Q) summed term by term over all n^2 pairs (a, b).  A
        # one-site network is both source and sink, which the product allows
        rng = np.random.default_rng(n)
        spec = NetworkSpec(n, tuple(rng.uniform(0.0, 50.0, n)),
                           tuple((i, i + 1, rng.uniform(1.0, 10.0)) for i in range(1, n)), {1}, {n})
        solver = EigenbasisSteadyState(assemble_hamiltonian(spec), spec, 2.0, 3.0)
        s = solver.delta / (np.geomspace(1e-2, 1e5, k)[:, None, None] + solver.delta)
        N = solver._population_matrix(s[:, solver.upper[0], solver.upper[1]])
        ref = np.einsum("ia,ib,kab,aj,bj->kij", solver.V, solver.V.conj(), s, solver.W, solver.W.conj()).real
        assert N.shape == (k, n, n)
        assert np.all(np.abs(N - ref).max(axis=(1, 2)) <= 1e-13 * np.abs(ref).max(axis=(1, 2)))

    def test_block_gated_whole_by_the_resolvent(self, caplog):
        # at gamma_deph = 0 the 4-ring's dark mode (0, 1, 0, -1)/sqrt(2), which
        # vanishes on the sink, makes gamma + delta vanish: the block's one
        # rate is gated before N_gamma is formed, so its condition gate and
        # solve see an empty stack, and the sector LU finds the state non-unique
        spec = generate_geometry("ring", 4, Uniform(0.0), Uniform(1.0), inject={1}, extract={3})
        solver = EigenbasisSteadyState(assemble_hamiltonian(spec), spec, 1.0, 1.0)
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonUniqueSteadyState) as err:
                list(solver.solve(np.array([0.0])))
        assert err.value.index == 0
        [record] = caplog.records
        assert "gamma_deph=0" in record.getMessage() and "resolvent is singular" in record.getMessage()

    def test_non_unique_point_is_gated(self, caplog):
        # no injection or extraction: every site state is stationary, so the
        # population system is singular and the sector LU, which the point
        # goes to, finds it so too
        spec, H, _ = chain_network(3, 1.0, 0.0, 0.0, 0.0)
        solver = EigenbasisSteadyState(H, spec, 0.0, 0.0)
        with caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            with pytest.raises(NonUniqueSteadyState) as err:
                list(solver.solve(np.array([2.0])))
        assert err.value.index == 0
        [record] = caplog.records
        assert "gamma_deph=2" in record.getMessage() and "reciprocal condition" in record.getMessage()

    def test_state_failing_the_full_generator_is_gated(self, monkeypatch, caplog):
        # the residual guard is independent of the eigenbasis: when the
        # closed-form action of the generator does not annihilate the state,
        # the row is solved by the sector LU at its rate
        spec, H, channels = chain_network(3, 1.0, 1.0, 2.0, 1.0)
        solver = EigenbasisSteadyState(H, spec, 1.0, 2.0)
        perturbed_rows(monkeypatch, [0])
        with caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            [block] = solver.solve(np.array([1.0]))
        assert block.gated.tolist() == [True] and np.isnan(block.rcond[0])
        ref = steady_state(H, channels, spec)
        assert np.array_equal(block.rho[0], ref.rho)
        assert (block.residual[0], block.min_eigenvalue[0]) == (ref.residual, ref.min_eigenvalue)
        [record] = caplog.records
        assert "gamma_deph=1" in record.getMessage() and "residual" in record.getMessage()

    def test_gated_rate_inside_a_block_keeps_grid_order(self, monkeypatch, caplog):
        # the residual guard fails only the state at the rate 3 between the
        # states at gamma = 1: in one block, that rate is gated alone
        spec, H, one = chain_network(3, 1.0, 1.0, 2.0, 1.0)
        gammas = np.array([1.0, 1.0, 3.0, 1.0])
        solver = EigenbasisSteadyState(H, spec, 1.0, 2.0)
        perturbed_rows(monkeypatch, [2])
        with caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            [block] = solver.solve(gammas)
        assert block.gated.tolist() == [False, False, True, False]
        assert np.array_equal(block.rho[2], steady_state(H, ChannelSet(1.0, 2.0, 3.0), spec).rho)
        assert np.isnan(block.rcond[2]) and not np.isnan(block.rcond[[0, 1, 3]]).any()
        [record] = caplog.records
        assert "gamma_deph=3" in record.getMessage() and "residual" in record.getMessage()
        ref = steady_state(H, one, spec)
        for k in (0, 1, 3):
            assert np.max(np.abs(block.rho[k] - ref.rho)) <= 1e-10

    def test_sweep_gated_by_cond_v_comes_back_solved(self, caplog):
        # H_eff of a dimer with its trap at gamma_ext = 4t is defective, so
        # cond(V) gates the whole sweep and every row is the sector LU's
        spec, H, base = chain_network(2, 1.0, 1.0, 4.0, 0.0)
        L_base = build_liouvillian(H, base, spec)
        L_deph = build_liouvillian(np.zeros_like(H), ChannelSet(0.0, 0.0, 1.0), spec)
        gammas = np.logspace(-1, 1, 5)
        with caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            [block] = EigenbasisSteadyState(H, spec, 1.0, 4.0).solve(gammas)
        [record] = caplog.records
        assert "cond(V)" in record.getMessage()
        assert block.gated.all() and np.isnan(block.rcond).all()
        for k, gamma in enumerate(gammas):
            # the generator assembled at gamma is the affine sum, entry for entry
            channels = ChannelSet(1.0, 4.0, gamma)
            L = build_liouvillian(H, channels, spec)
            assert np.array_equal(L.toarray(), (L_base + gamma * L_deph).toarray()), gamma
            ref = steady_state(H, channels, spec)
            assert np.array_equal(block.rho[k], ref.rho), gamma
            assert (block.residual[k], block.min_eigenvalue[k]) == (ref.residual, ref.min_eigenvalue)

    def test_blocks_bound_the_stacks_and_match_one_rate_at_a_time(self):
        # a 40-site chain holds 10 rates per block: 25 rates make three
        # blocks, and each state equals the one solved alone
        spec, H, _ = chain_network(40, 1.0, RATE, RATE, 0.0)
        solver = EigenbasisSteadyState(H, spec, RATE, RATE)
        gammas = np.logspace(-2, 3, 25)
        blocks = list(solver.solve(gammas))
        assert [b.gated.size for b in blocks] == [10, 10, 5]
        rho = np.concatenate([b.rho for b in blocks])
        for k in (0, 12, 24):
            [alone] = solver.solve(gammas[k:k + 1])
            assert np.max(np.abs(rho[k] - alone.rho[0])) <= 1e-14

    def test_refines_until_the_correction_is_small(self, monkeypatch, caplog):
        # site 3, detuned by 466 and coupled at 0.11, relaxes so slowly at
        # gamma = 1e-3 that the first correction is 2e-5 of X: one pass left
        # J_p off by 4.5e-10, the third converges; capped at one pass, the
        # rate is gated instead
        spec = NetworkSpec(3, (0.0, 0.0, 466.0), ((1, 2, -0.109375), (1, 3, -0.109375)), {1}, {2})
        H = assemble_hamiltonian(spec)
        ref = steady_state(H, ChannelSet(1.0, 0.5, 1e-3), spec).rho
        solver = EigenbasisSteadyState(H, spec, 1.0, 0.5)
        [block] = solver.solve(np.array([1e-3]))
        assert not block.gated[0]
        assert abs(block.rho[0, 2, 2] - ref[2, 2]) <= 1e-13 * ref[2, 2].real
        monkeypatch.setattr(enaqt.solver, "MAX_REFINE", 1)
        with caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            [block] = solver.solve(np.array([1e-3]))
        assert block.gated[0]
        [record] = caplog.records
        assert "refinement stalled" in record.getMessage()

    def test_slow_refinement_goes_on_below_refine_tol(self, monkeypatch, caplog):
        # corrections of 6.7e-4, 2.5e-6 and 9.1e-9: the third is below
        # REFINE_TOL but left the occupations off by 1.1e-10; the fifth
        # reaches SLOW_REFINE_TOL, and capped at three passes the rate is gated
        spec = slow_refinement_network(-0.1, -0.1, -0.5)
        H = assemble_hamiltonian(spec)
        ref = steady_state(H, ChannelSet(1.0, 0.1, 1e-3), spec).rho
        solver = EigenbasisSteadyState(H, spec, 1.0, 0.1)
        monkeypatch.setattr(enaqt.solver, "MAX_REFINE", 5)
        [block] = solver.solve(np.array([1e-3]))
        assert not block.gated[0]
        assert np.max(np.abs(block.rho[0] - ref)) <= 1e-13 * np.max(np.abs(ref))
        monkeypatch.setattr(enaqt.solver, "MAX_REFINE", 3)
        with caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            [block] = solver.solve(np.array([1e-3]))
        assert block.gated[0]
        [record] = caplog.records
        assert "refinement stalled at a correction of 9.1" in record.getMessage()

    def test_state_failing_validation_names_its_row(self, monkeypatch):
        # the block is validated as one stack; the error names the row of
        # the first bad state in the block, past the gated rows before it
        spec, H, _ = chain_network(3, 1.0, 1.0, 2.0, 0.0)
        solver = EigenbasisSteadyState(H, spec, 1.0, 2.0)
        check = enaqt.solver.check_density_matrix
        stacks = []

        def second_made_negative(rho):
            stacks.append(rho.shape)
            rho = rho.copy()
            rho[1] += np.diag([0.0, 0.5, -0.5, 0.0])
            return check(rho)

        monkeypatch.setattr(enaqt.solver, "check_density_matrix", second_made_negative)
        # rows 0, 2 and 3 pass the residual guard, row 1 is gated
        perturbed_rows(monkeypatch, [1])
        gammas = np.array([1.0, 3.0, 1.0, 1.0])
        with pytest.raises(NonPhysicalState, match="negative eigenvalue") as err:
            list(solver.solve(gammas))
        assert err.value.index == 2 and stacks == [(3, 4, 4)]


class TestPropagate:
    def test_eigenstate_is_stationary_without_channels(self, symmetric_chain):
        spec, H = symmetric_chain
        w, v = np.linalg.eigh(H)
        rho0 = np.outer(v[:, 3], v[:, 3].conj())
        traj = propagate(H, ChannelSet(0, 0, 0), spec, rho0, 5.0)
        assert np.max(np.abs(traj.states[-1] - rho0)) < 1e-7

    def test_long_time_limit_matches_steady_state(self, asymmetric_chain):
        spec, H = asymmetric_chain
        channels = ChannelSet(RATE, RATE, 5.0)
        sol = steady_state(H, channels, spec)
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho0[0, 0] = 1.0
        traj = propagate(H, channels, spec, rho0, 10.0)
        assert np.max(np.abs(traj.states[-1] - sol.rho)) < 1e-6

    def test_trace_conserved_along_trajectory(self, asymmetric_chain):
        spec, H = asymmetric_chain
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho0[0, 0] = 1.0
        traj = propagate(H, ChannelSet(RATE, RATE, 20.0), spec, rho0, 5.0)
        traces = np.einsum("tii->t", traj.states).real
        assert np.max(np.abs(traces - 1.0)) < 1e-8

    def test_coarse_and_fine_grids_agree(self, asymmetric_chain):
        spec, H = asymmetric_chain
        channels = ChannelSet(RATE, RATE, 5.0)
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho0[0, 0] = 1.0
        coarse = propagate(H, channels, spec, rho0, 5.0, n_eval=11)
        fine = propagate(H, channels, spec, rho0, 5.0, n_eval=201)
        shared = fine.times[::20]
        assert np.allclose(coarse.times, shared, rtol=0, atol=1e-12)
        assert np.max(np.abs(coarse.states - fine.states[::20])) < 1e-12
        assert np.max(np.abs(coarse.extracted - fine.extracted[::20])) < 1e-12

    def test_strong_dephasing_reaches_steady_state(self, asymmetric_chain):
        # gamma_deph = 1e3 ps^-1 is far outside any explicit integrator's
        # comfortable range; the exact propagator must still relax to the
        # linear-solve steady state over criterion 6's gap-set horizon
        spec, H = asymmetric_chain
        channels = ChannelSet(RATE, RATE, 1e3)
        target = steady_state(H, channels, spec).rho
        t_end = max(50.0 / RATE, np.log(1e8) / spectral_gap(build_liouvillian(H, channels, spec).toarray()))
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho0[0, 0] = 1.0
        traj = propagate(H, channels, spec, rho0, t_end)
        assert np.max(np.abs(traj.states[-1] - target)) < 1e-6

    def test_extracted_is_nondecreasing(self, asymmetric_chain):
        spec, H = asymmetric_chain
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho0[1, 1] = 1.0
        traj = propagate(H, ChannelSet(0.0, RATE, 2.0), spec, rho0, 10.0)
        assert np.all(np.diff(traj.extracted) >= -1e-12)

    def test_rejects_a_start_state_of_the_wrong_shape(self, symmetric_chain):
        spec, H = symmetric_chain
        rho0 = np.zeros((spec.dim - 1, spec.dim - 1), dtype=complex)
        rho0[0, 0] = 1.0
        with pytest.raises(DimensionMismatch, match=rf"expected {spec.dim}x{spec.dim} initial state"):
            propagate(H, ChannelSet(1, 1, 1), spec, rho0, 1.0)

    def test_rejects_invalid_initial_state(self, symmetric_chain):
        from enaqt.errors import NonPhysicalState
        spec, H = symmetric_chain
        bad = np.zeros((spec.dim, spec.dim), dtype=complex)
        bad[0, 0] = 2.0
        with pytest.raises(NonPhysicalState):
            propagate(H, ChannelSet(1, 1, 1), spec, bad, 1.0)

    @pytest.mark.parametrize("t_end", [np.nan, np.inf, -1.0, True, False, "20"])
    def test_rejects_a_horizon_that_is_not_finite_and_nonnegative(self, symmetric_chain, t_end):
        spec, H = symmetric_chain
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho0[0, 0] = 1.0
        with pytest.raises(ValueError, match="t_end must be finite and nonnegative"):
            propagate(H, ChannelSet(1, 1, 1), spec, rho0, t_end)

    def test_rejects_single_sample_grid(self, symmetric_chain):
        # and any count that is not an integer
        spec, H = symmetric_chain
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho0[0, 0] = 1.0
        for n_eval in (1, 2.5, 3.0, True, "11"):
            with pytest.raises(ValueError, match="n_eval"):
                propagate(H, ChannelSet(1, 1, 1), spec, rho0, 1.0, n_eval=n_eval)

    def test_takes_a_numpy_integer_sample_count(self, symmetric_chain):
        spec, H = symmetric_chain
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho0[1, 1] = 1.0
        traj = propagate(H, ChannelSet(1, 1, 1), spec, rho0, 1.0, n_eval=np.int64(3))
        assert traj.times.shape == (3,)


# sample counts: the fewest (t = 0 and t_end), two odd ones and the default
SAMPLE_COUNTS = (2, 3, 11, N_EVAL)


def assert_matches_dense(H, channels, spec, rho0, t_end, tol=1e-10, n_eval=N_EVAL):
    traj = propagate(H, channels, spec, rho0, t_end, n_eval)
    ref = dense_propagate(H, channels, spec, rho0, t_end, n_eval)
    assert np.array_equal(traj.times, ref.times), n_eval
    assert np.max(np.abs(traj.states - ref.states)) <= tol, n_eval
    assert np.max(np.abs(traj.extracted - ref.extracted)) <= tol, n_eval
    return traj


def pulse_start(spec):
    """A single excitation on the lowest-numbered injection site."""
    site = min(spec.inject_sites)
    rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho0[site, site] = 1.0
    return rho0


class TestPropagateAgainstDenseOracle:
    """The charge-sector propagator against the full-space exponential."""

    @pytest.mark.parametrize("gamma", [1e-2, 1.0, 1e2])
    def test_fig2_pulse(self, gamma):
        cfg = build_preset("fig2")
        spec = to_internal_units(cfg.network)
        H = assemble_hamiltonian(spec)
        channels = ChannelSet(0.0, cfg.gamma_ext, gamma)
        traj = assert_matches_dense(H, channels, spec, pulse_start(spec), 20.0)
        assert np.all(traj.states[:, 0, 1:] == 0.0)

    # the stiffest points of the presets' pulse grids: ||G dt||_1 is about
    # 1e4 at gamma = 1e5 (the most squarings), and fig3a is the largest
    # generator (627-square)
    @pytest.mark.parametrize("name, gamma", [("fig3g", 1e5), ("fig3d", 1e5), ("fig3a", 1e3)])
    def test_stiff_pulse(self, name, gamma):
        cfg, spec, H = preset_system(name)
        t_end = 20.0
        # rounding of exp(G t_end) in float64 is of order eps gamma t_end
        # (4.4e-10 at gamma = 1e5); the measured differences are 3.2e-11
        # (fig3g), 3.3e-11 (fig3d) and 3.1e-13 (fig3a)
        floor = np.finfo(float).eps * gamma * t_end
        channels = ChannelSet(0.0, cfg.gamma_ext, gamma)
        assert_matches_dense(H, channels, spec, pulse_start(spec), t_end, tol=2 * floor)

    def test_injection_from_the_vacuum(self, asymmetric_chain):
        spec, H = asymmetric_chain
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho0[0, 0] = 1.0
        for n_eval in SAMPLE_COUNTS:
            assert_matches_dense(H, ChannelSet(RATE, RATE, 3.0), spec, rho0, 8.0, n_eval=n_eval)

    def test_vacuum_site_coherences_evolve(self, asymmetric_chain):
        spec, H = asymmetric_chain
        rho0 = random_density_matrix(np.random.default_rng(7), spec.dim)
        for n_eval in SAMPLE_COUNTS:
            traj = assert_matches_dense(H, ChannelSet(RATE, RATE, 3.0), spec, rho0, 2.0, n_eval=n_eval)
            vacuum = np.abs(traj.states[1:, 0, 1:])
            # they decay to 1.9e-5 by t_end, the only sample after t = 0 at
            # n_eval = 2: still far above the tolerance of the match
            assert np.max(vacuum[-1]) > 1e-6
            if n_eval > 2:
                assert np.max(vacuum) > 1e-3

    def test_vacuum_coherences_are_hermitian_bit_for_bit(self, asymmetric_chain):
        # rho_s0 is propagated, and rho_0s is its conjugate at every sample
        spec, H = asymmetric_chain
        rho0 = random_density_matrix(np.random.default_rng(3), spec.dim)
        traj = propagate(H, ChannelSet(RATE, RATE, 3.0), spec, rho0, 2.0, n_eval=11)
        assert np.any(traj.states[1:, 1:, 0])
        assert np.array_equal(traj.states[:, 0, 1:], traj.states[:, 1:, 0].conj())

    def test_vacuum_coupling_is_not_charge_conserving(self, asymmetric_chain):
        spec, H = asymmetric_chain
        H = H.copy()
        H[0, 1] = H[1, 0] = 1.0
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho0[1, 1] = 1.0
        with pytest.raises(NotChargeConserving, match=r"rho\[0, 0\] and rho\[1, 0\]"):
            propagate(H, ChannelSet(0.0, RATE, 1.0), spec, rho0, 1.0)


def sector_generator_by_action(H, spec, channels):
    """The bordered sector generator and the vacuum block, from `apply_liouvillian` on basis states.

    Column j of the sector block holds the sector coordinates of the action
    on the state whose coordinate j is 1, and column s of the vacuum block
    the coherences rho_s0 of the action on the matrix unit of rho_s0, for
    s = 1..n.  Neither assembles an entry.
    """
    d, n = spec.dim, spec.n_sites
    sec = _sector(d)
    m = sec.size
    drho = apply_liouvillian(H, channels, spec, sec.state(np.eye(m)))
    assert not np.any(drho[:, 1:, 0]) and not np.any(drho[:, 0, 1:])  # the sector is closed
    G = np.zeros((m + 1, m + 1))
    G[:m, :m] = sec.coordinates(drho).T
    G[m, sec.pops[sorted(spec.extract_sites)]] = channels.gamma_ext
    E = np.zeros((n, d, d), dtype=complex)
    s = np.arange(n)
    E[s, s + 1, 0] = 1.0
    drho = apply_liouvillian(H, channels, spec, E)
    assert not np.any(drho[:, 0, 1:])  # rho_s0 does not reach rho_0s
    return G, drho[:, 1:, 0].T


class TestSectorPropagator:
    """The sector generator projected from the closed-form entries, and dephasing as its diagonal shift."""

    @pytest.mark.parametrize("name", ["fig2", "fig3a"])
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1e3])
    def test_shifted_generator_matches_assembly_at_gamma(self, name, gamma):
        cfg, spec, H = preset_system(name)
        prop = SectorPropagator(H, spec, cfg.gamma_inj, cfg.gamma_ext)
        L = build_liouvillian(H, ChannelSet(cfg.gamma_inj, cfg.gamma_ext, gamma), spec).tocoo()
        sec = _sector(spec.dim)
        m = sec.size
        ref = np.zeros((m + 1, m + 1))
        rows, cols, vals = sec.project(L.row, L.col, L.data)
        np.add.at(ref, (rows, cols), vals)
        ref[m, sec.pops[sorted(spec.extract_sites)]] = cfg.gamma_ext
        assert np.max(np.abs(prop.generator(gamma) - ref)) <= 1e-13 * np.max(np.abs(ref))
        block = L.tocsr()[1:spec.dim, 1:spec.dim].toarray()  # rho_s0 is vec index s
        assert np.max(np.abs(prop.vacuum_block(gamma) - block)) <= 1e-13 * np.max(np.abs(block))

    @settings(max_examples=60, deadline=None)
    @given(random_networks())
    def test_matches_the_action_on_the_basis_states(self, drawn):
        spec, gamma_inj, gamma_ext = drawn
        H = assemble_hamiltonian(spec)
        prop = SectorPropagator(H, spec, gamma_inj, gamma_ext)
        G, _ = sector_generator_by_action(H, spec, ChannelSet(gamma_inj, gamma_ext, 0.0))
        _, B = sector_generator_by_action(H, spec, ChannelSet(gamma_inj, gamma_ext, 1.0))
        assert np.max(np.abs(prop.G_base - G)) <= 1e-15 * np.max(np.abs(G))
        assert np.max(np.abs(prop.vacuum_block(1.0) - B)) <= 1e-15 * np.max(np.abs(B))

    def test_complex_hopping_matches_the_action_on_the_basis_states(self, asymmetric_chain):
        # a real symmetric H leaves the vacuum block symmetric; complex
        # hopping phases tell its rows from its columns
        spec, H = asymmetric_chain
        H = H * np.exp(1j * np.triu(np.ones_like(H), 1))
        H = np.triu(H) + np.triu(H, 1).conj().T
        prop = SectorPropagator(H, spec, RATE, RATE)
        G, B = sector_generator_by_action(H, spec, ChannelSet(RATE, RATE, 2.0))
        assert np.max(np.abs(prop.generator(2.0) - G)) <= 1e-15 * np.max(np.abs(G))
        assert np.max(np.abs(prop.vacuum_block(2.0) - B)) <= 1e-15 * np.max(np.abs(B))


class TestExpm:
    """The scaling-and-squaring Taylor exponential against exact answers and scipy's."""

    def test_zero_matrix(self):
        # the polynomial of 0 is its constant term, the identity, and no squaring follows
        assert np.array_equal(_expm(np.zeros((4, 4))), np.eye(4))
        assert np.array_equal(_expm(np.zeros((3, 5, 5), dtype=complex)), np.broadcast_to(np.eye(5), (3, 5, 5)))

    @staticmethod
    def normal_stack(rng, norm, dtype, k=4, m=7):
        """k normal m-square matrices of 1-norm `norm` whose exponentials have norm 1.

        Q diag(lambda) Q^H with Q unitary (orthogonal if real) and the
        eigenvalues in the closed left half-plane, one on the imaginary
        axis, so exp(A) neither overflows nor vanishes at any norm.
        """
        complex_ = np.issubdtype(dtype, np.complexfloating)
        A = np.empty((k, m, m), dtype=dtype)
        for j in range(k):
            Z = rng.standard_normal((m, m)) + (1j * rng.standard_normal((m, m)) if complex_ else 0.0)
            Q = np.linalg.qr(Z)[0]
            lam = -rng.uniform(0.0, 1.0, m) + (1j * rng.uniform(-1.0, 1.0, m) if complex_ else 0.0)
            lam[0] = lam[0].imag * 1j if complex_ else 0.0
            A[j] = (Q * lam) @ Q.conj().T
        return A * (norm / np.abs(A).sum(axis=1).max(axis=1))[:, None, None]

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("norm", [1e-3, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4])
    def test_random_stack_matches_scipy(self, dtype, norm):
        # 0 to 12 squarings; at 1e4 both routines sit near the float64
        # floor eps ||A||_1 ~ 2e-12 of this problem's conditioning, and this
        # draw reads at most 8.1e-13
        A = self.normal_stack(np.random.default_rng(11), norm, dtype)
        X = _expm(A)
        assert X.dtype == A.dtype
        for got, matrix in zip(X, A):
            want = sla.expm(matrix)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_diagonal(self):
        a = np.array([-20.0, -3.0, 0.0, 0.5, 2.0, 7.5])
        X = _expm(np.diag(a))
        assert np.count_nonzero(X - np.diag(np.diag(X))) == 0
        assert np.max(np.abs(np.diag(X) / np.exp(a) - 1.0)) <= 1e-13

    @pytest.mark.parametrize("a, b", [(1.0, -1.0), (-3.0, -7.0), (0.5, 0.25)])
    def test_non_normal_triangular(self, a, b):
        # ||A||_1 = 1e4 takes 12 squarings
        X = _expm(np.array([[a, 1e4], [0.0, b]]))
        assert X[1, 0] == 0.0
        upper = X[0, 0], X[0, 1], X[1, 1]
        exact = np.exp(a), 1e4 * (np.exp(a) - np.exp(b)) / (a - b), np.exp(b)
        assert np.max(np.abs(np.divide(upper, exact) - 1.0)) <= 1e-12

    def test_complex_vacuum_block(self):
        # the on-site energies make it complex with a 1-norm of about 234 at dt = 0.1 ps
        cfg, spec, H = preset_system("fig2")
        B = SectorPropagator(H, spec, 0.0, cfg.gamma_ext).vacuum_block(1.0) * 0.1
        ref = sla.expm(B)
        assert np.max(np.abs(_expm(B) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_stack_matches_each_matrix(self):
        # 12, 3 and 0 squarings, so the stack is reordered by its counts
        # and back: each matrix keeps its own count and its own arithmetic
        A = np.zeros((3, 6, 6))
        A[0, :2, :2] = [[1.0, 1e4], [0.0, -1.0]]
        A[1] = np.diag([-20.0, -3.0, 0.0, 0.5, 2.0, 7.5])
        X = _expm(A)
        assert X.shape == A.shape
        for got, matrix in zip(X, A):
            want = _expm(matrix)
            assert want.shape == matrix.shape
            assert np.max(np.abs(got - want)) <= np.finfo(float).eps * np.max(np.abs(want))


class TestTransferEfficiency:
    def test_zero_horizon(self, asymmetric_chain):
        spec, H = asymmetric_chain
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho0[1, 1] = 1.0
        traj = propagate(H, ChannelSet(0.0, RATE, 1.0), spec, rho0, 0.0)
        assert transfer_efficiency(traj) == 0.0

    def test_pulse_at_extraction_site_is_fully_collected(self, asymmetric_chain):
        spec, H = asymmetric_chain
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho0[5, 5] = 1.0  # the sink itself
        traj = propagate(H, ChannelSet(0.0, RATE, 1.0), spec, rho0, 30.0)
        eta = transfer_efficiency(traj)
        assert 0.9999 < eta <= 1.0 + 1e-9

    def test_matches_vacuum_population_without_injection(self, asymmetric_chain):
        # with no source, the only route into the vacuum is extraction
        spec, H = asymmetric_chain
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho0[2, 2] = 1.0
        traj = propagate(H, ChannelSet(0.0, RATE, 3.0), spec, rho0, 8.0)
        eta = transfer_efficiency(traj)
        assert eta == pytest.approx(traj.states[-1][0, 0].real, abs=1e-9)

    def test_extracted_equals_vacuum_population_at_every_sample(self, asymmetric_chain):
        # without a source, every exciton in the vacuum got there through a sink
        spec, H = asymmetric_chain
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho0[2, 2] = 1.0
        traj = propagate(H, ChannelSet(0.0, RATE, 3.0), spec, rho0, 8.0)
        vacuum = traj.states[:, 0, 0].real
        assert np.max(np.abs(traj.extracted - vacuum)) < 1e-12
