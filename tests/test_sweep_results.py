import json
import logging
import re
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enaqt.solver
import enaqt.sweep
from conftest import random_networks, slow_refinement_network
from enaqt.errors import NonPhysicalState, NonUniqueSteadyState
from enaqt.lindblad import ChannelSet
from enaqt.network import (
    NetworkSpec,
    Uniform,
    assemble_hamiltonian,
    generate_geometry,
    to_internal_units,
    validate_network,
)
from enaqt.observables import (
    Occupations,
    SweepClassification,
    SweepCurve,
    classify_sweep,
    delta_n,
    heat_current,
)
from enaqt.presets import build_preset
from enaqt.reference import brute_force_steady_state, dense_pulse, kron_liouvillian
from enaqt.results import emit_results, read_results_csv, read_results_json
from enaqt.solver import SectorPropagator, SteadyStateSolution, propagate, steady_state, transfer_efficiency
from enaqt.sweep import SweepConfig, config_to_dict, run_sweep


@pytest.fixture(scope="module")
def chain2_cfg():
    spec = generate_geometry("chain", 2, Uniform(0.0), Uniform(1.0), inject={1}, extract={2})
    return SweepConfig(network=spec, gamma_min=0.1, gamma_max=10.0, points=5,
                       gamma_inj=1.0, gamma_ext=1.0)


@pytest.fixture(scope="module")
def chain2_result(chain2_cfg):
    return run_sweep(chain2_cfg)


class TestSweep:
    def test_grid_shapes(self, chain2_cfg, chain2_result):
        curve, _ = chain2_result
        assert curve.n_points == 5
        assert curve.occupations.shape == (5, 2)
        assert np.allclose(curve.gamma_grid, np.logspace(-1, 1, 5))

    def test_linear_spacing(self, chain2_cfg):
        from dataclasses import replace
        cfg = replace(chain2_cfg, spacing="linear")
        assert np.allclose(cfg.gamma_grid(), np.linspace(0.1, 10.0, 5))

    def test_flux_balance_of_emitted_rows(self, chain2_cfg, chain2_result):
        curve, _ = chain2_result
        influx = chain2_cfg.gamma_inj * curve.vacuum  # single injection site
        assert np.allclose(influx, curve.j_p, rtol=1e-9, atol=0)

    def test_records_how_each_point_was_solved(self, chain2_result):
        curve, _ = chain2_result
        assert curve.method == ("eigenbasis",) * 5
        assert curve.residual.shape == (5,)
        assert np.all(curve.residual <= 1e-9)
        assert np.all((curve.rcond > 0) & (curve.rcond <= 1))
        assert np.all(curve.min_eigenvalue >= -1e-10) and np.all(curve.min_eigenvalue < 0.5)

    def test_exceptional_point_falls_back_to_sector_lu(self, caplog):
        # H_eff of a dimer with its trap at gamma_ext = 4t is defective
        spec = generate_geometry("chain", 2, Uniform(0.0), Uniform(1.0), inject={1}, extract={2})
        cfg = SweepConfig(network=spec, gamma_min=0.1, gamma_max=10.0, points=5,
                          gamma_inj=1.0, gamma_ext=4.0)
        with caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            curve, _ = run_sweep(cfg)
        [record] = caplog.records
        assert "cond(V)" in record.getMessage() and "sector LU" in record.getMessage()
        assert curve.method == ("sector_lu",) * 5
        assert np.all(np.isnan(curve.rcond))
        spec = to_internal_units(spec)
        H = assemble_hamiltonian(spec)
        for k, gamma in enumerate(curve.gamma_grid):
            rho = brute_force_steady_state(kron_liouvillian(H, ChannelSet(1.0, 4.0, gamma), spec))
            assert np.max(np.abs(curve.occupations[k] - np.diag(rho).real[1:])) < 1e-10

    def test_sweep_without_injection_stays_in_the_eigenbasis(self):
        # with no injection the steady state is the vacuum: X = 0 at every rate
        spec = generate_geometry("chain", 3, Uniform(0.0), Uniform(1.0), inject={1}, extract={3})
        cfg = SweepConfig(network=spec, gamma_min=0.1, gamma_max=10.0, points=5,
                          gamma_inj=0.0, gamma_ext=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            curve, _ = run_sweep(cfg)
        assert curve.method == ("eigenbasis",) * 5
        assert np.all(curve.vacuum == 1.0) and not curve.occupations.any()

    def test_dark_mode_at_zero_dephasing_is_non_unique(self):
        # the 4-ring's eigenmode (0, 1, 0, -1)/sqrt(2) vanishes on the sink
        # (site 3), so at gamma_deph = 0 it is a second stationary state
        spec = generate_geometry("ring", 4, Uniform(0.0), Uniform(1.0), inject={1}, extract={3})
        cfg = SweepConfig(network=spec, gamma_min=0.0, gamma_max=2.0, points=5, spacing="linear",
                          gamma_inj=1.0, gamma_ext=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonUniqueSteadyState, match=r"gamma_deph=0\]"):
                run_sweep(cfg)

    def test_failing_point_names_its_gamma(self):
        spec = generate_geometry("chain", 2, Uniform(0.0), Uniform(1.0), inject={1}, extract={2})
        cfg = SweepConfig(network=spec, gamma_min=0.5, gamma_max=2.0, points=5,
                          gamma_inj=0.0, gamma_ext=0.0)
        with pytest.raises(NonUniqueSteadyState, match=r"gamma_deph=0\.5"):
            run_sweep(cfg)

    def test_error_inside_a_block_names_its_point(self, monkeypatch, chain2_cfg):
        # the five points form one block, validated as one stack; its third
        # state is made non-positive, so the error names the third point
        stacks = []
        check = enaqt.solver.check_density_matrix

        def third_made_negative(rho):
            stacks.append(rho.shape)
            rho = rho.copy()
            rho[2] += np.diag([0.0, 0.5, -0.5])
            return check(rho)

        monkeypatch.setattr(enaqt.solver, "check_density_matrix", third_made_negative)
        with pytest.raises(NonPhysicalState, match=r"^\[gamma_deph=1\] negative eigenvalue"):
            run_sweep(chain2_cfg)
        assert stacks == [(5, 3, 3)]

    def test_failing_fallback_inside_a_block_names_its_point(self, monkeypatch, chain2_cfg, caplog):
        # rcond falls from 0.81 to 0.11 along the grid: with the gate at 0.25
        # the last two points of the one block go to the sector LU, and the
        # first of them fails
        monkeypatch.setattr(enaqt.solver, "RCOND_MIN", 0.25)
        solved = []

        def fails(H, channels, spec):
            solved.append(channels.gamma_deph)
            raise NonUniqueSteadyState("singular")

        monkeypatch.setattr(enaqt.solver, "steady_state", fails)
        with caplog.at_level(logging.WARNING, logger="enaqt.solver"):
            with pytest.raises(NonUniqueSteadyState, match=r"^\[gamma_deph=3\.16228\] singular"):
                run_sweep(chain2_cfg)
        assert solved == [pytest.approx(10**0.5, rel=1e-14)] and len(caplog.records) == 2

    def test_failing_fallback_in_a_later_block_names_its_point(self, monkeypatch):
        # a 40-site chain holds 10 rates per block: with every point sent to
        # the sector LU, the fallback of grid point 12, row 2 of the second
        # block, fails
        spec = generate_geometry("chain", 40, Uniform(0.0), Uniform(1.0), inject={1}, extract={40})
        cfg = SweepConfig(network=spec, points=25, gamma_inj=1.0, gamma_ext=1.0)
        vacuum = np.zeros((spec.dim, spec.dim), dtype=complex)
        vacuum[0, 0] = 1.0
        solved = []

        def fails_at_the_thirteenth(H, channels, spec):
            solved.append(channels.gamma_deph)
            if len(solved) == 13:
                raise NonUniqueSteadyState("singular")
            return SteadyStateSolution(rho=vacuum, residual=0.0, min_eigenvalue=1.0)

        monkeypatch.setattr(enaqt.solver, "COND_V_MAX", 0.0)
        monkeypatch.setattr(enaqt.solver, "steady_state", fails_at_the_thirteenth)
        point = f"{cfg.gamma_grid()[12]:g}"
        with pytest.raises(NonUniqueSteadyState, match=rf"^\[gamma_deph={re.escape(point)}\] singular"):
            run_sweep(cfg)
        assert solved == list(cfg.gamma_grid()[:13])

    def test_methods_are_the_two_shared_literals(self, chain2_result):
        # a curve kept per sweep holds one reference per point to one of two
        # strings, never a fresh string (or a numpy string) per point
        spec = generate_geometry("chain", 2, Uniform(0.0), Uniform(1.0), inject={1}, extract={2})
        fallback = SweepConfig(network=spec, gamma_min=0.1, gamma_max=10.0, points=5,
                               gamma_inj=1.0, gamma_ext=4.0)
        curves = [chain2_result[0], run_sweep(fallback)[0]]
        assert [set(c.method) for c in curves] == [{"eigenbasis"}, {"sector_lu"}]
        methods = [m for c in curves for m in c.method]
        assert all(type(m) is str for m in methods)
        assert len({id(m) for m in methods}) == 2

    def test_curve_arrays_own_their_memory(self, chain2_cfg):
        for spacing in ("log", "linear"):
            curve, _ = run_sweep(replace(chain2_cfg, spacing=spacing))
            for name in ("gamma_grid", "j_p", "j_q", "delta_n", "vacuum", "occupations",
                         "residual", "rcond", "min_eigenvalue"):
                assert getattr(curve, name).base is None, (spacing, name)

    def test_peak_memory_does_not_grow_with_the_grid(self):
        # a 40-site chain solves 10 rates per block, so the stacks a sweep
        # holds are bounded by n and not by the number of points
        spec = generate_geometry("chain", 40, Uniform(0.0), Uniform(1.0), inject={1}, extract={40})

        def traced_peak(points):
            cfg = SweepConfig(network=spec, points=points, gamma_inj=1.0, gamma_ext=1.0)
            tracemalloc.start()
            try:
                run_sweep(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(240) <= 1.5 * traced_peak(60)

    def test_pulse_mode(self):
        spec = generate_geometry("chain", 3, Uniform(0.0), Uniform(1.0), inject={1}, extract={3})
        cfg = SweepConfig(network=spec, gamma_min=0.1, gamma_max=10.0, points=5,
                          gamma_ext=1.0, mode="pulse", t_end=10.0)
        curve, _ = run_sweep(cfg)
        assert np.all((curve.j_p >= 0) & (curve.j_p <= 1 + 1e-9))
        assert curve.method is None and curve.residual is None
        # occupations are trajectory time averages; with the vacuum they
        # still account for the whole pulse
        totals = curve.vacuum + curve.occupations.sum(axis=1)
        assert np.allclose(totals, 1.0, atol=1e-8)


class TestRandomNetworks:
    @settings(max_examples=60, deadline=None)
    @given(random_networks())
    # site 3, detuned and weakly coupled, relaxes so slowly at gamma = 1e-3
    # that one refinement pass left J_p off by 4.5e-10
    @example((NetworkSpec(3, (0.0, 0.0, 466.0), ((1, 2, -0.109375), (1, 3, -0.109375)), {1}, {2}),
              1.0, 0.5))
    # at gamma = 1e-3 refinement shrinks each correction only 270-fold, and
    # stopping at the first below 1e-8 left the occupations, or J_p, off by
    # 1.1e-10 (the sector LU agrees with a 40-digit solve to 1e-15)
    @example((slow_refinement_network(-0.1, -0.1, -0.5), 1.0, 0.1))
    @example((slow_refinement_network(-0.5, -1.0, -0.1), 1.0, 0.1))
    def test_block_sweep_matches_sector_lu_per_point(self, drawn):
        # the sector LU shares no factorization code with the eigenbasis
        # blocks, and unlike the SVD oracle it stays accurate at large
        # energy spread
        spec, gamma_inj, gamma_ext = drawn
        cfg = SweepConfig(network=spec, gamma_min=1e-3, gamma_max=1e5, points=9,
                          gamma_inj=gamma_inj, gamma_ext=gamma_ext)
        curve, _ = run_sweep(cfg)
        H = assemble_hamiltonian(spec)
        for k, gamma in enumerate(curve.gamma_grid):
            ref = steady_state(H, ChannelSet(gamma_inj, gamma_ext, gamma), spec)
            j_p = gamma_ext * sum(ref.rho[s, s].real for s in spec.extract_sites)
            occ = np.diag(ref.rho).real[1:]
            assert abs(curve.j_p[k] - j_p) <= 1e-10 * j_p, gamma
            assert np.max(np.abs(curve.occupations[k] - occ)) <= 1e-10 * np.max(occ), gamma


def pulse_start(cfg):
    """The internal-unit network, its Hamiltonian and the start state of a pulse sweep."""
    spec = to_internal_units(validate_network(cfg.network))
    site = cfg.pulse_site if cfg.pulse_site is not None else min(spec.inject_sites)
    rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho0[site, site] = 1.0
    return spec, assemble_hamiltonian(spec), rho0


def pulse_sweep_by_kron_van_loan(cfg):
    """A pulse sweep the long way: one full-space Van Loan exponential per point, `reference.dense_pulse`.

    It shares no code with the sector path: the generator is the kron
    construction and the exponential scipy's.  The time integral of rho
    is exact, so the averages carry no quadrature error.
    """
    spec, H, rho0 = pulse_start(cfg)
    cols = {"j_p": [], "j_q": [], "delta_n": [], "vacuum": [], "occupations": []}
    for gamma in cfg.gamma_grid():
        channels = ChannelSet(0.0, cfg.gamma_ext, gamma)
        eta, rho_int = dense_pulse(H, channels, spec, rho0, cfg.t_end)
        avg = np.diag(rho_int).real / cfg.t_end
        occ = Occupations(values=avg[1:], vacuum=float(avg[0]))
        cols["j_p"].append(eta)
        cols["j_q"].append(heat_current(rho_int, H, channels, spec))
        cols["delta_n"].append(delta_n(occ, spec.extract_sites))
        cols["vacuum"].append(occ.vacuum)
        cols["occupations"].append(occ.values)
    curve = SweepCurve(gamma_grid=cfg.gamma_grid(), **{k: np.array(v) for k, v in cols.items()})
    return curve, classify_sweep(curve)


class TestPulseSweep:
    """The sweep's one sector Van Loan exponential per point against the full space and `propagate`."""

    @pytest.mark.parametrize("name,overrides", [
        ("fig2", dict(points=20, gamma_min=1e-2, gamma_max=1e2)),
        ("fig3g", dict(points=8)),  # two sinks, up to gamma = 1e5
        ("fig2", dict(points=6, pulse_site=4)),
    ])
    def test_matches_propagate_per_point(self, name, overrides):
        cfg = build_preset(name, mode="pulse", t_end=20.0, **overrides)
        curve, cls = run_sweep(cfg)
        ref, ref_cls = pulse_sweep_by_kron_van_loan(cfg)
        # rounding in an exponential of G t_end grows like eps ||G||_1 t_end,
        # 5e-10 at fig3g's gamma = 1e5; the largest gap measured is 6.5e-11
        # of the column's maximum (delta_n on fig3g)
        for field in ("j_p", "j_q", "delta_n", "vacuum", "occupations"):
            got, want = getattr(curve, field), getattr(ref, field)
            assert np.max(np.abs(got - want)) <= 2e-10 * np.max(np.abs(want)), field
        assert cls == ref_cls
        # eta, the one column a trajectory gives without quadrature, also
        # from `propagate`'s 201 stepped samples
        spec, H, rho0 = pulse_start(cfg)
        eta = [transfer_efficiency(propagate(H, ChannelSet(0.0, cfg.gamma_ext, gamma), spec, rho0, cfg.t_end))
               for gamma in cfg.gamma_grid()]
        assert np.max(np.abs(curve.j_p - eta)) <= 1e-10 * np.max(eta)

    @pytest.mark.parametrize("t_end", [1e12, 1e15, 1e20])
    def test_long_horizon_delivers_the_whole_pulse(self, t_end):
        # stepping 200 samples of exp(G t_end / 200) once lost the trace at
        # these horizons without an error: eta read 0.976-0.998 at 1e12,
        # at most 0.21 at 1e15 and 0 at 1e20, where it tends to 1
        cfg = build_preset("fig2", mode="pulse", t_end=t_end, points=5)
        curve, _ = run_sweep(cfg)
        assert np.max(np.abs(curve.j_p - 1.0)) <= 1e-10
        assert np.max(np.abs(curve.vacuum - 1.0)) <= 1e-9

    def test_trace_defect_at_t_end_names_its_rate(self, monkeypatch):
        expm = enaqt.solver._expm

        def drift_third_rate(A):
            E = expm(A)
            E[2] *= 1.0 + 2 * enaqt.solver.PULSE_TRACE_TOL
            return E

        monkeypatch.setattr(enaqt.solver, "_expm", drift_third_rate)
        cfg = build_preset("fig2", mode="pulse", t_end=20.0, points=5)
        third = cfg.gamma_grid()[2]
        with pytest.raises(NonPhysicalState, match=re.escape(f"[gamma_deph={third:g}] trace of rho(t_end)")):
            run_sweep(cfg)

    @pytest.mark.parametrize("name", ["fig3d", "fig3g"])
    def test_trace_defect_stays_below_the_bound(self, name):
        # the presets whose grids reach gamma = 1e5, ||G||_1 t_end ~ 2.3e6
        cfg = build_preset(name, mode="pulse", t_end=20.0)
        spec, H, rho0 = pulse_start(cfg)
        prop = SectorPropagator(H, spec, 0.0, cfg.gamma_ext)
        y, _ = prop.pulse(cfg.gamma_grid(), prop.coordinates(rho0), cfg.t_end)
        defect = np.abs(y[:, prop.sec.pops].sum(axis=1) - 1.0)
        assert defect.max() <= 1e-9 < enaqt.solver.PULSE_TRACE_TOL

    def test_builds_the_generator_and_checks_the_start_state_once(self, monkeypatch):
        calls = {"generator_entries": 0, "apply_liouvillian": 0, "check_density_matrix": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        # the sweep resolves only check_density_matrix, the solver all three
        for module, name in ((enaqt.sweep, "check_density_matrix"),
                             (enaqt.solver, "check_density_matrix"),
                             (enaqt.solver, "generator_entries"),
                             (enaqt.solver, "apply_liouvillian")):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        cfg = build_preset("fig2", mode="pulse", t_end=5.0, points=7)
        run_sweep(cfg)
        # one set of closed-form entries, projected onto the sector; the
        # action is never applied
        assert calls == {"generator_entries": 1, "apply_liouvillian": 0, "check_density_matrix": 1}

    def test_error_names_the_first_rate_of_its_block(self, monkeypatch):
        expm = enaqt.solver._expm
        calls = []

        def fail_second_block(A):
            calls.append(A.shape)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return expm(A)

        monkeypatch.setattr(enaqt.solver, "_expm", fail_second_block)
        cfg = build_preset("fig2", mode="pulse", t_end=20.0, points=20, gamma_min=1e-2, gamma_max=1e2)
        # fig2's 51-square bordered generator, bordered once more by the
        # start state, takes BLOCK_ENTRIES // 52^2 = 6 rates per block
        size = enaqt.solver.BLOCK_ENTRIES // 52**2
        first = cfg.gamma_grid()[size]
        with pytest.raises(np.linalg.LinAlgError, match=re.escape(f"[gamma_deph={first:g}] Singular matrix")):
            run_sweep(cfg)
        assert calls == [(size, 52, 52)] * 2


class TestSteadyGenerators:
    """A steady sweep assembles no generator; only a point the eigenbasis solve gates takes its entries."""

    @staticmethod
    def count_projections(monkeypatch, cfg) -> tuple[list[str], SweepCurve]:
        """The closed-form entries taken, and the projections made, by a sweep of cfg, in call order."""
        calls = []
        entries, project = enaqt.solver.generator_entries, enaqt.solver._Sector.project

        def counted_entries(*args):
            calls.append("entries")
            return entries(*args)

        def counted_project(*args):
            calls.append("project")
            return project(*args)

        monkeypatch.setattr(enaqt.solver, "generator_entries", counted_entries)
        monkeypatch.setattr(enaqt.solver._Sector, "project", counted_project)
        curve, _ = run_sweep(cfg)
        return calls, curve

    def test_eigenbasis_sweep_assembles_none(self, monkeypatch):
        calls, curve = self.count_projections(monkeypatch, build_preset("fig1"))
        assert calls == [] and set(curve.method) == {"eigenbasis"}

    def test_each_gated_point_projects_its_entries_once(self, monkeypatch):
        # H_eff of a dimer with its trap at gamma_ext = 4t is defective:
        # cond(V) gates all 5 points, and the sector LU of each takes the
        # generator's entries at its rate and projects them once
        spec = generate_geometry("chain", 2, Uniform(0.0), Uniform(1.0), inject={1}, extract={2})
        cfg = SweepConfig(network=spec, gamma_inj=1.0, gamma_ext=4.0, gamma_min=0.1, gamma_max=10.0,
                          points=5)
        calls, curve = self.count_projections(monkeypatch, cfg)
        assert calls == ["entries", "project"] * 5 and set(curve.method) == {"sector_lu"}


class TestConfigValidation:
    @pytest.mark.parametrize("site", [-1, 0, 8, 1.5, 1.0, "1", True, False])
    def test_pulse_site_outside_the_network(self, site):
        with pytest.raises(ValueError, match=r"pulse_site .*1\.\.7"):
            build_preset("fig2", mode="pulse", t_end=20.0, pulse_site=site)

    @pytest.mark.parametrize("mode", ["pulse", "steady"])
    @pytest.mark.parametrize("t_end", [np.inf, np.nan])
    def test_t_end_must_be_finite(self, chain2_cfg, mode, t_end):
        with pytest.raises(ValueError, match="t_end must be finite"):
            replace(chain2_cfg, mode=mode, t_end=t_end)

    @pytest.mark.parametrize("mode", ["pulse", "steady"])
    @pytest.mark.parametrize("t_end", [True, False, "20"])
    def test_t_end_must_be_a_number(self, chain2_cfg, mode, t_end):
        # True is an Integral, and was once taken as a 1 ps horizon
        with pytest.raises(ValueError, match="t_end must be a number of picoseconds"):
            replace(chain2_cfg, mode=mode, t_end=t_end)

    @pytest.mark.parametrize("field,value", [("t_end", 20.0), ("pulse_site", 3), ("pulse_site", 99)])
    def test_steady_sweep_takes_no_pulse_fields(self, field, value):
        with pytest.raises(ValueError, match=r"a steady sweep takes no t_end or pulse_site"):
            build_preset("fig1", **{field: value})

    def test_injection_rate_defaults_by_mode(self, chain2_cfg):
        # a pulse injects nothing: its config holds 0, a steady one the default rate
        pulse = build_preset("fig2", mode="pulse", t_end=5.0, points=5)
        assert (pulse.gamma_inj, config_to_dict(pulse)["gamma_inj"]) == (0.0, 0.0)
        assert build_preset("fig2").gamma_inj == 5.0
        assert SweepConfig(network=chain2_cfg.network).gamma_inj == 5.0
        explicit = SweepConfig(network=chain2_cfg.network, mode="pulse", t_end=5.0, gamma_inj=0.0)
        assert explicit.gamma_inj == 0.0

    @pytest.mark.parametrize("rate", [100.0, 5.0, 1e-300])
    def test_pulse_rejects_an_injection_rate(self, rate):
        with pytest.raises(ValueError, match=r"pulse mode injects nothing: gamma_inj must be 0"):
            build_preset("fig2", mode="pulse", t_end=5.0, points=5, gamma_inj=rate)

    @pytest.mark.parametrize("network", ["x", None, 3, {"sites": []}])
    def test_network_must_be_a_network_spec(self, network):
        # a string once failed only at its n_sites, with an AttributeError
        with pytest.raises(ValueError, match=f"network must be a NetworkSpec, got {type(network).__name__}"):
            SweepConfig(network=network)

    def test_too_few_points(self, chain2_cfg):
        with pytest.raises(ValueError):
            SweepConfig(network=chain2_cfg.network, points=4)

    def test_log_needs_positive_min(self, chain2_cfg):
        with pytest.raises(ValueError):
            SweepConfig(network=chain2_cfg.network, gamma_min=0.0)

    def test_pulse_needs_horizon(self, chain2_cfg):
        with pytest.raises(ValueError):
            SweepConfig(network=chain2_cfg.network, mode="pulse")

    def test_bad_spacing(self, chain2_cfg):
        with pytest.raises(ValueError):
            SweepConfig(network=chain2_cfg.network, spacing="cubic")

    @pytest.mark.parametrize("gamma_min, gamma_max", [(1e2, 1e2), (1e3, 1e2)])
    def test_grid_must_increase(self, chain2_cfg, gamma_min, gamma_max):
        with pytest.raises(ValueError, match="gamma_min must be below gamma_max"):
            SweepConfig(network=chain2_cfg.network, gamma_min=gamma_min, gamma_max=gamma_max)

    def test_unknown_mode(self, chain2_cfg):
        with pytest.raises(ValueError, match="mode must be 'steady' or 'pulse', got 'transient'"):
            SweepConfig(network=chain2_cfg.network, mode="transient")

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown preset 'fig4'"):
            build_preset("fig4")

    @pytest.mark.parametrize("field,value", [
        ("gamma_min", np.nan), ("gamma_min", -np.inf),
        ("gamma_max", np.inf), ("gamma_max", np.nan),
        ("gamma_inj", np.nan), ("gamma_inj", np.inf), ("gamma_inj", -1.0),
        ("gamma_ext", np.nan), ("gamma_ext", np.inf), ("gamma_ext", -1.0),
    ] + [(field, value) for field in ("gamma_min", "gamma_max", "gamma_inj", "gamma_ext")
         for value in (True, False, "5")])
    def test_rates_must_be_finite_and_nonnegative(self, chain2_cfg, field, value):
        with pytest.raises(ValueError, match=field):
            replace(chain2_cfg, **{field: value})

    def test_linear_grid_needs_nonnegative_min(self, chain2_cfg):
        with pytest.raises(ValueError, match="gamma_min"):
            replace(chain2_cfg, spacing="linear", gamma_min=-1.0)

    @pytest.mark.parametrize("points", [60.0, 5.5, "60", None, True, False])
    def test_points_must_be_an_integer(self, chain2_cfg, points):
        with pytest.raises(ValueError, match="points must be an integer"):
            replace(chain2_cfg, points=points)

    def test_integer_like_points_are_accepted(self, chain2_cfg):
        assert replace(chain2_cfg, points=np.int64(7)).gamma_grid().size == 7

    @pytest.mark.parametrize("seed", [True, False, 1.5, "3", -1])
    @pytest.mark.parametrize("make", ["SweepConfig", "fig3d", "fig1"])
    def test_seed_must_be_a_nonnegative_integer(self, chain2_cfg, make, seed):
        # True drew fig3d with seed 1 and was echoed; fig1 draws nothing but takes no bad seed either
        with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {re.escape(repr(seed))}"):
            replace(chain2_cfg, seed=seed) if make == "SweepConfig" else build_preset(make, seed=seed)


# floats whose shortest repr is easy to get wrong: signed zeros, the
# smallest subnormal, the largest finite double, a sum that is not 0.3
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
EDGE_CURVE = SweepCurve(
    gamma_grid=[0.0, 5e-324, 0.1 + 0.2, 1.7976931348623157e308],
    j_p=[0.0, -0.0, 5e-324, 1.7976931348623157e308],
    j_q=[-0.0, -5e-324, 0.1 + 0.2, -1.7976931348623157e308],
    delta_n=EDGE_FLOATS[:4],
    vacuum=EDGE_FLOATS[1:],
    occupations=[EDGE_FLOATS[:2], EDGE_FLOATS[1:3], EDGE_FLOATS[2:4], EDGE_FLOATS[3:]],
    method=("eigenbasis", "sector_lu", "eigenbasis", "sector_lu"),
    residual=EDGE_FLOATS[:4],
    rcond=[0.1 + 0.2, np.nan, 5e-324, np.nan],
    min_eigenvalue=[-0.0, -5e-324, 0.0, -1.7976931348623157e308],
)


@st.composite
def edge_curves(draw):
    """Sweep curves whose columns hold edge floats among arbitrary finite ones."""
    points, sites = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    edge = st.sampled_from(EDGE_FLOATS + [-5e-324, -1.7976931348623157e308])
    finite = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False))
    nonnegative = st.one_of(st.sampled_from(EDGE_FLOATS),
                            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))

    def column(values):
        return draw(st.lists(values, min_size=points, max_size=points))

    grid = draw(st.lists(nonnegative, min_size=points, max_size=points, unique=True))
    return SweepCurve(
        gamma_grid=sorted(grid),
        j_p=column(nonnegative),
        j_q=column(finite),
        delta_n=column(finite),
        vacuum=column(finite),
        occupations=[draw(st.lists(finite, min_size=sites, max_size=sites)) for _ in range(points)],
        method=column(st.sampled_from(["eigenbasis", "sector_lu"])),
        residual=column(finite),
        rcond=column(st.one_of(st.just(np.nan), finite)),
        min_eigenvalue=column(finite),
    )


def assert_same_bits(back: SweepCurve, curve: SweepCurve) -> None:
    """Every float column of back holds exactly the bits of curve's: signed zeros and NaN included."""
    for name in ("gamma_grid", "j_p", "j_q", "delta_n", "vacuum", "occupations",
                 "residual", "rcond", "min_eigenvalue"):
        a, b = getattr(back, name), getattr(curve, name)
        assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert back.method == curve.method


@pytest.fixture(scope="module")
def emit_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("emit")


class TestEmission:
    @settings(max_examples=60, deadline=None)
    @given(edge_curves())
    @example(EDGE_CURVE)
    def test_json_round_trip_keeps_every_bit(self, emit_dir, curve):
        cls = SweepClassification(kind="enaqt", gamma_star=0.1 + 0.2, delta_n_gamma_star=5e-324,
                                  j_p_argmax=1, delta_n_argmax=0)
        path = emit_dir / "edge.json"
        emit_results(curve, cls, "json", path)
        back, back_cls, _ = read_results_json(path)
        assert_same_bits(back, curve)
        assert back_cls == cls

    def test_json_is_one_line(self, tmp_path, chain2_cfg, chain2_result):
        curve, cls = chain2_result
        path = tmp_path / "out.json"
        emit_results(curve, cls, "json", path, config=chain2_cfg)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text)["curve"]["j_p"] == curve.j_p.tolist()

    def test_indented_json_still_reads(self, tmp_path, chain2_cfg, chain2_result):
        # files written before the compact layout are json.dump(doc, fh, indent=2) of the same document
        curve, cls = chain2_result
        curve = replace(curve, method=("eigenbasis", "sector_lu") * 2 + ("eigenbasis",),
                        rcond=np.where(np.arange(5) % 2, np.nan, curve.rcond))
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        emit_results(curve, cls, "json", compact, config=chain2_cfg)
        with open(indented, "w", encoding="utf-8") as fh:
            json.dump(json.loads(compact.read_text(encoding="utf-8")), fh, indent=2)
            fh.write("\n")
        assert indented.read_text(encoding="utf-8").count("\n") > 100
        new, old = read_results_json(compact), read_results_json(indented)
        assert_same_bits(old[0], new[0])
        assert_same_bits(old[0], curve)
        assert old[1:] == new[1:] == (cls, config_to_dict(chain2_cfg))

    def test_csv_rows_and_columns(self, tmp_path, chain2_cfg, chain2_result):
        curve, cls = chain2_result
        path = tmp_path / "out.csv"
        emit_results(curve, cls, "csv", path, config=chain2_cfg)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("# enaqt 0.1.0 config=")
        assert lines[1] == "gamma_deph,j_p,j_q,delta_n,vacuum,n_1,n_2"
        data = lines[2:]
        assert len(data) == 5
        assert all(len(row.split(",")) == 7 for row in data)
        gammas = [float(r.split(",")[0]) for r in data]
        assert gammas == sorted(gammas)

    def test_csv_round_trip_is_bit_exact(self, tmp_path, chain2_result):
        curve, cls = chain2_result
        path = tmp_path / "out.csv"
        emit_results(curve, cls, "csv", path)
        back = read_results_csv(path)
        assert np.array_equal(back.gamma_grid, curve.gamma_grid)
        assert np.array_equal(back.j_p, curve.j_p)
        assert np.array_equal(back.j_q, curve.j_q)
        assert np.array_equal(back.delta_n, curve.delta_n)
        assert np.array_equal(back.occupations, curve.occupations)

    def test_json_round_trip_is_bit_exact(self, tmp_path, chain2_cfg, chain2_result):
        curve, cls = chain2_result
        path = tmp_path / "out.json"
        emit_results(curve, cls, "json", path, config=chain2_cfg)
        back, back_cls, config = read_results_json(path)
        assert np.array_equal(back.gamma_grid, curve.gamma_grid)
        assert np.array_equal(back.j_p, curve.j_p)
        assert np.array_equal(back.occupations, curve.occupations)
        assert back_cls == cls
        assert config == config_to_dict(chain2_cfg)

    @pytest.mark.parametrize("changes, plain", [
        (dict(points=np.int64(10)), dict(points=10)),
        (dict(seed=np.int64(3)), dict(seed=3)),
        (dict(gamma_min=np.float32(0.1)), dict(gamma_min=float(np.float32(0.1)))),
        (dict(gamma_min=Fraction(1, 10)), dict(gamma_min=0.1)),
        (dict(t_end=np.float32(5.0), pulse_site=np.int64(1)), dict(t_end=5.0, pulse_site=1)),
    ])
    def test_json_of_numpy_and_fraction_fields_equals_the_plain_one(self, tmp_path, chain2_cfg, changes, plain):
        # these ran the whole sweep and then failed in json.dumps (or, for the Fraction, in np.log10)
        pulse = dict(mode="pulse", gamma_inj=0.0) if "t_end" in changes else {}
        paths = tmp_path / "given.json", tmp_path / "plain.json"
        for fields, path in zip((changes, plain), paths):
            cfg = replace(chain2_cfg, **pulse, **fields)
            emit_results(*run_sweep(cfg), "json", path, config=cfg)
        given_doc, plain_doc = (json.loads(path.read_text()) for path in paths)
        assert given_doc["config"] == plain_doc["config"]
        assert given_doc["config_hash"] == plain_doc["config_hash"]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_diagnostics_round_trip(self, tmp_path, chain2_result):
        curve, cls = chain2_result
        path = tmp_path / "out.json"
        emit_results(curve, cls, "json", path)
        doc = json.loads(path.read_text())
        assert doc["diagnostics"]["method"] == list(curve.method)
        back, _, _ = read_results_json(path)
        assert back.method == curve.method
        assert np.array_equal(back.residual, curve.residual)
        assert np.array_equal(back.rcond, curve.rcond)
        assert np.array_equal(back.min_eigenvalue, curve.min_eigenvalue)

    def test_json_nan_rcond_round_trips(self, tmp_path, chain2_result):
        # sector-LU points record no rcond
        curve, cls = chain2_result
        curve = replace(curve, method=("sector_lu",) * 5, rcond=np.full(5, np.nan))
        path = tmp_path / "out.json"
        emit_results(curve, cls, "json", path)
        back, _, _ = read_results_json(path)
        assert back.method == curve.method and np.all(np.isnan(back.rcond))

    def test_json_from_before_rcond_is_rejected(self, tmp_path, chain2_result):
        curve, cls = chain2_result
        path = tmp_path / "out.json"
        emit_results(curve, cls, "json", path)
        doc = json.loads(path.read_text())
        del doc["diagnostics"]["rcond"], doc["diagnostics"]["min_eigenvalue"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="recorded together"):
            read_results_json(path)

    def test_json_with_short_columns_is_rejected(self, tmp_path, chain2_result):
        curve, cls = chain2_result
        path = tmp_path / "out.json"
        emit_results(curve, cls, "json", path)
        doc = json.loads(path.read_text())
        doc["curve"]["j_p"] = doc["curve"]["j_p"][:3]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="j_p needs one entry per grid point"):
            read_results_json(path)
        doc["curve"]["j_p"] = curve.j_p.tolist()
        doc["curve"]["occupations"] = doc["curve"]["occupations"][:2]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="occupations needs one row per grid point"):
            read_results_json(path)

    def test_csv_without_data_rows_is_rejected(self, tmp_path, chain2_result):
        curve, cls = chain2_result
        path = tmp_path / "out.csv"
        emit_results(curve, cls, "csv", path)
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:2]))
        with pytest.raises(ValueError, match="holds no data rows"):
            read_results_csv(path)

    def test_json_without_diagnostics_is_accepted(self, tmp_path, chain2_result):
        curve, cls = chain2_result
        path = tmp_path / "out.json"
        emit_results(curve, cls, "json", path)
        doc = json.loads(path.read_text())
        del doc["diagnostics"]
        path.write_text(json.dumps(doc))
        back, back_cls, _ = read_results_json(path)
        assert back.method is None and back.residual is None
        assert np.array_equal(back.j_p, curve.j_p)
        assert back_cls == cls

    def test_json_environment_block_round_trips(self, tmp_path, chain2_result):
        import scipy

        curve, cls = chain2_result
        path = tmp_path / "out.json"
        emit_results(curve, cls, "json", path)
        doc = json.loads(path.read_text())
        env = doc["environment"]
        assert env["numpy"]["version"] == np.__version__
        assert env["scipy"]["version"] == scipy.__version__
        assert all(env[lib]["blas"].keys() == {"name", "version"} for lib in ("numpy", "scipy"))
        assert "OPENBLAS_NUM_THREADS" in env and "OMP_NUM_THREADS" in env
        with_block = read_results_json(path)
        del doc["environment"]
        path.write_text(json.dumps(doc))
        without_block = read_results_json(path)
        for back in (with_block, without_block):
            assert np.array_equal(back[0].j_p, curve.j_p)
            assert back[0].method == curve.method and back[1] == cls

    def test_unknown_format(self, tmp_path, chain2_result):
        curve, cls = chain2_result
        with pytest.raises(ValueError):
            emit_results(curve, cls, "parquet", tmp_path / "x")
