import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enaqt.errors import NonUniqueSteadyState
from enaqt.lindblad import ChannelSet
from enaqt.network import Uniform, Unit, assemble_hamiltonian, generate_geometry, to_internal_units
from enaqt.presets import build_preset
from enaqt.reference import (
    ChainParams,
    analytic_chain_current,
    analytic_chain_occupations,
    annihilation_op,
    brute_force_steady_state,
    build_liouvillian,
    classical_hopping_steady_state,
    creation_op,
    dissipator,
)
from enaqt.solver import steady_state
from enaqt.sweep import SweepConfig, run_sweep


def end_to_end_chain(L, t, gi, ge, gd):
    """A uniform L-site chain driven end to end: its spec, Hamiltonian and channels."""
    spec = generate_geometry("chain", L, Uniform(0.0), Uniform(t), inject={1}, extract={L})
    return spec, assemble_hamiltonian(spec), ChannelSet(gi, ge, gd)


class TestAnalyticOccupations:
    def test_two_site_fractions(self):
        occ = analytic_chain_occupations(ChainParams(2, 1.0, 1.0, 1.0, 0.0))
        assert occ.values[0] == pytest.approx(5 / 13, abs=1e-15)
        assert occ.values[1] == pytest.approx(4 / 13, abs=1e-15)
        assert occ.vacuum == pytest.approx(4 / 13, abs=1e-15)

    def test_ballistic_limit_is_flat(self):
        # vanishing extraction: every site weight collapses to 4 t^2
        occ = analytic_chain_occupations(ChainParams(5, 2.0, 1.0, 1e-9, 0.0))
        assert np.max(np.abs(occ.values - occ.values[0])) < 1e-9

    def test_strong_dephasing_gradient_is_linear_in_distance(self):
        p = ChainParams(6, 1.0, 3.0, 2.0, 1e4)
        occ = analytic_chain_occupations(p).values
        # interior weights are dominated by 2 (L - i) gamma_d gamma_e
        ratios = occ[:-1] / (p.L - np.arange(1, p.L))
        assert np.max(np.abs(ratios - ratios[0])) < 1e-3 * ratios[0]

    def test_requires_injection(self):
        with pytest.raises(ZeroDivisionError):
            analytic_chain_occupations(ChainParams(3, 1.0, 0.0, 1.0, 0.0))

    @settings(max_examples=40, deadline=None)
    @given(
        L=st.integers(2, 7),
        t=st.floats(0.1, 50.0),
        gi=st.floats(0.1, 50.0),
        ge=st.floats(0.1, 50.0),
        gd=st.floats(0.0, 50.0),
    )
    def test_occupations_and_vacuum_sum_to_one(self, L, t, gi, ge, gd):
        occ = analytic_chain_occupations(ChainParams(L, t, gi, ge, gd))
        assert occ.values.sum() + occ.vacuum == pytest.approx(1.0, abs=1e-14)


    @pytest.mark.parametrize("L", [1, 0])
    def test_chain_needs_two_sites(self, L):
        with pytest.raises(ValueError, match=f"chain length must be >= 2, got {L}"):
            ChainParams(L, 1.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("L", [2.5, 3.0, True, "3", None])
    def test_chain_length_must_be_an_integer(self, L):
        # L = 2.5 would give three occupations
        with pytest.raises(ValueError, match=f"chain length L must be an integer, got {re.escape(repr(L))}"):
            ChainParams(L, 1.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("field, value, rule", [
        ("t", np.inf, "finite"),
        ("gamma_inj", np.inf, "finite and nonnegative"),
        ("gamma_ext", -1.0, "finite and nonnegative"),
    ])
    def test_refuses_values_the_closed_form_cannot_take(self, field, value, rule):
        # t = inf gave NaN occupations, gamma_inj = inf finite ones and
        # gamma_ext = -1 the occupations (-0.33, 0.33, 1.0, 1.33)
        args = dict(L=4, t=1.0, gamma_inj=1.0, gamma_ext=1.0, gamma_deph=1.0)
        with pytest.raises(ValueError, match=f"{field} must be {rule}, got {value!r}"):
            ChainParams(**{**args, field: value})

    def test_numpy_integer_chain_length(self):
        occ = analytic_chain_occupations(ChainParams(np.int64(3), 1.0, 1.0, 1.0, 0.0))
        assert occ.values.shape == (3,)


class TestAnalyticCurrent:
    def test_two_site_value(self):
        assert analytic_chain_current(ChainParams(2, 1.0, 1.0, 1.0, 0.0)) == pytest.approx(
            4 / 13, abs=1e-15
        )

    def test_vanishes_at_extreme_dephasing(self):
        assert analytic_chain_current(ChainParams(4, 1.0, 1.0, 1.0, 1e12)) < 1e-9

    def test_monotone_decreasing_in_dephasing(self):
        grid = np.logspace(-2, 3, 30)
        vals = [analytic_chain_current(ChainParams(5, 2.0, 5.0, 5.0, g)) for g in grid]
        assert np.all(np.diff(vals) < 0)


class TestBruteForce:
    def test_single_site_balance(self):
        d = 2
        L = dissipator(creation_op(d, 1), 3.0) + dissipator(annihilation_op(d, 1), 3.0)
        rho = brute_force_steady_state(L)
        assert np.allclose(rho, np.diag([0.5, 0.5]), atol=1e-12)

    def test_agrees_with_solver_and_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(12):
            L_sites = int(rng.integers(2, 8))
            t, gi, ge, gd = rng.uniform(0.1, 100.0, size=4)
            spec, H, channels = end_to_end_chain(L_sites, t, gi, ge, gd)
            rho_bf = brute_force_steady_state(build_liouvillian(H, channels, spec))
            rho_ls = steady_state(H, channels, spec).rho
            assert np.max(np.abs(rho_bf - rho_ls)) < 1e-8
            ana = analytic_chain_occupations(ChainParams(L_sites, t, gi, ge, gd))
            assert np.max(np.abs(np.diag(rho_bf).real[1:] - ana.values)) < 1e-8

    def test_degenerate_generator_rejected(self):
        spec = generate_geometry("chain", 3, Uniform(0.0), Uniform(1.0), inject={1}, extract={3})
        L = build_liouvillian(assemble_hamiltonian(spec), ChannelSet(0, 0, 0), spec)
        with pytest.raises(NonUniqueSteadyState):
            brute_force_steady_state(L)


def hopping_gap(cfg):
    """The grid and the relative gap of the sweep's J_p to the classical hopping current."""
    curve, _ = run_sweep(cfg)
    spec = cfg.network
    sinks = [s - 1 for s in sorted(spec.extract_sites)]
    ref = np.array([
        cfg.gamma_ext * classical_hopping_steady_state(
            spec, ChannelSet(cfg.gamma_inj, cfg.gamma_ext, gamma)).values[sinks].sum()
        for gamma in curve.gamma_grid
    ])
    return curve.gamma_grid, np.abs(curve.j_p - ref) / curve.j_p


class TestClassicalHopping:
    """The Haken-Strobl rate equation as the strong-dephasing limit of the sweep."""

    def test_two_site_rates_give_the_analytic_chain(self):
        spec = generate_geometry("chain", 2, Uniform(0.0), Uniform(1.0), inject={1}, extract={2})
        occ = classical_hopping_steady_state(spec, ChannelSet(1.0, 1.0, 0.0))
        assert occ.values == pytest.approx([5 / 13, 4 / 13], abs=1e-15)
        assert occ.vacuum == pytest.approx(4 / 13, abs=1e-15)

    def test_applies_the_spec_unit(self):
        # a sweep's spec keeps its file unit; the oracle converts it on entry
        spec = build_preset("fig3a").network
        assert spec.unit == Unit.WAVENUMBER
        channels = ChannelSet(5.0, 5.0, 1e3)
        given = classical_hopping_steady_state(spec, channels)
        converted = classical_hopping_steady_state(to_internal_units(spec), channels)
        assert np.array_equal(given.values, converted.values) and given.vacuum == converted.vacuum

    @pytest.mark.parametrize("name", ["fig1", "chain12"])
    def test_exact_on_uniform_end_to_end_chains(self, name):
        # fig1 is a 7-site chain; the match holds at every rate
        grid = dict(gamma_min=1e-2, gamma_max=1e6, points=9)
        if name == "fig1":
            cfg = replace(build_preset(name), **grid)
        else:
            network = generate_geometry("chain", 12, Uniform(1.23e4), Uniform(60.0),
                                        inject={1}, extract={12}, unit=Unit.WAVENUMBER)
            cfg = SweepConfig(network=network, **grid)
        _, gap = hopping_gap(cfg)
        assert np.all(gap <= 1e-12), gap

    @pytest.mark.parametrize("name", ["fig2", "fig3a", "fig3c"])
    def test_gap_falls_as_gamma_to_the_minus_two(self, name):
        # 7.7e-11 on fig2 at 1e6, 1.2e-10 on fig3a and 1.3e-10 on fig3c
        gamma, gap = hopping_gap(replace(build_preset(name), gamma_min=1e4, gamma_max=1e6, points=5))
        slope = np.polyfit(np.log(gamma), np.log(gap), 1)[0]
        assert -2.05 <= slope <= -1.95, slope
        assert 1e-11 <= gap[-1] <= 1e-9
