"""Every public entry point reads its numbers by the same rules.

For each numeric field of each entry point, a drawn value either raises a
ValueError (or a subclass) whose message names the field, or, when the value
is a number of the field's kind (numpy scalars and Fractions included), it
stores the same Python object and gives the same output as the plain Python
number it equals.  A value that is a number of the right kind may still be
out of range; it must then fail as the plain number does.
"""

import builtins
import contextlib
import dataclasses
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enaqt.errors
from enaqt import (
    ChannelSet,
    NetworkSpec,
    RandomUniform,
    SweepConfig,
    Uniform,
    assemble_hamiltonian,
    build_preset,
    detect_inversion_symmetry,
    generate_geometry,
    propagate,
)
from enaqt.cli import main
from enaqt.lindblad import apply_liouvillian
from enaqt.network import network_from_dict, network_to_dict
from enaqt.reference import ChainParams, analytic_chain_occupations
from enaqt.results import config_hash
from enaqt.sweep import config_to_dict

VALUES = st.one_of(
    st.booleans(),
    st.sampled_from(["3", "0.5", "1e3", "-1", "nan", "inf"]),
    st.integers(-3, 40),
    st.floats(),
    st.integers(-3, 40).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.fractions(min_value=-5, max_value=50, max_denominator=8),
)

CHAIN3 = NetworkSpec(3, (0.0, 0.0, 0.0), ((1, 2, 1.0), (2, 3, 1.0)), {1}, {3})
CHAIN2 = NetworkSpec(2, (0.0, 0.0), ((1, 2, 1.0),), {1}, {2})
RHO2 = np.diag([0.5, 0.25, 0.25]).astype(complex)


def plain(value, kind):
    """The plain Python number a field of `kind` reads `value` as, or None where it must refuse it."""
    if not isinstance(value, (int, float, np.integer, np.floating, Fraction)) or isinstance(value, bool):
        return None
    if kind == "real":
        return float(value)
    return int(value) if isinstance(value, (int, np.integer)) else None


def canonical(x):
    """A value that compares equal only for objects of the same types and bits (NaN equals NaN)."""
    if isinstance(x, np.ndarray):
        return "ndarray", x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(canonical(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return type(x).__name__, tuple(canonical(v) for v in x)
    if isinstance(x, (set, frozenset)):
        return type(x).__name__, tuple(sorted(canonical(v) for v in x))
    if isinstance(x, dict):
        return "dict", tuple((k, canonical(v)) for k, v in x.items())
    return type(x).__name__, repr(x)


def spec_case(field, kind, names, **changes):
    def build(v):
        fields = dict(n_sites=3, energies=(0.0, 0.0, 0.0), couplings=((1, 2, 1.0), (2, 3, 1.0)),
                      inject_sites={1}, extract_sites={3})
        fields.update({k: make(v) for k, make in changes.items()})
        spec = NetworkSpec(**fields)
        return spec, assemble_hamiltonian(spec)
    return field, kind, names, build


def file_case(entry, kind, names, put):
    def build(v):
        doc = network_to_dict(CHAIN3)
        put(doc, v)
        return network_from_dict(doc)
    return entry, kind, names, build


def config_case(field, kind, names, **fixed):
    def build(v):
        cfg = SweepConfig(network=CHAIN2, **fixed, **{field: v})
        echo = config_to_dict(cfg)
        return getattr(cfg, field), json.dumps(echo), config_hash(echo), cfg.gamma_grid()
    return f"SweepConfig.{field}", kind, names, build


def geometry(**kw):
    args = dict(kind="chain", params=3, energy_spec=Uniform(0.0), coupling_spec=Uniform(1.0),
                inject={1}, extract={3})
    args.update(kw)
    return generate_geometry(**args)


def chain_case(field, kind, names):
    def build(v):
        p = ChainParams(**{**dict(L=4, t=1.0, gamma_inj=1.0, gamma_ext=1.0, gamma_deph=1.0), field: v})
        return getattr(p, field), analytic_chain_occupations(p)
    return f"ChainParams.{field}", kind, names, build


def _propagate(**kw):
    args = dict(t_end=1.0, n_eval=5)
    args.update(kw)
    return propagate(assemble_hamiltonian(CHAIN2), ChannelSet(1.0, 1.0, 1.0), CHAIN2, RHO2, **args)


def _preset(name):
    def build(v):
        cfg = build_preset(name, seed=v, points=5)
        return cfg.seed, cfg.network
    return build


def _uniform(v):
    spec = Uniform(v)
    return spec.value, geometry(energy_spec=spec)


def _random(field):
    def build(v):
        spec = RandomUniform(**{"lo": 0.0, "hi": 50.0, field: v})
        return getattr(spec, field), geometry(energy_spec=spec, seed=3)
    return build


def _channel(v):
    channels = ChannelSet(1.0, 1.0, v)
    return channels.gamma_deph, apply_liouvillian(assemble_hamiltonian(CHAIN2), channels, CHAIN2, RHO2)


# (entry and field, kind of number, regex every ValueError message must match, build)
CASES = [
    spec_case("NetworkSpec.n_sites", "count", "n_sites|energies", n_sites=lambda v: v),
    spec_case("NetworkSpec.energies", "real", r"energies\[1\]|site 2", energies=lambda v: (0.0, v, 0.0)),
    spec_case("NetworkSpec.couplings.t", "real", r"couplings\[0\]|edge", couplings=lambda v: ((1, 2, v), (2, 3, 1.0))),
    spec_case("NetworkSpec.couplings.i", "count", r"couplings\[0\]|edge", couplings=lambda v: ((v, 3, 1.0),)),
    spec_case("NetworkSpec.inject_sites", "count", "inject_sites", inject_sites=lambda v: {v}),
    ("generate_geometry.params", "count", "chain|extract_sites", lambda v: geometry(params=v)),
    ("generate_geometry.seed", "count", "seed", lambda v: geometry(energy_spec=RandomUniform(0.0, 1.0), seed=v)),
    file_case("network_from_dict.sites.energy", "real", r"sites\[1\]\.energy|site 2",
              lambda doc, v: doc["sites"][1].update(energy=v)),
    file_case("network_from_dict.edges.t", "real", r"edges\[0\]\.t|edge", lambda doc, v: doc["edges"][0].update(t=v)),
    file_case("network_from_dict.edges.i", "count", r"edges\[1\]\.i|edge", lambda doc, v: doc["edges"][1].update(i=v)),
    file_case("network_from_dict.extract", "count", r"extract", lambda doc, v: doc.update(extract=[v])),
    ("Uniform.value", "real", r"Uniform\.value|non-finite", _uniform),
    ("RandomUniform.lo", "real", r"RandomUniform\.lo|lo < hi", _random("lo")),
    ("RandomUniform.hi", "real", r"RandomUniform\.hi|lo < hi", _random("hi")),
    ("ChannelSet.gamma_deph", "real", "gamma_deph", _channel),
    config_case("points", "count", "points"),
    config_case("gamma_min", "real", "gamma_min"),
    config_case("gamma_max", "real", "gamma_max"),
    config_case("gamma_inj", "real", "gamma_inj"),
    config_case("gamma_ext", "real", "gamma_ext"),
    config_case("t_end", "real", "t_end", mode="pulse"),
    config_case("pulse_site", "count", "pulse_site", mode="pulse", t_end=1.0),
    config_case("seed", "count", "seed"),
    ("propagate.t_end", "real", "t_end", lambda v: _propagate(t_end=v)),
    ("propagate.n_eval", "count", "n_eval", lambda v: _propagate(n_eval=v)),
    chain_case("L", "count", "chain length"),
    chain_case("t", "real", "t"),
    chain_case("gamma_deph", "real", "gamma_deph"),
    ("build_preset.seed(fig3d)", "count", "seed", _preset("fig3d")),
    ("build_preset.seed(fig1)", "count", "seed", _preset("fig1")),
    ("detect_inversion_symmetry.site_limit", "count", "site_limit",
     lambda v: detect_inversion_symmetry(CHAIN3, site_limit=v)),
]


def outcome(build, value):
    try:
        return "ok", canonical(build(value))
    except Exception as exc:  # the comparison below decides which errors are right
        return "raised", exc


@pytest.mark.parametrize("entry, kind, names, build", CASES, ids=[c[0] for c in CASES])
@settings(max_examples=60, deadline=None)
@given(value=VALUES)
def test_entry_points_read_numbers_by_one_rule(entry, kind, names, build, value):
    status, result = outcome(build, value)
    if status == "raised" and isinstance(result, ValueError):
        assert re.search(names, str(result)), f"{entry}={value!r}: {result!r} names no field"
    number = plain(value, kind)
    if number is None:
        assert status == "raised" and isinstance(result, ValueError), f"{entry} took {value!r}"
        return
    expected_status, expected = outcome(build, number)
    assert status == expected_status, f"{entry}={value!r}: {result!r} but {number!r} gives {expected!r}"
    if status == "raised":
        assert type(result) is type(expected)
    else:
        assert result == expected


# CLI flags and the subcommand lines that carry them; "{}" is the flag's value, given after "="
# so that argparse reads a value such as -1e+16 as the value, not as an option
CLI_CASES = {
    "--points": (int, ["sweep", "--network", "{net}", "--points={}"]),
    "--gamma-min": (float, ["sweep", "--network", "{net}", "--points", "5", "--gamma-min={}"]),
    "--gamma-max": (float, ["sweep", "--network", "{net}", "--points", "5", "--gamma-max={}"]),
    "--gamma-inj": (float, ["sweep", "--network", "{net}", "--points", "5", "--gamma-inj={}"]),
    "--gamma-ext": (float, ["sweep", "--network", "{net}", "--points", "5", "--gamma-ext={}"]),
    "--seed": (int, ["sweep", "--preset", "fig3d", "--points", "5", "--seed={}"]),
    "--t-end": (float, ["pulse", "--network", "{net}", "--points", "5", "--t-end={}"]),
    "--pulse-site": (int, ["pulse", "--network", "{net}", "--points", "5", "--t-end", "1", "--pulse-site={}"]),
}


def run_cli(line, value):
    """Exit status, stdout, stderr and result file of one CLI run with a flag set to `value`."""
    with tempfile.TemporaryDirectory() as tmp:
        net, out = Path(tmp, "chain2.json"), Path(tmp, "out.csv")
        net.write_text(json.dumps(network_to_dict(CHAIN2)))
        argv = [a.format(value, net=net) for a in line] + ["--output", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
        text = stdout.getvalue().replace(str(out), "OUT")
        return status, text, stderr.getvalue(), out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("flag", CLI_CASES)
@settings(max_examples=20, deadline=None)
@given(value=VALUES)
@example(value=-1)
def test_cli_numeric_flags_read_numbers_by_one_rule(flag, value):
    convert, line = CLI_CASES[flag]
    text = str(value)
    status, stdout, stderr, data = run_cli(line, text)
    try:
        number = convert(text)
    except ValueError:
        assert status == 2 and flag in stderr, f"{flag} {text}: {stderr!r}"
        return
    assert status in (0, 1), stderr
    error = re.match(r"error: (\w+):", stderr)
    if status == 1:
        # a ValueError, from the number rules or a range check, names the flag's field
        kind = getattr(enaqt.errors, error[1], None) or getattr(builtins, error[1], None)
        if isinstance(kind, type) and issubclass(kind, ValueError):
            assert flag[2:].replace("-", "_") in stderr or flag in stderr, stderr
    assert (status, stdout, stderr, data) == run_cli(line, repr(number))
