import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import random_cubic
from enaqt.cli import main
from enaqt.network import Uniform, generate_geometry, save_network
from enaqt.results import read_results_csv, read_results_json


@pytest.fixture()
def network_file(tmp_path):
    spec = generate_geometry("chain", 3, Uniform(0.0), Uniform(1.0), inject={1}, extract={3})
    path = tmp_path / "chain3.json"
    save_network(spec, path)
    return path


def test_validate_ok(network_file, capsys):
    assert main(["validate", "--network", str(network_file)]) == 0
    assert "valid network: 3 sites" in capsys.readouterr().out


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "unit": "angular_ps",
        "sites": [{"energy": 0.0}, {"energy": 0.0}],
        "edges": [{"i": 1, "j": 1, "t": 1.0}],
        "inject": [1],
        "extract": [2],
    }))
    assert main(["validate", "--network", str(bad)]) == 1
    assert "SelfCoupling" in capsys.readouterr().err


def write_chain3(tmp_path, **changes):
    """A 3-site chain network file with the given top-level keys replaced (None drops one)."""
    doc = {
        "unit": "angular_ps",
        "sites": [{"energy": 0.0}] * 3,
        "edges": [{"i": 1, "j": 2, "t": 1.0}, {"i": 2, "j": 3, "t": 1.0}],
        "inject": [1],
        "extract": [3],
    }
    doc.update(changes)
    path = tmp_path / "net.json"
    path.write_text(json.dumps({key: value for key, value in doc.items() if value is not None}))
    return path


def test_validate_rejects_non_integer_site_indices(tmp_path, capsys):
    # int() would read these as inject [1] and edge (1, 2)
    path = write_chain3(tmp_path, inject=[1.7],
                        edges=[{"i": 1, "j": 2.9, "t": 1.0}, {"i": 2, "j": 3, "t": 1.0}])
    assert main(["validate", "--network", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: NetworkError: malformed network file: "
                            "edges[0].j must be an integer site index, got 2.9\n")


def test_validate_rejects_energies_and_couplings_that_are_not_numbers(tmp_path, capsys):
    # float() would read these as energy 1.0 and coupling 2.0
    path = write_chain3(tmp_path, sites=[{"energy": 0.0}, {"energy": True}, {"energy": 0.0}],
                        edges=[{"i": 1, "j": 2, "t": "2"}, {"i": 2, "j": 3, "t": 1.0}])
    assert main(["validate", "--network", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: NetworkError: malformed network file: "
                            "sites[1].energy must be a number, got True\n")


@pytest.mark.parametrize("changes, message", [
    (dict(edges=None), "missing key 'edges'"),
    (dict(extract=["x"]), "extract[0] must be an integer site index, got 'x'"),
])
def test_validate_malformed_file_is_a_network_error(tmp_path, capsys, changes, message):
    assert main(["validate", "--network", str(write_chain3(tmp_path, **changes))]) == 1
    assert capsys.readouterr().err == f"error: NetworkError: malformed network file: {message}\n"


@pytest.mark.parametrize("content", [b'{"sites": [', b"\xff\xfe{}"], ids=["truncated", "utf16_bom"])
def test_validate_file_that_is_not_json_is_a_network_error(tmp_path, capsys, content):
    path = tmp_path / "net.json"
    path.write_bytes(content)
    assert main(["validate", "--network", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: NetworkError: network file {path} is not "
                                              "UTF-8 JSON: ")


@pytest.fixture()
def infinite_energy_file(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text(
        '{"unit": "angular_ps", "sites": [{"energy": 0.0}, {"energy": Infinity}], '
        '"edges": [{"i": 1, "j": 2, "t": 1.0}], "inject": [1], "extract": [2]}'
    )
    return path


def test_validate_rejects_an_infinite_energy(infinite_energy_file, capsys):
    assert main(["validate", "--network", str(infinite_energy_file)]) == 1
    err = capsys.readouterr().err
    assert "NonFiniteValue" in err and "site 2" in err


def test_sweep_rejects_an_infinite_energy_before_solving(infinite_energy_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sweep", "--network", str(infinite_energy_file), "--output", str(out)])
    assert rc == 1
    assert "error: NonFiniteValue: site 2" in capsys.readouterr().err
    assert not out.exists()


def test_network_file_must_hold_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["validate", "--network", str(path)]) == 1
    assert "error: NetworkError: " in capsys.readouterr().err


def test_symmetry_output(network_file, capsys):
    assert main(["symmetry", "--network", str(network_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["symmetric"] is True
    assert report["permutation"] == [3, 2, 1]


def test_symmetry_decides_a_large_irregular_network(tmp_path, capsys):
    # the command used to refuse any network above 16 sites, and the
    # backtracking search it ran took more than 20 s on this one
    path = tmp_path / "cubic40.json"
    save_network(random_cubic(40, 0), path)
    assert main(["symmetry", "--network", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"symmetric": False, "permutation": None}


def test_symmetry_takes_no_site_limit(network_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["symmetry", "--network", str(network_file), "--site-limit", "16"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --site-limit" in capsys.readouterr().err


def test_sweep_to_csv(network_file, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--network", str(network_file),
        "--gamma-min", "0.1", "--gamma-max", "10", "--points", "5",
        "--gamma-inj", "1.0", "--gamma-ext", "1.0",
        "--output", str(out), "--format", "csv",
    ])
    assert rc == 0
    curve = read_results_csv(out)
    assert curve.n_points == 5
    assert curve.occupations.shape[1] == 3


def test_sweep_linear_spacing(network_file, tmp_path):
    out = tmp_path / "sweep.json"
    rc = main([
        "sweep", "--network", str(network_file), "--linear",
        "--gamma-min", "1", "--gamma-max", "5", "--points", "5",
        "--output", str(out), "--format", "json",
    ])
    assert rc == 0
    curve, _, config = read_results_json(out)
    assert np.allclose(curve.gamma_grid, np.linspace(1, 5, 5))
    assert config["spacing"] == "linear"


def test_sweep_and_pulse_print_one_summary_line(network_file, tmp_path, capsys):
    out = tmp_path / "out.csv"
    grid = ["--gamma-min", "0.1", "--gamma-max", "10", "--points", "5", "--output", str(out)]
    assert main(["sweep", "--network", str(network_file), *grid]) == 0
    assert capsys.readouterr().out == f"chain3: monotonic_decreasing -> {out}\n"
    assert main(["pulse", "--preset", "fig2", "--t-end", "20", "--output", str(out)]) == 0
    line = capsys.readouterr().out
    assert re.fullmatch(rf"fig2: enaqt gamma\*=\S+ -> {re.escape(str(out))}\n", line)
    assert read_results_csv(out).n_points == 60


def test_pulse_rejects_an_infinite_horizon(network_file, tmp_path, capsys):
    rc = main(["pulse", "--network", str(network_file), "--t-end", "inf",
               "--output", str(tmp_path / "pulse.csv")])
    assert rc == 1
    assert "error: ValueError: t_end must be a finite number of picoseconds, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["sweep"], ["pulse", "--t-end", "1"]])
def test_a_grid_rate_that_overflows_names_gamma_max(network_file, tmp_path, capsys, command):
    rc = main([*command, "--network", str(network_file), "--gamma-max=1.7976931348623157e+308",
               "--output", str(tmp_path / "out.csv")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: ValueError: the top grid rate of gamma_max=1.7976931348623157e+308 "
                                       "must be finite, got inf\n")


def test_pulse_requires_t_end(network_file, tmp_path):
    with pytest.raises(SystemExit):
        main(["pulse", "--network", str(network_file), "--output", str(tmp_path / "x.csv")])


def test_pulse_runs(network_file, tmp_path):
    out = tmp_path / "pulse.csv"
    rc = main([
        "pulse", "--network", str(network_file), "--t-end", "5",
        "--gamma-min", "0.1", "--gamma-max", "10", "--points", "5",
        "--gamma-ext", "1.0", "--output", str(out),
    ])
    assert rc == 0
    curve = read_results_csv(out)
    assert np.all(curve.j_p <= 1.0 + 1e-9)


def test_pulse_takes_no_injection_rate(network_file, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["pulse", "--network", str(network_file), "--t-end", "5", "--gamma-inj", "100",
              "--output", str(tmp_path / "pulse.csv")])
    assert info.value.code == 2


def test_pulse_echoes_no_injection(network_file, tmp_path):
    out = tmp_path / "pulse.json"
    rc = main(["pulse", "--network", str(network_file), "--t-end", "5", "--points", "5",
               "--output", str(out), "--format", "json"])
    assert rc == 0
    _, _, config = read_results_json(out)
    assert config["mode"] == "pulse"
    assert config["gamma_inj"] == 0.0


def test_pulse_rejects_site_outside_the_network(network_file, tmp_path, capsys):
    rc = main([
        "pulse", "--network", str(network_file), "--t-end", "5", "--pulse-site", "0",
        "--output", str(tmp_path / "pulse.csv"),
    ])
    assert rc == 1
    assert "pulse_site" in capsys.readouterr().err


def test_figure_fig3h_needs_external_file(tmp_path, capsys):
    rc = main(["figure", "--preset", "fig3h", "--output", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "MissingExternalData" in err and "Cho" in err


def test_figure_fig3h_with_supplied_network(tmp_path):
    # synthetic stand-in network exercising the external-file path; the
    # real benchmark Hamiltonian is user-supplied, never shipped
    spec = generate_geometry(
        "full_graph", 4, Uniform(1.0e4), Uniform(50.0),
        inject={1}, extract={3}, unit="wavenumber",
    )
    netfile = tmp_path / "fmo_standin.json"
    save_network(spec, netfile)
    rc = main([
        "figure", "--preset", "fig3h", "--fmo-file", str(netfile),
        "--output", str(tmp_path), "--format", "json",
    ])
    assert rc == 0
    curve, _, config = read_results_json(tmp_path / "fig3h.json")
    assert curve.n_points == 60
    assert config["label"] == "fig3h"


def test_figure_preset_writes_file(tmp_path):
    rc = main(["figure", "--preset", "fig2", "--output", str(tmp_path), "--format", "json"])
    assert rc == 0
    curve, cls, _ = read_results_json(tmp_path / "fig2.json")
    assert cls.kind == "enaqt"


@pytest.mark.parametrize("preset,echo", [("fig1", None), ("fig3d", 7)])
def test_figure_echoes_a_seed_only_for_a_random_draw(tmp_path, preset, echo):
    # fig1 draws nothing; fig3d draws its on-site energies from the seed
    rc = main(["figure", "--preset", preset, "--seed", "7", "--output", str(tmp_path),
               "--format", "json"])
    assert rc == 0
    _, _, config = read_results_json(tmp_path / f"{preset}.json")
    assert config["seed"] == echo


@pytest.mark.parametrize("source", [["figure", "--preset", "fig3d"], ["figure", "--preset", "fig1"],
                                    ["sweep", "--network", "{net}"]])
def test_a_negative_seed_is_refused_by_name(network_file, tmp_path, capsys, source):
    # numpy's own error named no field, and a preset or file that draws nothing ignored the seed
    argv = [a.format(net=network_file) for a in source] + ["--seed", "-1", "--output", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: ValueError: seed must be a nonnegative integer, got -1\n"


def test_sweep_of_a_network_file_echoes_no_seed(network_file, tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(["sweep", "--network", str(network_file), "--seed", "7", "--points", "5",
               "--output", str(out), "--format", "json"])
    assert rc == 0
    _, _, config = read_results_json(out)
    assert config["seed"] is None


# the verdicts of tests/test_acceptance.py and the README's preset table
FIGURE_VERDICTS = {
    "fig1": ("symmetric", "monotonic_decreasing"),
    "fig2": ("asymmetric", "enaqt"),
    "fig3a": ("symmetric", "monotonic_decreasing"),
    "fig3b": ("asymmetric", "enaqt"),
    "fig3c": ("symmetric", "monotonic_decreasing"),
    "fig3d": ("asymmetric", "enaqt"),
    "fig3e": ("symmetric", "monotonic_decreasing"),
    "fig3f": ("asymmetric", "enaqt"),
    "fig3g": ("asymmetric", "enaqt"),
    "fig3i": ("asymmetric", "enaqt"),
}


def test_figure_all_prints_each_verdict_and_gamma_star(tmp_path, capsys):
    assert main(["figure", "--preset", "all", "--output", str(tmp_path), "--format", "json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "fig3h: skipped (no --fmo-file supplied)"
    assert len(lines) == len(FIGURE_VERDICTS) + 1
    for line, (name, (symmetry, kind)) in zip(lines, FIGURE_VERDICTS.items()):
        _, cls, _ = read_results_json(tmp_path / f"{name}.json")
        assert cls.kind == kind
        star = f" gamma*={cls.gamma_star:.3g}" if kind == "enaqt" else ""
        assert line == f"{name}: {symmetry}, {kind}{star} -> {tmp_path / f'{name}.json'}"


def test_console_script_version():
    proc = subprocess.run(
        [sys.executable, "-m", "enaqt.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "enaqt 0.1.0" in proc.stdout


def test_sweep_rejects_an_infinite_gamma_max(tmp_path):
    out = tmp_path / "sweep.json"
    proc = subprocess.run(
        [sys.executable, "-m", "enaqt.cli", "sweep", "--preset", "fig1", "--gamma-max", "inf",
         "--output", str(out), "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "gamma_max" in proc.stderr
    assert not out.exists()
