import hashlib
import importlib.resources
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from enaqt import cli, fmo, tree
from enaqt.cli import main
from enaqt.errors import EnaqtError
from enaqt.fmo import load_fmo_model
from enaqt.model import TransportSystem, save_system
from enaqt.spectral import OhmicBath


BUNDLED_SHA256 = hashlib.sha256(
    (importlib.resources.files("enaqt") / "data" / "fmo_cho2005.txt")
    .read_bytes()).hexdigest()


def read(path):
    with open(str(path)) as f:
        return f.read()


def manifest_value(text, key):
    for line in text.splitlines():
        if line.startswith(key + " = "):
            return line.split(" = ", 1)[1]
    raise KeyError(key)


def test_fmo_sweep_writes_csv_and_manifest(tmp_path, capsys):
    rc = main(["fmo-sweep", "--out-dir", str(tmp_path),
               "--gamma-points", "6", "--gamma-max", "100"])
    assert rc == 0
    assert "fmo_sweep.csv" in capsys.readouterr().out
    csv = read(tmp_path / "fmo_sweep.csv")
    lines = csv.splitlines()
    assert lines[0] == "gamma_phi_ps^-1,eta,tau_ps,loss"
    assert len(lines) == 7
    manifest = read(tmp_path / "fmo_sweep_manifest.txt")
    assert manifest_value(manifest, "command") == "fmo-sweep"
    assert manifest_value(manifest, "data.fmo.sha256") == BUNDLED_SHA256
    assert manifest_value(manifest, "config.gamma_points") == "6"
    gamma_300k = float(manifest_value(manifest, "annotation.gamma_phi_cm1"))
    assert 285.0 < gamma_300k < 315.0
    assert "wall_time_s" in manifest


def test_fmo_sweep_surface_option(tmp_path):
    rc = main(["fmo-sweep", "--out-dir", str(tmp_path),
               "--gamma-points", "3", "--surface",
               "--surface-kappa-points", "4"])
    assert rc == 0
    lines = read(tmp_path / "fmo_surface.csv").splitlines()
    assert lines[0] == "gamma_phi,kappa_3,tau_ps"
    assert len(lines) == 1 + 3 * 4
    manifest = read(tmp_path / "fmo_sweep_manifest.txt")
    assert "output.fmo_surface.csv.sha256" in manifest


def test_fmo_sweep_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["fmo-sweep", "--out-dir", str(out),
                     "--gamma-points", "4"]) == 0
    assert read(a / "fmo_sweep.csv") == read(b / "fmo_sweep.csv")


def test_fmo_sweep_rejects_bad_grid(tmp_path, capsys):
    rc = main(["fmo-sweep", "--out-dir", str(tmp_path), "--gamma-min", "0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "fmo_sweep.csv").exists()


@pytest.mark.parametrize("bad_kappa_grid", [["--surface-kappa-points", "0"],
                                            ["--surface-kappa-min", "0"],
                                            ["--surface-kappa-max", "inf"]])
def test_fmo_sweep_rejects_bad_kappa_grid_before_computing(tmp_path, capsys,
                                                          bad_kappa_grid):
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["fmo-sweep", "--out-dir", str(out), "--gamma-points", "3",
               "--surface"] + bad_kappa_grid)
    assert rc == 2
    assert "--surface-kappa-min > 0" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("temperature", ["0", "nan", "inf"])
def test_fmo_sweep_rejects_a_bad_annotation_temperature_before_computing(
        tmp_path, capsys, monkeypatch, temperature):
    def never(*args, **kwargs):
        raise AssertionError("the sweep ran before the temperature check")
    monkeypatch.setattr(cli, "dephasing_sweep", never)
    monkeypatch.setattr(cli, "trap_dephasing_surface", never)
    out = tmp_path / "new"
    rc = main(["fmo-sweep", "--out-dir", str(out), "--gamma-points", "3",
               "--surface", "--annotate-temperature", temperature])
    assert rc == 2
    assert "temperature must be > 0 K" in capsys.readouterr().err
    assert not out.exists()


def test_fmo_sweep_without_decay_is_rejected_before_touching_the_output(
        tmp_path, capsys):
    out = tmp_path / "new"
    rc = main(["fmo-sweep", "--out-dir", str(out), "--gamma-points", "3",
               "--kappa3", "0", "--recomb-rate", "0"])
    assert rc == 2
    assert "no decay channel" in capsys.readouterr().err
    assert not out.exists()


def test_a_failing_computation_leaves_no_outputs(tmp_path, monkeypatch):
    """The sweep succeeds and the surface fails: neither CSV nor manifest
    may appear, because outputs are written only after every step ran."""
    def fail(*args, **kwargs):
        raise EnaqtError("surface solve failed")
    monkeypatch.setattr(cli, "trap_dephasing_surface", fail)
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["fmo-sweep", "--out-dir", str(out), "--gamma-points", "3",
               "--surface", "--surface-kappa-points", "2"])
    assert rc == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("leftover", ["directory", "file"])
def test_fmo_sweep_ignores_a_leftover_fixed_name_temp_file(tmp_path, leftover):
    """Temp files are unique per write, so a stale or foreign
    `fmo_sweep.csv.tmp` is neither clobbered nor in the way, and the
    outputs keep the mode a plain open() gives."""
    stale = tmp_path / "fmo_sweep.csv.tmp"
    if leftover == "directory":
        stale.mkdir()
    else:
        stale.write_text("not ours\n")
    rc = main(["fmo-sweep", "--out-dir", str(tmp_path), "--gamma-points", "3"])
    assert rc == 0
    if leftover == "directory":
        assert stale.is_dir()
    else:
        assert stale.read_text() == "not ours\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["fmo_sweep.csv", "fmo_sweep.csv.tmp", "fmo_sweep_manifest.txt"])
    plain = tmp_path / "plain"
    with open(str(plain), "w"):
        pass
    assert (tmp_path / "fmo_sweep.csv").stat().st_mode == plain.stat().st_mode


@pytest.mark.parametrize("command", [["fmo-sweep", "--gamma-points", "2"],
                                     ["tree-ensemble", "--generation", "3",
                                      "--samples", "1", "--delta-grid", "0"]])
def test_width_below_one_is_rejected(tmp_path, command):
    rc = main(command + ["--out-dir", str(tmp_path), "--width", "0"])
    assert rc == 2
    assert list(tmp_path.iterdir()) == []


def test_fmo_sweep_rejects_unreadable_data_file(tmp_path):
    rc = main(["fmo-sweep", "--out-dir", str(tmp_path),
               "--data-file", str(tmp_path / "missing.txt")])
    assert rc == 2


def _data_file_with_empty_sidecar(tmp_path):
    data = tmp_path / "h.txt"
    data.write_bytes((importlib.resources.files("enaqt") / "data"
                      / "fmo_cho2005.txt").read_bytes())
    (tmp_path / "h.txt.sha256").write_text("  \n")
    return data


def test_fmo_sweep_refuses_the_data_file_before_touching_the_output(
        tmp_path):
    out = tmp_path / "new"
    rc = main(["fmo-sweep", "--gamma-points", "3", "--out-dir", str(out),
               "--data-file", str(_data_file_with_empty_sidecar(tmp_path))])
    assert rc == 2
    assert not out.exists()


def test_fmo_sweep_reports_an_empty_sidecar_as_empty(tmp_path, capsys):
    rc = main(["fmo-sweep", "--gamma-points", "3", "--out-dir", str(tmp_path),
               "--data-file", str(_data_file_with_empty_sidecar(tmp_path))])
    assert rc == 2
    err = capsys.readouterr().err
    assert "h.txt.sha256 is empty" in err
    assert "no .sha256 sidecar found" not in err


def test_tree_ensemble_writes_both_kinds(tmp_path):
    rc = main(["tree-ensemble", "--out-dir", str(tmp_path),
               "--generation", "3", "--samples", "2",
               "--delta-grid", "0:2:3", "--kind", "both"])
    assert rc == 0
    for kind in ("coherent", "mixture"):
        lines = read(tmp_path / ("tree_ensemble_%s.csv" % kind)).splitlines()
        assert lines[0].startswith("delta_over_V,kind,n_ok,")
        assert len(lines) == 4
        assert all(kind in line for line in lines[1:])
    manifest = read(tmp_path / "tree_ensemble_manifest.txt")
    assert manifest_value(manifest, "tree.n_sites") == "7"
    assert manifest_value(manifest, "config.seed") == "2718"


def test_tree_ensemble_both_kinds_equal_separate_runs(tmp_path):
    """--kind both solves each tree once for both kinds; its CSVs must be
    byte for byte those of one run per kind with the same seed. Fifteen
    sites take the eigenbasis route, whose factorisations are shared."""
    base = ["tree-ensemble", "--generation", "4", "--samples", "2",
            "--delta-grid", "0:3:3", "--seed", "11"]
    assert main(base + ["--kind", "both", "--out-dir",
                        str(tmp_path / "both")]) == 0
    for kind in ("coherent", "mixture"):
        out = tmp_path / kind
        assert main(base + ["--kind", kind, "--out-dir", str(out)]) == 0
        name = "tree_ensemble_%s.csv" % kind
        assert (tmp_path / "both" / name).read_bytes() == \
            (out / name).read_bytes()


def test_tree_ensemble_width_does_not_change_the_csv(tmp_path):
    base = ["tree-ensemble", "--generation", "3", "--samples", "3",
            "--delta-grid", "0:2:3", "--kind", "mixture"]
    a = tmp_path / "w1"
    b = tmp_path / "w2"
    assert main(base + ["--out-dir", str(a), "--width", "1"]) == 0
    assert main(base + ["--out-dir", str(b), "--width", "2"]) == 0
    assert read(a / "tree_ensemble_mixture.csv") == \
        read(b / "tree_ensemble_mixture.csv")


@pytest.mark.parametrize("option", [["--generation", "8"],
                                    ["--generation", "1"],
                                    ["--samples", "0"],
                                    ["--delta-grid", "nan"],
                                    ["--delta-grid", "inf"],
                                    ["--delta-grid", "0:nan:3"],
                                    ["--delta-grid", "-1"],
                                    ["--coupling", "nan"],
                                    ["--coupling", "inf"],
                                    ["--trap-rate", "-1"],
                                    ["--trap-rate", "nan"],
                                    ["--trap-rate", "inf"],
                                    ["--recomb-rate", "-1"],
                                    ["--recomb-rate", "nan"],
                                    ["--trap-rate", "0", "--recomb-rate", "0"],
                                    ["--seed", str(2 ** 63)],
                                    ["--seed", str(-2 ** 63 - 1)]])
def test_tree_ensemble_rejects_a_bad_spec_before_touching_the_output(
        tmp_path, capsys, option):
    out = tmp_path / "new"
    rc = main(["tree-ensemble", "--out-dir", str(out), "--delta-grid", "0"]
              + option)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_tree_ensemble_rejects_bad_delta_grid(tmp_path, capsys):
    out = tmp_path / "new"
    for grid in ("0:4", "0:4:x", "a:4:2", "0:4:2.5"):
        rc = main(["tree-ensemble", "--out-dir", str(out),
                   "--delta-grid", grid])
        assert rc == 2, grid
        assert capsys.readouterr().err.startswith("error: "), grid
        assert not out.exists(), grid


@pytest.mark.parametrize("grid", ["", ",", " , "])
def test_tree_ensemble_rejects_an_empty_delta_grid(tmp_path, capsys, grid):
    out = tmp_path / "new"
    rc = main(["tree-ensemble", "--out-dir", str(out), "--delta-grid", grid])
    assert rc == 2
    assert "no points" in capsys.readouterr().err
    assert not out.exists()


def test_two_level_outputs(tmp_path, solver_builds):
    rc = main(["two-level", "--out-dir", str(tmp_path),
               "--gamma-points", "5"])
    assert rc == 0
    # One moment solver, for the trapped dimer, serves the whole sweep.
    assert solver_builds == [2]
    oracle = read(tmp_path / "two_level_oracle.csv").splitlines()
    assert oracle[0] == "t_ps,p2_oracle,p2_propagated,abs_error"
    assert len(oracle) == 401
    errors = np.loadtxt(str(tmp_path / "two_level_oracle.csv"),
                        delimiter=",", skiprows=1, usecols=3)
    assert errors.max() < 1e-8
    sweep = read(tmp_path / "two_level_enaqt.csv").splitlines()
    assert sweep[0] == "gamma_phi_ps^-1,eta,tau_ps,loss"
    assert len(sweep) == 7
    assert sweep[1].startswith("0.0,")


def test_two_level_without_coupling_skips_the_oracle(tmp_path):
    rc = main(["two-level", "--out-dir", str(tmp_path), "--coupling", "0",
               "--gamma-points", "3"])
    assert rc == 0
    assert not (tmp_path / "two_level_oracle.csv").exists()
    assert (tmp_path / "two_level_enaqt.csv").exists()


@pytest.mark.parametrize("points", ["-1", "0", "1"])
def test_two_level_rejects_a_bad_gamma_count_before_touching_the_output(
        tmp_path, capsys, points):
    out = tmp_path / "new"
    rc = main(["two-level", "--out-dir", str(out), "--gamma-points", points])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--gamma-points >= 2" in err
    # two-level has no --gamma-min or --gamma-max to name.
    assert "--gamma-min" not in err and "--gamma-max" not in err
    assert not out.exists()


@pytest.mark.parametrize("option", [["--trap-rate", "-1"],
                                    ["--trap-rate", "nan"],
                                    ["--recomb-rate", "-1"],
                                    ["--epsilon", "nan"],
                                    ["--epsilon", "1e200"],
                                    ["--coupling", "1e200"],
                                    ["--trap-rate", "0", "--recomb-rate", "0"]])
def test_two_level_rejects_bad_rates_before_touching_the_output(
        tmp_path, capsys, option):
    out = tmp_path / "new"
    rc = main(["two-level", "--out-dir", str(out), "--gamma-points", "3"]
              + option)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["two-level", "--epsilon", "1e150", "--gamma-points", "3"],
    ["tree-ensemble", "--generation", "3", "--samples", "1", "--delta-grid",
     "0", "--trap-rate", "1e300"],
])
def test_a_failed_sweep_reports_its_first_error_on_one_line(tmp_path, capsys,
                                                            argv):
    """Each system has a trap, but its energies and rates lie too many
    orders of magnitude apart for the moment solve: the run exits 1 with
    one error line that quotes the solver's error and names that cause,
    and writes nothing."""
    rc = main(argv + ["--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "NonConvergentIntegralError: " in err and "1e12" in err
    assert "orders of magnitude apart" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_two_level_with_no_dynamics_is_rejected(tmp_path):
    rc = main(["two-level", "--out-dir", str(tmp_path),
               "--epsilon", "0", "--coupling", "0"])
    assert rc == 2


def dimer_file(tmp_path):
    sys_obj = TransportSystem(n_sites=2, site_energies=[50.0, -50.0],
                              couplings=[[0.0, 20.0], [20.0, 0.0]],
                              trap_rates=[0.0, 1.0], recomb_rate=0.005,
                              dephasing_rate=0.3)
    path = tmp_path / "dimer.json"
    save_system(sys_obj, str(path))
    return str(path)


def test_propagate_writes_a_trajectory(tmp_path):
    rc = main(["propagate", "--system", dimer_file(tmp_path),
               "--init", "site:1", "--t-final", "5", "--samples", "40",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = read(tmp_path / "trajectory.csv").splitlines()
    assert lines[0] == "t_ps,p_1,p_2,trace,coherence_l1"
    assert len(lines) == 41
    manifest = read(tmp_path / "propagate_manifest.txt")
    assert float(manifest_value(manifest, "final_trace")) < 1.0


def test_propagate_reuses_exponentials_on_a_long_fmo_run(tmp_path,
                                                         expm_calls):
    """500 evenly spaced samples over 50 ps hold a handful of distinct
    step sizes, and each costs one matrix exponential. Counted, not timed,
    so a loaded machine cannot fail it."""
    path = tmp_path / "fmo.json"
    save_system(load_fmo_model().system.with_dephasing(0.0), str(path))
    rc = main(["propagate", "--system", str(path), "--init", "mixture:1,6",
               "--samples", "500", "--t-final", "50",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert len(read(tmp_path / "trajectory.csv").splitlines()) == 501
    assert 0 < len(expm_calls) <= 20


def test_propagate_parses_site_ranges(tmp_path):
    rc = main(["propagate", "--system", dimer_file(tmp_path),
               "--init", "coherent:1-2", "--t-final", "1",
               "--samples", "5", "--out-dir", str(tmp_path)])
    assert rc == 0


@pytest.mark.parametrize("init", ["site1", "thermal:1", "site:3", "site:0",
                                  "site:abc", "site:3-", "mixture:1,x",
                                  "coherent:1,2-1"])
def test_propagate_rejects_bad_initial_states(tmp_path, capsys, init):
    out = tmp_path / "new"
    rc = main(["propagate", "--system", dimer_file(tmp_path),
               "--init", init, "--t-final", "1", "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_propagate_checks_a_range_before_expanding_it(tmp_path, capsys):
    """A range far beyond the system's site count is refused by its ends,
    with the range named, without building its list of sites."""
    out = tmp_path / "new"
    rc = main(["propagate", "--system", dimer_file(tmp_path),
               "--init", "coherent:1-2000000", "--t-final", "1",
               "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1-2000000" in err
    assert not out.exists()


def test_propagate_refuses_a_horizon_that_overflows(tmp_path, capsys):
    """At t = 1e50 ps the matrix exponential of the FMO generator is NaN;
    the run exits 1 and writes nothing rather than writing NaN rows."""
    path = tmp_path / "fmo.json"
    save_system(load_fmo_model().system, str(path))
    out = tmp_path / "new"
    rc = main(["propagate", "--system", str(path), "--init", "mixture:1,6",
               "--samples", "3", "--t-final", "1e50", "--out-dir", str(out)])
    assert rc == 1
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", [["--t-final", "inf"],
                                    ["--samples", "-1"],
                                    ["--samples", "0"],
                                    ["--samples", "1"]])
def test_propagate_rejects_a_bad_horizon_or_sample_count(tmp_path, capsys,
                                                         option):
    out = tmp_path / "new"
    rc = main(["propagate", "--system", dimer_file(tmp_path),
               "--init", "site:1", "--out-dir", str(out)] + option)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("n_sites", "abc"), ("n_sites", 2.7),
                                        ("site_energies", "abc"),
                                        ("couplings", [[0.0, 20.0], [20.0]]),
                                        ("recomb_rate", True),
                                        ("recomb_rate", "0.001"),
                                        ("trap_rates", [False, True]),
                                        ("site_energies", ["50", "-50"]),
                                        pytest.param(
                                            "recomb_rate", 10 ** 400,
                                            id="recomb_rate-huge_int")])
def test_propagate_rejects_a_malformed_system_document(tmp_path, capsys, key,
                                                       value):
    path = dimer_file(tmp_path)
    doc = json.loads(read(path))
    if key == "n_sites":
        doc[key] = value
    else:
        doc[key]["value"] = value
    with open(path, "w") as f:
        json.dump(doc, f)
    out = tmp_path / "new"
    rc = main(["propagate", "--system", path, "--init", "site:1",
               "--t-final", "1", "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_propagate_rejects_missing_system_file(tmp_path, capsys):
    rc = main(["propagate", "--system", str(tmp_path / "missing.json"),
               "--init", "site:1", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_temperature_to_rate_prints_both_units(tmp_path, capsys):
    rc = main(["temperature-to-rate", "--temperature", "300",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    cm1 = float(out.split("gamma_phi_cm1 = ")[1].splitlines()[0])
    ps = float(out.split("gamma_phi_ps = ")[1].splitlines()[0])
    assert 285.0 < cm1 < 315.0
    assert ps == pytest.approx(cm1 * 0.18836515673088532, rel=1e-12)
    manifest = read(tmp_path / "temperature_to_rate_manifest.txt")
    assert "gamma_phi_cm1" in manifest


def test_temperature_to_rate_rejects_nonpositive_temperature(tmp_path):
    rc = main(["temperature-to-rate", "--temperature", "-5",
               "--out-dir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("option", [["--temperature", "inf"],
                                    ["--temperature", "1", "--cutoff", "inf"],
                                    ["--temperature", "1",
                                     "--reorganization-energy", "inf"]])
def test_temperature_to_rate_rejects_non_finite_inputs(tmp_path, capsys,
                                                       option):
    out = tmp_path / "new"
    rc = main(["temperature-to-rate", "--out-dir", str(out)] + option)
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_parser_defaults_are_the_library_constants():
    parser = cli.build_parser()
    sweep = parser.parse_args(["fmo-sweep"])
    assert sweep.kappa3 == fmo.DEFAULT_TRAP_RATE
    assert sweep.recomb_rate == fmo.DEFAULT_RECOMB_RATE
    rate = parser.parse_args(["temperature-to-rate", "--temperature", "1"])
    assert rate.reorganization_energy == OhmicBath().reorganization_energy_cm1
    assert rate.cutoff == OhmicBath().cutoff_cm1
    ensemble = parser.parse_args(["tree-ensemble"])
    np.testing.assert_array_equal(cli._parse_delta_grid(ensemble.delta_grid),
                                  tree.DEFAULT_DELTA_GRID)


def test_module_entry_point_help(capsys):
    """The top-level help, and each subcommand's, whose option help
    strings argparse fills in (%(default)g among them) only when it
    renders them."""
    proc = subprocess.run([sys.executable, "-m", "enaqt", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for command in ("fmo-sweep", "tree-ensemble", "two-level", "propagate",
                    "temperature-to-rate"):
        assert command in proc.stdout
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: enaqt " + command)
    version = subprocess.run([sys.executable, "-m", "enaqt", "--version"],
                             capture_output=True, text=True)
    assert version.returncode == 0
    assert version.stdout.strip() == "0.1.0"


def test_every_exported_name_resolves():
    import enaqt
    missing = [name for name in enaqt.__all__ if not hasattr(enaqt, name)]
    assert missing == []


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    """scipy.optimize adds about 0.1 s of import to every CLI run; the
    dephasing search is written so that nothing needs it."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, enaqt.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.')))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip()
    assert "scipy.linalg" in loaded
    assert "scipy.optimize" not in loaded
