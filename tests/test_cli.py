import subprocess
import sys

import numpy as np
import pytest

from enaqt import cli
from enaqt.cli import main
from enaqt.errors import EnaqtError
from enaqt.fmo import data_checksum
from enaqt.model import TransportSystem, save_system


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
    assert manifest_value(manifest, "data.fmo.sha256") == data_checksum()
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


def test_tree_ensemble_width_does_not_change_the_csv(tmp_path):
    base = ["tree-ensemble", "--generation", "3", "--samples", "3",
            "--delta-grid", "0:2:3", "--kind", "mixture"]
    a = tmp_path / "w1"
    b = tmp_path / "w2"
    assert main(base + ["--out-dir", str(a), "--width", "1"]) == 0
    assert main(base + ["--out-dir", str(b), "--width", "2"]) == 0
    assert read(a / "tree_ensemble_mixture.csv") == \
        read(b / "tree_ensemble_mixture.csv")


def test_tree_ensemble_rejects_bad_delta_grid(tmp_path):
    rc = main(["tree-ensemble", "--out-dir", str(tmp_path),
               "--delta-grid", "0:4"])
    assert rc == 2


def test_two_level_outputs(tmp_path):
    rc = main(["two-level", "--out-dir", str(tmp_path),
               "--gamma-points", "5"])
    assert rc == 0
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


def test_propagate_parses_site_ranges(tmp_path):
    rc = main(["propagate", "--system", dimer_file(tmp_path),
               "--init", "coherent:1-2", "--t-final", "1",
               "--samples", "5", "--out-dir", str(tmp_path)])
    assert rc == 0


@pytest.mark.parametrize("init", ["site1", "thermal:1", "site:3", "site:0"])
def test_propagate_rejects_bad_initial_states(tmp_path, init):
    rc = main(["propagate", "--system", dimer_file(tmp_path),
               "--init", init, "--t-final", "1", "--out-dir",
               str(tmp_path)])
    assert rc == 2


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


def test_module_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "enaqt", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fmo-sweep" in proc.stdout
    version = subprocess.run([sys.executable, "-m", "enaqt", "--version"],
                             capture_output=True, text=True)
    assert version.returncode == 0
    assert version.stdout.strip() == "0.1.0"
