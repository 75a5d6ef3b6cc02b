import hashlib
import importlib.resources
import io
from dataclasses import replace

import numpy as np
import pytest

from enaqt import fmo
from enaqt.dynamics import MomentSolver
from enaqt.errors import ConfigurationError, DataIntegrityError
from enaqt.fmo import (DEFAULT_INITIAL_STATE, DEFAULT_RECOMB_RATE,
                       DEFAULT_TRAP_RATE, DEFAULT_TRAP_SITE,
                       default_gamma_grid, default_kappa_grid,
                       dephasing_sweep, load_fmo_model, trap_dephasing_surface,
                       write_surface_csv, write_sweep_csv)
from enaqt.model import InitialState, initial_density_matrix
from enaqt.observables import transport_result


def bundled_bytes():
    return (importlib.resources.files("enaqt") / "data"
            / "fmo_cho2005.txt").read_bytes()


def bundled_text():
    return bundled_bytes().decode("utf-8")


def write_with_sidecar(tmp_path, text, checksum=None):
    path = tmp_path / "hamiltonian.txt"
    path.write_text(text)
    digest = hashlib.sha256(text.encode()).hexdigest() \
        if checksum is None else checksum
    (tmp_path / "hamiltonian.txt.sha256").write_text(digest + "\n")
    return str(path)


def test_bundled_data_passes_its_checksum():
    model = load_fmo_model()
    assert model.system.n_sites == 7
    assert model.data_sha256 == hashlib.sha256(bundled_bytes()).hexdigest()
    assert model.data_sha256 == ("b0c9785e1c239234e1f20717f8662c1b"
                                 "e6c11af47d22a9ef464a9e0f6aa53757")


def test_parsed_hamiltonian_landmarks():
    sys = load_fmo_model().system
    np.testing.assert_array_equal(
        sys.site_energies, [215.0, 220.0, 0.0, 125.0, 450.0, 330.0, 280.0])
    assert sys.couplings[0, 1] == -104.1
    assert sys.couplings[1, 0] == -104.1
    assert sys.couplings[4, 5] == 89.7
    assert sys.couplings[5, 6] == 32.7
    assert sys.couplings[0, 6] == -7.8
    assert np.all(np.diag(sys.couplings) == 0.0)


def test_default_problem_setup():
    assert DEFAULT_TRAP_SITE == 3
    assert DEFAULT_INITIAL_STATE == InitialState("mixture", (1, 6))
    model = load_fmo_model()
    np.testing.assert_array_equal(model.system.trap_rates,
                                  [0.0, 0.0, DEFAULT_TRAP_RATE, 0.0, 0.0,
                                   0.0, 0.0])
    assert model.system.recomb_rate == DEFAULT_RECOMB_RATE
    assert model.system.dephasing_rate == 0.0
    rho0 = model.initial_density_matrix()
    np.testing.assert_array_equal(
        rho0, initial_density_matrix(DEFAULT_INITIAL_STATE, 7))
    assert rho0[0, 0] == 0.5
    assert rho0[5, 5] == 0.5


def test_overrides_are_applied():
    model = load_fmo_model(trap_rate=2.5, recomb_rate=0.001)
    np.testing.assert_array_equal(model.system.trap_rates,
                                  [0.0, 0.0, 2.5, 0.0, 0.0, 0.0, 0.0])
    assert model.system.recomb_rate == 0.001
    assert model.system.dephasing_rate == 0.0


@pytest.mark.parametrize("overrides", [dict(trap_rate=True),
                                       dict(trap_rate="2.5"),
                                       dict(recomb_rate=True),
                                       dict(recomb_rate="0.001")])
def test_overrides_that_are_not_real_numbers_are_refused(overrides):
    with pytest.raises(ConfigurationError, match="real number"):
        load_fmo_model(**overrides)


def test_corrupted_data_fails_the_checksum(tmp_path):
    text = bundled_text().replace("215.0", "216.0")
    path = write_with_sidecar(tmp_path, text,
                              checksum=load_fmo_model().data_sha256)
    with pytest.raises(DataIntegrityError, match="checksum"):
        load_fmo_model(data_path=path)


def test_missing_sidecar_refuses_to_load(tmp_path):
    path = tmp_path / "hamiltonian.txt"
    path.write_text(bundled_text())
    with pytest.raises(DataIntegrityError, match="sidecar"):
        load_fmo_model(data_path=str(path))


def test_user_file_with_matching_sidecar_loads(tmp_path):
    path = write_with_sidecar(tmp_path, bundled_text())
    model = load_fmo_model(data_path=path)
    assert model.system.site_energies[4] == 450.0


def test_missing_unit_header_is_a_parse_error(tmp_path):
    text = "\n".join(["1 2 3 4 5 6 7"] + ["0"] * 21)
    path = write_with_sidecar(tmp_path, text)
    with pytest.raises(DataIntegrityError, match="unit"):
        load_fmo_model(data_path=path)


def test_non_numeric_entries_report_their_line(tmp_path):
    text = bundled_text().replace("-104.1", "oops")
    path = write_with_sidecar(tmp_path, text)
    with pytest.raises(DataIntegrityError, match=r":\d+: non-numeric"):
        load_fmo_model(data_path=path)


def test_wrong_value_count_is_a_parse_error(tmp_path):
    text = "unit cm-1\n1 2 3 4 5 6 7\n1 2 3\n"
    path = write_with_sidecar(tmp_path, text)
    with pytest.raises(DataIntegrityError, match="expected 28"):
        load_fmo_model(data_path=path)


def test_crlf_copy_with_a_sha256sum_sidecar_loads(tmp_path):
    """The checksum covers the file's bytes, as sha256sum computes it, so
    a CRLF copy verifies against its own digest and parses to the same
    Hamiltonian."""
    raw = bundled_bytes().replace(b"\n", b"\r\n")
    path = tmp_path / "crlf.txt"
    path.write_bytes(raw)
    digest = hashlib.sha256(raw).hexdigest()
    (tmp_path / "crlf.txt.sha256").write_text(digest + "  crlf.txt\n")
    model = load_fmo_model(data_path=str(path))
    assert model.data_sha256 == digest
    bundled = load_fmo_model().system
    np.testing.assert_array_equal(model.system.site_energies,
                                  bundled.site_energies)
    np.testing.assert_array_equal(model.system.couplings, bundled.couplings)


def test_verified_bytes_that_are_not_utf8_are_refused(tmp_path):
    raw = b"unit cm-1\n\xff\xfe\n"
    path = tmp_path / "binary.txt"
    path.write_bytes(raw)
    (tmp_path / "binary.txt.sha256").write_text(
        hashlib.sha256(raw).hexdigest() + "\n")
    with pytest.raises(DataIntegrityError, match="UTF-8"):
        load_fmo_model(data_path=str(path))


def test_default_grids():
    gammas = default_gamma_grid()
    kappas = default_kappa_grid()
    assert len(gammas) == 60
    assert gammas[0] == pytest.approx(1e-3)
    assert gammas[-1] == pytest.approx(1e5)
    assert len(kappas) == 25
    assert kappas[12] == 1.0


def test_small_sweep_produces_partitioned_results():
    model = load_fmo_model()
    results = dephasing_sweep(model, [0.1, 1.0, 10.0])
    assert [g for g, _ in results] == [0.1, 1.0, 10.0]
    for _, res in results:
        assert 0.0 < res.efficiency < 1.0
        assert res.efficiency + res.loss_probability == pytest.approx(
            1.0, abs=1e-9)
        assert res.transfer_time_ps > 0.0


def test_sweep_rejects_bad_grids():
    model = load_fmo_model()
    for grid in ([-1.0, 1.0], [float("inf")], [[1.0, 2.0]], 1.0, ["1.5"],
                 [True]):
        with pytest.raises(ConfigurationError):
            dephasing_sweep(model, grid)


def test_surface_shape_and_content():
    model = load_fmo_model()
    gammas, kappas, tau = trap_dephasing_surface(model, [1.0, 10.0, 100.0],
                                                 [0.5, 1.0, 2.0, 4.0])
    assert tau.shape == (3, 4)
    assert np.all(np.isfinite(tau))
    assert np.all(tau > 0.0)


def test_surface_equals_point_by_point_transfer_times():
    """Solving kappa-major with one solver per kappa changes no bit of tau
    against one independent solve per (gamma, kappa) point."""
    model = load_fmo_model()
    gammas, kappas = [0.0, 3.0, 300.0], [0.05, 0.5, 1.0, 20.0]
    _, _, tau = trap_dephasing_surface(model, gammas, kappas)
    rho0 = model.initial_density_matrix()
    for i, gamma in enumerate(gammas):
        for j, kappa in enumerate(kappas):
            kap = np.zeros(7)
            kap[DEFAULT_TRAP_SITE - 1] = kappa
            solver = MomentSolver(replace(model.system, trap_rates=kap), rho0)
            assert tau[i, j] == transport_result(solver,
                                                 gamma).transfer_time_ps


def test_sweep_and_surface_build_one_solver_per_trap_rate(solver_builds):
    model = load_fmo_model()
    gammas, kappas = [0.0, 3.0, 300.0], [0.05, 0.5, 1.0, 20.0]
    dephasing_sweep(model, gammas)
    trap_dephasing_surface(model, gammas, kappas)
    assert len(solver_builds) == len(kappas) + 1


def test_surface_validates_each_grid_once(monkeypatch):
    """The per-kappa sweeps take the surface's validated gamma grid as it
    is: two as_rate_grid passes in all, not one more per kappa."""
    names = []
    real = fmo.as_rate_grid

    def counting(name, values, positive=False):
        names.append(name)
        return real(name, values, positive)
    monkeypatch.setattr(fmo, "as_rate_grid", counting)
    trap_dephasing_surface(load_fmo_model(), [0.0, 3.0], [0.5, 1.0, 2.0])
    assert names == ["dephasing grid", "trap-rate grid"]


def test_surface_rejects_nonpositive_kappa():
    model = load_fmo_model()
    with pytest.raises(ConfigurationError):
        trap_dephasing_surface(model, [1.0], [0.0, 1.0])


@pytest.mark.parametrize("gammas, kappas", [
    ([float("nan"), 1.0], [1.0]),
    ([float("inf")], [1.0]),
    ([1.0], [float("inf")]),
    ([1.0], [float("nan")]),
    ([[1.0, 2.0]], [1.0]),
    (1.0, [1.0]),
    (["1.5"], [1.0]),
    ([True], [1.0]),
    ([1.0], [[1.0, 2.0]]),
    ([1.0], 1.0),
    ([1.0], ["1.5"]),
    ([1.0], [True]),
])
def test_surface_rejects_non_finite_grids_up_front(gammas, kappas):
    """Like dephasing_sweep, the surface validates its grids before solving,
    so a bad value (not finite, not a real number, or not a 1-d grid) is a
    configuration error, not a failed sweep task or a leaked TypeError."""
    with pytest.raises(ConfigurationError):
        trap_dephasing_surface(load_fmo_model(), gammas, kappas)


def test_sweep_csv_layout():
    model = load_fmo_model()
    results = dephasing_sweep(model, [1.0, 10.0])
    buf = io.StringIO()
    write_sweep_csv(results, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "gamma_phi_ps^-1,eta,tau_ps,loss"
    assert len(lines) == 3
    parsed = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",",
                        skiprows=1)
    np.testing.assert_allclose(parsed[:, 0], [1.0, 10.0])
    np.testing.assert_allclose(parsed[0, 1], results[0][1].efficiency)


def test_surface_csv_layout():
    tau = np.array([[1.0, 2.0], [3.0, 4.0]])
    buf = io.StringIO()
    write_surface_csv([0.1, 1.0], [0.5, 5.0], tau, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "gamma_phi,kappa_3,tau_ps"
    assert len(lines) == 5
    assert lines[1] == "0.1,0.5,1.0"
    assert lines[4] == "1.0,5.0,4.0"
