import dataclasses
import json
import pathlib

import numpy as np
import pytest

from enaqt.dynamics import build_liouvillian
from enaqt.errors import ConfigurationError
from enaqt.model import (InitialState, TransportSystem, effective_hamiltonian,
                         initial_density_matrix, load_system, save_system,
                         system_from_document, system_to_document)
from enaqt.units import CM1_TO_PS_ANGULAR


def dimer(**overrides):
    fields = dict(
        n_sites=2,
        site_energies=[50.0, -50.0],
        couplings=[[0.0, 20.0], [20.0, 0.0]],
        trap_rates=[0.0, 1.0],
        recomb_rate=0.005,
        dephasing_rate=0.3,
    )
    fields.update(overrides)
    return TransportSystem(**fields)


def test_construction_normalizes_and_freezes_arrays():
    sys = dimer()
    assert sys.n_sites == 2
    assert sys.site_energies.dtype == float
    assert not sys.site_energies.flags.writeable
    assert not sys.couplings.flags.writeable
    assert not sys.trap_rates.flags.writeable
    with pytest.raises(ValueError):
        sys.couplings[0, 1] = 99.0


@pytest.mark.parametrize("overrides", [
    dict(n_sites=0),
    dict(site_energies=[1.0]),
    dict(site_energies=[[1.0, 2.0]]),
    dict(couplings=[[0.0, 1.0], [2.0, 0.0]]),
    dict(couplings=[[5.0, 1.0], [1.0, 0.0]]),
    dict(couplings=np.zeros((3, 3))),
    dict(trap_rates=[0.0, -1.0]),
    dict(trap_rates=[1.0]),
    dict(recomb_rate=-0.1),
    dict(recomb_rate=float("nan")),
    dict(dephasing_rate=-2.0),
    dict(site_energies=[float("inf"), 0.0]),
    dict(n_sites=2.7),
    dict(n_sites=True),
    dict(n_sites="2"),
    dict(site_energies="abc"),
    dict(site_energies=["abc", 0.0]),
    dict(couplings=[[0.0, 1.0], [1.0]]),
    dict(trap_rates={"a": 1.0}),
    dict(recomb_rate="abc"),
    dict(dephasing_rate=[0.1]),
    dict(recomb_rate=True),
    dict(recomb_rate="0.001"),
    dict(dephasing_rate=False),
    dict(trap_rates=[False, True]),
    dict(trap_rates=np.array([False, True])),
    dict(site_energies=["1.0", "2.0"]),
    dict(site_energies=[1.0, True]),
    dict(site_energies=np.array([1.0, 2.0], dtype=complex)),
])
def test_invalid_systems_are_rejected(overrides):
    """Refused when built, and when copied with dataclasses.replace."""
    with pytest.raises(ConfigurationError):
        dimer(**overrides)
    with pytest.raises(ConfigurationError):
        dataclasses.replace(dimer(), **overrides)


def test_a_numpy_integer_site_count_is_accepted():
    sys = dimer(n_sites=np.int64(2))
    assert sys.n_sites == 2 and type(sys.n_sites) is int


def test_with_dephasing_returns_modified_copy():
    """The copy holds its own read-only arrays, equal to the original's."""
    sys = dimer()
    other = sys.with_dephasing(7)
    assert type(other.dephasing_rate) is float and other.dephasing_rate == 7.0
    assert sys.dephasing_rate == 0.3
    assert (other.n_sites, other.recomb_rate) == (sys.n_sites, sys.recomb_rate)
    for name in ("site_energies", "couplings", "trap_rates"):
        assert getattr(other, name) is not getattr(sys, name)
        np.testing.assert_array_equal(getattr(other, name), getattr(sys, name))
        assert not getattr(other, name).flags.writeable


@pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float32, float])
def test_numeric_ndarrays_convert_to_read_only_float_copies(dtype):
    """Integer and float ndarrays take the one-pass conversion, with the
    values the per-entry path gives, and the system keeps its own copy."""
    energies = np.array([50, 20], dtype=dtype)
    sys = dimer(site_energies=energies, trap_rates=np.array([0, 1],
                                                            dtype=dtype))
    want = dimer(site_energies=[float(e) for e in energies],
                 trap_rates=[0.0, 1.0])
    for name in ("site_energies", "trap_rates"):
        got = getattr(sys, name)
        assert got.dtype == float and not got.flags.writeable
        np.testing.assert_array_equal(got, getattr(want, name))
    energies[0] = 7
    assert sys.site_energies[0] == float(np.array(50, dtype=dtype))


def test_the_adjoint_negates_the_hamiltonian_and_transposes_the_liouvillian():
    """sys.adjoint() negates site energies and couplings into read-only
    arrays and keeps every rate. On the orthonormal real coordinates L is
    real, so its adjoint is its transpose."""
    sys = dimer(dephasing_rate=0.0)
    adj = sys.adjoint()
    np.testing.assert_array_equal(adj.site_energies, -sys.site_energies)
    np.testing.assert_array_equal(adj.couplings, -sys.couplings)
    assert adj.trap_rates is not sys.trap_rates
    np.testing.assert_array_equal(adj.trap_rates, sys.trap_rates)
    assert not adj.trap_rates.flags.writeable
    assert (adj.n_sites, adj.recomb_rate, adj.dephasing_rate) == (
        sys.n_sites, sys.recomb_rate, sys.dephasing_rate)
    assert not adj.site_energies.flags.writeable
    assert not adj.couplings.flags.writeable
    np.testing.assert_array_equal(sys.site_energies, [50.0, -50.0])
    for gamma in (0.0, 0.3):
        liou = build_liouvillian(sys.with_dephasing(gamma))
        np.testing.assert_allclose(
            build_liouvillian(adj.with_dephasing(gamma)), liou.T,
            rtol=0.0, atol=1e-14 * np.abs(liou).max())


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0])
def test_with_dephasing_checks_the_new_rate(gamma):
    with pytest.raises(ConfigurationError,
                       match="dephasing_rate must be finite and >= 0"):
        dimer().with_dephasing(gamma)
    with pytest.raises(ConfigurationError, match="must be a real number"):
        dimer().with_dephasing(True)


def test_replace_changes_only_named_fields():
    sys = dimer()
    other = dataclasses.replace(sys, trap_rates=[0.5, 0.0], recomb_rate=0.01)
    np.testing.assert_array_equal(other.trap_rates, [0.5, 0.0])
    assert other.recomb_rate == 0.01
    assert other.dephasing_rate == sys.dephasing_rate
    np.testing.assert_array_equal(sys.trap_rates, [0.0, 1.0])


COPIES = {
    "with_dephasing": lambda sys: sys.with_dephasing(1.5),
    "adjoint": lambda sys: sys.adjoint(),
    "replace": lambda sys: dataclasses.replace(sys, recomb_rate=0.5),
}


@pytest.mark.parametrize("copy", COPIES.values(), ids=COPIES.keys())
def test_every_copy_is_built_by_the_constructor(copy, monkeypatch):
    """A copy runs the constructor's checks once and holds its own
    read-only float arrays; the tests of each copy check their values."""
    sys = dimer()
    checks = []
    post_init = TransportSystem.__post_init__

    def counted(self):
        checks.append(self)
        post_init(self)
    monkeypatch.setattr(TransportSystem, "__post_init__", counted)
    other = copy(sys)
    assert checks == [other]
    for name in ("site_energies", "couplings", "trap_rates"):
        a = getattr(other, name)
        assert a is not getattr(sys, name)
        assert a.dtype == float and not a.flags.writeable


def test_effective_hamiltonian_units_and_decay_terms():
    sys = dimer()
    h = effective_hamiltonian(sys)
    expected = (np.diag([50.0, -50.0])
                + np.array([[0.0, 20.0], [20.0, 0.0]])) * CM1_TO_PS_ANGULAR
    np.testing.assert_allclose(h.real, expected, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(np.diag(h.imag), [-0.005, -1.005],
                               rtol=1e-15, atol=0.0)
    assert h.imag[0, 1] == 0.0


def test_initial_state_validation():
    with pytest.raises(ConfigurationError):
        InitialState(kind="thermal", sites=(1,))
    with pytest.raises(ConfigurationError):
        InitialState(kind="mixture", sites=())
    with pytest.raises(ConfigurationError):
        InitialState(kind="mixture", sites=(1, 1))
    with pytest.raises(ConfigurationError):
        InitialState(kind="site", sites=(1, 2))
    state = InitialState(kind="mixture", sites=[np.int64(1), 6])
    assert state.sites == (1, 6)


@pytest.mark.parametrize("kind, sites", [("site", (1.5,)),
                                         ("site", ("1",)),
                                         ("mixture", (True, 2)),
                                         ("mixture", (1, 2.0))])
def test_initial_state_sites_must_be_integers(kind, sites):
    with pytest.raises(ConfigurationError, match="must be an integer"):
        InitialState(kind=kind, sites=sites)


@pytest.mark.parametrize("n_sites", [2.7, True, "3", 3.0])
def test_the_density_matrix_size_must_be_an_integer(n_sites):
    with pytest.raises(ConfigurationError, match="n_sites must be an integer"):
        initial_density_matrix(InitialState("site", (1,)), n_sites)


def test_single_site_density_matrix():
    rho = initial_density_matrix(InitialState("site", (3,)), 7)
    expected = np.zeros((7, 7))
    expected[2, 2] = 1.0
    np.testing.assert_array_equal(rho, expected)


def test_mixture_density_matrix_has_no_coherences():
    rho = initial_density_matrix(InitialState("mixture", (1, 6)), 7)
    assert rho[0, 0] == 0.5
    assert rho[5, 5] == 0.5
    assert np.trace(rho) == 1.0
    off = rho - np.diag(np.diag(rho))
    assert np.all(off == 0.0)


def test_coherent_density_matrix_is_a_pure_projector():
    rho = initial_density_matrix(InitialState("coherent", (1, 2)), 3)
    expected = np.zeros((3, 3), dtype=complex)
    expected[:2, :2] = 0.5
    np.testing.assert_allclose(rho, expected, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(rho @ rho, rho, rtol=0.0, atol=1e-15)


def test_sites_outside_the_system_are_rejected():
    with pytest.raises(ConfigurationError):
        initial_density_matrix(InitialState("site", (8,)), 7)
    with pytest.raises(ConfigurationError):
        initial_density_matrix(InitialState("mixture", (0, 1)), 7)


def test_document_round_trip_preserves_every_field():
    sys = dimer()
    doc = system_to_document(sys)
    back = system_from_document(doc)
    assert back.n_sites == sys.n_sites
    np.testing.assert_array_equal(back.site_energies, sys.site_energies)
    np.testing.assert_array_equal(back.couplings, sys.couplings)
    np.testing.assert_array_equal(back.trap_rates, sys.trap_rates)
    assert back.recomb_rate == sys.recomb_rate
    assert back.dephasing_rate == sys.dephasing_rate


def test_document_units_are_explicit():
    doc = system_to_document(dimer())
    assert doc["site_energies"]["unit"] == "cm-1"
    assert doc["trap_rates"]["unit"] == "ps-1"


def test_unknown_keys_are_rejected():
    doc = system_to_document(dimer())
    doc["temperature"] = 300.0
    with pytest.raises(ConfigurationError, match="unknown"):
        system_from_document(doc)


def test_missing_keys_are_rejected():
    doc = system_to_document(dimer())
    del doc["couplings"]
    with pytest.raises(ConfigurationError, match="missing"):
        system_from_document(doc)


def test_wrong_unit_tag_is_rejected():
    doc = system_to_document(dimer())
    doc["site_energies"]["unit"] = "eV"
    with pytest.raises(ConfigurationError, match="unit"):
        system_from_document(doc)


@pytest.mark.parametrize("key, value", [
    ("n_sites", "abc"),
    ("n_sites", 2.7),
    ("n_sites", True),
    ("site_energies", "abc"),
    ("site_energies", [0.0, "abc"]),
    ("couplings", [[0.0, 20.0], [20.0]]),
    ("recomb_rate", "abc"),
    ("recomb_rate", True),
    ("recomb_rate", "0.001"),
    ("trap_rates", [False, True]),
    ("site_energies", ["50.0", "-50.0"]),
    pytest.param("recomb_rate", 10 ** 400, id="recomb_rate-huge_int"),
])
def test_malformed_document_values_are_rejected(key, value):
    """Values that are not integers, real numbers or rectangular arrays
    of them are configuration errors, not a ValueError, a silently
    truncated site count, a bool or string read as a number or an
    OverflowError from an integer too large for a float."""
    doc = system_to_document(dimer())
    if key == "n_sites":
        doc[key] = value
    else:
        doc[key]["value"] = value
    with pytest.raises(ConfigurationError):
        system_from_document(doc)


def test_non_mapping_document_is_rejected():
    with pytest.raises(ConfigurationError):
        system_from_document([1, 2, 3])


def test_file_round_trip(tmp_path):
    sys = dimer()
    path = tmp_path / "system.json"
    save_system(sys, str(path))
    back = load_system(str(path))
    np.testing.assert_array_equal(back.couplings, sys.couplings)
    # The file is plain JSON anyone can inspect.
    doc = json.loads(path.read_text())
    assert doc["n_sites"] == 2


def test_corrupt_json_reports_the_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n_sites": 2,\n  "site_energies": [,]\n}')
    with pytest.raises(ConfigurationError, match="line 2"):
        load_system(str(path))


def test_missing_system_file_is_a_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_system(str(tmp_path / "nowhere.json"))


def test_the_readme_system_document_loads_and_is_what_save_system_writes(
        tmp_path):
    """The JSON block under README's "System documents" must load, and
    save_system must write it back byte for byte."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    section = readme[readme.index("### System documents"):]
    block = section[section.index("```json\n") + len("```json\n"):]
    block = block[:block.index("```\n")]
    path = tmp_path / "readme.json"
    path.write_text(block)
    sys = load_system(str(path))
    assert sys.n_sites == 2
    assert sys.trap_rates.tolist() == [0.0, 1.0]
    assert sys.recomb_rate == 0.0005
    again = tmp_path / "again.json"
    save_system(sys, str(again))
    assert again.read_text() == block
