"""Command-line interface.

Subcommands:
    fmo-sweep            efficiency/transfer-time vs dephasing for FMO
    tree-ensemble        disorder ensembles on binary trees
    two-level            closed-form checks and the biased-dimer sweep
    propagate            trajectory export for any serialized system
    temperature-to-rate  Ohmic-bath dephasing rate at a temperature

Each `cmd_*` function only computes, on one BLAS thread
(dynamics.one_blas_thread), so its outputs are the same bytes under any
thread setting: it returns its output files as (file name, writer) pairs
plus its manifest extras. `_run` then writes every CSV and
`<command>_manifest.txt`, a key-value manifest echoing the full
configuration, the physical constants, the BLAS thread count and the
numpy and scipy versions, data checksums, and the wall time, so any
output file can be reproduced exactly from its manifest.
Nothing is written until the whole computation has succeeded, so a failing
run leaves no files behind. Each file is written atomically (a uniquely
named temp file + rename), so runs sharing an output directory never share
a temp file.
"""

import argparse
import hashlib
import os
import sys as _sys
import time
import uuid

import numpy as np
import scipy

from . import __version__
from .dynamics import (MomentSolver, default_horizon, one_blas_thread,
                       propagate)
from .errors import ConfigurationError, DataIntegrityError, EnaqtError
from .fmo import (DEFAULT_RECOMB_RATE, DEFAULT_TRAP_RATE, GAMMA_GRID_DEFAULT,
                  KAPPA_GRID_DEFAULT, dephasing_sweep, load_fmo_model,
                  trap_dephasing_surface, write_surface_csv, write_sweep_csv)
from .model import InitialState, initial_density_matrix, load_system
from .observables import transport_result
from .spectral import OhmicBath, dephasing_rate
from .sweep import SweepPlan, run_sweep
from .tree import (DEFAULT_COUPLING_CM1, SEARCH_GRID_POINTS, SEARCH_LOG_TOL,
                   SEARCH_SPAN, TreeSpec, disorder_ensemble)
from .twolevel import (TwoLevelParams, coherent_population_2, larmor_frequency,
                       to_transport_system)
from .units import BOLTZMANN_CM1_PER_K, CM1_TO_PS_ANGULAR


def _atomic_write(path, writer):
    """Write a text file via a temp sibling and atomic rename.

    The sibling's name is unique to the call and it is created exclusively
    by open(), so it gets open()'s usual umask-derived mode (unlike mkstemp's
    0600) and never clobbers or trips over another file.
    """
    tmp = "%s.%s.tmp" % (path, uuid.uuid4().hex)
    f = open(tmp, "x")
    try:
        with f:
            writer(f)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _write_manifest(args, extras, outputs, wall_s):
    """Key-value manifest: config echo, constants, checksums, wall time."""
    lines = ["command = %s" % args.command, "version = %s" % __version__]
    config = vars(args)
    for key in sorted(config.keys() - {"func", "command"}):
        lines.append("config.%s = %r" % (key, config[key]))
    lines.append("constant.cm1_to_ps_angular = %r" % CM1_TO_PS_ANGULAR)
    lines.append("constant.boltzmann_cm1_per_k = %r" % BOLTZMANN_CM1_PER_K)
    for key in sorted(extras):
        value = extras[key]
        lines.append("%s = %s" % (key, value if isinstance(value, str)
                                  else repr(value)))
    for path in outputs:
        lines.append("output.%s.sha256 = %s"
                     % (os.path.basename(path), _sha256_file(path)))
    lines.append("wall_time_s = %.3f" % wall_s)
    path = os.path.join(args.out_dir,
                        "%s_manifest.txt" % args.command.replace("-", "_"))
    _atomic_write(path, lambda f: f.write("\n".join(lines) + "\n"))


def _run(args):
    """Run one command: compute everything first, then create the output
    directory if needed and write the CSVs and the manifest, so a failing
    run writes nothing."""
    t0 = time.perf_counter()
    with one_blas_thread() as blas_threads:
        files, extras = args.func(args)
    extras["runtime.blas_threads"] = blas_threads
    extras["runtime.numpy"] = np.__version__
    extras["runtime.scipy"] = scipy.__version__
    _ensure_out_dir(args.out_dir)
    outputs = []
    for name, writer in files:
        path = os.path.join(args.out_dir, name)
        _atomic_write(path, writer)
        outputs.append(path)
    _write_manifest(args, extras, outputs, time.perf_counter() - t0)
    if outputs:
        print("wrote %s" % ", ".join(outputs))
    return 0


def _log_grid(option, lo, hi, num):
    """num log-spaced points from lo to hi, the grid of `<option>-min`,
    `<option>-max` and `<option>-points`."""
    if num < 2 or not 0.0 < lo < hi < np.inf:
        raise ConfigurationError("need %s-max > %s-min > 0 and %s-points >= 2"
                                 % (option, option, option))
    return np.logspace(np.log10(lo), np.log10(hi), num)


def _check_width(args):
    if args.width < 1:
        raise ConfigurationError("--width must be >= 1, got %d" % args.width)


def _ensure_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError("cannot create output directory %s: %s"
                                 % (path, exc)) from exc
    if not os.access(path, os.W_OK):
        raise ConfigurationError("output directory %s is not writable" % path)


# ---------------------------------------------------------------------------
# fmo-sweep


def cmd_fmo_sweep(args):
    _check_width(args)
    grid = _log_grid("--gamma", args.gamma_min, args.gamma_max,
                     args.gamma_points)
    kgrid = _log_grid("--surface-kappa", args.surface_kappa_min,
                      args.surface_kappa_max,
                      args.surface_kappa_points) if args.surface else None
    rate = dephasing_rate(OhmicBath(), args.annotate_temperature)
    model = load_fmo_model(data_path=args.data_file, trap_rate=args.kappa3,
                           recomb_rate=args.recomb_rate)
    results = dephasing_sweep(model, grid)
    files = [("fmo_sweep.csv", lambda f: write_sweep_csv(results, f))]
    if args.surface:
        surface = trap_dephasing_surface(model, grid, kgrid)
        files.append(("fmo_surface.csv",
                      lambda f: write_surface_csv(*surface, f)))

    extras = {"data.fmo.sha256": model.data_sha256}
    extras["annotation.temperature_k"] = args.annotate_temperature
    extras["annotation.gamma_phi_cm1"] = rate.gamma_cm1
    extras["annotation.gamma_phi_ps"] = rate.gamma_ps
    etas = [r.efficiency for _, r in results]
    extras["summary.eta_max"] = max(etas)
    extras["summary.eta_first"] = etas[0]
    return files, extras


# ---------------------------------------------------------------------------
# tree-ensemble


def _parse_delta_grid(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(
                "delta grid %r: expected lo:hi:n or a comma list" % text)
        try:
            lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigurationError("bad delta grid %r: %s"
                                     % (text, exc)) from exc
        if num < 1:
            raise ConfigurationError("delta grid needs at least one point")
        grid = np.linspace(lo, hi, num)
    else:
        try:
            grid = np.array([float(tok) for tok in text.split(",")
                             if tok.strip()])
        except ValueError as exc:
            raise ConfigurationError("bad delta grid %r: %s"
                                     % (text, exc)) from exc
        if grid.size == 0:
            raise ConfigurationError("delta grid %r has no points" % text)
    return grid


def cmd_tree_ensemble(args):
    _check_width(args)
    deltas = _parse_delta_grid(args.delta_grid)
    spec = TreeSpec(generation=args.generation, coupling_cm1=args.coupling,
                    trap_rate_ps=args.trap_rate, recomb_rate_ps=args.recomb_rate,
                    rng_seed=args.seed)
    kinds = ("coherent", "mixture") if args.kind == "both" else (args.kind,)
    files = []
    extras = {"tree.n_sites": spec.n_sites,
              "tree.trap_rate_ps": spec.trap_rate_ps,
              "tree.recomb_rate_ps": spec.recomb_rate_ps,
              "search.grid_points": SEARCH_GRID_POINTS,
              "search.span_over_v": SEARCH_SPAN,
              "search.log_gamma_tol": SEARCH_LOG_TOL}
    reports = disorder_ensemble(spec, deltas, n_samples=args.samples,
                                kinds=kinds)
    for kind, report in reports.items():
        files.append(("tree_ensemble_%s.csv" % kind, report.write_csv))
        extras["summary.%s.eta_quantum_delta0" % kind] = \
            report.records[0].eta_quantum_mean
    return files, extras


# ---------------------------------------------------------------------------
# two-level


def cmd_two_level(args):
    if args.epsilon == 0.0 and args.coupling == 0.0:
        raise ConfigurationError("epsilon and coupling are both zero: the "
                                 "two-site system has no dynamics")
    if args.gamma_points < 2:
        raise ConfigurationError("need --gamma-points >= 2, got %d"
                                 % args.gamma_points)
    grid = np.concatenate([[0.0], np.logspace(-3.0, 4.0, args.gamma_points)])
    params = TwoLevelParams(energy_mismatch_cm1=args.epsilon,
                            coupling_cm1=args.coupling)
    trapped = to_transport_system(params, trap_rate_2=args.trap_rate,
                                  recomb_rate=args.recomb_rate)
    rho0 = initial_density_matrix(InitialState("site", (1,)), 2)
    solver = MomentSolver(trapped, rho0)
    files = []

    if args.coupling != 0.0:
        # Closed form vs propagated populations over ten oscillation periods.
        omega = larmor_frequency(params)
        times = np.linspace(0.0, 10.0 * 2.0 * np.pi / omega, 400)
        sys = to_transport_system(params)
        traj = propagate(sys, rho0, times)
        p2 = traj.populations()[:, 1]
        oracle = coherent_population_2(params, traj.times)

        def write_oracle(f):
            f.write("t_ps,p2_oracle,p2_propagated,abs_error\n")
            for i, t in enumerate(traj.times):
                f.write("%r,%r,%r,%r\n" % (float(t), float(oracle[i]),
                                           float(p2[i]),
                                           float(abs(oracle[i] - p2[i]))))

        files.append(("two_level_oracle.csv", write_oracle))

    # Dephasing sweep of the trapped, biased dimer (the ENAQT demonstration).
    plan = SweepPlan(tasks=tuple(float(g) for g in grid))
    results = list(zip(plan.tasks, [r.value for r in run_sweep(
        plan, lambda gamma: transport_result(solver, gamma))]))
    files.append(("two_level_enaqt.csv",
                  lambda f: write_sweep_csv(results, f)))

    etas = [r.efficiency for _, r in results]
    extras = {"summary.eta_gamma0": etas[0], "summary.eta_max": max(etas)}
    return files, extras


# ---------------------------------------------------------------------------
# propagate


def _parse_initial_state(text, n_sites):
    """Parse 'site:3', 'mixture:1,6' or 'coherent:8-15' into an InitialState,
    checking the ends of each range against n_sites before expanding it."""
    if ":" not in text:
        raise ConfigurationError(
            "initial state %r: expected kind:sites, e.g. mixture:1,6" % text)
    kind, _, site_text = text.partition(":")
    sites = []
    try:
        for tok in site_text.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if "-" in tok[1:]:
                lo, _, hi = tok.partition("-")
                lo, hi = int(lo), int(hi)
                if not 1 <= lo <= hi <= n_sites:
                    raise ConfigurationError(
                        "initial-state range %s must run upward within 1..%d"
                        % (tok, n_sites))
                sites.extend(range(lo, hi + 1))
            else:
                sites.append(int(tok))
    except ValueError as exc:
        raise ConfigurationError("bad initial state %r: %s"
                                 % (text, exc)) from exc
    return InitialState(kind=kind, sites=tuple(sites))


def cmd_propagate(args):
    if args.samples < 2:
        raise ConfigurationError("--samples must be >= 2 (t = 0 and the "
                                 "horizon), got %d" % args.samples)
    sys = load_system(args.system)
    state = _parse_initial_state(args.init, sys.n_sites)
    rho0 = initial_density_matrix(state, sys.n_sites)
    t_final = args.t_final if args.t_final is not None else default_horizon(sys)
    if not (np.isfinite(t_final) and t_final > 0.0):
        raise ConfigurationError("--t-final must be finite and > 0, got %r"
                                 % t_final)
    times = np.linspace(0.0, t_final, args.samples)
    traj = propagate(sys, rho0, times)
    extras = {"t_final_ps": t_final,
              "final_trace": float(traj.trace()[-1]),
              "final_loss_integral": float(traj.loss_integral[-1])}
    return [("trajectory.csv", traj.write_csv)], extras


# ---------------------------------------------------------------------------
# temperature-to-rate


def cmd_temperature_to_rate(args):
    bath = OhmicBath(reorganization_energy_cm1=args.reorganization_energy,
                     cutoff_cm1=args.cutoff)
    rate = dephasing_rate(bath, args.temperature)
    print("gamma_phi_cm1 = %r" % rate.gamma_cm1)
    print("gamma_phi_ps = %r" % rate.gamma_ps)
    return [], {"gamma_phi_cm1": rate.gamma_cm1, "gamma_phi_ps": rate.gamma_ps}


# ---------------------------------------------------------------------------


WIDTH_HELP = ("accepted for compatibility (must be >= 1); tasks always run "
              "serially, so it changes neither execution nor results")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="enaqt",
        description="Environment-assisted quantum transport simulations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fmo-sweep", help="dephasing sweep of the FMO complex")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--gamma-min", type=float, default=GAMMA_GRID_DEFAULT[0],
                   help="lowest dephasing rate, ps^-1 (default %(default)g)")
    p.add_argument("--gamma-max", type=float, default=GAMMA_GRID_DEFAULT[1])
    p.add_argument("--gamma-points", type=int, default=GAMMA_GRID_DEFAULT[2])
    p.add_argument("--kappa3", type=float, default=DEFAULT_TRAP_RATE,
                   help="trap rate at site 3, ps^-1")
    p.add_argument("--recomb-rate", type=float, default=DEFAULT_RECOMB_RATE,
                   help="recombination rate Gamma, ps^-1 (default 1 ns lifetime)")
    p.add_argument("--data-file", default=None,
                   help="alternative Hamiltonian file (needs a .sha256 sidecar)")
    p.add_argument("--surface", action="store_true",
                   help="also compute the tau(gamma_phi, kappa_3) surface")
    p.add_argument("--surface-kappa-min", type=float,
                   default=KAPPA_GRID_DEFAULT[0])
    p.add_argument("--surface-kappa-max", type=float,
                   default=KAPPA_GRID_DEFAULT[1])
    p.add_argument("--surface-kappa-points", type=int,
                   default=KAPPA_GRID_DEFAULT[2])
    p.add_argument("--annotate-temperature", type=float, default=300.0,
                   help="record gamma_phi(T) of the default Ohmic bath in "
                        "the manifest (kelvin)")
    p.add_argument("--width", type=int, default=1, help=WIDTH_HELP)
    p.set_defaults(func=cmd_fmo_sweep)

    p = sub.add_parser("tree-ensemble",
                       help="disorder ensembles on binary trees")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--generation", type=int, default=4)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=2718, help="master seed")
    p.add_argument("--kind", choices=("coherent", "mixture", "both"),
                   default="both")
    p.add_argument("--delta-grid", default="0:4:20",
                   help="disorder grid in units of V: lo:hi:n or a comma list")
    p.add_argument("--coupling", type=float, default=DEFAULT_COUPLING_CM1,
                   help="tree coupling V, cm^-1 (results depend only on "
                        "ratios, so this sets the overall timescale)")
    p.add_argument("--trap-rate", type=float, default=None,
                   help="kappa at site 1, ps^-1 (default 2V)")
    p.add_argument("--recomb-rate", type=float, default=None,
                   help="Gamma, ps^-1 (default 0.005V)")
    p.add_argument("--width", type=int, default=1, help=WIDTH_HELP)
    p.set_defaults(func=cmd_tree_ensemble)

    p = sub.add_parser("two-level", help="closed-form dimer checks")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--epsilon", type=float, default=100.0,
                   help="energy mismatch, cm^-1")
    p.add_argument("--coupling", type=float, default=10.0, help="V, cm^-1")
    p.add_argument("--trap-rate", type=float, default=1.0,
                   help="kappa_2 for the ENAQT sweep, ps^-1")
    p.add_argument("--recomb-rate", type=float, default=0.0005)
    p.add_argument("--gamma-points", type=int, default=40)
    p.set_defaults(func=cmd_two_level)

    p = sub.add_parser("propagate", help="trajectory export for a system file")
    p.add_argument("--system", required=True, help="JSON system document")
    p.add_argument("--init", required=True,
                   help="initial state, e.g. site:1, mixture:1,6, coherent:8-15")
    p.add_argument("--t-final", type=float, default=None,
                   help="horizon in ps, finite and > 0 (default: ten decay "
                        "lifetimes)")
    p.add_argument("--samples", type=int, default=500,
                   help="output rows from t = 0 to the horizon, >= 2")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("temperature-to-rate",
                       help="Ohmic-bath dephasing rate at temperature T")
    p.add_argument("--temperature", type=float, required=True, help="kelvin")
    p.add_argument("--reorganization-energy", type=float,
                   default=OhmicBath.reorganization_energy_cm1, help="E_R, cm^-1")
    p.add_argument("--cutoff", type=float, default=OhmicBath.cutoff_cm1,
                   help="omega_c, cm^-1")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_temperature_to_rate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ConfigurationError, DataIntegrityError) as exc:
        print("error: %s" % exc, file=_sys.stderr)
        return 2
    except EnaqtError as exc:
        print("error: %s" % exc, file=_sys.stderr)
        return 1


if __name__ == "__main__":
    _sys.exit(main())
