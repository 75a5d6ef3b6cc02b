"""One repetition of a workload, in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json

SPEC names the checkout's `src` directory, the CLI argv lists to run, the
output directory, whether to trace, and the workload's set-up step. The
child imports enaqt from that `src`, does the set-up, reads the monotonic
clock, calls `enaqt.cli.main` once per argv list, reads the clock again,
and only then writes what the checker and the parent need: the clock
readings, the CPU time, the peak resident memory of this process and of
its largest reaped child process, the propagate loss
integrals and, in a traced run, the spans.
"""

import json
import os
import resource
import sys
import time


def _cpu_seconds():
    """User plus system CPU time of this process, all its threads, and the
    child processes it has reaped."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _versions():
    import numpy
    import scipy
    info = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
        info["blas_config"] = blas.get("openblas configuration")
    except (AttributeError, KeyError, TypeError):
        info["blas"] = "unknown"
    return info


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    import enaqt
    import enaqt.cli as cli
    if not os.path.abspath(enaqt.__file__).startswith(spec["src"] + os.sep):
        raise SystemExit("enaqt imported from %s, not %s"
                         % (enaqt.__file__, spec["src"]))
    if spec.get("warmup"):
        print(json.dumps(_versions()))
        return 0
    out_dir = spec["out_dir"]

    if spec.get("system_doc"):
        from enaqt.fmo import load_fmo_model
        from enaqt.model import save_system
        save_system(load_fmo_model().system.with_dephasing(0.0),
                    os.path.join(out_dir, spec["system_doc"]))

    # Keep the trajectory each `propagate` command returns, to check
    # trace + loss_integral = 1 after the timed section.
    captured = []
    real_propagate = cli.propagate

    def propagate(*args, **kwargs):
        traj = real_propagate(*args, **kwargs)
        captured.append(traj)
        return traj
    cli.propagate = propagate

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    codes = []
    loss = None
    cpu_call = _cpu_seconds()
    t_call = time.monotonic()
    for argv in spec["commands"]:
        n_before = len(captured)
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.span("cli.main", cli.main, argv)
        codes.append(rc)
        if argv[0] == "propagate" and len(captured) > n_before:
            loss = captured[n_before].loss_integral
        if rc != 0:
            break
    t_end = time.monotonic()
    cpu_end = _cpu_seconds()

    if loss is not None:
        from check import LOSS_FILE
        with open(os.path.join(out_dir, LOSS_FILE), "w") as f:
            json.dump([float(x) for x in loss], f)
    if tracer is not None:
        tracer.dump(os.path.join(out_dir, "spans.json"))
    report = {"t_call": t_call, "t_end": t_end, "codes": codes,
              "cpu_s": cpu_end - cpu_call,
              "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "maxrss_children_kib":
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
    with open(os.path.join(out_dir, "child.json"), "w") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
