"""The benchmark tracer's hooks still resolve against the package.

bench/tracing.py wraps functions by (owner, attribute) from outside the
package, so renaming or deleting one of them breaks traced benchmark runs.
This imports the tracer as it is, without installing it, and checks every
name it will look up.
"""

import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("target, attr, name", tracing.SPANS,
                         ids=["%s.%s" % span[:2] for span in tracing.SPANS])
def test_every_traced_span_resolves(target, attr, name):
    assert callable(getattr(tracing._resolve(target), attr))


@pytest.mark.parametrize("module", tracing.SWEEP_CALLERS)
def test_every_sweep_caller_has_run_sweep(module):
    assert callable(getattr(tracing._resolve(module), "run_sweep"))
