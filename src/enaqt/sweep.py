"""Deterministic parameter-sweep executor.

Tasks are pure functions of their descriptor and run one after another in
task order on the calling thread. Per-task failures are captured
rather than aborting siblings; the run as a whole fails only when the
failure fraction exceeds the configured threshold.

Randomized tasks never share generator state: each task derives its own
seed from the master seed and its index through a stable cryptographic
hash, so results are reproducible bit for bit across platforms and
processes, and any task can be rerun in isolation.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SweepFailureError
from .model import as_integer


def derive_seed(master_seed, *indices):
    """Stable 64-bit seed for a task, hashed from the master seed and any
    number of integer indices (for example delta index and sample index),
    each within signed 64 bits (ConfigurationError otherwise)."""
    h = hashlib.blake2b(digest_size=8)
    try:
        for value in (master_seed,) + indices:
            value = as_integer("seed or index", value)
            h.update(value.to_bytes(8, "big", signed=True))
    except OverflowError:
        raise ConfigurationError("seed or index %d is outside the signed "
                                 "64-bit range" % value) from None
    return int.from_bytes(h.digest(), "big")


def sample_mean_std(values):
    """Mean and sample standard deviation (n-1 denominator) of a sequence.

    The std of fewer than two values is reported as 0. Both are computed
    from the deviations about the first value, which are exactly 0 for
    identical values, so those give exactly (value, 0.0). Input order
    matters for bitwise reproducibility, so callers must pass index-sorted
    data.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    dev = arr - arr[0]
    mean = float(arr[0] + dev.mean())
    std = float(dev.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


@dataclass(frozen=True)
class SweepPlan:
    """Tasks to execute: opaque descriptors, run in order."""

    tasks: tuple

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))


@dataclass(frozen=True)
class TaskResult:
    value: object = None
    error: str = None

    @property
    def ok(self):
        return self.error is None


def run_task(task, task_fn):
    """task_fn(task) as a TaskResult, its exception captured as the error
    "<ExceptionType>: <message>"."""
    try:
        return TaskResult(value=task_fn(task))
    except Exception as exc:
        return TaskResult(error="%s: %s" % (type(exc).__name__, exc))


def run_sweep(plan, task_fn, failure_threshold=0.0):
    """Execute every task and return TaskResults in task order.

    failure_threshold is the tolerated fraction of failed tasks; exceeding
    it raises SweepFailureError quoting the first task's error.
    """
    n = len(plan.tasks)
    results = [run_task(task, task_fn) for task in plan.tasks]
    failures = [r for r in results if not r.ok]
    if len(failures) > failure_threshold * n:
        raise SweepFailureError(
            "%d of %d sweep tasks failed (threshold %.0f%%); first failure: %s"
            % (len(failures), n, 100.0 * failure_threshold, failures[0].error))
    return results
