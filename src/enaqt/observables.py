"""Success metrics of a transport run.

Efficiency is the integrated probability of trapping,

    eta = 2 sum_m kappa_m int_0^inf <m|rho(t)|m> dt = 2 sum_m kappa_m S1_mm,

the transfer time is the trapping-weighted mean capture time,

    tau = (2 / eta) sum_m kappa_m int_0^inf t <m|rho(t)|m> dt
        = (2 / eta) sum_m kappa_m S2_mm,

which is inf when eta is numerically zero (nothing is ever trapped), and
the loss probability is the recombination-channel integral
2 Gamma sum_m S1_mm. For a trace-one initial state eta + loss = 1, which
the test suite asserts on every solved system.

All three are computed from the algebraic moments S1, S2 of
dynamics.MomentSolver; time-domain quadrature exists only as a test
oracle, so no truncation horizon ever enters the reported numbers.
"""

import logging
from dataclasses import dataclass

from .dynamics import integrated_state
from .errors import NumericalConsistencyError

logger = logging.getLogger(__name__)

_CLAMP_TOL = 1e-8
_MIN_ETA = 1e-12


@dataclass(frozen=True)
class TransportResult:
    """Bundle of efficiency eta, transfer time tau (ps) and loss
    probability."""

    efficiency: float
    transfer_time_ps: float
    loss_probability: float


def clamped_probability(value, name):
    """value, a probability, clamped into [0, 1] when roundoff puts it at
    most 1e-8 outside (with a logged warning); further outside, or NaN,
    raises NumericalConsistencyError naming it."""
    # Written so that NaN fails the test too.
    if not -_CLAMP_TOL <= value <= 1.0 + _CLAMP_TOL:
        raise NumericalConsistencyError(
            "%s = %.6e is outside [0, 1] by more than %g; the solve is "
            "numerically inconsistent" % (name, value, _CLAMP_TOL))
    if value < 0.0 or value > 1.0:
        logger.warning("clamping %s = %.17g into [0, 1] (roundoff)", name, value)
        return min(max(value, 0.0), 1.0)
    return value


def efficiency(sys, s1):
    """eta = 2 sum_m kappa_m S1_mm, clamped to [0, 1] within roundoff."""
    diag = s1.diagonal().real
    eta = 2.0 * float(sys.trap_rates @ diag)
    return clamped_probability(eta, "efficiency")


def transfer_time(sys, s2, eta):
    """tau = (2 / eta) sum_m kappa_m S2_mm, in ps; inf when eta is at most
    1e-12, since nothing is then ever trapped."""
    if eta <= _MIN_ETA:
        return float("inf")
    diag = s2.diagonal().real
    return (2.0 / eta) * float(sys.trap_rates @ diag)


def loss_probability(sys, s1):
    """Probability lost to recombination, 2 Gamma sum_m S1_mm."""
    diag = s1.diagonal().real
    loss = 2.0 * sys.recomb_rate * float(diag.sum())
    return clamped_probability(loss, "loss probability")


def transport_result(solver, gamma_phi):
    """The metrics of solver, a dynamics.MomentSolver, at dephasing rate
    gamma_phi, with the trap and recombination rates of solver.system.
    Its transfer time is transfer_time's, inf when nothing is trapped.
    """
    sys = solver.system
    s1, s2 = integrated_state(solver, gamma_phi)
    eta = efficiency(sys, s1)
    return TransportResult(efficiency=eta,
                           transfer_time_ps=transfer_time(sys, s2, eta),
                           loss_probability=loss_probability(sys, s1))
