"""Exception types raised across the package.

Everything derives from EnaqtError so callers can catch the whole family
with one except clause. The CLI maps these to nonzero exit codes. A run
that traps nothing is not an error: its transfer time is inf.
"""


class EnaqtError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(EnaqtError):
    """Invalid model parameters, dimensions, or user configuration."""


class DataIntegrityError(EnaqtError):
    """A bundled or user-supplied data file is missing or fails its checksum."""


class NonConvergentIntegralError(EnaqtError):
    """The infinite-horizon integrals do not converge.

    Raised when the Liouvillian is singular or numerically singular: some
    initial population can never reach a decay channel (a site cut off from
    every trap, with no recombination), or the energies and rates lie too
    many orders of magnitude apart. A system with no decay channel at all
    is refused earlier, with ConfigurationError.
    """


class NumericalConsistencyError(EnaqtError):
    """A computed quantity violates a bound it must satisfy (for example
    an efficiency far outside [0, 1])."""


class SweepFailureError(EnaqtError):
    """Too many tasks of a sweep or ensemble failed."""
