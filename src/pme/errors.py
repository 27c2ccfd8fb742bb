"""Exception hierarchy shared by all pme modules, and the exit code of each.

Every concrete error class declares the ``exit_code`` that ``pme`` returns
when it escapes a subcommand: 2 for bad input (``ConfigError``,
``DomainError``), 3 for a failed certificate
(``CertificateError``, ``NotApplicableError``) and 4 for a solver breakdown
(``SolverError``, ``StageError``).  ``EXIT_LABELS`` names each code in the
CLI's stderr line.  ``is_count`` is the test each count the library takes
(cells, iterations, stages, steps) must pass.
"""

import operator

EXIT_LABELS = {2: "configuration error", 3: "certificate failure", 4: "solver failure"}


class PMEError(Exception):
    """Base class for all package errors; each subclass sets ``exit_code``."""
    exit_code: int


class DomainError(PMEError, ValueError):
    """An argument is outside its admissible range: rho <= 0, a dimension
    below 2, or a geometry whose values leave the double range."""
    exit_code = 2


class NotApplicableError(PMEError):
    """A certificate prerequisite (e.g. lower quadratic drift bound) is missing."""
    exit_code = 3


class CertificateError(PMEError):
    """A barrier/decay certificate failed on the verification grid."""
    exit_code = 3


class SolverError(PMEError):
    """Hard nonlinear-solver failure after exhausting time-step halvings."""
    exit_code = 4


class StageError(PMEError):
    """A blow-up iteration stage could not be completed."""
    exit_code = 4


class ConfigError(PMEError):
    """Configuration file is malformed or violates a declared constraint."""
    exit_code = 2


def is_count(value, minimum: int) -> bool:
    """Whether ``value`` is an integer that ``operator.index`` takes (an int
    or a numpy integer, not a float) and is at least ``minimum``."""
    try:
        return operator.index(value) >= minimum
    except TypeError:
        return False
