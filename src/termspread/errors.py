"""Exception types shared across the toolkit.

Every error raised by the library derives from :class:`TermSpreadError`.
Its ``exit_code`` separates configuration and input-data problems (1, every
:class:`InputError`) from computation failures (2); the CLI exits with it.
"""

from __future__ import annotations


class TermSpreadError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class InputError(TermSpreadError):
    """Base class for configuration and input-data errors."""

    exit_code = 1


# --- data ingestion / alignment (exit 1) ----------------------------------

class MissingSeries(InputError):
    """A requested maturity or control column is absent from the inputs."""


class GapInDates(InputError):
    """A calendar month is missing from a series that must be contiguous."""


class UnreadableInput(InputError):
    """An input file could not be opened or decoded."""


class MalformedRow(InputError):
    """A CSV cell could not be parsed (or is non-finite)."""


class EmptyInput(InputError):
    """An operation received no observations."""


class DomainError(InputError):
    """A numeric argument lies outside the operation's domain."""


class HorizonTooLong(InputError):
    """The horizon leaves no (predictor, target) pairs in the sample or a partition."""


class CoverageError(InputError):
    """The recession series does not cover the sample or a partition's two
    classes, or a feature does not vary over the training rows."""


# --- fitting (exit 2) -------------------------------------------------------

class NotConverged(TermSpreadError):
    """The solver hit its iteration cap without an optimality certificate."""


class Separation(TermSpreadError):
    """The logistic MLE diverged (quasi-separated data)."""


class Singular(TermSpreadError):
    """A Newton step failed because the Hessian is not invertible."""


class SingleClass(TermSpreadError):
    """Both target classes are required but only one is present."""


class CountNeverAttained(TermSpreadError):
    """No regularization strength yields the requested support size."""


# --- evaluation (exit 2), configuration (exit 1), output (exit 2) -----------

class LengthMismatch(TermSpreadError):
    """Paired sequences have different lengths."""


class ZeroBenchmark(TermSpreadError):
    """The benchmark forecast has zero mean squared error."""


class ConfigError(InputError):
    """An experiment configuration file is invalid."""


class IoError(TermSpreadError):
    """An output file could not be written."""
