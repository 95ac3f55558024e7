"""Exception types shared across the toolkit.

Every error raised by the library derives from :class:`TermSpreadError`.
Its ``exit_code`` separates configuration and input-data problems (1) from
computation failures (2); the CLI exits with it.
"""

from __future__ import annotations


class TermSpreadError(Exception):
    """Base class for all library errors."""

    exit_code = 2


# --- data ingestion / alignment (exit 1) ----------------------------------

class MissingSeries(TermSpreadError):
    """A requested maturity or control column is absent from the inputs."""

    exit_code = 1


class GapInDates(TermSpreadError):
    """A calendar month is missing from a series that must be contiguous."""

    exit_code = 1


class UnreadableInput(TermSpreadError):
    """An input file could not be opened or decoded."""

    exit_code = 1


class MalformedRow(TermSpreadError):
    """A CSV cell could not be parsed (or is non-finite)."""

    exit_code = 1


class EmptyInput(TermSpreadError):
    """An operation received no observations."""

    exit_code = 1


class DomainError(TermSpreadError):
    """A numeric argument lies outside the operation's domain."""

    exit_code = 1


class HorizonTooLong(TermSpreadError):
    """The horizon leaves no (predictor, target) pairs in the sample or a partition."""

    exit_code = 1


class CoverageError(TermSpreadError):
    """The recession series does not cover the sample or a partition's two
    classes, or a feature does not vary over the training rows."""

    exit_code = 1


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


class ConfigError(TermSpreadError):
    """An experiment configuration file is invalid."""

    exit_code = 1


class IoError(TermSpreadError):
    """An output file could not be written."""
