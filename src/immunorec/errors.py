"""Exception types shared across the package.

Everything derives from :class:`ImmunorecError`. A failure's class decides
its bucket: :class:`ConfigError` is a usage mistake, a :class:`DataError` a
fault in the input data, and every other class a runtime failure, so the CLI
maps each to its exit code by class alone.
"""

from __future__ import annotations


class ImmunorecError(Exception):
    """Base class for all package errors."""


class ConfigError(ImmunorecError, ValueError):
    """A configuration value (a parameter, an option, a split) is out of range."""


class InvalidRatingError(ImmunorecError, ValueError):
    """A rating is not one of the six scale points 0, 0.2, 0.4, 0.6, 0.8, 1."""


class InvalidCategoryError(ImmunorecError, ValueError):
    """A category index lies outside 1..6."""


class DataError(ImmunorecError):
    """The input data cannot give the requested result (the CLI exits 2)."""


class InsufficientOverlapError(ImmunorecError):
    """A pair of profiles has too few common movies for the requested measure."""

    def __init__(self, needed: int, found: int):
        self.needed = needed
        self.found = found
        super().__init__(f"need at least {needed} common movies, found {found}")


class EmptyPoolError(DataError):
    """No eligible candidate antibodies remain in the pool."""


class EmptyPopulationError(ImmunorecError):
    """An operation requires a non-empty antibody population."""


class ParseError(DataError):
    """A ratings file failed validation. Carries the offending location."""

    def __init__(self, line: int, column: int, reason: str):
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"line {line}, column {column}: {reason}")


class EmptyDatasetError(DataError):
    """Loading or filtering produced a dataset with no users."""


class InsufficientRatingsError(DataError):
    """A user has too few ratings for the requested number of hidden trials."""


class InsufficientAntigensError(DataError):
    """Fewer eligible test users exist than the experiment asked for."""


class SampleMismatchError(DataError):
    """Two reports do not cover the identical user sample / seed discipline."""


class UnknownUserError(DataError):
    """A user id is absent from the dataset."""
