"""Exception and warning types shared across the package."""

from __future__ import annotations


class HsClassifyError(Exception):
    """Base class for all errors raised by this package."""


class MalformedCode(HsClassifyError):
    """Raw HS code string cannot be normalized to six digits."""


class ParseError(HsClassifyError):
    """A corpus file record is invalid. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateId(HsClassifyError):
    """Two case records share the same id."""


class DuplicateHeading(HsClassifyError):
    """Two manual records share the same heading."""


class EmptyInput(HsClassifyError):
    """An operation that requires at least one element received none."""


class DimensionMismatch(HsClassifyError):
    """Vector or matrix dimensions do not agree."""


class OutOfRange(HsClassifyError):
    """A word-vector component or idf weight lies outside its accepted range."""


class IndexOutOfRange(HsClassifyError):
    """A class index is outside the classifier's label range."""


class BadK(HsClassifyError):
    """Requested k is outside the valid range for a top-k operation."""


class BadTemperature(HsClassifyError):
    """Temperature must be a finite positive real."""


class UntrainedModel(HsClassifyError):
    """Prediction requested from a model that has not been fitted or loaded."""


class MissingManualWarning(UserWarning):
    """A case's gold heading has no manual entry; evidence falls back to none."""


class DegenerateSplitWarning(UserWarning):
    """A chronological split produced an empty train or validation partition."""


class TemperatureBoundWarning(UserWarning):
    """A fitted temperature sits at an end of the search range."""
