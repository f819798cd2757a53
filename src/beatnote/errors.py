"""Exception hierarchy shared across the package.  The CLI exits 3 on an
EstimationError, 4 on a FileError and 2 on any other BeatnoteError."""


class BeatnoteError(Exception):
    """Base class for all package-specific errors."""


class EstimationError(BeatnoteError):
    """Valid input from which the requested quantity cannot be estimated."""


class FileError(BeatnoteError):
    """A file that cannot be read or written, or whose content is malformed."""


class InvalidParameterError(BeatnoteError, ValueError):
    """A physical or configuration parameter is out of its valid range."""


class ResolutionError(BeatnoteError):
    """A grid or sampling configuration is too coarse/short for the request."""


class DomainError(BeatnoteError):
    """Inputs are structurally valid but outside the operation's domain."""


class GridMismatchError(DomainError):
    """Two traces that must share a frequency grid do not."""


class WidthUndefinedError(EstimationError):
    """A requested level is not crossed on both sides of the peak."""


class AmbiguousPeakError(EstimationError):
    """The trace has multiple global maxima of equal height."""


class ExtremumNotFoundError(EstimationError):
    """No coherence-envelope extremum near its predicted position."""


class NoSolutionError(EstimationError):
    """A measured contrast lies outside the attainable range of the model."""


class InitializationError(EstimationError):
    """A fit could not be started from the given data/initial values."""


class InsufficientDataError(EstimationError):
    """Too little data to constrain the requested fit."""


class TraceIOError(FileError):
    """Filesystem problem while reading or writing a trace/report."""


class ParseError(FileError):
    """Malformed content in a file: a trace, report or config."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class SchemaError(FileError):
    """Structurally parseable file violating the trace schema."""
