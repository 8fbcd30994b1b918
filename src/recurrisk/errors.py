"""Exception types raised across the toolkit.

Every failure mode that callers are expected to distinguish gets its own
class so that tests and the pipeline can catch precisely what they mean to.
"""

from contextlib import contextmanager


class RecurriskError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(RecurriskError):
    """A required column is missing or the column-role mapping is invalid."""


class RowParseError(RecurriskError):
    """A data cell failed validation; carries the offending row and column."""

    def __init__(self, row: int, column: str, message: str):
        super().__init__(f"row {row}, column {column!r}: {message}")
        self.row = row
        self.column = column


class EmptyCohortError(RecurriskError):
    """The input contains no data rows."""


class NoInformativeFeaturesError(RecurriskError):
    """Every feature column is constant; nothing to normalize or fit."""


class CalibrationError(RecurriskError):
    """Censoring-rate calibration did not reach the target."""


class ShapeError(RecurriskError):
    """Array dimensions do not match what the operation requires."""


class EmptyRegionError(RecurriskError):
    """A region mask contains no occupied voxels."""


class InvalidParameterError(RecurriskError):
    """A parameter is outside its documented domain."""


class NumericInputError(RecurriskError):
    """A non-finite value was passed where finite input is required."""


class NonconvergenceError(RecurriskError):
    """An iterative fit diverged.

    For `fit_cox` this means |beta| > 50, curvature that vanished along
    the fit path, or information that collapsed at the last iterate (the
    signs of separable data). Hitting the iteration cap is not an error
    there: the fit returns with converged=False. The last iterate is
    attached so callers can inspect it.
    """

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class ConditioningError(RecurriskError):
    """A linear system is singular and no ridge term was supplied."""


class UndefinedMetricError(RecurriskError):
    """The metric has no value on this input (e.g. no comparable pairs)."""


class TrainingError(RecurriskError):
    """Model training cannot proceed or diverged; may carry a loss trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class DegenerateStratificationError(RecurriskError):
    """All risk scores are identical; a median split is meaningless."""


class PipelineError(RecurriskError):
    """A pipeline step failed; the step name is part of the message."""

    def __init__(self, step: str, message: str):
        super().__init__(f"{step}: {message}")
        self.step = step


@contextmanager
def reading(what: str):
    """Re-raise the OS, missing-field, type and value errors of reading an
    input file as InvalidParameterError naming `what`."""
    try:
        yield
    except (OSError, KeyError, TypeError, ValueError) as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise InvalidParameterError(f"{what}: {reason}") from None
