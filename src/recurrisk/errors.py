"""Exception types raised across the toolkit: one class for each way a
caller handles a failure. The CLI prints any RecurriskError, the base
class, as one "error:" line.

- InvalidParameterError: a bad file, config value, argument or data.
- RowParseError: a bad cell; carries its row and column.
- NonconvergenceError, ConditioningError: the screen flags the feature
  as not converged. NonconvergenceError carries the last iterate.
- TrainingError: carries the loss trace; the screen does not catch it.
- UndefinedMetricError: the report writes the metric as null.
- DegenerateStratificationError: the risk groups cannot be formed.
- PipelineError: carries the step that failed.

`reading` and `checked` turn a bad input file into InvalidParameterError.
"""

import inspect
import types
import typing
from contextlib import contextmanager

import numpy as np


class RecurriskError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(RecurriskError):
    """A file, config value, argument or data array is outside its
    documented domain."""


class RowParseError(RecurriskError):
    """A data cell failed validation; carries the offending row and column."""

    def __init__(self, row: int, column: str, message: str):
        super().__init__(f"row {row}, column {column!r}: {message}")
        self.row = row
        self.column = column
        self.message = message

    def __reduce__(self):
        return type(self), (self.row, self.column, self.message)


def check_rows(X, width: int) -> np.ndarray:
    """X as a float array of at least two dimensions; InvalidParameterError
    unless it is a matrix of rows `width` features wide."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != width:
        raise InvalidParameterError(f"expected rows of {width} features, got shape {X.shape}")
    return X


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
        self.message = message

    def __reduce__(self):
        return type(self), (self.step, self.message)


@contextmanager
def reading(what: str, path):
    """Open the input file `path` as UTF-8 text, with or without a byte-order
    mark, and yield it; its OS, type and value errors (a decoding error is
    one) are re-raised as InvalidParameterError naming `what` and `path`."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except (OSError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{what} {path}: {exc}") from None


def declared(target, *skip) -> dict:
    """Parameter name -> inspect.Parameter of a function or dataclass, each
    annotation resolved to its type, leaving out the names in `skip`."""
    hints = typing.get_type_hints(target)
    return {name: p.replace(annotation=hints.get(name, p.annotation))
            for name, p in inspect.signature(target).parameters.items() if name not in skip}


def checked(where: str, doc, params: dict) -> dict:
    """The JSON object `doc` checked against `params` (from `declared`).

    An unknown key, a missing key without a default, or a value that is not
    an instance of its annotated type raises InvalidParameterError naming
    `where`. An int may stand for a float and is converted, a list may stand
    for a tuple and its elements are checked too, and a bool stands only for
    a bool.
    """
    if not isinstance(doc, dict):
        raise InvalidParameterError(f"{where}: expected an object, got {doc!r}")
    unknown = sorted(set(doc) - set(params))
    if unknown:
        raise InvalidParameterError(f"{where}: unknown key(s) {unknown}")
    for name, p in params.items():
        if p.default is p.empty and name not in doc:
            raise InvalidParameterError(f"{where}: missing field {name!r}")
    out = {}
    for key, value in doc.items():
        hint, default = params[key].annotation, params[key].default
        try:
            out[key] = _as_type(hint, value)
        except TypeError:
            expected = (f"the type of its default {default!r}"
                        if isinstance(default, (int, float, str, tuple)) else
                        f"its type {hint.__name__ if isinstance(hint, type) else hint}")
            raise InvalidParameterError(
                f"{where}: {key}={value!r} does not match {expected}") from None
    return out


def _as_type(hint, value):
    """`value` as an instance of `hint` (a class, `X | None` or
    `tuple[X, ...]`); TypeError if it is none."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        inner = next(a for a in args if a is not type(None))
        return None if value is None else _as_type(inner, value)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError
        return tuple(_as_type(args[0], v) for v in value)
    if hint is float and type(value) is int:
        return float(value)
    if isinstance(value, bool) is not (hint is bool) or not isinstance(value, hint):
        raise TypeError
    return value
