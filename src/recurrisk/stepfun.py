"""Piecewise-constant functions over time.

StepFunction is the shared carrier for Kaplan-Meier curves, Nelson-Aalen
cumulative hazards, Breslow baselines and per-subject predicted curves.
Evaluation follows the right-continuous convention: the value at t is the
value attached to the last knot <= t, or `initial_value` before the first
knot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True, slots=True)
class StepFunction:
    knots: np.ndarray
    values: np.ndarray
    initial_value: float = 0.0

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.ndim != 1 or values.ndim != 1 or knots.shape != values.shape:
            raise InvalidParameterError("knots and values must be 1-d arrays of equal length")
        if (knots[1:] <= knots[:-1]).any():
            raise InvalidParameterError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        """Value at time t (scalar or array), right-continuous."""
        return self._evaluate(t, side="right")

    def evaluate_left(self, t):
        """Left limit: value just before t (used for G(t-) in IPCW terms)."""
        return self._evaluate(t, side="left")

    def _evaluate(self, t, side):
        t = np.asarray(t, dtype=float)
        if self.knots.size == 0:
            out = np.full(t.shape, self.initial_value)
        else:
            idx = np.searchsorted(self.knots, t, side=side) - 1
            out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], self.initial_value)
        return float(out) if out.ndim == 0 else out

    def exp_neg(self) -> "StepFunction":
        """Pointwise exp(-f); maps a cumulative hazard to a survival curve."""
        return StepFunction(self.knots, np.exp(-self.values),
                            float(np.exp(-self.initial_value)))


def average_step_functions(funcs: list[StepFunction]) -> StepFunction:
    """Pointwise mean of step functions over the union of their knots."""
    from .nonparametric import distinct    # nonparametric imports this module

    if not funcs:
        raise InvalidParameterError("need at least one step function")
    all_knots = distinct(np.concatenate([f.knots for f in funcs if f.knots.size]
                                         or [np.empty(0)]))
    init = float(np.mean([f.initial_value for f in funcs]))
    if all_knots.size == 0:
        return StepFunction(all_knots, np.empty(0), init)
    stacked = np.vstack([f(all_knots) for f in funcs])
    return StepFunction(all_knots, stacked.mean(axis=0), init)
