"""Risk sets, Kaplan-Meier and Nelson-Aalen estimators and the log-rank test.

Tie convention, kept by ``RiskSets``, which every risk-set sum in the
package reads: events at t precede censorings at t, so subjects censored
at t are still part of the risk set at t and leave it strictly afterwards.
All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCohortError, InvalidParameterError, UndefinedMetricError
from .stepfun import StepFunction


class RiskSets:
    """Risk sets {j : t_j >= t} of one sample, built once from (times, events).

    Subjects are taken in stable time order, and a block of tied times
    shares the risk set that starts at its first sorted position, its head.
    Arrays and positions are in sorted order; ``unsort`` maps per-subject
    values back to input order.
    """

    def __init__(self, times, events):
        times = np.asarray(times, dtype=float)
        self.order = np.argsort(times, kind="stable")
        self.times = times[self.order]
        self.events = np.asarray(events, dtype=int)[self.order]
        # first sorted position of each subject's tied block
        self.heads = np.searchsorted(self.times, self.times, side="left")
        self.event_pos = np.flatnonzero(self.events == 1)
        self.event_heads = self.heads[self.event_pos]
        # deaths in the tied block headed at each sorted position, 0 elsewhere
        self.deaths_at = np.bincount(self.event_heads, minlength=self.times.size)
        self.blocks = np.flatnonzero(self.deaths_at)   # heads of blocks holding events
        self.deaths = self.deaths_at[self.blocks]
        self.at_risk = self.times.size - self.blocks
        # number of events at or before each subject's time
        self.events_through = np.cumsum(self.deaths_at)[self.heads]

    @staticmethod
    def suffix_sum(sorted_values):
        """Sums over {j : position >= p} for every sorted position p."""
        return np.cumsum(sorted_values[::-1], axis=0)[::-1]

    def unsort(self, sorted_values):
        """Per-subject values from sorted order back to input order."""
        out = np.empty_like(sorted_values)
        out[self.order] = sorted_values
        return out


def _event_table(times, events):
    """Distinct event times with event counts d and risk-set sizes n."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    if times.size == 0:
        raise EmptyCohortError("no subjects")
    if np.any(times <= 0):
        raise InvalidParameterError("all times must be positive")
    if times.shape != events.shape:
        raise InvalidParameterError("times and events must have equal length")
    risk = RiskSets(times, events)
    return risk.times[risk.blocks], risk.deaths, risk.at_risk


def kaplan_meier(times, events) -> StepFunction:
    """Product-limit survival estimate; knots at distinct event times."""
    event_times, d, n = _event_table(times, events)
    surv = np.cumprod(1.0 - d / n)
    return StepFunction(event_times, surv, initial_value=1.0)


def nelson_aalen(times, events) -> StepFunction:
    """Cumulative-hazard estimate H(t) = sum_{ti<=t} d_i / n_i."""
    event_times, d, n = _event_table(times, events)
    return StepFunction(event_times, np.cumsum(d / n), initial_value=0.0)


@dataclass(frozen=True)
class LogRankResult:
    chi_square: float
    p_value: float
    observed: tuple[float, float]
    expected: tuple[float, float]


def log_rank(group_a, group_b) -> LogRankResult:
    """Two-sample log-rank test with hypergeometric variance, 1 df.

    Each group is a (times, events) pair. The p-value is the chi-square(1)
    upper tail, erfc(sqrt(chi_square / 2)), which is exactly 1 at
    chi_square = 0. Raises UndefinedMetricError when no events occur in
    either group.
    """
    times_a, events_a = (np.asarray(v) for v in group_a)
    times_b, events_b = (np.asarray(v) for v in group_b)
    if times_a.size == 0 or times_b.size == 0:
        raise EmptyCohortError("both groups must be nonempty")
    if int(np.sum(events_a)) + int(np.sum(events_b)) == 0:
        raise UndefinedMetricError("log-rank is undefined with zero events")

    risk = RiskSets(np.concatenate([times_a, times_b]), np.concatenate([events_a, events_b]))
    d, n = risk.deaths, risk.at_risk
    in_a = risk.order < times_a.size
    n_a = risk.suffix_sum(in_a)[risk.blocks]
    d_a = np.bincount(risk.event_heads[in_a[risk.event_pos]], minlength=in_a.size)[risk.blocks]
    observed_a = float(np.sum(d_a))
    observed_total = float(np.sum(d))
    # cumsum adds left to right in event-time order, as a scalar loop would
    expected_a = float(np.cumsum(d * n_a / n)[-1])
    m = n > 1
    q = n_a[m] / n[m]
    variance = float(np.cumsum(
        np.r_[0.0, d[m] * q * (1 - q) * (n[m] - d[m]) / (n[m] - 1)])[-1])

    if variance <= 0.0:
        # groups are indistinguishable at every event time
        chi_square = 0.0
    else:
        chi_square = (observed_a - expected_a) ** 2 / variance
    p_value = math.erfc(math.sqrt(chi_square / 2.0))
    return LogRankResult(
        chi_square=float(chi_square),
        p_value=p_value,
        observed=(float(observed_a), float(observed_total - observed_a)),
        expected=(float(expected_a), float(observed_total - expected_a)),
    )


def median_survival_time(surv: StepFunction) -> float | None:
    """Smallest knot where the survival curve is <= 0.5, or None."""
    below = np.nonzero(surv.values <= 0.5)[0]
    if below.size == 0:
        return None
    return float(surv.knots[below[0]])
