"""Kaplan-Meier and Nelson-Aalen estimators and the two-sample log-rank test.

Tie convention: events at t precede censorings at t, so subjects censored
at t are still part of the risk set at t and leave it strictly afterwards.
All functions are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import EmptyCohortError, InvalidParameterError, UndefinedMetricError
from .stepfun import StepFunction


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

    event_times, d_at = np.unique(times[events == 1], return_counts=True)
    # risk set at t: subjects with observed time >= t (censored-at-t included)
    n_at = times.size - np.searchsorted(np.sort(times), event_times, side="left")
    return event_times, d_at, n_at


def kaplan_meier(times, events) -> StepFunction:
    """Product-limit survival estimate; knots at distinct event times."""
    event_times, d, n = _event_table(times, events)
    surv = np.cumprod(1.0 - d / n)
    return StepFunction(event_times, surv, initial_value=1.0)


def greenwood_variance(times, events) -> StepFunction:
    """Greenwood variance of the KM estimate at each event time.

    Var(S(t)) = S(t)^2 * sum_{ti<=t} d_i / (n_i (n_i - d_i)); the summand is
    treated as 0 where n_i == d_i (the curve has hit zero).
    """
    event_times, d, n = _event_table(times, events)
    surv = np.cumprod(1.0 - d / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(n > d, d / (n * (n - d)), 0.0)
    var = surv ** 2 * np.cumsum(terms)
    return StepFunction(event_times, var, initial_value=0.0)


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

    Each group is a (times, events) pair. Raises UndefinedMetricError when
    no events occur in either group.
    """
    times_a, events_a = (np.asarray(v) for v in group_a)
    times_b, events_b = (np.asarray(v) for v in group_b)
    if times_a.size == 0 or times_b.size == 0:
        raise EmptyCohortError("both groups must be nonempty")
    if int(np.sum(events_a)) + int(np.sum(events_b)) == 0:
        raise UndefinedMetricError("log-rank is undefined with zero events")

    times = np.concatenate([times_a, times_b]).astype(float)
    events = np.concatenate([events_a, events_b]).astype(int)
    t_a, e_a = times[:times_a.size], events[:times_a.size]

    event_times, d = np.unique(times[events == 1], return_counts=True)
    n = times.size - np.searchsorted(np.sort(times), event_times, side="left")
    n_a = t_a.size - np.searchsorted(np.sort(t_a), event_times, side="left")
    deaths_a = np.sort(t_a[e_a == 1])
    d_a = (np.searchsorted(deaths_a, event_times, side="right")
           - np.searchsorted(deaths_a, event_times, side="left"))
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
    p_value = float(stats.chi2.sf(chi_square, df=1))
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
