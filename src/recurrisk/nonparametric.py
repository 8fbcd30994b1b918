"""Risk sets, the Cox loss, Kaplan-Meier and Nelson-Aalen estimators and
the log-rank test.

Tie convention, kept by ``RiskSets``, which every risk-set sum in the
package reads: events at t precede censorings at t, so subjects censored
at t are still part of the risk set at t and leave it strictly afterwards.

``CoxLoss`` is the package's one Cox partial likelihood; every Cox learner
and the Breslow baseline read its weights and denominators. In sorted
order, w = exp(max(f - shift, -700)) with shift = max f (finite for scores
up to +-700) and S0(p) sums w over positions >= p. The ell-th (from 0) of
the m events tied in a block has the denominator D = S0(head) - c * W, W
the summed weight of the block's events: c = ell / m is Efron's
correction, and Breslow is c = 0. All functions are pure and thread-safe.

``median``, ``deciles`` and ``distinct`` give the bits of ``np.median``,
``np.quantile`` and a flagless ``np.unique`` on NaN-free input without
importing ``numpy.ma``, which those three load (1.3 MB) and nothing here uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, UndefinedMetricError
from .stepfun import StepFunction


def canonical_order(times, events, ids) -> np.ndarray:
    """Subject order by (time, event, id): total for unique ids, so a fit that
    sorts its subjects by it first is independent of the input order."""
    return np.lexsort((np.asarray(ids, dtype=object), events, times))


class RiskSets:
    """Risk sets {j : t_j >= t} of one sample, built once from (times, events).

    Subjects are taken in stable time order, and a block of tied times
    shares the risk set that starts at its first sorted position, its head.
    Arrays and positions are in sorted order; ``unsort`` maps per-subject
    values back to input order. Event terms are the events in sorted order.
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

    @cached_property
    def events_through(self):
        """Number of events at or before each sorted subject's time; built on
        first use, as only the Cox loss reads it."""
        return np.cumsum(self.deaths_at)[self.heads]

    @cached_property
    def efron_ties(self):
        """(c, start): each event term's Efron fraction c = ell / m and each
        tied block's first event term; built on first use, as most risk
        sets (the forest's, one per leaf through nelson_aalen) never need them."""
        start = np.cumsum(self.deaths) - self.deaths
        ell = np.arange(self.event_pos.size) - np.repeat(start, self.deaths)
        return ell / np.repeat(self.deaths, self.deaths), start

    def tied_sums(self, per_event):
        """Per event term, the sum of per-event-term rows over its tied block."""
        sums = np.add.reduceat(per_event, self.efron_ties[1], axis=0)
        return np.repeat(sums, self.deaths, axis=0)

    def through_events(self, per_event):
        """Per sorted subject j, the sum of per-event-term values over t_k <= t_j."""
        return np.concatenate(([0.0], np.cumsum(per_event)))[self.events_through]

    @staticmethod
    def suffix_sum(sorted_values):
        """Sums over {j : position >= p} for every sorted position p."""
        return np.cumsum(sorted_values[::-1], axis=0)[::-1]

    def unsort(self, sorted_values):
        """Per-subject values from sorted order back to input order."""
        out = np.empty_like(sorted_values)
        out[self.order] = sorted_values
        return out


class CoxLoss:
    """The loss sum_k (log D_k + shift - f_k) of scores f over `risk`, from
    the sorted weights ``w``, their suffix sums ``s0`` and the event terms'
    denominators ``den``. The Efron fractions ``c`` are None under Breslow,
    and when no two events tie: every c = ell / m is then 0 / 1, and each
    correction x - 0 * y would return x."""

    def __init__(self, risk: RiskSets, scores, efron: bool = False):
        self.risk, self.scores = risk, np.asarray(scores, dtype=float)
        self.shift = float(np.max(self.scores))
        self.w = np.exp(np.maximum(self.scores - self.shift, -700.0))[risk.order]
        self.s0 = risk.suffix_sum(self.w)
        self.den, self.c = self.s0[risk.event_heads], None
        if efron and (risk.deaths > 1).any():
            self.c = risk.efron_ties[0]
            self.den = self.den - self.c * risk.tied_sums(self.w[risk.event_pos])

    def value(self) -> float:
        f = self.scores[self.risk.order][self.risk.event_pos]
        return float(np.sum(np.log(self.den) + self.shift - f))

    def cumulative_hazard(self):
        """w * (A - B) per sorted subject, so that g = w * (A - B) - delta is
        the loss's gradient in f: A_j sums 1/D_k over t_k <= t_j, and B_j
        sums c_k/D_k over j's tied block if j is an event (else, or under
        Breslow, 0)."""
        risk = self.risk
        a = risk.through_events(1.0 / self.den)
        if self.c is not None:
            a[risk.event_pos] -= risk.tied_sums(self.c / self.den)
        return self.w * a


def _event_table(times, events):
    """Distinct event times with event counts d and risk-set sizes n."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    if times.size == 0:
        raise InvalidParameterError("no subjects")
    if (times <= 0).any():
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
        raise InvalidParameterError("both groups must be nonempty")
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


def median(values):
    """np.median(values, axis=0), bit for bit, of NaN-free values: the middle
    one or two order statistics by np.partition, then np.mean of them."""
    values = np.asarray(values)
    n = values.shape[0]
    half = n // 2
    part = np.partition(values, [half] if n % 2 else [half - 1, half], axis=0)
    return np.mean(part[half - 1 + n % 2:half + 1], axis=0)


def deciles(values) -> np.ndarray:
    """np.quantile(values, np.linspace(0, 1, 11)), bit for bit, of NaN-free
    values: numpy's linear method and its _lerp between neighbouring order
    statistics."""
    ordered = np.sort(np.ravel(values))
    position = (ordered.size - 1) * np.linspace(0, 1, 11)
    lo = np.floor(position).astype(np.intp)
    below, above = ordered[lo], ordered[np.minimum(lo + 1, ordered.size - 1)]
    t = position - lo
    diff = above - below
    return np.where(t >= 0.5, above - diff * (1 - t), below + diff * t)


def distinct(values) -> np.ndarray:
    """np.unique(values) of NaN-free values: the sorted distinct values."""
    ordered = np.sort(np.ravel(values))
    keep = np.ones(ordered.size, dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]
