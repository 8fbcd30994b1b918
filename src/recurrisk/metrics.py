"""Evaluation machinery: concordance, time-dependent AUC, IPCW Brier score,
calibration tables and decision-curve net benefit.

Harrell's C and the incident/dynamic AUC read one count kernel,
`_pair_counts`: for each event subject i it counts the subjects with a
strictly later time, and among them those with a lower and an equal score.
C sums these counts over all events; AUC(t) groups them by event time.
The kernel is dominance counting over the time-sorted scores (Knight's
merge-sort count for Kendall's tau, laid out level by level): O(n log^2 n)
time and O(n) memory for n subjects. All counts are integers, so the
results do not depend on the order of summation.

A decision curve is `net_benefit` at each threshold; its treat-all reference
is `net_benefit` with every subject called positive, and treat none is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UndefinedMetricError
from .nonparametric import deciles, distinct, kaplan_meier


@dataclass(frozen=True)
class ConcordanceResult:
    concordant: int
    discordant: int
    tied_score: int

    @property
    def c_index(self) -> float:
        total = self.concordant + self.discordant + self.tied_score
        return (self.concordant + 0.5 * self.tied_score) / total


def _check_inputs(times, events, scores):
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    scores = np.asarray(scores, dtype=float)
    if not (times.shape == events.shape == scores.shape) or times.ndim != 1:
        raise InvalidParameterError("times, events and scores must be equal-length 1-d arrays")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(scores))):
        raise InvalidParameterError("times and scores must be finite")
    return times, events, scores


def _pair_counts(times, scores, is_case):
    """(t, lower, equal, later) for each subject selected by the boolean
    mask `is_case`, in ascending time order: its time, and how many subjects
    with a strictly later time have a lower score, an equal score, or any.

    The later subjects of case k are the sorted positions >= first[k], so
    its counts are those over all subjects minus those over the prefix
    [0, first[k]). The prefix splits into one aligned block of 2^l
    positions per set bit l of first[k]; at level l the keys
    (position >> l) * R + rank sort once, and two binary searches count the
    block's lower and lower-or-equal score ranks (R distinct scores).
    """
    order = np.argsort(times, kind="stable")
    t_s = times[order]
    cases = np.flatnonzero(is_case[order])
    first = np.searchsorted(t_s, t_s[cases], side="right")
    n = times.size
    _, rank = np.unique(scores[order], return_inverse=True)
    rank = rank.astype(np.int64, copy=False)
    n_ranks = np.int64(rank.max() + 1 if n else 1)
    count = np.bincount(rank, minlength=n_ranks)
    case_rank = rank[cases]
    lower = np.r_[0, np.cumsum(count)][case_rank]
    equal = count[case_rank]
    top = int(first.max()) if cases.size else 0     # no prefix reaches past top
    pos = np.arange(top, dtype=np.int64)
    for level in range(top.bit_length()):
        hit = np.flatnonzero((first >> level) & 1)
        if hit.size == 0:
            continue
        keys = np.sort((pos >> level) * n_ranks + rank[:top])
        block = (first[hit] >> level) - 1
        query = block * n_ranks + case_rank[hit]
        below = np.searchsorted(keys, query, side="left")
        lower[hit] -= below - (block << level)      # block starts at that key index
        equal[hit] -= np.searchsorted(keys, query, side="right") - below
    return t_s[cases], lower, equal, n - first


def c_index(times, events, scores) -> ConcordanceResult:
    """Harrell's C: a pair (i, j) is comparable iff t_i < t_j and subject i
    had the event; it is concordant when i has the higher score, and score
    ties earn half credit."""
    times, events, scores = _check_inputs(times, events, scores)
    _, lower, equal, later = _pair_counts(times, scores, events == 1)
    comparable = int(later.sum())
    if comparable == 0:
        raise UndefinedMetricError("no comparable pairs")
    concordant, tied = int(lower.sum()), int(equal.sum())
    return ConcordanceResult(concordant, comparable - concordant - tied, tied)


def check_horizons(horizons) -> tuple[float, ...]:
    """The horizons as floats; raises InvalidParameterError unless they are
    non-empty, finite, positive and strictly ascending, and no two share a
    ``by_horizon`` key."""
    horizons = tuple(float(h) for h in horizons)
    ascending = all(a < b for a, b in zip(horizons, horizons[1:]))
    if not (horizons and horizons[0] > 0 and ascending and np.isfinite(horizons[-1])):
        raise InvalidParameterError(f"horizons must be positive and strictly ascending "
                                    f"finite numbers, got {list(horizons)}")
    # rounding to six digits keeps the order, so only neighbours can collide
    for a, b in zip(horizons, horizons[1:]):
        if f"{a:g}" == f"{b:g}":
            raise InvalidParameterError(f"horizons {a!r} and {b!r} share the report key "
                                        f"'{a:g}'")
    return horizons


def by_horizon(metric, horizons) -> dict:
    """{f"{h:g}": metric(k, h)} over the k-th horizon h; None where the
    metric raises UndefinedMetricError."""
    out = {}
    for k, h in enumerate(horizons):
        try:
            out[f"{h:g}"] = metric(k, h)
        except UndefinedMetricError:
            out[f"{h:g}"] = None
    return out


def auc_summary(times, events, scores, horizon) -> float:
    """Event-count-weighted mean of AUC(t) over the event times in
    (0, horizon] that have controls.

    AUC(t) is the incident/dynamic AUC: cases have an event exactly at t,
    controls are still event-free after t, and the controls' common IPCW
    weight 1/G(t) cancels. It is wins / (n_case * n_control), with the
    per-case counts of lower- and equal-scored controls summed per event time.
    """
    times, events, scores = _check_inputs(times, events, scores)
    if np.any(times <= 0):
        raise InvalidParameterError("all times must be positive")
    t_case, lower, equal, later = _pair_counts(times, scores,
                                               (events == 1) & (times <= horizon))
    heads = np.flatnonzero(np.diff(t_case, prepend=-np.inf))    # first case per time
    n_case = np.diff(np.r_[heads, t_case.size])
    n_control = later[heads]
    ok = n_control > 0
    if not np.any(ok):
        raise UndefinedMetricError(f"no evaluable event time at or before {horizon}")
    wins = np.add.reduceat(lower, heads) + 0.5 * np.add.reduceat(equal, heads)
    weights = n_case[ok]
    values = wins[ok] / (n_case[ok] * n_control[ok])
    return float(np.sum(weights * values) / np.sum(weights))


def discrimination(times, events, scores, horizons) -> dict:
    """{"c_index": Harrell's C, "auc": auc_summary per horizon, keyed
    f"{h:g}" and None where it is undefined} of one score vector."""
    return {"c_index": c_index(times, events, scores).c_index,
            "auc": by_horizon(lambda _, h: auc_summary(times, events, scores, h), horizons)}


def brier(t, survival_probs, times, events) -> float:
    """IPCW (Graf) Brier score at horizon t.

    survival_probs holds each subject's predicted S(t | x). Subjects with an
    event by t contribute S^2 / G(t_i-); survivors past t contribute
    (1 - S)^2 / G(t); subjects censored before t contribute 0.
    """
    times, events, _ = _check_inputs(times, events, np.zeros(len(times)))
    survival_probs = np.asarray(survival_probs, dtype=float)
    if survival_probs.shape != times.shape:
        raise InvalidParameterError("one survival probability per subject required")
    censor_survival = kaplan_meier(times, 1 - events)
    g_at_t = censor_survival(t)
    if g_at_t <= 0.0:
        raise UndefinedMetricError(f"censoring survival is zero at t={t}")

    event_by_t = (times <= t) & (events == 1)
    alive_past_t = times > t
    g_left = censor_survival.evaluate_left(times[event_by_t])
    total = float(np.sum(survival_probs[event_by_t] ** 2 / g_left))
    total += float(np.sum((1.0 - survival_probs[alive_past_t]) ** 2 / g_at_t))
    return total / times.size


@dataclass(frozen=True)
class CalibrationBin:
    mean_predicted: float
    observed_risk: float
    count: int


def calibration_table(predicted_risk, times, events, t) -> list[CalibrationBin]:
    """Risk-decile calibration: predicted event probability by t vs the
    Kaplan-Meier observed risk within each decile of predicted risk.

    Quantile ties collapse deciles, so fewer than ten rows may come back
    (a constant predictor yields a single merged bin). A bin with no event
    has the constant Kaplan-Meier curve 1, so its observed risk is 0.
    """
    predicted_risk = np.asarray(predicted_risk, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)

    edges = distinct(deciles(predicted_risk))
    inner = edges[1:-1]
    assignment = np.searchsorted(inner, predicted_risk, side="right")
    members = [np.nonzero(assignment == b)[0] for b in range(inner.size + 1)]
    members = [m for m in members if m.size > 0]

    table = []
    for m in members:
        table.append(CalibrationBin(
            mean_predicted=float(np.mean(predicted_risk[m])),
            observed_risk=float(1.0 - kaplan_meier(times[m], events[m])(t)),
            count=int(m.size)))
    return table


def net_benefit(event_by_t, predicted_prob, p: float) -> float:
    """Decision-curve net benefit at threshold probability p.

    NB(p) = TP/N - (FP/N) * p/(1-p) with a positive call whenever the
    predicted probability reaches p, so a probability of 1 for every
    subject gives the treat-all reference. Callers must already have
    excluded subjects censored before the horizon.
    """
    if not 0.0 < p < 1.0:
        raise InvalidParameterError("threshold must lie strictly inside (0, 1)")
    event_by_t = np.asarray(event_by_t, dtype=bool)
    predicted_prob = np.asarray(predicted_prob, dtype=float)
    n = event_by_t.size
    if n == 0:
        raise UndefinedMetricError("no subjects left after censoring exclusion")
    calls = predicted_prob >= p
    tp = int(np.sum(calls & event_by_t))
    fp = int(np.sum(calls & ~event_by_t))
    return tp / n - (fp / n) * (p / (1.0 - p))


def dca_inputs(times, events, survival_probs, t):
    """Binary outcome-by-t and event probabilities for a DCA at horizon t.

    Subjects censored before t carry no outcome information and are
    excluded; the event probability is 1 - S(t | x).
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    survival_probs = np.asarray(survival_probs, dtype=float)
    keep = (times > t) | ((times <= t) & (events == 1))
    event_by_t = (times[keep] <= t) & (events[keep] == 1)
    return event_by_t, 1.0 - survival_probs[keep]
