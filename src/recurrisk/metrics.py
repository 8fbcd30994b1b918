"""Evaluation machinery: concordance, time-dependent AUC, IPCW Brier score,
calibration tables and decision-curve net benefit.

The concordance index is Harrell's: a pair (i, j) is comparable iff
t_i < t_j and subject i had the event; it is concordant when the
higher-risk subject fails first, and score ties earn half credit. The
pairs are counted in O(n log n) with a Fenwick tree over score ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UndefinedMetricError
from .nonparametric import kaplan_meier


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
    return times, events, scores


class _Fenwick:
    """Binary indexed tree over score ranks (prefix counts)."""

    def __init__(self, size: int):
        self.tree = np.zeros(size + 1, dtype=np.int64)

    def add(self, i: int, delta: int):
        i += 1
        while i < self.tree.size:
            self.tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Count of entries with rank <= i."""
        i += 1
        total = 0
        while i > 0:
            total += self.tree[i]
            i -= i & (-i)
        return int(total)


def c_index(times, events, scores) -> ConcordanceResult:
    """O(n log n) concordance via a Fenwick tree over compressed score ranks."""
    times, events, scores = _check_inputs(times, events, scores)
    n = times.size
    _, ranks = np.unique(scores, return_inverse=True)
    n_ranks = int(ranks.max()) + 1

    tree = _Fenwick(n_ranks)
    for r in ranks:
        tree.add(int(r), 1)
    remaining = n

    concordant = discordant = tied = 0
    order = np.argsort(times, kind="stable")
    i = 0
    while i < n:
        j = i
        while j < n and times[order[j]] == times[order[i]]:
            j += 1
        group = order[i:j]
        for idx in group:  # remove the whole tied-time group first
            tree.add(int(ranks[idx]), -1)
        remaining -= group.size
        for idx in group:
            if events[idx] == 1 and remaining > 0:
                r = int(ranks[idx])
                below = tree.prefix(r - 1) if r > 0 else 0
                at_or_below = tree.prefix(r)
                concordant += below
                tied += at_or_below - below
                discordant += remaining - at_or_below
        i = j

    if concordant + discordant + tied == 0:
        raise UndefinedMetricError("no comparable pairs")
    return ConcordanceResult(concordant, discordant, tied)


_AUC_CHUNK = 1 << 18  # case x control comparisons held at once by auc_summary


def auc_summary(times, events, scores, horizon):
    """Event-count-weighted mean of AUC(t) over event times in (0, horizon].

    Returns (summary, evaluated, skipped) where `evaluated` is a list of
    (t, auc, n_events) and `skipped` lists event times with no controls.
    AUC(t) is the incident/dynamic AUC: cases have an event exactly at t,
    controls are still event-free after t, and the controls' common IPCW
    weight 1/G(t) cancels. It is wins / (n_case * n_control), with the
    integer counts of lower- and equal-scored controls taken per case over
    chunks of cases and then summed per event time.
    """
    times, events, scores = _check_inputs(times, events, scores)
    if np.any(times <= 0):
        raise InvalidParameterError("all times must be positive")
    order = np.argsort(times, kind="stable")
    t_s, s_s = times[order], scores[order]
    cases = np.flatnonzero((events[order] == 1) & (t_s <= horizon))
    if cases.size == 0:
        raise UndefinedMetricError(f"no evaluable event time at or before {horizon}")
    # the controls of case k (later times) sit at sorted positions >= first[k]
    first = np.searchsorted(t_s, t_s[cases], side="right")
    lower = np.empty(cases.size, dtype=np.int64)
    equal = np.empty(cases.size, dtype=np.int64)
    n = times.size
    step = max(1, _AUC_CHUNK // n)
    for c in range(0, cases.size, step):
        chunk, lo = cases[c:c + step], first[c]   # cases ascend in time, so first does too
        ctrl = t_s[None, lo:] > t_s[chunk, None]
        s_case = s_s[chunk, None]
        lower[c:c + step] = np.sum(ctrl & (s_s[None, lo:] < s_case), axis=1)
        equal[c:c + step] = np.sum(ctrl & (s_s[None, lo:] == s_case), axis=1)

    heads = np.flatnonzero(np.r_[True, t_s[cases[1:]] != t_s[cases[:-1]]])
    n_case = np.diff(np.r_[heads, cases.size])
    n_control = n - first[heads]
    wins = np.add.reduceat(lower, heads) + 0.5 * np.add.reduceat(equal, heads)
    evaluated, skipped = [], []
    for k, t in enumerate(t_s[cases[heads]].tolist()):
        if n_control[k] == 0:
            skipped.append(t)
        else:
            evaluated.append((t, float(wins[k] / (n_case[k] * n_control[k])),
                              int(n_case[k])))
    if not evaluated:
        raise UndefinedMetricError(f"no evaluable event time at or before {horizon}")
    weights = np.array([d for _, _, d in evaluated], dtype=float)
    values = np.array([a for _, a, _ in evaluated])
    return float(np.sum(weights * values) / np.sum(weights)), evaluated, skipped


def auc_by_horizon(times, events, scores, horizons) -> dict:
    """auc_summary per horizon, keyed f"{h:g}"; None where it is undefined."""
    out = {}
    for h in horizons:
        try:
            out[f"{h:g}"] = auc_summary(times, events, scores, h)[0]
        except UndefinedMetricError:
            out[f"{h:g}"] = None
    return out


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
    total = 0.0
    if np.any(event_by_t):
        g_left = np.asarray(censor_survival.evaluate_left(times[event_by_t]))
        total += float(np.sum(survival_probs[event_by_t] ** 2 / g_left))
    if np.any(alive_past_t):
        total += float(np.sum((1.0 - survival_probs[alive_past_t]) ** 2 / g_at_t))
    return total / times.size


@dataclass(frozen=True)
class CalibrationBin:
    mean_predicted: float
    observed_risk: float
    count: int


def calibration_table(predicted_risk, times, events, t, n_bins: int = 10) -> list[CalibrationBin]:
    """Risk-decile calibration: predicted event probability by t vs the
    Kaplan-Meier observed risk within each quantile bin.

    Quantile ties collapse bins, so fewer than n_bins rows may come back
    (a constant predictor yields a single merged bin).
    """
    if n_bins < 2:
        raise InvalidParameterError("n_bins must be >= 2")
    predicted_risk = np.asarray(predicted_risk, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)

    edges = np.unique(np.quantile(predicted_risk, np.linspace(0, 1, n_bins + 1)))
    if edges.size <= 2:
        members = [np.arange(predicted_risk.size)]
    else:
        inner = edges[1:-1]
        assignment = np.searchsorted(inner, predicted_risk, side="right")
        members = [np.nonzero(assignment == b)[0] for b in range(inner.size + 1)]
        members = [m for m in members if m.size > 0]

    table = []
    for m in members:
        if np.any(events[m] == 1):
            observed = 1.0 - kaplan_meier(times[m], events[m])(t)
        else:
            observed = 0.0
        table.append(CalibrationBin(
            mean_predicted=float(np.mean(predicted_risk[m])),
            observed_risk=float(observed),
            count=int(m.size)))
    return table


@dataclass(frozen=True)
class DCAPoint:
    threshold: float
    net_benefit: float
    treat_all_benefit: float
    treat_none_benefit: float = 0.0


def net_benefit(event_by_t, predicted_prob, p: float) -> DCAPoint:
    """Decision-curve net benefit at threshold probability p.

    NB(p) = TP/N - (FP/N) * p/(1-p) with a positive call whenever the
    predicted probability reaches p. Callers must already have excluded
    subjects censored before the horizon.
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
    odds = p / (1.0 - p)
    prevalence = float(np.mean(event_by_t))
    return DCAPoint(
        threshold=float(p),
        net_benefit=tp / n - (fp / n) * odds,
        treat_all_benefit=prevalence - (1.0 - prevalence) * odds,
    )


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
