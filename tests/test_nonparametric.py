import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from recurrisk.errors import EmptyCohortError, UndefinedMetricError
from recurrisk.nonparametric import (
    LogRankResult,
    _event_table,
    greenwood_variance,
    kaplan_meier,
    log_rank,
    median_survival_time,
    nelson_aalen,
)


class TestKaplanMeier:
    def test_all_censored_stays_at_one(self):
        km = kaplan_meier([1, 2, 3], [0, 0, 0])
        assert km(0.5) == 1.0 and km(10.0) == 1.0
        assert km.knots.size == 0

    def test_all_events_hand_case(self):
        km = kaplan_meier([1, 2, 3], [1, 1, 1])
        assert abs(km(1) - 2 / 3) < 1e-12
        assert abs(km(2) - 1 / 3) < 1e-12
        assert km(3) == 0.0

    def test_censored_before_event_shrinks_risk_set(self):
        # censored at 1 leaves the risk set before the event at 2
        km = kaplan_meier([1, 2], [0, 1])
        assert km(2) == 0.0

    def test_censoring_tied_with_event_stays_in_risk_set(self):
        # events precede censorings at the same time: risk set at 2 is both
        km = kaplan_meier([2, 2], [0, 1])
        assert abs(km(2) - 0.5) < 1e-12

    def test_nonincreasing_in_unit_interval(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            km = kaplan_meier(rng.exponential(5, n) + 0.1, rng.integers(0, 2, n))
            values = np.concatenate([[km.initial_value], km.values])
            assert np.all(np.diff(values) <= 1e-15)
            assert np.all((values >= 0) & (values <= 1))

    def test_no_censoring_matches_empirical_fraction(self, rng):
        times = rng.exponential(5, 60) + 0.1
        km = kaplan_meier(times, np.ones(60))
        for t in np.quantile(times, [0.2, 0.5, 0.9]):
            assert abs(km(t) - np.mean(times > t)) < 1e-12

    def test_empty_input(self):
        with pytest.raises(EmptyCohortError):
            kaplan_meier([], [])

    def test_greenwood_variance_nonnegative_and_zero_before_events(self, rng):
        times = rng.exponential(5, 30) + 0.1
        events = rng.integers(0, 2, 30)
        events[0] = 1
        var = greenwood_variance(times, events)
        assert var.initial_value == 0.0
        assert np.all(var.values >= 0.0)


class TestNelsonAalen:
    def test_no_events(self):
        na = nelson_aalen([1, 2], [0, 0])
        assert na(5) == 0.0

    def test_hand_case(self):
        na = nelson_aalen([1, 2], [1, 1])
        assert abs(na(1) - 0.5) < 1e-12
        assert abs(na(2) - 1.5) < 1e-12

    def test_nondecreasing(self, rng):
        na = nelson_aalen(rng.exponential(5, 40) + 0.1, rng.integers(0, 2, 40))
        assert np.all(np.diff(na.values) >= 0)

    def test_exp_neg_dominates_km_pointwise(self, rng):
        # exp(-H) >= KM on any sample: check 50 random small samples
        for _ in range(50):
            n = int(rng.integers(1, 15))
            times = rng.exponential(5, n) + 0.1
            events = rng.integers(0, 2, n)
            km = kaplan_meier(times, events)
            na = nelson_aalen(times, events)
            grid = np.concatenate([[0.05], times, times + 0.5])
            assert np.all(np.exp(-np.asarray(na(grid))) >= np.asarray(km(grid)) - 1e-12)


class TestLogRank:
    def test_identical_groups(self):
        group = ([1, 2, 3, 4], [1, 0, 1, 1])
        res = log_rank(group, group)
        assert res.chi_square == 0.0
        assert res.p_value == 1.0

    def test_separated_groups_frozen_statistic(self):
        res = log_rank(([1, 2, 3], [1, 1, 1]), ([10, 11, 12], [1, 1, 1]))
        # hand computation: O=3, E=1.15, V=0.6775
        assert abs(res.chi_square - 3.4225 / 0.6775) < 1e-9
        assert res.p_value < 0.05

    def test_label_symmetry(self, rng):
        a = (rng.exponential(5, 20) + 0.1, rng.integers(0, 2, 20))
        b = (rng.exponential(8, 25) + 0.1, rng.integers(0, 2, 25))
        if a[1].sum() + b[1].sum() == 0:
            a[1][0] = 1
        assert abs(log_rank(a, b).chi_square - log_rank(b, a).chi_square) < 1e-12

    def test_zero_events_undefined(self):
        with pytest.raises(UndefinedMetricError):
            log_rank(([1, 2], [0, 0]), ([3, 4], [0, 0]))

    def test_invariant_under_monotone_time_transform(self, rng):
        a = (rng.exponential(5, 30) + 0.1, rng.integers(0, 2, 30))
        b = (rng.exponential(7, 30) + 0.1, rng.integers(0, 2, 30))
        a[1][0] = 1
        res = log_rank(a, b)
        transform = lambda t: np.log1p(t) * 3 + t ** 1.5  # strictly increasing
        res_t = log_rank((transform(a[0]), a[1]), (transform(b[0]), b[1]))
        assert abs(res.chi_square - res_t.chi_square) < 1e-9

    def test_empty_group_rejected(self):
        with pytest.raises(EmptyCohortError):
            log_rank(([], []), ([1], [1]))


def test_median_survival_time():
    km = kaplan_meier([1, 2, 3, 4], [1, 1, 1, 1])
    assert median_survival_time(km) == 2.0
    km_high = kaplan_meier([1, 2, 3], [0, 0, 0])
    assert median_survival_time(km_high) is None


# --- event-table oracle -------------------------------------------------------

# a coarse time grid forces tied event times and censorings at event times
TIME = st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0]) | st.floats(0.01, 50.0)


def samples():
    return st.integers(1, 25).flatmap(lambda n: st.tuples(
        st.lists(TIME, min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n)))


def brute_counts(times, events, member=None):
    """Per distinct event time u: (u, d, n, d in member, n in member)."""
    member = member or [True] * len(times)
    rows = []
    for u in sorted({t for t, e in zip(times, events) if e == 1}):
        dies = [t == u and e == 1 for t, e in zip(times, events)]
        risk = [t >= u for t in times]
        rows.append((u, sum(dies), sum(risk),
                     sum(x and m for x, m in zip(dies, member)),
                     sum(x and m for x, m in zip(risk, member))))
    return rows


class TestEventTableOracle:
    @settings(max_examples=200, deadline=None)
    @given(samples())
    @example(([3.0], [1]))                                  # n = 1
    @example(([3.0], [0]))
    @example(([1.0, 2.0, 2.0, 2.0, 5.0], [0, 0, 1, 0, 0]))  # all censored but one
    @example(([2.0, 2.0, 2.0, 1.0, 2.0], [1, 0, 1, 1, 0]))  # ties, censored at event
    def test_matches_brute_force(self, sample):
        times, events = sample
        ets, d, n = _event_table(times, events)
        rows = brute_counts(times, events)
        assert ets.tolist() == [r[0] for r in rows]
        assert d.tolist() == [r[1] for r in rows]
        assert n.tolist() == [r[2] for r in rows]

    @settings(max_examples=200, deadline=None)
    @given(samples(), samples())
    @example(([2.0], [1]), ([2.0, 2.0], [0, 1]))
    def test_log_rank_matches_brute_force(self, a, b):
        times, events = a[0] + b[0], a[1] + b[1]
        if sum(events) == 0:
            return
        observed = expected = variance = 0.0
        for _, d, n, d_a, n_a in brute_counts(times, events,
                                              [True] * len(a[0]) + [False] * len(b[0])):
            observed += d_a
            expected += d * n_a / n
            if n > 1:
                variance += d * (n_a / n) * (1 - n_a / n) * (n - d) / (n - 1)
        chi_square = (observed - expected) ** 2 / variance if variance > 0 else 0.0
        res = log_rank(a, b)
        assert res.observed[0] == observed
        assert res.expected[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert res.chi_square == pytest.approx(chi_square, rel=1e-9, abs=1e-12)
        assert res == log_rank_loop(a, b)


def log_rank_loop(group_a, group_b) -> LogRankResult:
    """Per-event-time loop reference for log_rank, same arithmetic and order."""
    times_a, events_a = (np.asarray(v) for v in group_a)
    times_b, events_b = (np.asarray(v) for v in group_b)
    times = np.concatenate([times_a, times_b]).astype(float)
    events = np.concatenate([events_a, events_b]).astype(int)
    in_a = np.concatenate([np.ones(times_a.size, bool), np.zeros(times_b.size, bool)])

    event_times = np.unique(times[events == 1])
    observed_a = expected_a = variance = 0.0
    observed_total = 0.0
    for t in event_times:
        at_risk = times >= t
        n_t = int(np.sum(at_risk))
        n_a = int(np.sum(at_risk & in_a))
        d_t = int(np.sum((times == t) & (events == 1)))
        d_a = int(np.sum((times == t) & (events == 1) & in_a))
        observed_a += d_a
        observed_total += d_t
        expected_a += d_t * n_a / n_t
        if n_t > 1:
            variance += d_t * (n_a / n_t) * (1 - n_a / n_t) * (n_t - d_t) / (n_t - 1)

    chi_square = (observed_a - expected_a) ** 2 / variance if variance > 0.0 else 0.0
    return LogRankResult(
        chi_square=float(chi_square),
        p_value=float(stats.chi2.sf(chi_square, df=1)),
        observed=(float(observed_a), float(observed_total - observed_a)),
        expected=(float(expected_a), float(observed_total - expected_a)),
    )
