import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recurrisk.errors import InvalidParameterError, UndefinedMetricError
from recurrisk.metrics import (
    auc_summary,
    auc_t,
    brier,
    c_index,
    c_index_brute,
    calibration_table,
    dca_inputs,
    net_benefit,
)
from recurrisk.nonparametric import kaplan_meier
from recurrisk.cohort import SyntheticSpec, generate_synthetic


class TestCIndex:
    def test_perfect_ranking(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        res = c_index(times, np.ones(4), -times)
        assert res.c_index == 1.0

    def test_anti_ranking(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        res = c_index(times, np.ones(4), times)
        assert res.c_index == 0.0

    def test_random_scores_near_half(self, rng):
        n = 500
        times = rng.exponential(5, n) + 0.1
        res = c_index(times, np.ones(n), rng.standard_normal(n))
        assert abs(res.c_index - 0.5) < 0.05

    def test_all_tied_scores(self):
        res = c_index([1, 2, 3], [1, 1, 1], [7.0, 7.0, 7.0])
        assert res.c_index == 0.5
        assert res.concordant == 0 and res.tied_score == 3

    def test_fast_equals_brute_on_200_random_censored_instances(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 200))
            times = np.round(rng.exponential(10, n), 1) + 0.1
            events = rng.integers(0, 2, n)
            scores = np.round(rng.standard_normal(n), 1)  # coarse grid: many ties
            try:
                fast = c_index(times, events, scores)
            except UndefinedMetricError:
                with pytest.raises(UndefinedMetricError):
                    c_index_brute(times, events, scores)
                continue
            brute = c_index_brute(times, events, scores)
            assert (fast.concordant, fast.discordant, fast.tied_score) == \
                   (brute.concordant, brute.discordant, brute.tied_score)

    def test_all_censored_undefined(self):
        with pytest.raises(UndefinedMetricError):
            c_index([1, 2, 3], [0, 0, 0], [1.0, 2.0, 3.0])

    def test_rank_invariance(self, rng):
        times = rng.exponential(5, 100) + 0.1
        events = rng.integers(0, 2, 100)
        events[0] = 1
        scores = rng.standard_normal(100)
        a = c_index(times, events, scores)
        b = c_index(times, events, np.exp(scores) * 3 + 7)  # strictly increasing map
        assert a == b

    def test_complement_under_negation_without_ties(self, rng):
        times = rng.exponential(5, 80) + 0.1
        events = rng.integers(0, 2, 80)
        events[0] = 1
        scores = rng.standard_normal(80)  # continuous: no ties
        assert abs(c_index(times, events, scores).c_index
                   + c_index(times, events, -scores).c_index - 1.0) < 1e-12


class TestAucT:
    def test_hand_case_three_subjects(self):
        assert auc_t([1, 2, 3], [1, 1, 1], [3, 2, 1], 1) == 1.0

    def test_perfect_scores_all_times(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        for t in (1.0, 2.0, 3.0):
            assert auc_t(times, np.ones(4), -times, t) == 1.0

    def test_identical_scores_half(self):
        assert auc_t([1, 2, 3], [1, 1, 1], [5, 5, 5], 1) == 0.5

    def test_no_controls_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc_t([1, 2], [1, 1], [1, 2], 2)

    def test_summary_event_weighted(self):
        times = np.array([1.0, 1.0, 2.0, 3.0, 4.0])
        events = np.array([1, 1, 1, 0, 0])
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        value, evaluated, skipped = auc_summary(times, events, scores, 3.0)
        # AUC(1)=1 with 2 events, AUC(2)=1 with 1 event -> weighted mean 1
        assert value == 1.0
        assert [(t, d) for t, _, d in evaluated] == [(1.0, 2), (2.0, 1)]
        assert skipped == []


    def test_nonpositive_time_rejected(self):
        with pytest.raises(InvalidParameterError):
            auc_summary([0.0, 1.0, 2.0], [1, 1, 0], [3.0, 2.0, 1.0], 2.0)


def auc_summary_loop(times, events, scores, horizon):
    """Per-event-time loop reference for auc_summary: one auc_t per time."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    scores = np.asarray(scores, dtype=float)
    event_times = np.unique(times[events == 1])
    event_times = event_times[event_times <= horizon]
    evaluated, skipped = [], []
    for t in event_times:
        d_t = int(np.sum((times == t) & (events == 1)))
        try:
            auc = auc_t(times, events, scores, t)
        except UndefinedMetricError:
            skipped.append(float(t))
            continue
        evaluated.append((float(t), auc, d_t))
    if not evaluated:
        raise UndefinedMetricError(f"no evaluable event time at or before {horizon}")
    weights = np.array([d for _, _, d in evaluated], dtype=float)
    values = np.array([a for _, a, _ in evaluated])
    return float(np.sum(weights * values) / np.sum(weights)), evaluated, skipped


# coarse grids force tied times, censorings at event times and tied scores
TIME = st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0]) | st.floats(0.01, 50.0)
SCORE = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-5.0, 5.0)
HORIZON = st.sampled_from([1.0, 2.5, 4.0, 100.0]) | st.floats(0.01, 60.0)


def auc_samples():
    return st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.lists(TIME, min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(SCORE, min_size=n, max_size=n),
        HORIZON))


def outcome(fn, sample):
    try:
        return fn(*sample)
    except UndefinedMetricError:
        return "undefined"


class TestAucSummaryOracle:
    @settings(max_examples=300, deadline=None)
    @given(auc_samples())
    @example(([2.0, 2.0, 2.0, 1.0, 2.0], [1, 0, 1, 1, 0], [0.5, 0.5, 2.0, 0.0, 1.0], 4.0))
    @example(([1.0, 2.0, 2.0], [1, 1, 1], [1.0, 0.0, 3.0], 4.0))   # last time: no control
    @example(([1.0, 1.0], [1, 1], [1.0, 2.0], 4.0))               # no time evaluable
    @example(([3.0, 4.0], [1, 0], [1.0, 2.0], 2.0))               # no event by horizon
    def test_matches_loop_oracle(self, sample):
        assert outcome(auc_summary, sample) == outcome(auc_summary_loop, sample)

    def test_matches_loop_oracle_across_chunks(self, rng, monkeypatch):
        # several chunks of cases, the last one partial
        monkeypatch.setattr("recurrisk.metrics._AUC_CHUNK", 1000)
        times = np.round(rng.exponential(5, 300), 1) + 0.1
        events = rng.integers(0, 2, 300)
        scores = np.round(rng.standard_normal(300), 1)
        for horizon in (2.0, 8.0, 100.0):
            sample = (times, events, scores, horizon)
            assert auc_summary(*sample) == auc_summary_loop(*sample)


class TestBrier:
    def test_perfect_foresight_zero(self):
        times = np.array([2.0, 4.0, 6.0, 8.0])
        events = np.ones(4, dtype=int)
        surv = np.array([0.0, 0.0, 1.0, 1.0])
        assert brier(5.0, surv, times, events) == 0.0

    def test_constant_half_no_censoring(self):
        times = np.array([2.0, 4.0, 6.0, 8.0])
        assert brier(5.0, np.full(4, 0.5), times, np.ones(4, int)) == 0.25

    def test_equals_mse_without_censoring(self, rng):
        n = 60
        times = rng.exponential(5, n) + 0.1
        events = np.ones(n, dtype=int)
        surv = rng.uniform(size=n)
        t = float(np.median(times))
        expected = np.mean((1.0 * (times > t) - surv) ** 2)
        assert abs(brier(t, surv, times, events) - expected) < 1e-12

    def test_zero_censoring_survival_undefined(self):
        times = np.array([1.0, 2.0, 3.0])
        events = np.array([0, 0, 0])
        with pytest.raises(UndefinedMetricError):
            brier(5.0, np.full(3, 0.5), times, events)


class TestCalibration:
    def test_bin_counts_partition_cohort(self, rng):
        n = 200
        pred = rng.uniform(size=n)
        times = rng.exponential(5, n) + 0.1
        events = rng.integers(0, 2, n)
        table = calibration_table(pred, times, events, t=5.0, n_bins=10)
        assert sum(b.count for b in table) == n

    def test_constant_predictions_single_bin(self, rng):
        n = 50
        table = calibration_table(np.full(n, 0.3), rng.exponential(5, n) + 0.1,
                                  rng.integers(0, 2, n), t=5.0)
        assert len(table) == 1
        assert table[0].count == n

    def test_calibrated_synthetic_predictions(self):
        spec = SyntheticSpec(n=2000, true_coefficients=(1.0, -1.0),
                             weibull_shape=1.5, weibull_scale=20.0, seed=31)
        cohort, eta = generate_synthetic(spec)
        t = 12.0
        true_risk = 1.0 - np.exp(-((t / spec.weibull_scale) ** spec.weibull_shape)
                                 * np.exp(eta))
        table = calibration_table(true_risk, cohort.times(), cohort.events(), t)
        worst = max(abs(b.mean_predicted - b.observed_risk) for b in table)
        assert worst < 0.1

    def test_rejects_single_bin_request(self):
        with pytest.raises(InvalidParameterError):
            calibration_table([0.1, 0.2], [1, 2], [1, 1], 1.0, n_bins=1)


class TestNetBenefit:
    def test_nobody_called_positive_is_zero(self):
        point = net_benefit(np.array([1, 0, 1], bool), np.zeros(3), 0.25)
        assert point.net_benefit == 0.0
        assert point.treat_none_benefit == 0.0

    def test_everyone_called_equals_treat_all(self):
        events = np.array([1, 1, 0, 0, 0], bool)
        point = net_benefit(events, np.ones(5), 0.3)
        assert abs(point.net_benefit - point.treat_all_benefit) < 1e-12

    def test_perfect_classifier_prevalence_04(self):
        events = np.array([1] * 4 + [0] * 6, bool)
        probs = np.where(events, 0.9, 0.1)
        point = net_benefit(events, probs, 0.25)
        assert abs(point.net_benefit - 0.4) < 1e-12

    def test_small_threshold_approaches_tp_fraction(self):
        events = np.array([1, 1, 0, 0], bool)
        probs = np.array([0.9, 0.8, 0.7, 0.6])
        point = net_benefit(events, probs, 0.001)
        assert abs(point.net_benefit - 0.5) < 0.01  # TP/N = 0.5, FP term vanishes

    def test_nonincreasing_in_false_positives(self):
        events = np.array([1, 1, 0, 0, 0, 0], bool)
        base = np.array([0.9, 0.9, 0.1, 0.1, 0.1, 0.1])
        more_fp = np.array([0.9, 0.9, 0.9, 0.1, 0.1, 0.1])
        p = 0.3
        assert net_benefit(events, more_fp, p).net_benefit < \
            net_benefit(events, base, p).net_benefit

    def test_threshold_domain(self):
        with pytest.raises(InvalidParameterError):
            net_benefit(np.array([1], bool), np.array([0.5]), 1.0)

    def test_dca_inputs_exclude_censored_before_horizon(self):
        times = np.array([1.0, 5.0, 10.0, 20.0])
        events = np.array([0, 1, 0, 1])
        surv = np.array([0.9, 0.2, 0.8, 0.6])
        event_by_t, probs = dca_inputs(times, events, surv, t=12.0)
        # subject 0 censored at 1 (< 12) drops; subject 2 censored at 10 drops
        assert event_by_t.tolist() == [True, False]
        assert np.allclose(probs, [0.8, 0.4])
