import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from recurrisk.errors import InvalidParameterError, UndefinedMetricError
from recurrisk.metrics import (
    ConcordanceResult,
    _check_inputs,
    _pair_counts,
    auc_summary,
    brier,
    c_index,
    calibration_table,
    dca_inputs,
    net_benefit,
)
from recurrisk.nonparametric import kaplan_meier
from recurrisk.cohort import SyntheticSpec, generate_synthetic


def auc_t(times, events, scores, t) -> float:
    """Incident/dynamic AUC at an observed event time t, the oracle for
    auc_summary's per-time values.

    Cases are subjects with an event exactly at t; controls are subjects
    still event-free after t. Every control at a fixed t carries the same
    IPCW weight 1/G(t), so the weights cancel inside AUC(t). Raises
    UndefinedMetricError when there is no case or no control.
    """
    times, events, scores = _check_inputs(times, events, scores)
    case = (times == t) & (events == 1)
    control = times > t
    n_case, n_control = int(case.sum()), int(control.sum())
    if n_case == 0 or n_control == 0:
        raise UndefinedMetricError(f"no case/control pair at t={t}")
    s_case = scores[case][:, None]
    s_ctrl = scores[control][None, :]
    wins = np.sum(s_case > s_ctrl) + 0.5 * np.sum(s_case == s_ctrl)
    return float(wins / (n_case * n_control))

def c_index_brute(times, events, scores) -> ConcordanceResult:
    """O(n^2) reference implementation; the oracle for the fast variant."""
    times, events, scores = _check_inputs(times, events, scores)
    comparable = (times[:, None] < times[None, :]) & (events[:, None] == 1)
    higher = scores[:, None] > scores[None, :]
    lower = scores[:, None] < scores[None, :]
    concordant = int(np.sum(comparable & higher))
    discordant = int(np.sum(comparable & lower))
    tied = int(np.sum(comparable)) - concordant - discordant
    if concordant + discordant + tied == 0:
        raise UndefinedMetricError("no comparable pairs")
    return ConcordanceResult(concordant, discordant, tied)


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


def pair_counts_chunked(times, scores, is_case, chunk=1 << 18):
    """O(n * E) reference for `_pair_counts`: each case is compared with
    every later subject, in passes of at most `chunk` comparisons."""
    order = np.argsort(times, kind="stable")
    t_s, s_s = times[order], scores[order]
    cases = np.flatnonzero(is_case[order])
    # the later subjects of case k sit at sorted positions >= first[k]
    first = np.searchsorted(t_s, t_s[cases], side="right")
    lower = np.empty(cases.size, dtype=np.int64)
    equal = np.empty(cases.size, dtype=np.int64)
    n = times.size
    step = max(1, chunk // max(n, 1))
    for c in range(0, cases.size, step):
        part, lo = cases[c:c + step], first[c]   # cases ascend in time, so first does too
        later = t_s[None, lo:] > t_s[part, None]
        s_case = s_s[part, None]
        lower[c:c + step] = np.sum(later & (s_s[None, lo:] < s_case), axis=1)
        equal[c:c + step] = np.sum(later & (s_s[None, lo:] == s_case), axis=1)
    return t_s[cases], lower, equal, n - first


def pair_samples():
    return st.integers(1, 70).flatmap(lambda n: st.tuples(
        st.lists(TIME, min_size=n, max_size=n),
        st.lists(SCORE, min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n)))


def _spread(n):
    """n subjects on coarse grids: tied times, tied scores, every third a case."""
    k = np.arange(n)
    return ((k * 7 % 5 + 1.0).tolist(), (k * 3 % 4 - 1.0).tolist(),
            (k % 3 == 0).tolist())


class TestPairCounts:
    @settings(max_examples=300, deadline=None)
    @given(pair_samples())
    @example(_spread(15))
    @example(_spread(16))
    @example(_spread(17))
    @example(_spread(63))
    @example(_spread(64))
    @example(_spread(65))
    @example(([2.0] * 9, [0.5, 1.0, -1.0, 0.5, 2.0, 0.0, 1.0, 0.5, 3.0], [True] * 9))
    @example(([1.0, 4.0, 2.0, 3.0, 2.0, 5.0], [0.5] * 6, [True, False, True, True, False, True]))
    @example(([1.0, 2.0, 3.0], [1.0, 0.0, 2.0], [False] * 3))        # no case
    @example(([1.0, 3.0, 2.0, 3.0], [1.0, 0.0, 2.0, 5.0], [False, True, True, True]))
    def test_equals_chunked_oracle(self, sample):
        # the last example's cases at t = 3 have no later subject
        times, scores, is_case = (np.asarray(v, dtype=float) for v in sample)
        is_case = is_case.astype(bool)
        got = _pair_counts(times, scores, is_case)
        want = pair_counts_chunked(times, scores, is_case, chunk=7)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    def test_c_index_is_kendall_complement_at_200k(self):
        # no censoring, distinct times and scores: every pair is comparable,
        # and C = (1 - tau) / 2 for Kendall's tau of (time, score)
        rng = np.random.default_rng(5)
        n = 200_000
        scores = rng.standard_normal(n)
        times = np.exp(-scores + rng.standard_normal(n))
        assert np.unique(times).size == n and np.unique(scores).size == n
        tau = stats.kendalltau(times, scores).statistic
        assert abs(c_index(times, np.ones(n), scores).c_index - (1 - tau) / 2) <= 1e-12


class TestNonFiniteInputs:
    @pytest.mark.parametrize("times, scores", [
        ([1.0, 2.0, 3.0, 4.0], [np.nan, 1.0, 0.5, 0.2]),
        ([1.0, 2.0, 3.0, 4.0], [np.inf, 1.0, 0.5, 0.2]),
        ([1.0, np.nan, 3.0, 4.0], [0.3, 1.0, 0.5, 0.2]),
        ([1.0, 2.0, np.inf, 4.0], [0.3, 1.0, 0.5, 0.2]),
    ])
    def test_c_index_and_auc_raise(self, times, scores):
        with pytest.raises(InvalidParameterError, match="^times and scores must be finite$"):
            c_index(times, [1, 1, 0, 1], scores)
        with pytest.raises(InvalidParameterError, match="^times and scores must be finite$"):
            auc_summary(times, [1, 1, 0, 1], scores, 3.0)

    def test_unequal_lengths_raise(self):
        with pytest.raises(InvalidParameterError, match="^times, events and scores must be "
                                                        "equal-length 1-d arrays$"):
            c_index([1.0, 2.0, 3.0], [1, 0, 1], [0.5, 0.1])

    def test_brier_needs_one_probability_per_subject(self):
        with pytest.raises(InvalidParameterError,
                           match="^one survival probability per subject required$"):
            brier(2.0, [0.5], [1.0, 3.0], [1, 0])


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

    def test_matches_brute_across_chunks(self, rng, monkeypatch):
        # 1000 // 300 = 3 events per chunk: many chunks, the last one partial
        times = np.round(rng.exponential(5, 300), 1) + 0.1
        events = rng.integers(0, 2, 300)
        scores = np.round(rng.standard_normal(300), 1)
        assert c_index(times, events, scores) == c_index_brute(times, events, scores)

    @settings(max_examples=300, deadline=None)
    @given(auc_samples().map(lambda sample: sample[:3]))
    @example(([1.0], [1], [0.0]))                                   # a single subject
    @example(([2.0, 2.0, 1.0, 3.0], [1, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]))
    def test_matches_brute_oracle(self, sample):
        assert outcome(c_index, sample) == outcome(c_index_brute, sample)

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
        # AUC(1)=1 with 2 events, AUC(2)=1 with 1 event -> weighted mean 1
        assert auc_summary(times, events, scores, 3.0) == 1.0


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


class TestAucSummaryOracle:
    @settings(max_examples=300, deadline=None)
    @given(auc_samples())
    @example(([2.0, 2.0, 2.0, 1.0, 2.0], [1, 0, 1, 1, 0], [0.5, 0.5, 2.0, 0.0, 1.0], 4.0))
    @example(([1.0, 2.0, 2.0], [1, 1, 1], [1.0, 0.0, 3.0], 4.0))   # last time: no control
    @example(([1.0, 1.0], [1, 1], [1.0, 2.0], 4.0))               # no time evaluable
    @example(([3.0, 4.0], [1, 0], [1.0, 2.0], 2.0))               # no event by horizon
    def test_matches_loop_oracle(self, sample):
        assert outcome(auc_summary, sample) == outcome(
            lambda *args: auc_summary_loop(*args)[0], sample)

    def test_matches_loop_oracle_across_chunks(self, rng, monkeypatch):
        # several chunks of cases, the last one partial
        times = np.round(rng.exponential(5, 300), 1) + 0.1
        events = rng.integers(0, 2, 300)
        scores = np.round(rng.standard_normal(300), 1)
        for horizon in (2.0, 8.0, 100.0):
            sample = (times, events, scores, horizon)
            assert auc_summary(*sample) == auc_summary_loop(*sample)[0]


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

    @pytest.mark.parametrize("t", [0.5, 8.0, 9.0], ids=["before-every-time", "at-last-time",
                                                        "after-last-time"])
    def test_equals_direct_sum_when_one_group_is_empty(self, t):
        # before every time no subject has an event by t; from the last
        # time (an event) on, no subject survives past t
        times = np.array([1.0, 2.0, 3.0, 5.0, 8.0])
        events = np.array([1, 0, 1, 0, 1])
        surv = np.array([0.9, 0.7, 0.6, 0.4, 0.2])
        g = kaplan_meier(times, 1 - events)
        terms = [s ** 2 / g.evaluate_left(ti) if ti <= t and e else
                 (1.0 - s) ** 2 / g(t) if ti > t else 0.0
                 for ti, e, s in zip(times, events, surv)]
        assert abs(brier(t, surv, times, events) - sum(terms) / times.size) < 1e-15

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
        table = calibration_table(pred, times, events, t=5.0)
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
        table = calibration_table(true_risk, cohort.times, cohort.events, t)
        worst = max(abs(b.mean_predicted - b.observed_risk) for b in table)
        assert worst < 0.1

    def test_decile_without_events_reads_zero(self):
        # the lowest decile (two subjects) is all censored
        times = np.arange(1.0, 21.0)
        events = np.r_[0, 0, np.ones(18, dtype=int)]
        table = calibration_table(np.arange(20.0), times, events, t=25.0)
        assert [b.count for b in table] == [2] * 10
        assert [b.observed_risk for b in table] == [0.0] + [1.0] * 9


class TestNetBenefit:
    def test_nobody_called_positive_is_zero(self):
        assert net_benefit(np.array([1, 0, 1], bool), np.zeros(3), 0.25) == 0.0

    def test_everyone_called_equals_treat_all(self):
        events = np.array([1, 1, 0, 0, 0], bool)
        prevalence, p = 0.4, 0.3
        treat_all = prevalence - (1 - prevalence) * p / (1 - p)   # Vickers & Elkin 2006
        assert abs(net_benefit(events, np.ones(5), p) - treat_all) < 1e-12

    def test_perfect_classifier_prevalence_04(self):
        events = np.array([1] * 4 + [0] * 6, bool)
        probs = np.where(events, 0.9, 0.1)
        assert abs(net_benefit(events, probs, 0.25) - 0.4) < 1e-12

    def test_small_threshold_approaches_tp_fraction(self):
        events = np.array([1, 1, 0, 0], bool)
        probs = np.array([0.9, 0.8, 0.7, 0.6])
        assert abs(net_benefit(events, probs, 0.001) - 0.5) < 0.01  # TP/N = 0.5, FP term vanishes

    def test_nonincreasing_in_false_positives(self):
        events = np.array([1, 1, 0, 0, 0, 0], bool)
        base = np.array([0.9, 0.9, 0.1, 0.1, 0.1, 0.1])
        more_fp = np.array([0.9, 0.9, 0.9, 0.1, 0.1, 0.1])
        p = 0.3
        assert net_benefit(events, more_fp, p) < net_benefit(events, base, p)

    def test_no_subjects_is_undefined(self):
        with pytest.raises(UndefinedMetricError,
                           match="^no subjects left after censoring exclusion$"):
            net_benefit(np.array([], bool), np.array([]), 0.5)

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
