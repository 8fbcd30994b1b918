import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recurrisk import coxph
from recurrisk.cohort import SyntheticSpec, generate_synthetic, zscore_normalize
from recurrisk.coxph import (
    breslow_baseline,
    fit_cox,
    partial_loglik,
    retained_features,
    univariate_screen,
    vif_filter,
)
from recurrisk.errors import (
    ConditioningError,
    InvalidParameterError,
    NonconvergenceError,
    NumericInputError,
    TrainingError,
)
from recurrisk.stepfun import StepFunction

from conftest import make_cohort, random_censored_cohort


def finite_difference_check(cohort, beta, ties, h=1e-5):
    value, grad, hess = partial_loglik(beta, cohort, ties)
    d = beta.size
    grad_fd = np.zeros(d)
    hess_fd = np.zeros((d, d))
    for j in range(d):
        bp, bm = beta.copy(), beta.copy()
        bp[j] += h
        bm[j] -= h
        vp, gp, _ = partial_loglik(bp, cohort, ties)
        vm, gm, _ = partial_loglik(bm, cohort, ties)
        grad_fd[j] = (vp - vm) / (2 * h)
        hess_fd[:, j] = (gp - gm) / (2 * h)
    grad_err = np.max(np.abs(grad - grad_fd)) / max(1.0, np.max(np.abs(grad)))
    hess_err = np.max(np.abs(hess - hess_fd)) / max(1.0, np.max(np.abs(hess)))
    return grad_err, hess_err


class TestPartialLoglik:
    def test_zero_beta_value_is_log_risk_set_sizes(self, rng):
        cohort = random_censored_cohort(rng, 25, 2)
        times, events = cohort.times, cohort.events
        value, _, _ = partial_loglik(np.zeros(2), cohort, "breslow")
        expected = -sum(np.log(np.sum(times >= times[i]))
                        for i in range(25) if events[i] == 1)
        assert abs(value - expected) < 1e-10

    def test_two_subject_hand_case(self):
        cohort = make_cohort([1.0, 2.0], [1, 1], [[1.0], [0.0]])
        value, _, _ = partial_loglik(np.zeros(1), cohort, "efron")
        assert abs(value - (-np.log(2.0))) < 1e-12

    @pytest.mark.parametrize("ties", ["breslow", "efron"])
    def test_gradient_hessian_match_finite_differences(self, rng, ties):
        for _ in range(10):
            cohort = random_censored_cohort(rng, 20, 3, tie_fraction=0.3)
            beta = rng.standard_normal(3) * 0.5
            grad_err, hess_err = finite_difference_check(cohort, beta, ties)
            assert grad_err < 1e-6
            assert hess_err < 1e-6

    def test_breslow_equals_efron_without_ties(self, rng):
        cohort = random_censored_cohort(rng, 30, 2)  # continuous times: no ties
        beta = rng.standard_normal(2) * 0.3
        vb, gb, hb = partial_loglik(beta, cohort, "breslow")
        ve, ge, he = partial_loglik(beta, cohort, "efron")
        assert abs(vb - ve) < 1e-12
        assert np.allclose(gb, ge, atol=1e-12)
        assert np.allclose(hb, he, atol=1e-12)

    def test_constant_feature_shift_leaves_value_unchanged(self, rng):
        cohort = random_censored_cohort(rng, 25, 2)
        shifted = make_cohort(cohort.times, cohort.events,
                              cohort.matrix() + np.array([3.7, 0.0]))
        for _ in range(5):
            beta = rng.standard_normal(2)
            va, _, _ = partial_loglik(beta, cohort, "efron")
            vb, _, _ = partial_loglik(beta, shifted, "efron")
            # shifting one feature by a constant changes the value by a
            # beta-dependent constant ONLY through sum over events minus
            # risk-set logs, which cancel exactly
            assert abs(va - vb) < 1e-8

    def test_hessian_negative_semidefinite(self, rng):
        for _ in range(10):
            cohort = random_censored_cohort(rng, 20, 3, tie_fraction=0.2)
            beta = rng.standard_normal(3)
            _, _, hess = partial_loglik(beta, cohort, "efron")
            assert np.max(np.linalg.eigvalsh((hess + hess.T) / 2)) <= 1e-8

    def test_extreme_linear_predictor_stays_finite(self):
        cohort = make_cohort([1.0, 2.0, 3.0], [1, 1, 1],
                             [[700.0], [-700.0], [0.0]])
        value, grad, hess = partial_loglik(np.array([1.0]), cohort, "efron")
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))
        assert np.all(np.isfinite(hess))

    def test_nonfinite_beta_rejected(self, rng):
        cohort = random_censored_cohort(rng, 10, 2)
        with pytest.raises(NumericInputError):
            partial_loglik(np.array([np.nan, 0.0]), cohort, "efron")

    def test_wrong_beta_length(self, rng):
        cohort = random_censored_cohort(rng, 10, 2)
        with pytest.raises(InvalidParameterError):
            partial_loglik(np.zeros(3), cohort, "efron")


class TestFitCox:
    def test_balanced_signal_free_data(self):
        # one binary covariate, outcomes identical across groups
        times = [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]
        events = [1, 1, 1, 1, 1, 1, 1, 1]
        x = [[0.0], [0.0], [0.0], [0.0], [1.0], [1.0], [1.0], [1.0]]
        model = fit_cox(make_cohort(times, events, x))
        assert abs(model.coefficients[0]) < 1e-6

    def test_recovers_synthetic_coefficients(self, linear_cohort):
        cohort, _ = linear_cohort
        model = fit_cox(cohort)
        assert model.converged
        assert np.all(np.abs(model.coefficients - np.array([1.0, -1.0])) < 0.1)

    def test_stationary_point(self, small_linear_cohort):
        cohort, _ = small_linear_cohort
        model = fit_cox(cohort)
        _, grad, _ = partial_loglik(model.coefficients, cohort, "efron")
        assert np.max(np.abs(grad)) < 1e-6

    def test_rescaling_equivariance(self, rng):
        cohort = random_censored_cohort(rng, 120, 2)
        model = fit_cox(cohort)
        c = 3.5
        X2 = cohort.matrix().copy()
        X2[:, 0] *= c
        scaled = make_cohort(cohort.times, cohort.events, X2)
        model2 = fit_cox(scaled)
        assert abs(model2.coefficients[0] - model.coefficients[0] / c) < 1e-6
        assert abs(model2.coefficients[1] - model.coefficients[1]) < 1e-6
        risks1 = model.predict_risk(cohort.matrix())
        risks2 = model2.predict_risk(scaled.matrix())
        assert np.max(np.abs(risks1 - risks2)) < 1e-6

    def test_separable_data_diverges(self):
        # perfect separation: the high-risk group always fails first
        times = [1.0, 1.5, 2.0, 10.0, 11.0, 12.0]
        events = [1, 1, 1, 1, 1, 1]
        x = [[1.0], [1.0], [1.0], [0.0], [0.0], [0.0]]
        with pytest.raises(NonconvergenceError) as err:
            fit_cox(make_cohort(times, events, x))
        assert err.value.last_iterate is not None

    def test_separable_data_diverges_breslow(self):
        # the Breslow path reaches the same gradient underflow as Efron
        times = [1.0, 1.5, 2.0, 10.0, 11.0, 12.0]
        x = [[1.0], [1.0], [1.0], [0.0], [0.0], [0.0]]
        with pytest.raises(NonconvergenceError) as err:
            fit_cox(make_cohort(times, [1] * 6, x), ties="breslow")
        assert err.value.last_iterate is not None

    def test_ridge_keeps_separable_data_finite(self):
        # the penalized likelihood has a finite maximum, and the penalty
        # keeps the penalized information away from collapse
        times = [1.0, 1.5, 2.0, 10.0, 11.0, 12.0]
        x = [[1.0], [1.0], [1.0], [0.0], [0.0], [0.0]]
        model = fit_cox(make_cohort(times, [1] * 6, x), ridge=1.0)
        assert model.converged
        assert np.all(np.isfinite(model.coefficients))
        assert 0.5 < model.coefficients[0] < 2.0

    def test_one_separating_column_among_healthy_ones(self):
        # information collapses only along the separating column; the
        # noise column keeps its curvature
        n = 40
        times = np.arange(1.0, n + 1.0)
        separating = (times <= n // 2).astype(float)
        noise = np.random.default_rng(0).standard_normal(n)
        cohort = make_cohort(times, np.ones(n, dtype=int),
                             np.column_stack([separating, noise]))
        with pytest.raises(NonconvergenceError) as err:
            fit_cox(cohort)
        assert err.value.last_iterate is not None
        rows = {r.feature: r for r in univariate_screen(cohort)}
        assert not rows["x0"].converged
        assert rows["x1"].converged
        assert "x0" not in retained_features(list(rows.values()))

    def test_huge_coefficient_trips_divergence_guard(self, small_linear_cohort):
        # shrinking a feature's scale by 100 inflates its coefficient past
        # the |beta| > 50 divergence guard
        cohort, _ = small_linear_cohort
        X = cohort.matrix().copy()
        X[:, 0] /= 100.0
        tiny = make_cohort(cohort.times, cohort.events, X)
        with pytest.raises(NonconvergenceError) as err:
            fit_cox(tiny)
        assert err.value.last_iterate is not None
        assert np.max(np.abs(err.value.last_iterate)) > 50

    def test_rounding_noise_in_loglik_does_not_stall(self, monkeypatch):
        # At n in the thousands |loglik| is ~1e4 and its rounding error exceeds
        # an absolute 1e-12. Here each evaluation reads a few ulps below the
        # one before, so near the optimum every candidate step looks like a
        # loss; the step-halving test must not take that for a real one.
        cohort, _ = generate_synthetic(
            SyntheticSpec(n=3000, true_coefficients=(0.8, -0.5), seed=11))
        reference = fit_cox(cohort)
        calls = []

        def drifting(beta, cohort, ties="efron"):
            value, grad, hess = partial_loglik(beta, cohort, ties)
            calls.append(beta)
            return value - 4 * len(calls) * np.spacing(abs(value)), grad, hess

        monkeypatch.setattr(coxph, "partial_loglik", drifting)
        model = fit_cox(cohort)
        assert model.converged
        assert model.iterations <= 10
        assert len(calls) <= 1.5 * model.iterations + 1
        assert np.max(np.abs(model.coefficients - reference.coefficients)) < 1e-9

    def test_zero_events_rejected(self, rng):
        cohort = make_cohort([1.0, 2.0], [0, 0], [[0.1], [0.2]])
        with pytest.raises(TrainingError):
            fit_cox(cohort)

    def test_too_many_features_needs_ridge(self):
        cohort = make_cohort([1.0, 2.0, 3.0], [1, 1, 0],
                             np.eye(3))
        with pytest.raises(InvalidParameterError):
            fit_cox(cohort)
        model = fit_cox(cohort, ridge=1.0)
        assert np.all(np.isfinite(model.coefficients))

    @pytest.mark.parametrize("setting, message", [
        ({"ties": "exact"}, "ties must be"), ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"tol": 0.0}, "tol must be > 0"), ({"ridge": -1.0}, "ridge must be >= 0")])
    def test_setting_out_of_domain_rejected(self, small_linear_cohort, setting, message):
        with pytest.raises(InvalidParameterError, match=message):
            fit_cox(small_linear_cohort[0], **setting)

    def test_singular_hessian_conditioning_error(self):
        # duplicated feature: exactly collinear
        x = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5], [3.0, 3.0]])
        cohort = make_cohort([1, 2, 3, 4], [1, 1, 1, 1], x)
        with pytest.raises(ConditioningError):
            fit_cox(cohort)

    def test_covariance_symmetric_psd(self, small_linear_cohort):
        cohort, _ = small_linear_cohort
        model = fit_cox(cohort)
        cov = model.covariance
        assert np.allclose(cov, cov.T)
        assert np.min(np.linalg.eigvalsh(cov)) > 0

    def test_baseline_chf_nondecreasing(self, small_linear_cohort):
        cohort, _ = small_linear_cohort
        model = fit_cox(cohort)
        assert np.all(np.diff(model.baseline_chf.values) >= 0)

    def test_predicted_survival_curve(self, small_linear_cohort):
        cohort, _ = small_linear_cohort
        model = fit_cox(cohort)
        knots = model.baseline_chf.knots
        scores, surv = model.predict(cohort.matrix()[:1], [knots[0] / 2, *knots])
        assert scores[0] == model.predict_risk(cohort.matrix()[:1])[0]
        assert surv[0, 0] == 1.0
        assert np.all(np.diff(surv[0]) <= 1e-15)
        assert np.all((surv > 0) & (surv <= 1))


def breslow_loop(times, events, scores) -> StepFunction:
    """Per-tied-block loop reference for breslow_baseline, same arithmetic."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    scores = np.asarray(scores, dtype=float)
    shift = float(np.max(scores))
    w = np.exp(np.maximum(scores - shift, -700.0))

    order = np.argsort(times, kind="stable")
    t_s, e_s, w_s = times[order], events[order], w[order]
    s0 = np.cumsum(w_s[::-1])[::-1]

    knots, increments = [], []
    i = 0
    n = times.size
    while i < n:
        j = i
        while j < n and t_s[j] == t_s[i]:
            j += 1
        d_k = int(np.sum(e_s[i:j]))
        if d_k > 0:
            knots.append(t_s[i])
            increments.append(d_k / (s0[i] * np.exp(shift)))
        i = j
    return StepFunction(np.array(knots), np.cumsum(increments), 0.0)


# coarse grids force tied times, censorings at event times and tied scores
TIME = st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0]) | st.floats(0.01, 50.0)
SCORE = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-30.0, 30.0)


def breslow_samples():
    return st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.lists(TIME, min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(SCORE, min_size=n, max_size=n)))


class TestBreslowBaseline:
    @settings(max_examples=300, deadline=None)
    @given(breslow_samples())
    @example(([3.0], [0], [1.0]))                                    # no event
    @example(([2.0, 2.0, 2.0, 1.0, 2.0], [1, 0, 1, 1, 0], [0.5, -1.0, 2.0, 0.0, 0.0]))
    @example(([1.0, 1.0, 4.0, 4.0], [1, 1, 1, 1], [700.0, -700.0, 0.0, 1.0]))
    def test_matches_loop_oracle(self, sample):
        base, ref = breslow_baseline(*sample), breslow_loop(*sample)
        assert base.knots.tolist() == ref.knots.tolist()
        assert base.values.tolist() == ref.values.tolist()

    def test_zero_scores_equals_nelson_aalen(self, rng):
        from recurrisk.nonparametric import nelson_aalen
        times = rng.exponential(5, 40) + 0.1
        events = rng.integers(0, 2, 40)
        events[0] = 1
        base = breslow_baseline(times, events, np.zeros(40))
        na = nelson_aalen(times, events)
        assert np.array_equal(base.knots, na.knots)
        assert np.allclose(base.values, na.values, atol=1e-12)


class TestUnivariateScreen:
    def test_row_shape_and_ordering(self, small_linear_cohort):
        cohort, _ = small_linear_cohort
        rows = univariate_screen(cohort)
        assert {r.feature for r in rows} == set(cohort.feature_names)
        ps = [r.p_value for r in rows if r.converged]
        assert ps == sorted(ps)
        for r in rows:
            if r.converged:
                assert r.ci_low <= r.hazard_ratio <= r.ci_high

    def test_strong_feature_tiny_p(self, linear_cohort):
        cohort, _ = linear_cohort
        rows = univariate_screen(cohort)
        by_name = {r.feature: r for r in rows}
        assert by_name["x0"].p_value < 0.001
        assert by_name["x1"].p_value < 0.001

    def test_hazard_ratio_reported_per_original_unit(self, rng):
        # doubling a feature's scale must not change its reported HR after
        # normalization-aware rescaling
        spec = SyntheticSpec(n=500, true_coefficients=(0.8,), seed=17)
        cohort, _ = generate_synthetic(spec)
        wide = make_cohort(cohort.times, cohort.events, cohort.matrix() * 2.0)
        rows_a = univariate_screen(zscore_normalize(cohort))
        rows_b = univariate_screen(zscore_normalize(wide))
        # beta per unit halves when the unit doubles: HR_b = sqrt(HR_a)
        assert abs(rows_b[0].hazard_ratio - rows_a[0].hazard_ratio ** 0.5) < 1e-6

    def test_noise_feature_retention_calibrated(self):
        # a pure-noise feature should be retained at roughly the alpha rate
        hits = 0
        n_trials = 200
        for seed in range(n_trials):
            spec = SyntheticSpec(n=2000, true_coefficients=(0.0,), seed=seed,
                                 censoring_rate_target=0.0)
            cohort, _ = generate_synthetic(spec)
            rows = univariate_screen(cohort)
            hits += rows[0].p_value < 0.05
        assert abs(hits / n_trials - 0.05) <= 0.03

    def test_nonconverged_fit_is_flagged_and_dropped(self, small_linear_cohort,
                                                     monkeypatch):
        cohort, _ = small_linear_cohort

        def x1_hits_the_cap(sub, **kwargs):
            model = fit_cox(sub, **kwargs)
            if sub.feature_names == ("x1",):
                return dataclasses.replace(model, converged=False)
            return model

        monkeypatch.setattr(coxph, "fit_cox", x1_hits_the_cap)
        rows = univariate_screen(cohort)
        assert [r.feature for r in rows] == ["x0", "x1"]
        assert rows[0].converged and rows[0].p_value < 0.001
        assert not rows[1].converged
        assert np.isnan([rows[1].hazard_ratio, rows[1].ci_low, rows[1].ci_high,
                         rows[1].p_value]).all()
        assert retained_features(rows) == ["x0"]

    def test_retained_features_helper(self, linear_cohort):
        cohort, _ = linear_cohort
        rows = univariate_screen(cohort)
        assert set(retained_features(rows, 0.05)) == {"x0", "x1"}


class TestVifFilter:
    def test_independent_features_kept(self, rng):
        X = rng.standard_normal((300, 2))
        cohort = make_cohort(rng.exponential(5, 300) + 0.1,
                             rng.integers(0, 2, 300), X)
        result = vif_filter(cohort, ["x0", "x1"])
        assert result.kept == ("x0", "x1")
        assert result.removed == ()

    def test_exact_collinearity_removed_first(self, rng):
        a = rng.standard_normal(200)
        b = rng.standard_normal(200)
        X = np.column_stack([a, b, a + b])
        cohort = make_cohort(rng.exponential(5, 200) + 0.1,
                             rng.integers(0, 2, 200), X)
        result = vif_filter(cohort, ["x0", "x1", "x2"])
        assert len(result.removed) == 1
        assert result.removed[0][1] == float("inf")
        # ties on infinite VIF break to the earliest column
        assert result.removed[0][0] == "x0"

    def test_two_variable_closed_form(self, rng):
        # correlation 0.95 -> VIF = 1/(1-0.9025) ~ 10.26 > 5, one removed
        n = 100000
        a = rng.standard_normal(n)
        noise = rng.standard_normal(n)
        b = 0.95 * a + np.sqrt(1 - 0.95 ** 2) * noise
        X = np.column_stack([a, b])
        cohort = make_cohort(rng.exponential(5, n) + 0.1,
                             np.ones(n, dtype=int), X)
        result = vif_filter(cohort, ["x0", "x1"])
        assert len(result.removed) == 1
        assert abs(result.removed[0][1] - 1.0 / (1.0 - 0.9025)) < 0.5

    def test_needs_two_features(self, rng):
        cohort = random_censored_cohort(rng, 20, 2)
        with pytest.raises(InvalidParameterError):
            vif_filter(cohort, ["x0"])
