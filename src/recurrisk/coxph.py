"""Cox proportional-hazards machinery.

Partial log-likelihood with analytic gradient and Hessian, as the chain
rule through the score-space ``nonparametric.CoxLoss`` at f = X beta:
weights w = exp(f - max f), floored at exp(-700), and the k-th event term's
denominator D_k = S0(head_k) - c_k * W(block_k), with c_k = ell / m under
Efron and c = 0 under Breslow. Newton-Raphson fitting with step halving,
Wald-based univariate screening, and iterative VIF collinearity filtering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort
from .errors import (
    ConditioningError,
    InvalidParameterError,
    NonconvergenceError,
    TrainingError,
    check_rows,
)
from .nonparametric import CoxLoss, RiskSets
from .stepfun import StepFunction
from . import tree


def breslow_predict(model, X, horizons):
    """(risk scores, S(h | x) = exp(-H0(h) * exp(score)) per row and horizon)
    of a model with `predict_risk` and a Breslow `baseline_chf`."""
    scores = model.predict_risk(X)
    h0 = np.array([model.baseline_chf(h) for h in horizons])
    return scores, np.exp(-h0[None, :] * np.exp(scores)[:, None])


@dataclass(frozen=True)
class CoxModel:
    feature_names: tuple[str, ...]
    coefficients: np.ndarray
    covariance: np.ndarray
    baseline_chf: StepFunction
    converged: bool
    iterations: int

    def predict_risk(self, X) -> np.ndarray:
        """Linear predictor beta' x per row."""
        return check_rows(X, self.coefficients.size) @ self.coefficients

    predict = breslow_predict

    def json_chunks(self):
        doc = {
            "model": "cox_ph",
            "feature_names": list(self.feature_names),
            "coefficients": self.coefficients.tolist(),
            "baseline_knots": self.baseline_chf.knots,
            "baseline_values": self.baseline_chf.values,
        }
        return tree.dumps_listing(doc)


def partial_loglik(beta, cohort: Cohort, ties: str = "efron"):
    """Cox partial log-likelihood, its gradient and Hessian at beta.

    With the loss and g = w * (A - B) - delta of ``CoxLoss`` at f = X beta
    (c = 0 under Breslow) over `cohort.risk_sets`, built once per fit: the
    value is -loss, the gradient -X' g and the Hessian
    sum_k xbar_k xbar_k' - X' diag(g + delta) X, where
    xbar_k = (S1(head_k) - c_k * W1(block_k)) / D_k and S1, W1 are S0, W
    summing w x. Returns (value, gradient, hessian).
    """
    if ties not in ("breslow", "efron"):
        raise InvalidParameterError(f"unknown tie method {ties!r}")
    beta, X = np.asarray(beta, dtype=float), cohort.matrix()
    if beta.shape != (X.shape[1],):
        raise InvalidParameterError(
            f"beta has length {beta.size}, cohort has {X.shape[1]} features")
    if not np.all(np.isfinite(beta)) or not np.all(np.isfinite(X)):
        raise InvalidParameterError("beta and features must be finite")
    risk = cohort.risk_sets
    loss = CoxLoss(risk, X @ beta, efron=ties == "efron")
    hazard = loss.cumulative_hazard()            # g + delta, sorted
    x_s = X[risk.order]
    wx = loss.w[:, None] * x_s
    s1 = risk.suffix_sum(wx)[risk.event_heads]
    if loss.c is not None:
        s1 -= loss.c[:, None] * risk.tied_sums(wx[risk.event_pos])
    xbar = s1 / loss.den[:, None]
    grad = x_s.T @ (risk.events - hazard)
    hess = xbar.T @ xbar - (x_s * hazard[:, None]).T @ x_s
    return -loss.value(), grad, hess


def breslow_baseline(risk: RiskSets, scores) -> StepFunction:
    """Breslow cumulative baseline hazard for any fitted risk score.

    H0(t) = sum over event times t_k <= t of d_k / sum_{j in R_k} exp(f_j),
    with `risk` the subjects' risk sets and `scores` in the same subject order.
    """
    loss = CoxLoss(risk, scores)
    increments = risk.deaths / (loss.s0[risk.blocks] * np.exp(loss.shift))
    return StepFunction(risk.times[risk.blocks], np.cumsum(increments), 0.0)


def check_cox_params(ties: str, max_iter: int, tol: float, ridge: float) -> None:
    """Raise InvalidParameterError for a fit_cox setting out of its domain,
    including a NaN or infinite `tol` or `ridge` (JSON reads both)."""
    if ties not in ("breslow", "efron"):
        raise InvalidParameterError(f"ties must be 'breslow' or 'efron', got {ties!r}")
    if max_iter < 1:
        raise InvalidParameterError("max_iter must be >= 1")
    if not 0 < tol < math.inf:
        raise InvalidParameterError(f"tol must be > 0 and finite, got {tol}")
    if not 0 <= ridge < math.inf:
        raise InvalidParameterError(f"ridge must be >= 0 and finite, got {ridge}")


_INFO_COLLAPSE = 1e-8  # information-collapse ratio; see fit_cox


def fit_cox(cohort: Cohort, ties: str = "efron", max_iter: int = 100,
            tol: float = 1e-9, ridge: float = 0.0) -> CoxModel:
    """Newton-Raphson fit from beta = 0 with step halving.

    A step is halved (at most 30 times) while it lowers the penalized
    log-likelihood by more than 1e-12 * max(1, |loglik|). The slack scales
    with the magnitude because at n in the thousands |loglik| is ~1e4 and
    its rounding error exceeds an absolute 1e-12: near the optimum a tiny
    ascent step then looks like a loss and would be halved until the
    iteration cap. Convergence is max |delta beta| < tol. The covariance is
    the inverse of the penalized information I(beta) = -Hessian + ridge * I
    at the last iterate, and the Breslow baseline CHF is computed at the
    fitted coefficients.

    Raises NonconvergenceError (with the last iterate attached) when
    |beta| exceeds 50, when the curvature vanishes along the fit path (a
    singular Newton system after the first step), or when the information
    has collapsed at the last iterate: lambda_min(I(beta)) <= 1e-8 *
    lambda_max(I(0)). The last case is separation, where the gradient
    underflows to 0 while beta still grows, so the step test alone would
    report convergence; the smallest eigenvalue catches a single
    separating column among healthy ones. The threshold sits far from both
    sides: the ratio is >= 0.03 on every fit of the benchmark cohorts and
    6.6e-16 on a separable one. Hitting max_iter or finding no ascent step
    returns the last iterate with converged=False. A setting out of its
    domain raises InvalidParameterError.
    """
    check_cox_params(ties, max_iter, tol, ridge)
    n_events = int(np.sum(cohort.events))
    if n_events < 1:
        raise TrainingError("cannot fit with zero events")
    d = cohort.n_features
    if d >= n_events and ridge <= 0.0:
        raise InvalidParameterError(
            f"{d} features but only {n_events} events; supply ridge > 0")

    beta = np.zeros(d)
    value, grad, hess = _penalized(beta, cohort, ties, ridge)
    info_scale = float(np.max(np.linalg.eigvalsh(-hess)))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            if iterations == 1:
                # singular at beta = 0: structural collinearity in X
                raise ConditioningError(
                    "singular Hessian; supply ridge > 0 to regularize") from None
            # curvature degenerated along the fit path: separation-type divergence
            raise NonconvergenceError(
                "likelihood curvature vanished before convergence; "
                "data may be separable", last_iterate=beta) from None

        if np.max(np.abs(step)) < tol:
            converged = True
            break

        slack = 1e-12 * max(1.0, abs(value))
        for halvings in range(31):
            new_beta = beta + 0.5 ** halvings * step
            new_value, new_grad, new_hess = _penalized(new_beta, cohort, ties, ridge)
            if not new_value < value - slack:
                break
        else:
            break                      # no usable step in this direction

        beta, value, grad, hess = new_beta, new_value, new_grad, new_hess
        if np.max(np.abs(beta)) > 50.0:
            raise NonconvergenceError(
                "coefficients diverged (|beta| > 50); data may be separable",
                last_iterate=beta)

    info = -hess
    if np.min(np.linalg.eigvalsh(info)) <= _INFO_COLLAPSE * info_scale:
        raise NonconvergenceError(
            "information collapsed at the last iterate; data may be separable",
            last_iterate=beta)
    try:
        covariance = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise ConditioningError("information matrix singular at optimum") from None
    covariance = (covariance + covariance.T) / 2.0

    baseline = breslow_baseline(cohort.risk_sets, cohort.matrix() @ beta)
    return CoxModel(
        feature_names=cohort.feature_names,
        coefficients=beta,
        covariance=covariance,
        baseline_chf=baseline,
        converged=converged,
        iterations=iterations,
    )


def _penalized(beta, cohort, ties, ridge):
    """(value, gradient, Hessian) of the log-likelihood less ridge |beta|^2 / 2."""
    value, grad, hess = partial_loglik(beta, cohort, ties)
    return (value - 0.5 * ridge * float(beta @ beta), grad - ridge * beta,
            hess - ridge * np.eye(beta.size))


@dataclass(frozen=True)
class ScreenRow:
    feature: str
    hazard_ratio: float
    ci_low: float
    ci_high: float
    p_value: float
    converged: bool = True


_Z975 = 1.959963984540054  # Phi^-1(0.975) within 1 ulp; the tests pin this exact double


def univariate_screen(cohort: Cohort) -> list[ScreenRow]:
    """One single-feature Cox fit per feature; Wald p-values, sorted ascending.

    The two-sided Wald p is 2·Phi(-|z|) = erfc(|z| / sqrt 2), z = beta / se,
    from the standard library; it keeps its relative precision down to
    p ~ 1e-300.

    Hazard ratios are reported per original feature unit: when the cohort
    carries normalization statistics, coefficients are rescaled by the
    stored stddev before exponentiation (the p-value is scale-invariant).
    Features whose fit raises or returns converged=False come back flagged
    with NaN statistics and sort last.
    """
    rows = []
    for name in cohort.feature_names:
        sub = cohort.subset_features([name])
        try:
            model = fit_cox(sub)
        except (NonconvergenceError, ConditioningError):
            model = None
        if model is None or not model.converged:
            rows.append(ScreenRow(name, float("nan"), float("nan"), float("nan"),
                                  float("nan"), converged=False))
            continue
        beta = float(model.coefficients[0])
        se = float(np.sqrt(model.covariance[0, 0]))
        if cohort.normalization is not None and name in cohort.normalization:
            sd = cohort.normalization[name][1]
            beta_unit, se_unit = beta / sd, se / sd
        else:
            beta_unit, se_unit = beta, se
        p = math.erfc(abs(beta) / se / math.sqrt(2.0)) if se > 0 else 0.0
        rows.append(ScreenRow(
            feature=name,
            hazard_ratio=float(np.exp(beta_unit)),
            ci_low=float(np.exp(beta_unit - _Z975 * se_unit)),
            ci_high=float(np.exp(beta_unit + _Z975 * se_unit)),
            p_value=p,
        ))
    return sorted(rows, key=lambda r: (not r.converged, r.p_value if r.converged else 1.0))


def retained_features(rows: list[ScreenRow], alpha: float = 0.05) -> list[str]:
    """Features passing the screen (converged and p < alpha), in p order."""
    return [r.feature for r in rows if r.converged and r.p_value < alpha]


@dataclass(frozen=True)
class VifResult:
    kept: tuple[str, ...]
    removed: tuple[tuple[str, float], ...]  # (feature, VIF at removal)


def vif_filter(cohort: Cohort, retained, threshold: float = 5.0) -> VifResult:
    """Iteratively drop the highest-VIF feature until all VIF <= threshold.

    VIF_j = 1 / (1 - R^2_j) from regressing feature j on the other retained
    features (with intercept). Exact collinearity counts as infinite VIF and
    is removed first; ties break toward the earliest cohort column. Fewer
    than two features are kept as they are, in cohort column order.
    """
    retained = [n for n in cohort.feature_names if n in set(retained)]
    X = cohort.subset_features(retained).matrix()
    current = list(range(len(retained)))
    removed = []

    while len(current) >= 2:
        Xc = X[:, current]
        vifs = np.array([_vif(Xc, pos) for pos in range(len(current))])
        worst = int(np.argmax(vifs))  # argmax takes the first (earliest column) on ties
        if vifs[worst] <= threshold:
            break
        removed.append((retained[current[worst]], float(vifs[worst])))
        current.pop(worst)

    return VifResult(
        kept=tuple(retained[c] for c in current),
        removed=tuple(removed),
    )


def _vif(X: np.ndarray, pos: int) -> float:
    y = X[:, pos]
    design = np.empty(X.shape)               # the intercept, then the other columns
    design[:, 0] = 1.0
    design[:, 1:pos + 1] = X[:, :pos]
    design[:, pos + 1:] = X[:, pos + 1:]
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return float("inf")
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    ssr = float(np.sum((y - design @ coef) ** 2))
    r2 = 1.0 - ssr / sst
    if 1.0 - r2 < 1e-12:
        return float("inf")
    return 1.0 / (1.0 - r2)
