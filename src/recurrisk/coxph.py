"""Cox proportional-hazards machinery.

Partial log-likelihood with analytic gradient and Hessian (Breslow and
Efron tie handling), Newton-Raphson fitting with step halving, Wald-based
univariate screening, and iterative VIF collinearity filtering.

Numerical guard: risk weights are computed relative to the largest linear
predictor (log-sum-exp max shift) and floored at exp(-700), which keeps
every output finite for linear predictors up to +-700; contributions below
that floor are numerically irrelevant anyway.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort
from .errors import (
    ConditioningError,
    InvalidParameterError,
    NonconvergenceError,
    NumericInputError,
    TrainingError,
)
from .nonparametric import RiskSets
from .stepfun import StepFunction


@dataclass(frozen=True)
class CoxModel:
    feature_names: tuple[str, ...]
    coefficients: np.ndarray
    covariance: np.ndarray
    baseline_chf: StepFunction
    converged: bool
    iterations: int
    final_loglik: float

    def predict_risk(self, X) -> np.ndarray:
        """Linear predictor beta' x per row."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.coefficients.size:
            raise InvalidParameterError(
                f"expected {self.coefficients.size} features, got {X.shape[1]}")
        return X @ self.coefficients

    def predict(self, X, horizons):
        """(risk scores, S(h | x) per row and horizon) from the Breslow baseline."""
        scores = self.predict_risk(X)
        return scores, breslow_survival(self.baseline_chf, scores, horizons)

    def to_json(self) -> str:
        doc = {
            "model": "cox_ph",
            "feature_names": list(self.feature_names),
            "coefficients": self.coefficients.tolist(),
            "baseline_knots": self.baseline_chf.knots.tolist(),
            "baseline_values": self.baseline_chf.values.tolist(),
        }
        return json.dumps(doc, sort_keys=True)


def _prepare(beta, cohort: Cohort):
    beta = np.asarray(beta, dtype=float)
    X = cohort.matrix()
    if beta.shape != (X.shape[1],):
        raise InvalidParameterError(
            f"beta has length {beta.size}, cohort has {X.shape[1]} features")
    if not np.all(np.isfinite(beta)) or not np.all(np.isfinite(X)):
        raise NumericInputError("beta and features must be finite")
    return beta, X


def partial_loglik(beta, cohort: Cohort, ties: str = "efron"):
    """Cox partial log-likelihood, its gradient and Hessian at beta.

    Risk sets are {j : t_j >= t_i}, read from `cohort.risk_sets`, so a fit
    builds them once. With tied event times the Efron correction adjusts
    each tied event's denominator; Breslow reuses the full risk-set sum.
    Returns (value, gradient, hessian).
    """
    if ties not in ("breslow", "efron"):
        raise InvalidParameterError(f"unknown tie method {ties!r}")
    beta, X = _prepare(beta, cohort)
    return _partial_loglik_arrays(beta, X, cohort.risk_sets, ties)


def _partial_loglik_arrays(beta, X, risk: RiskSets, ties):
    n, d = X.shape
    eta = X @ beta
    shift = float(np.max(eta))
    w = np.exp(np.maximum(eta - shift, -700.0))

    x_s, w_s, eta_s = X[risk.order], w[risk.order], eta[risk.order]
    wx = w_s[:, None] * x_s
    wxx = np.einsum("ni,nj->nij", wx, x_s)
    s0, s1, s2 = (risk.suffix_sum(v) for v in (w_s, wx, wxx))
    ev = risk.event_pos

    value = float(np.sum(eta_s[ev]))
    grad = x_s[ev].sum(axis=0)
    hess = np.zeros((d, d))

    if ties == "breslow":
        simple_ev = ev                     # every event uses the full risk set
        tied_blocks = np.empty(0, dtype=int)
    else:
        simple_ev = ev[risk.deaths_at[risk.event_heads] == 1]
        tied_blocks = risk.blocks[risk.deaths > 1]

    if simple_ev.size:
        idx = risk.heads[simple_ev]
        den = s0[idx]
        means = s1[idx] / den[:, None]
        value -= float(np.sum(np.log(den) + shift))
        grad -= means.sum(axis=0)
        hess -= np.tensordot(1.0 / den, s2[idx], axes=1) - means.T @ means

    for i in tied_blocks:                  # Efron correction per tied block
        dead = ev[risk.event_heads == i]
        d_k = dead.size
        phi0, phi1, phi2 = s0[i], s1[i], s2[i]
        psi0 = float(np.sum(w_s[dead]))
        psi1 = wx[dead].sum(axis=0)
        psi2 = wxx[dead].sum(axis=0)
        for ell in range(d_k):
            c = ell / d_k
            den = phi0 - c * psi0
            xbar = (phi1 - c * psi1) / den
            value -= np.log(den) + shift
            grad -= xbar
            hess -= (phi2 - c * psi2) / den - np.outer(xbar, xbar)
    return float(value), grad, hess


def breslow_baseline(risk: RiskSets, scores) -> StepFunction:
    """Breslow cumulative baseline hazard for any fitted risk score.

    H0(t) = sum over event times t_k <= t of d_k / sum_{j in R_k} exp(f_j),
    with `risk` the subjects' risk sets and `scores` in the same subject order.
    """
    scores = np.asarray(scores, dtype=float)
    shift = float(np.max(scores))
    w = np.exp(np.maximum(scores - shift, -700.0))
    s0 = risk.suffix_sum(w[risk.order])
    increments = risk.deaths / (s0[risk.blocks] * np.exp(shift))
    return StepFunction(risk.times[risk.blocks], np.cumsum(increments), 0.0)


def breslow_survival(baseline: StepFunction, scores, horizons) -> np.ndarray:
    """S(h | x) = exp(-H0(h) * exp(score)) for every score and horizon:
    shape (len(scores), len(horizons))."""
    h0 = np.array([baseline(h) for h in horizons])
    return np.exp(-h0[None, :] * np.exp(scores)[:, None])


def check_cox_params(ties: str, max_iter: int, tol: float, ridge: float) -> None:
    """Raise InvalidParameterError for a fit_cox setting out of its domain."""
    if ties not in ("breslow", "efron"):
        raise InvalidParameterError(f"ties must be 'breslow' or 'efron', got {ties!r}")
    if max_iter < 1:
        raise InvalidParameterError("max_iter must be >= 1")
    if not tol > 0:
        raise InvalidParameterError("tol must be > 0")
    if ridge < 0:
        raise InvalidParameterError("ridge must be >= 0")


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
    value, grad, hess = partial_loglik(beta, cohort, ties)
    value -= 0.5 * ridge * float(beta @ beta)
    info_scale = float(np.max(np.linalg.eigvalsh(-hess + ridge * np.eye(d))))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad_pen = grad - ridge * beta
        hess_pen = hess - ridge * np.eye(d)
        try:
            step = np.linalg.solve(-hess_pen, grad_pen)
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

        scale = 1.0
        new_beta = beta + step
        new_value, new_grad, new_hess = _penalized(new_beta, cohort, ties, ridge)
        slack = 1e-12 * max(1.0, abs(value))
        halvings = 0
        while new_value < value - slack and halvings < 30:
            scale *= 0.5
            halvings += 1
            new_beta = beta + scale * step
            new_value, new_grad, new_hess = _penalized(new_beta, cohort, ties, ridge)
        if new_value < value - slack:
            break                      # no usable step in this direction

        beta, value, grad, hess = new_beta, new_value, new_grad, new_hess
        if np.max(np.abs(beta)) > 50.0:
            raise NonconvergenceError(
                "coefficients diverged (|beta| > 50); data may be separable",
                last_iterate=beta)

    final_value, _, final_hess = partial_loglik(beta, cohort, ties)
    info = -final_hess + ridge * np.eye(d)
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
        final_loglik=float(final_value),
    )


def _penalized(beta, cohort, ties, ridge):
    value, grad, hess = partial_loglik(beta, cohort, ties)
    return value - 0.5 * ridge * float(beta @ beta), grad, hess


@dataclass(frozen=True)
class ScreenRow:
    feature: str
    hazard_ratio: float
    ci_low: float
    ci_high: float
    p_value: float
    converged: bool = True


_Z975 = 1.959963984540054  # Phi^-1(0.975) within 1 ulp; the tests pin this exact double


def univariate_screen(cohort: Cohort, ties: str = "efron") -> list[ScreenRow]:
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
            model = fit_cox(sub, ties=ties)
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
    is removed first; ties break toward the earliest cohort column.
    """
    retained = [n for n in cohort.feature_names if n in set(retained)]
    if len(retained) < 2:
        raise InvalidParameterError("VIF filtering needs at least two features")
    X = cohort.subset_features(retained).matrix()
    current = list(range(len(retained)))
    removed = []

    while len(current) >= 2:
        vifs = np.array([_vif(X[:, current], pos) for pos in range(len(current))])
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
    others = np.delete(X, pos, axis=1)
    design = np.column_stack([np.ones(X.shape[0]), others])
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return float("inf")
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    ssr = float(np.sum((y - design @ coef) ** 2))
    r2 = 1.0 - ssr / sst
    if 1.0 - r2 < 1e-12:
        return float("inf")
    return 1.0 / (1.0 - r2)
