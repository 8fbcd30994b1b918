"""Boosted survival learners minimizing the negative Cox partial likelihood.

Three modes share one training loop:

* ``componentwise`` - per round, a one-feature least-squares stump fit to
  the negative gradient; the feature with the smallest squared residual
  wins (CoxBoost-style componentwise linear boosting). Each column's mean
  and sum of squares are computed once per fit (once per round under row
  subsampling), and every feature is scored in one pass over a cached
  (d, n) copy of the columns.
* ``xgboost`` - Newton boosting: trees grown by the second-order gain
  formula with leaf weights -sum(g) / (sum(h) + lambda).
* ``gbm`` - first-order gradient boosting: the same Newton tree with
  h = 1 and lambda = 0. The gain is then half the least-squares reduction
  in squared error and the leaf weight is the mean negative gradient, so
  this is the regression tree fit to the negative gradient.

The per-subject first derivatives of the loss come from ``cox_gradients``;
only ``xgboost`` asks it for the second, a diagonal Hessian approximation
standard for survival boosting. Subjects are re-sorted into a canonical
order at the start of training, which makes the fitted model exactly
invariant to input permutations, and their risk sets are built once per
fit. Tree growth, routing and serialization come from ``tree.py``.

The trees use XGBoost's presorted exact greedy search (Chen & Guestrin,
KDD 2016): ``tree.grow`` argsorts every column once per tree and hands each
node its rows in every column's order, and one 2-D cumulative sum scores
every threshold of every feature at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort
from .coxph import breslow_baseline, breslow_survival
from .errors import (
    InvalidParameterError,
    NumericInputError,
    ShapeError,
    TrainingError,
)
from .nonparametric import RiskSets
from .stepfun import StepFunction
from . import tree

_MODES = ("componentwise", "gbm", "xgboost")


@dataclass(frozen=True)
class BoostParams:
    rounds: int = 150
    learning_rate: float = 0.1
    tree_depth: int = 3
    min_leaf: int = 5
    l2_lambda: float = 1.0
    mode: str = "componentwise"
    row_subsample: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 0:
            raise InvalidParameterError("rounds must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise InvalidParameterError("learning_rate must be in (0, 1]")
        if self.tree_depth < 1:
            raise InvalidParameterError("tree_depth must be >= 1")
        if self.min_leaf < 1:
            raise InvalidParameterError("min_leaf must be >= 1")
        if self.mode not in _MODES:
            raise InvalidParameterError(f"mode must be one of {_MODES}")
        if not 0.0 < self.row_subsample <= 1.0:
            raise InvalidParameterError("row_subsample must be in (0, 1]")
        if self.l2_lambda < 0:
            raise InvalidParameterError("l2_lambda must be >= 0")


def cox_negloglik(risk: RiskSets, scores) -> float:
    """Negative Cox partial log-likelihood of per-subject scores (Breslow ties)."""
    scores = np.asarray(scores, float)
    shift = float(np.max(scores))
    w = np.exp(np.maximum(scores - shift, -700.0))
    s0 = risk.suffix_sum(w[risk.order])
    return float(np.sum(np.log(s0[risk.event_heads]) + shift
                        - scores[risk.order][risk.event_pos]))


def cox_gradients(risk: RiskSets, scores, hessian: bool = True):
    """(g, h): per-subject gradient g and diagonal Hessian h of the negative
    partial log-likelihood with respect to the scores; h is None when
    ``hessian`` is false.

    g_i = -delta_i + exp(f_i) * A_i with A_i the sum over events k with
    t_k <= t_i of 1/Phi_k, h_i = exp(f_i) * A_i - exp(2 f_i) * B_i with B
    the sum of 1/Phi_k^2; computed in O(n) from the risk sets via
    cumulative sums.
    """
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise NumericInputError("scores must be finite")

    shift = float(np.max(scores))
    w = np.exp(np.maximum(scores - shift, -700.0))[risk.order]
    phi = risk.suffix_sum(w)[risk.event_heads]    # one term per event
    # sums over the first k event terms, k = 0..E; with no event all are 0
    k = risk.events_through                       # event terms with t_k <= t_i
    a = np.concatenate(([0.0], np.cumsum(1.0 / phi)))[k]
    g = risk.unsort(-risk.events + w * a)
    if not hessian:
        return g, None
    b = np.concatenate(([0.0], np.cumsum(1.0 / phi ** 2)))[k]
    return g, risk.unsort(np.maximum(w * a - w ** 2 * b, 0.0))


# --- base learners ----------------------------------------------------------


@dataclass(frozen=True)
class Stump:
    """One-feature linear learner: slope * x[feature] + intercept."""

    feature: int
    slope: float
    intercept: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.slope * X[:, self.feature] + self.intercept

    def scaled(self, factor: float) -> "Stump":
        return Stump(self.feature, self.slope * factor, self.intercept * factor)

    def to_dict(self):
        return {"kind": "stump", "feature": self.feature,
                "slope": self.slope, "intercept": self.intercept}


@dataclass(frozen=True)
class Tree:
    """Regression tree with a float on every leaf."""

    root: object

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for value, idx in tree.route(self.root, X):
            out[idx] = value
        return out

    def scaled(self, factor: float) -> "Tree":
        return Tree(tree.map_leaves(self.root, lambda value: value * factor))

    def to_dict(self):
        return tree.to_dict(self.root, lambda value: {"value": value})


class _StumpFitter:
    """Least-squares one-feature stumps on the fixed rows of X.

    Each column's mean and sum of squares are computed once; each fit
    scores every non-constant column in one pass through one scratch
    buffer. Columns are held as C-contiguous (d, n) rows, so every
    per-column sum runs along a contiguous axis, with the same pairwise
    summation as a sum over one column.
    """

    def __init__(self, X):
        cols = np.ascontiguousarray(X.T)
        means = np.mean(cols, axis=1)
        centred = cols - means[:, None]
        ss = np.sum(centred ** 2, axis=1)
        live = np.flatnonzero(ss != 0.0)          # constant columns never win
        self.features = live
        self.cols, self.means, self.ss = cols[live], means[live], ss[live]
        self.buf = np.empty_like(self.cols)

    def fit(self, residual) -> Stump | None:
        """The lowest-SSE stump, ties to the lowest feature; None if every
        column is constant."""
        if self.features.size == 0:
            return None
        r_mean = float(np.mean(residual))
        buf = np.subtract(self.cols, self.means[:, None], out=self.buf)
        buf *= residual - r_mean
        slope = np.sum(buf, axis=1) / self.ss
        intercept = r_mean - slope * self.means
        # residual - slope * col - intercept, squared
        np.subtract(residual, np.multiply(slope[:, None], self.cols, out=buf), out=buf)
        buf -= intercept[:, None]
        sse = np.sum(np.square(buf, out=buf), axis=1)
        best = 0
        for k in range(1, sse.size):
            if sse[k] < sse[best] - 1e-15:
                best = k
        return Stump(int(self.features[best]), float(slope[best]), float(intercept[best]))


def _fit_tree(X, g, h, depth, min_leaf, lam) -> Tree:
    """Second-order tree: gain-based splits and leaf weight -G/(H + lambda)."""

    def find_split(idx, order, level):
        if level == depth or idx.size < 2 * min_leaf:
            return None
        return _best_split_gain(X, idx, order, g, h, min_leaf, lam)

    def make_leaf(idx):
        return float(-np.sum(g[idx]) / (np.sum(h[idx]) + lam))

    return Tree(tree.grow(X, find_split, make_leaf))


def _best_split_gain(X, node_idx, order, g, h, min_leaf, lam):
    """Best (feature, threshold) for the rows node_idx, or None; row j of
    order (d, m) holds them sorted by feature j. All features are scored in
    one pass; the highest gain wins, ties to the lowest feature."""
    d, m = order.shape
    gt = float(np.sum(g[node_idx]))
    ht = float(np.sum(h[node_idx]))
    cs = X[order, np.arange(d)[:, None]]
    # position k splits off the first k + 1 rows; both sides keep min_leaf
    lo, hi = min_leaf - 1, m - min_leaf
    gl = np.cumsum(g[order], axis=1)[:, lo:hi]
    hl = np.cumsum(h[order], axis=1)[:, lo:hi]
    gain = 0.5 * (gl ** 2 / (hl + lam) + (gt - gl) ** 2 / (ht - hl + lam)
                  - gt ** 2 / (ht + lam))
    gain = np.where(cs[:, lo:hi] < cs[:, lo + 1:hi + 1], gain, -np.inf)
    ks = np.argmax(gain, axis=1)
    best = None
    for j, k in enumerate(ks):
        if gain[j, k] > 1e-12 and (best is None or gain[j, k] > best[0] + 1e-15):
            best = (gain[j, k], j, float((cs[j, lo + k] + cs[j, lo + k + 1]) / 2.0))
    if best is None:
        return None
    return best[1], best[2]


# --- the boosted model ------------------------------------------------------


@dataclass(frozen=True)
class BoostedModel:
    mode: str
    learning_rate: float
    feature_names: tuple[str, ...]
    base_learners: tuple
    training_loss_trace: tuple[float, ...]
    baseline_chf: StepFunction         # Breslow, at the final training scores
    early_stop_round: int | None = None

    def predict_risk(self, X) -> np.ndarray:
        """Sum of scaled learner outputs per row."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != len(self.feature_names):
            raise ShapeError(f"expected {len(self.feature_names)} features, got {X.shape[1]}")
        out = np.zeros(X.shape[0])
        for learner in self.base_learners:
            out += self.learning_rate * learner.predict(X)
        return out

    def predict(self, X, horizons):
        """(risk scores, S(h | x) per row and horizon) from the Breslow baseline."""
        scores = self.predict_risk(X)
        return scores, breslow_survival(self.baseline_chf, scores, horizons)

    def to_json(self) -> str:
        doc = {
            "model": "boosted_cox",
            "mode": self.mode,
            "learning_rate": self.learning_rate,
            "feature_names": list(self.feature_names),
            "learners": [l.to_dict() for l in self.base_learners],
            "training_loss_trace": list(self.training_loss_trace),
            "baseline_knots": self.baseline_chf.knots.tolist(),
            "baseline_values": self.baseline_chf.values.tolist(),
            "early_stop_round": self.early_stop_round,
        }
        return json.dumps(doc, sort_keys=True)


def _canonical_order(cohort: Cohort) -> np.ndarray:
    """Row order by (time, event, id); ids are unique, so the order is total
    and the fitted model is independent of the input permutation."""
    return np.lexsort((cohort.ids, cohort.events, cohort.times))


def fit_boosted(cohort: Cohort, params: BoostParams) -> BoostedModel:
    """Gradient/Newton boosting on the Cox partial likelihood.

    Each round fits a base learner to the negative gradient of the loss and
    adds it scaled by the learning rate; if the training loss would rise,
    the new learner is halved (folded into its values) until the trace is
    nonincreasing, and the round is abandoned once halving stops helping.
    """
    if int(np.sum(cohort.events)) < 1:
        raise TrainingError("cannot boost with zero events")

    canon = cohort.subset_rows(_canonical_order(cohort))
    X, t, e = canon.matrix(), canon.times, canon.events
    n = X.shape[0]
    rng = np.random.default_rng(params.seed)
    lam = params.l2_lambda if params.mode == "xgboost" else 0.0
    stumps = None

    f = np.zeros(n)
    learners: list = []
    risk = RiskSets(t, e)
    trace = [cox_negloglik(risk, f)]
    early_stop = None

    for rnd in range(params.rounds):
        g, h = cox_gradients(risk, f, hessian=params.mode == "xgboost")
        if params.mode == "gbm":
            h = np.ones(n)
        rows = slice(None)
        if params.row_subsample < 1.0:
            m = max(1, int(round(params.row_subsample * n)))
            rows = np.sort(rng.choice(n, size=m, replace=False))

        if params.mode == "componentwise":
            if stumps is None or params.row_subsample < 1.0:
                stumps = _StumpFitter(X[rows])
            learner = stumps.fit(-g[rows])
        else:
            learner = _fit_tree(X[rows], g[rows], h[rows], params.tree_depth,
                                params.min_leaf, lam)
        if learner is None:
            early_stop = rnd
            break

        accepted = False
        scale = 1.0
        for _ in range(31):
            cand = learner.scaled(scale) if scale != 1.0 else learner
            f_new = f + params.learning_rate * cand.predict(X)
            loss = cox_negloglik(risk, f_new)
            if loss <= trace[-1] + 1e-9:
                learners.append(cand)
                f = f_new
                trace.append(loss)
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            early_stop = rnd
            break

    return BoostedModel(
        mode=params.mode,
        learning_rate=params.learning_rate,
        feature_names=canon.feature_names,
        base_learners=tuple(learners),
        training_loss_trace=tuple(trace),
        # f, in canonical order, keeps the baseline invariant to input order
        baseline_chf=breslow_baseline(risk, f),
        early_stop_round=early_stop,
    )
