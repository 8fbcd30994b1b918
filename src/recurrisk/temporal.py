"""Time-aware risk encoder: sinusoidal positional encoding, single-head
scaled dot-product self-attention over follow-up snapshots, and a tanh MLP
head that turns the last contextual embedding into a scalar risk score.

Training minimizes the negative Cox partial likelihood over the per-subject
scores by full-batch gradient descent with analytically backpropagated
gradients (no autograd), so every parameter gradient is finite-difference
checkable. Subjects are re-sorted into a canonical order at the start of
training, making the result exactly invariant to input permutations.

The whole cohort runs as one batch. Sequences are packed once into an
(n, T_max, d) tensor: snapshot features zero-padded to width d and to
T_max rows, plus the positional encoding, with an (n, T_max) validity mask
and each subject's last valid row. The score reads only the last
contextual row, so only that row's query attends: its logits over the
keys are set to -inf on padded rows before the softmax, which gives them
weight 0, and z = a V. The backward pass therefore needs dq for the last
row only and dk, dv for the valid rows, all as einsum/matmul contractions
over the batch. Scoring one subject is a batch of one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .boosting import cox_gradients, cox_negloglik
from .cohort import _parse_number, _parse_outcome
from .errors import (
    InvalidParameterError,
    NumericInputError,
    RowParseError,
    ShapeError,
    TrainingError,
    reading,
)
from .nonparametric import RiskSets


@dataclass(frozen=True)
class SnapshotSequence:
    """One subject's follow-up series plus the survival outcome."""

    subject_id: str
    snapshots: np.ndarray          # (T, p) feature values, ordered by follow-up
    time: float
    event: int

    def __post_init__(self):
        snaps = np.atleast_2d(np.asarray(self.snapshots, dtype=float))
        if snaps.shape[0] < 1:
            raise InvalidParameterError("a sequence needs at least one snapshot")
        object.__setattr__(self, "snapshots", snaps)


@dataclass(frozen=True)
class TemporalModel:
    pe_dim: int
    hidden: int
    w_query: np.ndarray            # (d, d)
    w_key: np.ndarray              # (d, d)
    w_value: np.ndarray            # (d, d)
    w_hidden: np.ndarray           # (d, h)
    b_hidden: np.ndarray           # (h,)
    w_out: np.ndarray              # (h,)
    b_out: float
    training_loss_trace: tuple[float, ...] = ()


def sinusoidal_pe(T: int, d: int) -> np.ndarray:
    """Sinusoidal positional encoding, positions 0..T-1.

    PE[t, 2k] = sin(t / 10000^(2k/d)), PE[t, 2k+1] = cos(t / 10000^(2k/d)).
    """
    if d % 2 != 0:
        raise InvalidParameterError("encoding dimension must be even")
    if T < 1:
        raise InvalidParameterError("need at least one position")
    pos = np.arange(T, dtype=float)[:, None]
    freq = 10000.0 ** (-np.arange(0, d, 2, dtype=float) / d)
    pe = np.empty((T, d))
    pe[:, 0::2] = np.sin(pos * freq)
    pe[:, 1::2] = np.cos(pos * freq)
    return pe


def _pack(sequences, d: int):
    """The batch one forward pass reads, in the given subject order.

    Returns the (n, T_max, d) embeddings (snapshot features zero-padded to
    width d and to T_max rows, plus the positional encoding), the
    (n, T_max) validity mask and each subject's last valid row index.
    Padded rows never reach a score or a gradient: attention gives them
    weight 0.
    """
    lengths = np.array([s.snapshots.shape[0] for s in sequences])
    t_max = int(lengths.max())
    valid = np.arange(t_max)[None, :] < lengths[:, None]
    emb = np.zeros((len(sequences), t_max, d))
    for i, seq in enumerate(sequences):
        T, p = seq.snapshots.shape
        if p > d:
            raise ShapeError(f"snapshot width {p} exceeds encoder dimension {d}")
        emb[i, :T, :p] = seq.snapshots
    emb += sinusoidal_pe(t_max, d)
    if not np.all(np.isfinite(emb)):
        raise NumericInputError("attention inputs must be finite")
    return emb, valid, lengths - 1


def _forward(batch, model: TemporalModel):
    """Scores of every subject, plus the cache the backward pass reads.

    The score reads only the last contextual row, so only the last query
    row attends: a = softmax(q_last K' / sqrt(d)) over the valid keys.
    """
    emb, valid, last = batch
    inv_sqrt_d = 1.0 / np.sqrt(model.pe_dim)
    x_last = emb[np.arange(last.size), last]
    q = x_last @ model.w_query                      # (n, d)
    k = emb @ model.w_key                           # (n, T_max, d)
    v = emb @ model.w_value
    logits = np.where(valid, np.einsum("nd,ntd->nt", q, k) * inv_sqrt_d, -np.inf)
    logits -= logits.max(axis=1, keepdims=True)
    a = np.exp(logits)                              # 0 on padded rows
    a /= a.sum(axis=1, keepdims=True)
    z = np.einsum("nt,ntd->nd", a, v)
    act = np.tanh(z @ model.w_hidden + model.b_hidden)
    scores = act @ model.w_out + model.b_out
    return scores, (emb, x_last, q, k, v, a, z, act)


def _backward(model: TemporalModel, cache, dscores) -> dict:
    """Parameter gradients of a loss whose gradient in the scores is dscores."""
    emb, x_last, q, k, v, a, z, act = cache
    inv_sqrt_d = 1.0 / np.sqrt(model.pe_dim)
    du = dscores[:, None] * model.w_out * (1.0 - act ** 2)
    dz = du @ model.w_hidden.T
    da = np.einsum("nd,ntd->nt", dz, v)
    ds = a * (da - np.sum(da * a, axis=1, keepdims=True))
    dq = np.einsum("nt,ntd->nd", ds, k) * inv_sqrt_d
    return {
        "w_query": x_last.T @ dq,
        "w_key": np.einsum("nt,ntd->nd", ds, emb).T @ q * inv_sqrt_d,
        "w_value": np.einsum("nt,ntd->nd", a, emb).T @ dz,
        "w_hidden": z.T @ du,
        "b_hidden": du.sum(axis=0),
        "w_out": dscores @ act,
        "b_out": float(dscores.sum()),
    }


def temporal_risk(seq: SnapshotSequence, model: TemporalModel) -> float:
    """Risk score: MLP applied to the last contextual embedding."""
    scores, _ = _forward(_pack([seq], model.pe_dim), model)
    return float(scores[0])


def _loss_and_gradients(batch, risk: RiskSets, model: TemporalModel):
    """Cox loss and parameter gradients over one packed batch."""
    scores, cache = _forward(batch, model)
    dscores, _ = cox_gradients(risk, scores, hessian=False)
    return cox_negloglik(risk, scores), _backward(model, cache, dscores)


def _risk_sets(sequences) -> RiskSets:
    return RiskSets(np.array([s.time for s in sequences]),
                    np.array([s.event for s in sequences]))


def temporal_loss_and_gradients(sequences, model: TemporalModel):
    """(loss, gradient dict) of the Cox loss; the finite-difference hook."""
    seqs = _canonical_order(sequences)
    batch = _pack(seqs, model.pe_dim)
    return _loss_and_gradients(batch, _risk_sets(seqs), model)


def _canonical_order(sequences):
    return sorted(sequences, key=lambda s: (s.time, s.event, s.subject_id))


def initial_model(pe_dim: int, hidden: int, seed: int) -> TemporalModel:
    """Seeded uniform(-0.1, 0.1) initialization of every parameter."""
    if pe_dim % 2 != 0:
        raise InvalidParameterError("encoding dimension must be even")
    rng = np.random.default_rng(seed)
    u = lambda *shape: rng.uniform(-0.1, 0.1, size=shape)
    return TemporalModel(
        pe_dim=pe_dim,
        hidden=hidden,
        w_query=u(pe_dim, pe_dim),
        w_key=u(pe_dim, pe_dim),
        w_value=u(pe_dim, pe_dim),
        w_hidden=u(pe_dim, hidden),
        b_hidden=u(hidden),
        w_out=u(hidden),
        b_out=float(u()),
    )


def check_temporal_params(pe_dim: int, hidden: int, learning_rate: float,
                          epochs: int) -> None:
    """Raise InvalidParameterError for a train_temporal setting out of its domain."""
    if pe_dim < 2 or pe_dim % 2 != 0:
        raise InvalidParameterError(f"pe_dim must be even and >= 2, got {pe_dim}")
    if hidden < 1:
        raise InvalidParameterError("hidden must be >= 1")
    if not learning_rate > 0:
        raise InvalidParameterError("learning_rate must be > 0")
    if epochs < 1:
        raise InvalidParameterError("epochs must be >= 1")


def train_temporal(sequences, pe_dim: int = 8, hidden: int = 8,
                   learning_rate: float = 0.02, epochs: int = 60,
                   seed: int = 0) -> TemporalModel:
    """Full-batch gradient descent on the Cox loss over sequence scores.

    A setting out of its domain raises InvalidParameterError. Raises
    TrainingError (with the loss trace attached) if the loss rises for 10
    consecutive epochs.
    """
    check_temporal_params(pe_dim, hidden, learning_rate, epochs)
    seqs = _canonical_order(list(sequences))
    if len(seqs) < 2:
        raise TrainingError("need at least two subjects")
    if not any(s.event == 1 for s in seqs):
        raise TrainingError("need at least one event")

    model = initial_model(pe_dim, hidden, seed)
    batch = _pack(seqs, pe_dim)
    risk = _risk_sets(seqs)
    trace = []
    consecutive_rises = 0
    for _ in range(epochs):
        loss, grads = _loss_and_gradients(batch, risk, model)
        trace.append(loss)
        if len(trace) >= 2 and trace[-1] > trace[-2]:
            consecutive_rises += 1
            if consecutive_rises >= 10:
                raise TrainingError("training diverged (loss rose 10 epochs running)",
                                    trace=trace)
        else:
            consecutive_rises = 0
        model = replace(
            model,
            w_query=model.w_query - learning_rate * grads["w_query"],
            w_key=model.w_key - learning_rate * grads["w_key"],
            w_value=model.w_value - learning_rate * grads["w_value"],
            w_hidden=model.w_hidden - learning_rate * grads["w_hidden"],
            b_hidden=model.b_hidden - learning_rate * grads["b_hidden"],
            w_out=model.w_out - learning_rate * grads["w_out"],
            b_out=model.b_out - learning_rate * grads["b_out"],
        )
    final_loss, _ = _loss_and_gradients(batch, risk, model)
    trace.append(final_loss)
    return replace(model, training_loss_trace=tuple(trace))


# --- longitudinal CSV ------------------------------------------------------


def load_longitudinal(path) -> list[SnapshotSequence]:
    """Sequences from a CSV with columns id, snapshot_index, time, event and
    one column per snapshot feature; snapshots ordered by snapshot_index.
    A bad cell, a time <= 0 or an event other than 0/1 raises RowParseError."""
    groups: dict[str, list] = {}
    order: list[str] = []
    with reading(f"longitudinal file {path}"), \
            open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"id", "snapshot_index", "time", "event"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ShapeError(f"{path}: longitudinal CSV needs columns {sorted(required)}")
        feature_cols = [c for c in reader.fieldnames if c not in required]
        for row_no, row in enumerate(reader, start=1):
            if None in row or None in row.values():
                raise RowParseError(row_no, "<row>",
                                    f"expected {len(reader.fieldnames)} cells")
            sid = row["id"]
            if sid not in groups:
                groups[sid] = []
                order.append(sid)
            groups[sid].append((
                _parse_int(row["snapshot_index"], row_no, "snapshot_index"),
                *_parse_outcome(row["time"], row["event"], row_no, "time", "event"),
                [_parse_number(row[c], row_no, c) for c in feature_cols],
            ))
    sequences = []
    for sid in order:
        rows = sorted(groups[sid], key=lambda r: r[0])
        snaps = np.array([r[3] for r in rows])
        sequences.append(SnapshotSequence(sid, snaps, rows[0][1], rows[0][2]))
    return sequences


def _parse_int(cell: str, row_no: int, column: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise RowParseError(row_no, column, f"not an integer: {cell.strip()!r}") from None
