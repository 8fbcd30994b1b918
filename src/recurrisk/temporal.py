"""Time-aware risk encoder: sinusoidal positional encoding, single-head
scaled dot-product self-attention over follow-up snapshots, and a tanh MLP
head that turns the last contextual embedding into a scalar risk score.

Training minimizes the negative Cox partial likelihood over the per-subject
scores by full-batch Adam (Kingma & Ba, ICLR 2015) on analytically
backpropagated gradients (no autograd), so every parameter gradient is
finite-difference checkable. A run whose final loss ends more than 1% above
the lowest of its trace has diverged; one that gives every subject the same
score has collapsed. Subjects are re-sorted into a canonical order at the
start of training, making the result exactly invariant to input permutations.

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

from dataclasses import dataclass, replace

import numpy as np

from .boosting import cox_gradients, cox_negloglik
from .cohort import parse_row, read_table, subject_id
from .errors import InvalidParameterError, RowParseError, TrainingError, reading
from .nonparametric import RiskSets, canonical_order


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
    w_query: np.ndarray            # (d, d)
    w_key: np.ndarray              # (d, d)
    w_value: np.ndarray            # (d, d)
    w_hidden: np.ndarray           # (d, h)
    b_hidden: np.ndarray           # (h,)
    w_out: np.ndarray              # (h,)
    b_out: float
    training_loss_trace: tuple[float, ...] = ()

    @property
    def pe_dim(self) -> int:
        """The encoder width d."""
        return self.w_query.shape[0]


# The weight blocks in draw order, shaped over the widths d and h (b_out: scalar)
_BLOCKS = (("w_query", "dd"), ("w_key", "dd"), ("w_value", "dd"),
           ("w_hidden", "dh"), ("b_hidden", "h"), ("w_out", "h"), ("b_out", ""))

ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8
DIVERGENCE_TOLERANCE = 0.01      # how far a final loss may end above the trace's lowest
# The widest encoder (pe_dim) and MLP head (hidden): a (d, d) or (d, h) weight
# block then holds at most 8 MiB.
MAX_WIDTH = 1024


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
            raise InvalidParameterError(f"snapshot width {p} exceeds encoder dimension {d}")
        emb[i, :T, :p] = seq.snapshots
    emb += sinusoidal_pe(t_max, d)
    if not np.all(np.isfinite(emb)):
        raise InvalidParameterError("attention inputs must be finite")
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


def _prepared(sequences, d: int):
    """The packed batch and risk sets of the sequences in `canonical_order`."""
    times = np.array([s.time for s in sequences])
    events = np.array([s.event for s in sequences])
    order = canonical_order(times, events, [s.subject_id for s in sequences])
    return _pack([sequences[i] for i in order], d), RiskSets(times[order], events[order])


def initial_model(pe_dim: int, hidden: int, seed: int) -> TemporalModel:
    """Seeded uniform(-0.1, 0.1) initialization of every parameter."""
    rng = np.random.default_rng(seed)
    widths = {"d": pe_dim, "h": hidden}
    blocks = {}
    for name, shape in _BLOCKS:
        value = rng.uniform(-0.1, 0.1, size=tuple(widths[c] for c in shape))
        blocks[name] = value if shape else float(value)
    return TemporalModel(**blocks)


def check_temporal_params(pe_dim: int, hidden: int, learning_rate: float,
                          epochs: int) -> None:
    """Raise InvalidParameterError for a train_temporal setting out of its domain."""
    if pe_dim < 2 or pe_dim % 2 != 0:
        raise InvalidParameterError(f"pe_dim must be even and >= 2, got {pe_dim}")
    if hidden < 1:
        raise InvalidParameterError("hidden must be >= 1")
    for name, width in (("pe_dim", pe_dim), ("hidden", hidden)):
        if width > MAX_WIDTH:
            raise InvalidParameterError(f"{name} must be <= {MAX_WIDTH}, got {width}")
    if not learning_rate > 0:
        raise InvalidParameterError("learning_rate must be > 0")
    if epochs < 1:
        raise InvalidParameterError("epochs must be >= 1")


def train_temporal(sequences, pe_dim: int = 8, hidden: int = 8,
                   learning_rate: float = 0.02, epochs: int = 60,
                   seed: int = 0) -> TemporalModel:
    """Full-batch Adam on the Cox loss over sequence scores.

    A setting out of its domain raises InvalidParameterError. Raises
    TrainingError (with the loss trace attached) if the final loss exceeds the
    trace's lowest by more than DIVERGENCE_TOLERANCE of it or the final scores all tie.
    """
    check_temporal_params(pe_dim, hidden, learning_rate, epochs)
    seqs = list(sequences)
    if len(seqs) < 2:
        raise TrainingError("need at least two subjects")
    if not any(s.event == 1 for s in seqs):
        raise TrainingError("need at least one event")

    model = initial_model(pe_dim, hidden, seed)
    batch, risk = _prepared(seqs, pe_dim)
    m = v = {name: 0.0 for name, _ in _BLOCKS}          # Adam's gradient moments
    trace = []
    for epoch in range(1, epochs + 1):
        loss, grads = _loss_and_gradients(batch, risk, model)
        trace.append(loss)
        m = {k: ADAM_B1 * m[k] + (1.0 - ADAM_B1) * g for k, g in grads.items()}
        v = {k: ADAM_B2 * v[k] + (1.0 - ADAM_B2) * g ** 2 for k, g in grads.items()}
        c1, c2 = 1.0 - ADAM_B1 ** epoch, 1.0 - ADAM_B2 ** epoch     # bias corrections
        model = replace(model, **{k: getattr(model, k) - learning_rate * (m[k] / c1)
                                  / (np.sqrt(v[k] / c2) + ADAM_EPS) for k in m})
    scores, _ = _forward(batch, model)
    final_loss = cox_negloglik(risk, scores)
    trace.append(final_loss)
    if final_loss > (1.0 + DIVERGENCE_TOLERANCE) * min(trace):
        raise TrainingError(f"training diverged (final loss {final_loss:.6g} ends more than "
                            f"{DIVERGENCE_TOLERANCE:.0%} above its lowest, {min(trace):.6g})",
                            trace=trace)
    if np.all(scores == scores[0]):
        raise TrainingError("training collapsed: every subject gets the same score",
                            trace=trace)
    return replace(model, training_loss_trace=tuple(trace))


# --- longitudinal CSV ------------------------------------------------------


def load_longitudinal(path) -> list[SnapshotSequence]:
    """Sequences from a CSV with columns id, snapshot_index, time, event and
    one column per snapshot feature; snapshots ordered by snapshot_index.
    As in `cohort.load_cohort`, the file is UTF-8 with or without a
    byte-order mark, header names and ids are stripped, blank lines are
    skipped but counted in row numbers, and an empty file or a missing column
    raises InvalidParameterError. A bad cell, a blank id, a time <= 0, an event
    other than 0/1, a time or event that differs from the subject's earlier rows,
    or a snapshot_index repeated within a subject raises RowParseError."""
    outcomes: dict[str, tuple[float, int]] = {}
    snapshots: dict[str, dict[int, list[float]]] = {}
    required = ("id", "snapshot_index", "time", "event")
    with reading("longitudinal file", path) as fh:
        header, rows = read_table(fh, path, required)
        sid_at, index_at, time_at, event_at = (header.index(c) for c in required)
        cols = [time_at, event_at, *(i for i, c in enumerate(header) if c not in required)]
        for row_no, row in rows:
            time, event, *features = parse_row(row_no, row, header, cols)
            sid, outcome = subject_id(row_no, row, header, sid_at), (time, event)
            index = _parse_int(row[index_at], row_no, "snapshot_index")
            earlier = outcomes.setdefault(sid, outcome)
            for column, here, before in zip(("time", "event"), outcome, earlier):
                if here != before:
                    raise RowParseError(row_no, column, f"subject {sid!r} has {column} "
                                        f"{before} on an earlier row, {here} here")
            seen = snapshots.setdefault(sid, {})
            if index in seen:
                raise RowParseError(row_no, "snapshot_index",
                                    f"subject {sid!r} repeats snapshot {index}")
            seen[index] = features
    return [SnapshotSequence(sid, np.array([seen[k] for k in sorted(seen)]), *outcomes[sid])
            for sid, seen in snapshots.items()]


def _parse_int(cell: str, row_no: int, column: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise RowParseError(row_no, column, f"not an integer: {cell.strip()!r}") from None
