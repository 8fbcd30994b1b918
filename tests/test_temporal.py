from dataclasses import replace

import numpy as np
import pytest

from recurrisk.boosting import cox_gradients, cox_negloglik
from recurrisk.cohort import SyntheticSpec
from recurrisk.errors import NumericInputError, RowParseError, ShapeError
from recurrisk.nonparametric import RiskSets
from recurrisk.temporal import (
    SnapshotSequence,
    generate_longitudinal,
    initial_model,
    load_longitudinal,
    sinusoidal_pe,
    temporal_loss_and_gradients,
    temporal_risk,
    train_temporal,
    write_longitudinal,
)


class TestLongitudinalCsv:
    def test_round_trip(self, tmp_path):
        sequences = generate_longitudinal(
            SyntheticSpec(n=50, true_coefficients=(1.0, -1.0), seed=1))
        path = tmp_path / "longitudinal.csv"
        write_longitudinal(sequences, path)
        back = load_longitudinal(path)
        assert [s.subject_id for s in back] == [s.subject_id for s in sequences]
        for got, want in zip(back, sequences):
            assert np.array_equal(got.snapshots, want.snapshots)
            assert (got.time, got.event) == (want.time, want.event)

    @pytest.mark.parametrize("column, cell", [("x1", "abc"), ("time", ""),
                                              ("snapshot_index", "first"),
                                              ("<row>", None)])
    def test_bad_cell_names_row_and_column(self, tmp_path, column, cell):
        header = ["id", "snapshot_index", "time", "event", "x0", "x1"]
        rows = [["a", "1", "3.5", "1", "0.1", "0.2"], ["a", "2", "3.5", "1", "0.3", "0.4"]]
        if cell is None:
            del rows[1][-1]                # a short row
        else:
            rows[1][header.index(column)] = cell
        path = tmp_path / "longitudinal.csv"
        path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n",
                        encoding="utf-8")
        with pytest.raises(RowParseError) as info:
            load_longitudinal(path)
        assert (info.value.row, info.value.column) == (2, column)


# --- the per-subject loop the batched pass replaced: the test oracle --------

BLOCKS = ("w_query", "w_key", "w_value", "w_hidden", "b_hidden", "w_out", "b_out")


def embed_sequence(seq, d):
    """Zero-pad snapshot features to width d and add the positional encoding."""
    T, p = seq.snapshots.shape
    X = np.zeros((T, d))
    X[:, :p] = seq.snapshots
    return X + sinusoidal_pe(T, d)


def attention_weights(X, model):
    """Row-stochastic attention matrix A = softmax(Q K' / sqrt(d))."""
    logits = (X @ model.w_query) @ (X @ model.w_key).T / np.sqrt(model.pe_dim)
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=1, keepdims=True)


def self_attention(X, model):
    """Contextual embeddings Z = A (X W_v)."""
    return attention_weights(X, model) @ (X @ model.w_value)


def risk_loop(seq, model):
    z_last = self_attention(embed_sequence(seq, model.pe_dim), model)[-1]
    hidden = np.tanh(z_last @ model.w_hidden + model.b_hidden)
    return float(hidden @ model.w_out + model.b_out)


def loss_and_gradients_loop(sequences, model):
    """Cox loss and gradients, one full attention pass per subject."""
    sequences = sorted(sequences, key=lambda s: (s.time, s.event, s.subject_id))
    times = np.array([s.time for s in sequences])
    events = np.array([s.event for s in sequences])
    d = model.pe_dim
    inv_sqrt_d = 1.0 / np.sqrt(d)

    caches = []
    scores = np.empty(len(sequences))
    for i, seq in enumerate(sequences):
        X = embed_sequence(seq, d)
        q, k, v = X @ model.w_query, X @ model.w_key, X @ model.w_value
        logits = q @ k.T * inv_sqrt_d
        logits -= logits.max(axis=1, keepdims=True)
        a_mat = np.exp(logits)
        a_mat /= a_mat.sum(axis=1, keepdims=True)
        z = (a_mat @ v)[-1]
        act = np.tanh(z @ model.w_hidden + model.b_hidden)
        scores[i] = act @ model.w_out + model.b_out
        caches.append((X, q, k, v, a_mat, z, act))

    risk = RiskSets(times, events)
    loss = cox_negloglik(risk, scores)
    dscores, _ = cox_gradients(risk, scores)

    grads = {name: np.zeros_like(getattr(model, name)) for name in BLOCKS[:-1]}
    grads["b_out"] = 0.0
    for df, (X, q, k, v, a_mat, z, act) in zip(dscores, caches):
        grads["b_out"] += df
        grads["w_out"] += df * act
        du = df * model.w_out * (1.0 - act ** 2)
        grads["w_hidden"] += np.outer(z, du)
        grads["b_hidden"] += du
        dz = model.w_hidden @ du

        dZ = np.zeros((X.shape[0], d))
        dZ[-1] = dz
        dA = dZ @ v.T
        dV = a_mat.T @ dZ
        dS = a_mat * (dA - np.sum(dA * a_mat, axis=1, keepdims=True))
        grads["w_query"] += X.T @ (dS @ k * inv_sqrt_d)
        grads["w_key"] += X.T @ (dS.T @ q * inv_sqrt_d)
        grads["w_value"] += X.T @ dV
    return loss, grads


# --- batched pass ------------------------------------------------------------


def random_model(seed, pe_dim=6, hidden=5):
    """A model with attention far from uniform, so every block matters."""
    rng = np.random.default_rng(seed)
    model = initial_model(pe_dim, hidden, seed)
    return replace(model, **{name: rng.normal(0.0, 0.7, np.shape(getattr(model, name)))
                             for name in BLOCKS[:-1]}, b_out=float(rng.normal()))


def sequences(n=40, seed=3, width=3):
    return generate_longitudinal(SyntheticSpec(n=n, true_coefficients=(0.8, -0.5, 0.3)[:width],
                                               seed=seed), max_snapshots=4)


class TestBatchedPass:
    def test_gradients_match_central_differences(self):
        seqs = sequences(n=25)
        model = random_model(1)
        _, grads = temporal_loss_and_gradients(seqs, model)
        h = 1e-6
        for name in BLOCKS:
            value = np.asarray(getattr(model, name), dtype=float)
            numeric = np.empty(value.shape)
            for idx in np.ndindex(value.shape):
                losses = []
                for sign in (1.0, -1.0):
                    moved = value.copy()
                    moved[idx] += sign * h
                    moved = float(moved) if name == "b_out" else moved
                    losses.append(temporal_loss_and_gradients(
                        seqs, replace(model, **{name: moved}))[0])
                numeric[idx] = (losses[0] - losses[1]) / (2.0 * h)
            np.testing.assert_allclose(grads[name], numeric, rtol=1e-6, atol=1e-7,
                                       err_msg=name)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_loop_oracle(self, seed):
        seqs = sequences(n=60, seed=seed)
        model = random_model(10 + seed, pe_dim=8, hidden=8)
        loss, grads = temporal_loss_and_gradients(seqs, model)
        want_loss, want = loss_and_gradients_loop(seqs, model)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        for name in BLOCKS:
            # b_out's gradient sums the score gradients, which cancel to ~1e-14
            np.testing.assert_allclose(grads[name], want[name], rtol=1e-12, atol=1e-12,
                                       err_msg=name)

    def test_risk_matches_loop_oracle(self):
        model = random_model(5, pe_dim=8, hidden=8)
        for seq in sequences(n=30):
            assert temporal_risk(seq, model) == pytest.approx(risk_loop(seq, model),
                                                              rel=1e-12, abs=1e-12)

    def test_train_is_invariant_to_input_order(self):
        seqs = sequences(n=50)
        shuffled = [seqs[i] for i in np.random.default_rng(9).permutation(len(seqs))]
        a = train_temporal(seqs, learning_rate=0.02, epochs=15, seed=4)
        b = train_temporal(shuffled, learning_rate=0.02, epochs=15, seed=4)
        assert a.training_loss_trace == b.training_loss_trace
        assert len(a.training_loss_trace) == 16
        for name in BLOCKS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_snapshot_wider_than_encoder_raises(self):
        seq = SnapshotSequence("a", np.ones((2, 9)), 3.0, 1)
        with pytest.raises(ShapeError):
            temporal_risk(seq, initial_model(8, 4, 0))

    def test_nonfinite_snapshot_raises(self):
        seq = SnapshotSequence("a", np.array([[0.1, np.nan]]), 3.0, 1)
        with pytest.raises(NumericInputError):
            temporal_risk(seq, initial_model(8, 4, 0))
