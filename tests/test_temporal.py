import csv
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from recurrisk import pipeline, temporal
from recurrisk.boosting import cox_gradients, cox_negloglik
from recurrisk.cohort import SyntheticSpec, generate_synthetic, load_cohort, write_cohort
from recurrisk.errors import (
    InvalidParameterError,
    PipelineError,
    RecurriskError,
    RowParseError,
    TrainingError,
)
from recurrisk.nonparametric import RiskSets
from recurrisk.pipeline import PipelineConfig
from recurrisk.temporal import (
    ADAM_EPS,
    MAX_WIDTH,
    SnapshotSequence,
    _loss_and_gradients,
    _prepared,
    check_temporal_params,
    initial_model,
    load_longitudinal,
    sinusoidal_pe,
    temporal_risk,
    train_temporal,
)


def generate_longitudinal(spec: SyntheticSpec, max_snapshots: int = 4,
                          drift: float = 0.25) -> list[SnapshotSequence]:
    """Follow-up series for the synthetic cohort: snapshot t equals the
    baseline features plus (t-1) * drift * eta along the all-ones direction,
    i.e. a linear per-snapshot drift proportional to the subject's true risk.
    """
    cohort, eta = generate_synthetic(spec)
    rng = np.random.default_rng([spec.seed, 0x5EED])
    d = cohort.n_features
    direction = np.ones(d) / np.sqrt(d)
    sequences = []
    for rid, time, event, base, eta_i in zip(cohort.ids, cohort.times.tolist(),
                                             cohort.events.tolist(), cohort.X, eta):
        t_count = int(rng.integers(1, max_snapshots + 1))
        snaps = np.vstack([base + k * drift * eta_i * direction
                           for k in range(t_count)])
        sequences.append(SnapshotSequence(rid, snaps, time, event))
    return sequences


def write_longitudinal(sequences, path) -> None:
    """CSV with columns id, snapshot_index, time, event, x0, x1, ..."""
    width = sequences[0].snapshots.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "snapshot_index", "time", "event",
                         *(f"x{j}" for j in range(width))])
        for seq in sequences:
            for t, row in enumerate(seq.snapshots, start=1):
                writer.writerow([seq.subject_id, t, repr(seq.time), seq.event,
                                 *(repr(float(v)) for v in row)])


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
                                              ("time", "0"), ("event", "2"),
                                              ("id", " "), ("<row>", None)])
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

    def test_a_bad_cell_is_named_before_a_bad_snapshot_index(self, tmp_path):
        path = tmp_path / "longitudinal.csv"
        path.write_text("id,snapshot_index,time,event,x0\na,first,3.5,1,abc\n",
                        encoding="utf-8")
        with pytest.raises(RowParseError) as info:
            load_longitudinal(path)
        assert (info.value.row, info.value.column) == (1, "x0")

    @pytest.mark.parametrize("rows, row, column, message", [
        (["a,0,5,1", "a,1,9,0", "a,1,9,0"], 2, "time",
         "subject 'a' has time 5.0 on an earlier row, 9.0 here"),
        (["a,0,5,1", "b,0,7,0", "a,1,5,0"], 3, "event",
         "subject 'a' has event 1 on an earlier row, 0 here"),
        (["a,0,5,1", "b,1,7,0", "a,1,5,1", "b,1,7,0"], 4, "snapshot_index",
         "subject 'b' repeats snapshot 1"),
    ], ids=["time", "event", "snapshot"])
    def test_contradictory_rows_name_row_and_column(self, tmp_path, rows, row, column,
                                                    message):
        path = tmp_path / "longitudinal.csv"
        path.write_text("\n".join(["id,snapshot_index,time,event,x0",
                                   *(f"{r},0.5" for r in rows)]) + "\n", encoding="utf-8")
        with pytest.raises(RowParseError, match=message) as info:
            load_longitudinal(path)
        assert (info.value.row, info.value.column) == (row, column)


    @pytest.mark.parametrize("text, expected", [
        ("id, snapshot_index, time, event, x0\n a, 1, 3.5, 1, 0.1\n b, 1, 4.5, 0, 0.2\n",
         [("a", 3.5, 1, [[0.1]]), ("b", 4.5, 0, [[0.2]])]),
        ("id,snapshot_index,time,event,x0\na,1,3.5,1,0.1\n\nb,1,4.5,0,abc\n",
         (RowParseError, 3, "x0", "row 3, column 'x0': not a number: 'abc'")),
        ("id,snapshot_index,event,x0\na,1,1,0.1\n",
         (InvalidParameterError, None, None, "{path}: missing column 'time'")),
        ("", (InvalidParameterError, None, None, "{path}: file is empty")),
        ("id,snapshot_index,time,event,x0,x0\na,1,3.5,1,0.1,0.2\n",
         (InvalidParameterError, None, None, "{path}: header repeats column 'x0'")),
    ], ids=["spaced-separators", "blank-line-then-bad-cell", "missing-column", "empty-file",
            "repeated-feature"])
    def test_reader_follows_the_cohort_readers_conventions(self, tmp_path, text, expected):
        """One snapshot per subject, so load_cohort reads the same file, with
        snapshot_index as a feature, and must agree on ids and errors."""
        path = tmp_path / "longitudinal.csv"
        path.write_text(text, encoding="utf-8")

        def read(load):
            try:
                return load(path)
            except RecurriskError as exc:
                return (type(exc), getattr(exc, "row", None), getattr(exc, "column", None),
                        str(exc))

        cohort = read(load_cohort)
        if isinstance(expected, tuple):
            *kind, message = expected
            assert read(load_longitudinal) == cohort == (*kind, message.format(path=path))
        else:
            assert [(s.subject_id, s.time, s.event, s.snapshots.tolist())
                    for s in load_longitudinal(path)] == expected
            assert list(cohort.ids) == [sid for sid, *_ in expected]


class TestTemporalLane:
    SPEC = SyntheticSpec(n=30, true_coefficients=(1.0, -1.0), seed=4)

    def lane(self, tmp_path, sequences, cv_folds=2):
        """The run's report with the lane on `sequences`; cox is the one learner."""
        write_cohort(generate_synthetic(self.SPEC)[0], tmp_path / "cohort.csv")
        path = tmp_path / "longitudinal.csv"
        write_longitudinal(sequences, path)
        return pipeline.run_pipeline(PipelineConfig(
            cohort_csv=str(tmp_path / "cohort.csv"), out_dir=str(tmp_path / "out"),
            longitudinal_csv=str(path), cv_folds=cv_folds,
            enabled_models=("cox",), temporal_params={"epochs": 2}))

    def test_matching_outcomes_are_evaluated(self, tmp_path):
        report = self.lane(tmp_path, generate_longitudinal(self.SPEC))
        assert report["temporal"]["status"] == "ok"
        assert set(report["temporal"]) == {"status", "c_index", "auc"}

    def test_failing_folds_fail_only_the_lane_with_the_first_message(self, tmp_path,
                                                                     monkeypatch):
        # fold f trains with seed f; folds 1 (the worker's) and 2 fail
        train = pipeline.train_temporal

        def failing(sequences, seed, **params):
            if seed > 0:
                raise TrainingError(f"fold {seed} diverged")
            return train(sequences, seed=seed, **params)

        monkeypatch.setattr(pipeline, "train_temporal", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        report = self.lane(tmp_path, generate_longitudinal(self.SPEC), cv_folds=3)
        assert report["temporal"] == {"status": "failed", "error": "fold 1 diverged"}
        assert report["models"]["cox"]["status"] == "ok"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert self.lane(tmp_path, generate_longitudinal(self.SPEC), cv_folds=3) == report

    def test_outcome_differing_from_the_cohort_names_the_first_id(self, tmp_path):
        sequences = generate_longitudinal(self.SPEC)
        sequences[7] = replace(sequences[7], time=sequences[7].time + 1.0)
        sequences[12] = replace(sequences[12], event=1 - sequences[12].event)
        with pytest.raises(PipelineError, match=r"^temporal: .* for 2 subjects "
                                                rf"\(first: '{sequences[7].subject_id}'\)"):
            self.lane(tmp_path, sequences)

    @pytest.mark.parametrize("defect", ["absent", "missing-subject", "differing-outcome"])
    def test_bad_file_fails_before_any_fold_is_fitted(self, tmp_path, monkeypatch, defect):
        fits = []
        monkeypatch.setattr(pipeline, "fit_fold_models", lambda *a: fits.append(a))
        cohort = generate_synthetic(self.SPEC)[0]
        write_cohort(cohort, tmp_path / "cohort.csv")
        sequences = generate_longitudinal(self.SPEC)
        if defect == "missing-subject":
            del sequences[5]
        elif defect == "differing-outcome":
            sequences[5] = replace(sequences[5], time=sequences[5].time + 1.0)
        path = tmp_path / "longitudinal.csv"
        if defect != "absent":
            write_longitudinal(sequences, path)
        config = PipelineConfig(cohort_csv=str(tmp_path / "cohort.csv"),
                                out_dir=str(tmp_path / "out"), longitudinal_csv=str(path),
                                cv_folds=2, enabled_models=("cox",))
        with pytest.raises(RecurriskError):
            pipeline.run_pipeline(config)
        assert fits == []


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


def temporal_loss_and_gradients(sequences, model):
    """(loss, gradient dict) of the Cox loss over the sequences in canonical
    order, through the batched pass; the finite-difference hook."""
    return _loss_and_gradients(*_prepared(list(sequences), model.pe_dim), model)


def test_initial_model_draws_every_block_in_order():
    # seven uniform(-0.1, 0.1) draws in block order; the model holds only weights
    rng = np.random.default_rng(0)
    shapes = {"w_query": (8, 8), "w_key": (8, 8), "w_value": (8, 8), "w_hidden": (8, 4),
              "b_hidden": (4,), "w_out": (4,), "b_out": ()}
    model = initial_model(8, 4, 0)
    for name in BLOCKS:
        assert np.array_equal(getattr(model, name), rng.uniform(-0.1, 0.1, size=shapes[name]))
    assert isinstance(model.b_out, float) and model.pe_dim == 8
    assert [f.name for f in fields(model)] == [*BLOCKS, "training_loss_trace"]


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

    def test_first_step_moves_each_block_by_its_gradient_over_its_size(self):
        # Adam's bias-corrected moments after one step are g and g**2
        seqs, lr = sequences(n=30), 0.01
        start = initial_model(6, 5, 2)
        _, grads = temporal_loss_and_gradients(seqs, start)
        model = train_temporal(seqs, pe_dim=6, hidden=5, learning_rate=lr, epochs=1, seed=2)
        for name in BLOCKS:
            g = np.asarray(grads[name])
            np.testing.assert_allclose(getattr(model, name),
                                       getattr(start, name) - lr * g / (np.abs(g) + ADAM_EPS),
                                       rtol=1e-12, atol=1e-15, err_msg=name)

    @pytest.mark.parametrize("final, diverged", [(6.5, True), (6.05, False)])
    def test_a_final_loss_above_its_best_by_over_one_percent_raises(self, monkeypatch,
                                                                      final, diverged):
        losses = [10.0, 8.0, 6.0, 9.0, 7.0, final]       # five epochs, then the final loss
        scripted = iter(losses)
        monkeypatch.setattr(temporal, "cox_negloglik", lambda risk, scores: next(scripted))
        if diverged:
            with pytest.raises(TrainingError, match="diverged") as info:
                train_temporal(sequences(n=20), epochs=5)
            assert info.value.trace == losses
        else:
            assert train_temporal(sequences(n=20), epochs=5).training_loss_trace == \
                tuple(losses)

    def test_a_run_that_gives_every_subject_one_score_raises(self):
        # a step this large saturates every tanh unit, so the scores all tie
        with pytest.raises(TrainingError, match="collapsed") as info:
            train_temporal(sequences(n=40, seed=0), learning_rate=5.0)
        assert len(info.value.trace) == 61

    @pytest.mark.parametrize("events, message", [
        ((1,), "^need at least two subjects$"),
        ((0, 0), "^need at least one event$"),
    ], ids=["one-subject", "no-event"])
    def test_too_few_subjects_or_events_raise(self, events, message):
        seqs = [SnapshotSequence(f"s{i}", np.ones((2, 3)), 3.0 + i, event)
                for i, event in enumerate(events)]
        with pytest.raises(TrainingError, match=message):
            train_temporal(seqs)

    def test_a_sequence_without_snapshots_raises(self):
        with pytest.raises(InvalidParameterError,
                           match="^a sequence needs at least one snapshot$"):
            SnapshotSequence("a", np.zeros((0, 3)), 3.0, 1)

    def test_an_odd_encoding_dimension_raises(self):
        with pytest.raises(InvalidParameterError, match="^encoding dimension must be even$"):
            sinusoidal_pe(3, 5)

    def test_snapshot_wider_than_encoder_raises(self):
        seq = SnapshotSequence("a", np.ones((2, 9)), 3.0, 1)
        with pytest.raises(InvalidParameterError,
                           match="^snapshot width 9 exceeds encoder dimension 8$"):
            temporal_risk(seq, initial_model(8, 4, 0))

    def test_nonfinite_snapshot_raises(self):
        seq = SnapshotSequence("a", np.array([[0.1, np.nan]]), 3.0, 1)
        with pytest.raises(InvalidParameterError, match="^attention inputs must be finite$"):
            temporal_risk(seq, initial_model(8, 4, 0))


def test_widths_stop_at_the_maximum():
    check_temporal_params(MAX_WIDTH, MAX_WIDTH, 0.02, 1)
    for pe_dim, hidden, name, width in ((MAX_WIDTH + 2, 8, "pe_dim", MAX_WIDTH + 2),
                                        (8, MAX_WIDTH + 1, "hidden", MAX_WIDTH + 1)):
        with pytest.raises(InvalidParameterError,
                           match=f"^{name} must be <= {MAX_WIDTH}, got {width}$"):
            check_temporal_params(pe_dim, hidden, 0.02, 1)
