import importlib.util
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurrisk import cohort as cohort_module
from recurrisk.cohort import (
    Cohort,
    ColumnSchema,
    ConstantFeatureWarning,
    SyntheticSpec,
    apply_normalization,
    generate_synthetic,
    load_cohort,
    write_cohort,
    zscore_normalize,
)
from recurrisk.errors import (
    CalibrationError,
    EmptyCohortError,
    InvalidParameterError,
    NoInformativeFeaturesError,
    RowParseError,
    SchemaError,
)
from recurrisk.metrics import c_index
from recurrisk.nonparametric import RiskSets

from conftest import make_cohort

REPO = Path(__file__).resolve().parent.parent


class TestLoadCohort:
    def test_single_row_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,t,e,x\np1,12.0,1,0.5\n")
        cohort = load_cohort(path, ColumnSchema(time_column="t", event_column="e"))
        assert len(cohort) == 1
        assert (list(cohort.ids), cohort.times.tolist(), cohort.events.tolist(),
                cohort.X.tolist()) == (["p1"], [12.0], [1], [[0.5]])

    def test_bad_event_value_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,t,e,x\np1,12.0,2,0.5\n")
        with pytest.raises(RowParseError) as err:
            load_cohort(path, ColumnSchema(time_column="t", event_column="e"))
        assert err.value.row == 1
        assert err.value.column == "e"

    def test_nonpositive_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,time,event,x\np1,0.0,1,0.5\n")
        with pytest.raises(RowParseError) as err:
            load_cohort(path)
        assert err.value.column == "time"

    def test_non_numeric_feature_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,time,event,x\np1,3.0,1,abc\n")
        with pytest.raises(RowParseError) as err:
            load_cohort(path)
        assert err.value.column == "x"

    def test_missing_value_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,time,event,x\np1,3.0,1,\n")
        with pytest.raises(RowParseError):
            load_cohort(path)

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,when,event,x\np1,3.0,1,0.5\n")
        with pytest.raises(SchemaError):
            load_cohort(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyCohortError):
            load_cohort(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,time,event,x\n")
        with pytest.raises(EmptyCohortError):
            load_cohort(path)

    def test_duplicate_id_names_row_and_id_column(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("pid,time,event,x\np1,3.0,1,0.5\np2,4.0,0,0.1\np1,5.0,1,0.2\n")
        with pytest.raises(RowParseError) as err:
            load_cohort(path, ColumnSchema(id_column="pid"))
        assert err.value.row == 3
        assert err.value.column == "pid"

    def test_demo_cohort_has_186_records(self):
        cohort = load_cohort("data/demo_cohort.csv")
        assert len(cohort) == 186

    def test_demo_generator_reproduces_committed_file(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "make_demo_data", REPO / "tools" / "make_demo_data.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        path = tmp_path / "demo_cohort.csv"
        write_cohort(tool.demo_cohort(), path)
        assert path.read_bytes() == (REPO / "data" / "demo_cohort.csv").read_bytes()

    def test_round_trip(self, tmp_path, rng):
        cohort = make_cohort(rng.exponential(5, 20) + 0.1, rng.integers(0, 2, 20),
                             rng.standard_normal((20, 3)))
        path = tmp_path / "rt.csv"
        write_cohort(cohort, path)
        back = load_cohort(path)
        assert back.feature_names == cohort.feature_names
        assert np.array_equal(back.ids, cohort.ids)
        assert np.array_equal(back.times, cohort.times)
        assert np.array_equal(back.events, cohort.events)
        assert np.array_equal(back.matrix(), cohort.matrix())


def _padded(cell):
    return st.tuples(st.sampled_from(["", " ", "  "]), st.just(cell),
                     st.sampled_from(["", " "])).map("".join)


FEATURE_CELL = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
                | st.sampled_from(["+3", ".5", "1e-300", "1_000", "-0", "7"])
                ).flatmap(_padded)
TIME_CELL = (st.floats(1e-300, 1e300).map(repr)
             | st.sampled_from(["+3", ".5", "1e-300", "1_000", "12"])).flatmap(_padded)
EVENT_CELL = st.sampled_from(["0", "1", " 1", "0.0", "1.", "+1"])


def csv_text(d):
    """A cohort file with d features: data rows of odd cells between blank lines."""
    row = st.tuples(TIME_CELL, EVENT_CELL, st.lists(FEATURE_CELL, min_size=d, max_size=d))
    lines = st.lists(row | st.sampled_from(["", ",,,"]), min_size=1, max_size=12).filter(
        lambda ls: any(not isinstance(line, str) for line in ls))
    header = ",".join(["id", "time", "event"] + [f"x{j}" for j in range(d)])
    return lines.map(lambda ls: "\n".join([header] + [
        line if isinstance(line, str) else ",".join([f"s{k}", line[0], line[1], *line[2]])
        for k, line in enumerate(ls)]) + "\n")


class TestBlockLoader:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(csv_text))
    def test_block_path_equals_cell_path(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "c.csv")
            path.write_text(text, encoding="utf-8")
            real_convert, converted = cohort_module._convert_block, []

            def convert(*args):
                converted.append(real_convert(*args))
                return converted[-1]

            with mock.patch.object(cohort_module, "_BLOCK_ROWS", 3), \
                    mock.patch.object(cohort_module, "_convert_block", convert):
                block = load_cohort(path)
            with mock.patch.object(cohort_module, "_convert_block", return_value=None):
                cell = load_cohort(path)
        assert converted and all(v is not None for v in converted)   # no fallback
        assert list(block.ids) == list(cell.ids)
        assert np.array_equal(block.times.view(np.int64), cell.times.view(np.int64))
        assert np.array_equal(block.events, cell.events)
        assert np.array_equal(block.X.view(np.int64), cell.X.view(np.int64))

    @staticmethod
    def _big_file(path, n, bad_row=None, cell="0.5"):
        lines = ["id,time,event,x"]
        for k in range(1, n + 1):
            lines.append(f"p{k},{k % 50 + 1}.5,{k % 2},{cell if k == bad_row else k / 7}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_bad_cell_in_second_block_names_its_row(self, tmp_path):
        path = tmp_path / "big.csv"
        self._big_file(path, 3500, bad_row=3000, cell="abc")
        with pytest.raises(RowParseError) as err:
            load_cohort(path)
        assert err.value.row == 3000
        assert err.value.column == "x"
        assert "row 3000, column 'x': not a number: 'abc'" in str(err.value)

    def test_id_repeated_across_blocks_names_both_rows(self, tmp_path):
        path = tmp_path / "dup.csv"
        self._big_file(path, 3000)
        text = path.read_text(encoding="utf-8").replace("\np2500,", "\np10,")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(RowParseError) as err:
            load_cohort(path)
        assert err.value.row == 2500
        assert "duplicate id 'p10' (first on row 10)" in str(err.value)

    def test_multi_block_file_loads_every_row(self, tmp_path):
        path = tmp_path / "big.csv"
        self._big_file(path, 5000)
        cohort = load_cohort(path)
        assert len(cohort) == 5000
        assert cohort.ids[-1] == "p5000" and cohort.X[-1, 0] == 5000 / 7


class TestRecordInvariants:
    """The checks the array constructor makes on every cohort."""

    def test_time_must_be_positive(self):
        for time in (-1.0, 0.0, np.nan):
            with pytest.raises(InvalidParameterError):
                Cohort(("x0",), ["a", "b"], [1.0, time], [1, 0], [[0.0], [1.0]])

    def test_event_must_be_binary(self):
        for event in (2, -1, 0.5, np.nan):
            with pytest.raises(InvalidParameterError):
                Cohort(("x0",), ["a", "b"], [1.0, 2.0], [1, event], [[0.0], [1.0]])

    def test_feature_count_must_match(self):
        with pytest.raises(SchemaError):
            Cohort(("x0",), ["a"], [1.0], [1], [[0.0, 1.0]])

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(SchemaError):
            Cohort(("x0", "x0"), ["a"], [1.0], [1], [[0.0, 1.0]])

    def test_row_count_must_match(self):
        with pytest.raises(SchemaError):
            Cohort(("x0",), ["a", "b"], [1.0, 2.0], [1, 0], [[0.0], [1.0], [2.0]])
        with pytest.raises(SchemaError):
            Cohort(("x0",), ["a", "b"], [1.0], [1, 0], [[0.0], [1.0]])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SchemaError, match="'a'"):
            Cohort(("x0",), ["a", "b", "a"], [1.0, 2.0, 3.0], [1, 0, 1],
                   [[0.0], [1.0], [2.0]])

    def test_empty_cohort_rejected(self):
        with pytest.raises(EmptyCohortError):
            Cohort(("x0",), [], [], [], np.empty((0, 1)))

    def test_arrays_are_read_only_copies(self):
        X = np.array([[0.0], [1.0]])
        cohort = Cohort(("x0",), ["a", "b"], [1.0, 2.0], [1, 0], X)
        X[0, 0] = 5.0
        assert cohort.matrix()[0, 0] == 0.0
        with pytest.raises(ValueError):
            cohort.matrix()[0, 0] = 5.0
        with pytest.raises(ValueError):
            cohort.times[0] = 5.0

    def test_risk_sets_built_once_and_match_the_outcomes(self, rng):
        cohort = make_cohort(np.ceil(rng.exponential(3, 30)), rng.integers(0, 2, 30),
                             rng.standard_normal((30, 2)))
        risk = cohort.risk_sets
        assert cohort.risk_sets is risk
        fresh = RiskSets(cohort.times, cohort.events)
        for name in ("order", "times", "events", "heads", "blocks", "deaths", "at_risk"):
            assert np.array_equal(getattr(risk, name), getattr(fresh, name))

    def test_feature_subsets_share_the_risk_sets(self, rng):
        cohort = make_cohort(np.ceil(rng.exponential(3, 30)), rng.integers(0, 2, 30),
                             rng.standard_normal((30, 3)))
        assert cohort.subset_features(["x2", "x0"]).risk_sets is cohort.risk_sets
        nested = cohort.subset_features(["x1", "x2"]).subset_features(["x2"])
        assert nested.risk_sets is cohort.risk_sets

    def test_derived_matrices_are_c_contiguous(self, rng):
        # X[:, cols] is F-ordered; X @ beta on F-ordered storage takes another
        # BLAS path and moves Cox scores in the last bits of oof_scores.csv
        cohort = make_cohort(rng.exponential(3, 30) + 0.1, rng.integers(0, 2, 30),
                             rng.standard_normal((30, 4)))
        assert cohort.subset_features(["x2", "x0"]).matrix().flags.c_contiguous
        assert zscore_normalize(cohort).matrix().flags.c_contiguous


class TestZscore:
    def test_hand_case(self):
        cohort = make_cohort([1, 2, 3], [1, 1, 1], [[1.0], [2.0], [3.0]])
        out = zscore_normalize(cohort)
        assert np.allclose(out.matrix().ravel(), [-1.0, 0.0, 1.0])
        mean, std = out.normalization["x0"]
        assert mean == 2.0 and std == 1.0

    def test_constant_column_dropped_with_warning(self):
        cohort = make_cohort([1, 2, 3], [1, 1, 1],
                             np.column_stack([[5.0, 5.0, 5.0], [1.0, 2.0, 4.0]]))
        with pytest.warns(ConstantFeatureWarning):
            out = zscore_normalize(cohort)
        assert out.feature_names == ("x1",)

    def test_all_constant_fails(self):
        cohort = make_cohort([1, 2], [1, 1], [[5.0], [5.0]])
        with pytest.warns(ConstantFeatureWarning), \
                pytest.raises(NoInformativeFeaturesError):
            zscore_normalize(cohort)

    def test_idempotent_on_standardized_input(self, rng):
        X = rng.standard_normal((50, 2))
        X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        cohort = make_cohort(rng.exponential(3, 50) + 0.1, rng.integers(0, 2, 50), X)
        out = zscore_normalize(cohort)
        assert np.max(np.abs(out.matrix() - X)) < 1e-12

    def test_normalized_columns_are_standard(self, rng):
        cohort = make_cohort(rng.exponential(3, 40) + 0.1, rng.integers(0, 2, 40),
                             rng.uniform(5, 30, (40, 3)))
        out = zscore_normalize(cohort)
        X = out.matrix()
        assert np.max(np.abs(X.mean(axis=0))) < 1e-9
        assert np.max(np.abs(X.std(axis=0, ddof=1) - 1)) < 1e-9

    def test_train_stats_applied_to_heldout_preserves_rank_order(self, rng):
        train = make_cohort(rng.exponential(3, 30) + 0.1, rng.integers(0, 2, 30),
                            rng.uniform(0, 10, (30, 2)))
        held = make_cohort(rng.exponential(3, 15) + 0.1, rng.integers(0, 2, 15),
                           rng.uniform(0, 10, (15, 2)))
        fitted = zscore_normalize(train)
        out = apply_normalization(held, fitted.normalization)
        # training split exactly standardized
        assert np.max(np.abs(fitted.matrix().mean(axis=0))) < 1e-9
        # held-out rank order unchanged per column
        for j in range(2):
            assert np.array_equal(np.argsort(out.matrix()[:, j]),
                                  np.argsort(held.matrix()[:, j]))


class TestSyntheticGenerator:
    def test_null_coefficients_give_chance_concordance(self):
        spec = SyntheticSpec(n=2000, true_coefficients=(0.0, 0.0), seed=11)
        cohort, eta = generate_synthetic(spec)
        assert np.all(eta == 0.0)
        # score everything by an independent random draw: chance level
        scores = np.random.default_rng(0).standard_normal(len(cohort))
        c = c_index(cohort.times, cohort.events, scores).c_index
        assert abs(c - 0.5) < 0.05

    def test_same_seed_identical(self):
        spec = SyntheticSpec(n=200, true_coefficients=(0.5, -0.5), seed=99)
        a, ea = generate_synthetic(spec)
        b, eb = generate_synthetic(spec)
        assert a == b
        assert np.array_equal(ea, eb)
        other, _ = generate_synthetic(SyntheticSpec(n=200, true_coefficients=(0.5, -0.5),
                                                    seed=100))
        assert a != other

    def test_true_scores_concordance_frozen(self, linear_cohort):
        cohort, eta = linear_cohort
        c = c_index(cohort.times, cohort.events, eta).c_index
        assert c >= 0.70
        assert abs(c - 0.7894413799806412) < 1e-12  # frozen regression value

    def test_censoring_calibration_hits_target(self):
        for target in (0.1, 0.4, 0.7):
            spec = SyntheticSpec(n=1000, true_coefficients=(1.0,), seed=13,
                                 censoring_rate_target=target)
            cohort, _ = generate_synthetic(spec)
            realized = 1.0 - cohort.events.mean()
            assert abs(realized - target) <= 0.05

    def test_event_fraction_monotone_in_target(self):
        fractions = []
        for target in (0.1, 0.4, 0.7):
            spec = SyntheticSpec(n=1000, true_coefficients=(1.0,), seed=13,
                                 censoring_rate_target=target)
            cohort, _ = generate_synthetic(spec)
            fractions.append(cohort.events.mean())
        assert fractions[0] > fractions[1] > fractions[2]

    def test_zero_target_means_no_censoring(self):
        spec = SyntheticSpec(n=100, true_coefficients=(1.0,), seed=3,
                             censoring_rate_target=0.0)
        cohort, _ = generate_synthetic(spec)
        assert cohort.events.sum() == 100

    def test_unreachable_target_raises(self):
        # n=5 quantizes achievable fractions to multiples of 0.2
        spec = SyntheticSpec(n=5, true_coefficients=(1.0,), seed=3,
                             censoring_rate_target=0.9)
        with pytest.raises(CalibrationError):
            generate_synthetic(spec)

    def test_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            SyntheticSpec(n=1, true_coefficients=(1.0,))
        with pytest.raises(InvalidParameterError):
            SyntheticSpec(n=10, true_coefficients=(1.0,), weibull_shape=0.0)
        with pytest.raises(InvalidParameterError):
            SyntheticSpec(n=10, true_coefficients=(1.0,), censoring_rate_target=1.0)

    def test_from_json_roundtrip(self):
        doc = {"n": 50, "true_coefficients": [1.0, -1.0], "weibull_shape": 2.0,
               "weibull_scale": 12.0, "censoring_rate_target": 0.2,
               "nonlinear": True, "seed": 5}
        spec = SyntheticSpec.from_json(doc)
        assert spec.n == 50
        assert spec.true_coefficients == (1.0, -1.0)
        assert spec.nonlinear is True

    def test_nonlinear_flag_changes_scores(self):
        base = SyntheticSpec(n=100, true_coefficients=(1.0, -1.0), seed=4)
        bent = SyntheticSpec(n=100, true_coefficients=(1.0, -1.0), seed=4,
                             nonlinear=True)
        _, eta_base = generate_synthetic(base)
        _, eta_bent = generate_synthetic(bent)
        assert not np.allclose(eta_base, eta_bent)
