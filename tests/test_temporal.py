import numpy as np
import pytest

from recurrisk.cohort import SyntheticSpec
from recurrisk.errors import RowParseError
from recurrisk.temporal import generate_longitudinal, load_longitudinal, write_longitudinal


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
