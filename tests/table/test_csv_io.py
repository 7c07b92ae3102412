"""Unit and round-trip tests for CSV ingestion/export."""

import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.table.column import CategoricalColumn, ColumnKind, NumericColumn
from repro.table.csv_io import read_csv, write_csv
from repro.table.table import Table

SAMPLE = """name,age,city
ann,25,ams
bob,31,nyc
cho,,ams
"""


def _csv_text(table: Table, delimiter: str = ",") -> str:
    """``table`` as the CSV text :func:`write_csv` writes to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_csv(table, path, delimiter=delimiter)
        return path.read_bytes().decode("utf-8")


class TestReadCsv:
    def test_read_text(self):
        table = read_csv(io.StringIO(SAMPLE), name="people")
        assert table.name == "people"
        assert table.n_rows == 3
        assert table.column("age").kind is ColumnKind.NUMERIC
        assert table.column("age").n_missing == 1
        assert table.column("city").kind is ColumnKind.CATEGORICAL

    def test_read_file_uses_stem_as_name(self, tmp_path):
        path = tmp_path / "movies.csv"
        path.write_text(SAMPLE, encoding="utf-8")
        table = read_csv(path)
        assert table.name == "movies"

    def test_blank_lines_skipped(self):
        table = read_csv(io.StringIO("a,b\n1,2\n\n3,4\n"))
        assert table.n_rows == 2

    def test_ragged_row_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            read_csv(io.StringIO("a,b\n1,2\n1\n"))

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            read_csv(io.StringIO(""))

    def test_empty_header_cell_rejected(self):
        with pytest.raises(ValueError, match="empty column names"):
            read_csv(io.StringIO("a,,c\n1,2,3\n"))

    def test_kind_override(self):
        table = read_csv(
            io.StringIO("n\n1\n2\n3\n"), kinds={"n": ColumnKind.CATEGORICAL}
        )
        assert table.column("n").kind is ColumnKind.CATEGORICAL

    def test_alternative_delimiter(self):
        table = read_csv(io.StringIO("a;b\n1;x\n"), delimiter=";")
        assert table.column_names == ("a", "b")

    def test_quoted_fields_with_commas(self):
        table = read_csv(io.StringIO('a,b\n"x,y",2\n'))
        assert table.column("a").value_at(0) == "x,y"


class TestWriteCsv:
    def test_roundtrip_file(self, tmp_path, people):
        path = tmp_path / "out.csv"
        write_csv(people, path)
        back = read_csv(path, name="people")
        assert back.column_names == people.column_names
        assert back.n_rows == people.n_rows
        assert back.column("age").n_missing == 1

    def test_missing_cells_written_empty(self, people):
        text = _csv_text(people)
        lines = text.strip().splitlines()
        # Row for "cho" has a missing age.
        cho = next(line for line in lines if line.startswith("cho"))
        assert ",," in cho

    def test_integral_floats_written_without_point(self):
        table = Table("t", [NumericColumn("x", [1.0, 2.0])])
        assert _csv_text(table).splitlines()[1] == "1"


# ----------------------------------------------------------------------
# Round-trip property: write → read recovers values and missingness.
# ----------------------------------------------------------------------

_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.one_of(_finite, st.just(float("nan"))), min_size=4, max_size=25
    ),
    labels=st.lists(
        st.sampled_from(["red", "green", "blue", None]), min_size=4, max_size=25
    ),
)
def test_csv_roundtrip_property(values, labels):
    n = min(len(values), len(labels))
    # Ensure the numeric column stays numeric under inference: >2 distinct
    # present values are required, else skip (inference would flip kinds).
    present = {v for v in values[:n] if not np.isnan(v)}
    if len(present) <= 2:
        values = [float(i) for i in range(n)]
    table = Table(
        "t",
        [
            NumericColumn("x", values[:n]),
            CategoricalColumn.from_labels("c", labels[:n]),
        ],
    )
    back = read_csv(io.StringIO(_csv_text(table)), name="t")
    x_before = table.column("x")
    x_after = back.column("x")
    assert (x_before.missing_mask == x_after.missing_mask).all()
    np.testing.assert_allclose(
        x_before.present_values(), x_after.present_values(), rtol=1e-12
    )
    assert back.column("c").labels() == table.column("c").labels()
