"""Property tests: ``write_csv`` → ``read_csv`` is lossless.

These target the escaping corners — delimiters, quotes, and newlines
inside categorical labels, single-column tables whose missing cells
would otherwise render as blank lines, non-finite floats and signed
zeros — and pin the fixes those cases exposed (blank-line row loss,
``inf`` formatting crash, ``-0.0`` written as ``0``).
"""

import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.table.column import (
    MISSING_TOKENS,
    CategoricalColumn,
    ColumnKind,
    NumericColumn,
)
from repro.table.csv_io import read_csv, write_csv
from repro.table.table import Table

# Labels drawn from an alphabet rich in CSV metacharacters.  Stripped
# missing tokens would (by design) come back as missing cells, so they
# are excluded — None cells cover missingness explicitly.
_label_alphabet = st.sampled_from(list('abz059,";\n\r\t\'| ') + ["é"])
_labels = st.text(alphabet=_label_alphabet, min_size=1, max_size=12).filter(
    lambda s: s.strip().lower() not in MISSING_TOKENS and s.strip() != ""
)
_cells = st.one_of(st.none(), _labels)
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.just(float("inf")),
    st.just(float("-inf")),
    st.just(float("nan")),
    st.just(0.0),
    st.just(-0.0),
)

_KINDS = {"c": ColumnKind.CATEGORICAL, "x": ColumnKind.NUMERIC}


def _csv_text(table: Table, delimiter: str = ",") -> str:
    """``table`` as the CSV text :func:`write_csv` writes to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_csv(table, path, delimiter=delimiter)
        return path.read_bytes().decode("utf-8")


@settings(max_examples=120, deadline=None)
@given(
    labels=st.lists(_cells, min_size=1, max_size=20),
    values=st.lists(_floats, min_size=1, max_size=20),
    delimiter=st.sampled_from([",", ";", "\t"]),
)
def test_mixed_table_roundtrip(labels, values, delimiter):
    n = min(len(labels), len(values))
    table = Table(
        "t",
        [
            CategoricalColumn.from_labels("c", labels[:n]),
            NumericColumn("x", values[:n]),
        ],
    )
    text = _csv_text(table, delimiter=delimiter)
    back = read_csv(
        io.StringIO(text), name="t", delimiter=delimiter, kinds=_KINDS
    )
    assert back.n_rows == table.n_rows
    assert back.column("c").labels() == table.column("c").labels()
    before = table.column("x")
    after = back.column("x")
    np.testing.assert_array_equal(after.missing_mask, before.missing_mask)
    np.testing.assert_array_equal(
        after.present_values(), before.present_values()
    )
    # Equality cannot tell 0.0 from -0.0; the sign bits can.
    np.testing.assert_array_equal(
        np.signbit(after.present_values()), np.signbit(before.present_values())
    )


@settings(max_examples=80, deadline=None)
@given(labels=st.lists(_cells, min_size=1, max_size=20))
def test_single_column_roundtrip_keeps_missing_rows(labels):
    # The historical bug: a single missing cell wrote a blank line,
    # which the reader skipped — silently losing the row.
    table = Table("t", [CategoricalColumn.from_labels("c", labels)])
    back = read_csv(
        io.StringIO(_csv_text(table)),
        name="t",
        kinds={"c": ColumnKind.CATEGORICAL},
    )
    assert back.n_rows == table.n_rows
    assert back.column("c").labels() == table.column("c").labels()


def test_all_missing_single_column():
    table = Table("t", [CategoricalColumn.from_labels("c", [None, None, None])])
    back = read_csv(
        io.StringIO(_csv_text(table)),
        name="t",
        kinds={"c": ColumnKind.CATEGORICAL},
    )
    assert back.n_rows == 3
    assert back.column("c").n_missing == 3


def test_infinities_roundtrip():
    table = Table(
        "t", [NumericColumn("x", [math.inf, -math.inf, 1.25, math.nan])]
    )
    back = read_csv(io.StringIO(_csv_text(table)), name="t")
    np.testing.assert_array_equal(
        back.column("x").missing_mask, [False, False, False, True]
    )
    np.testing.assert_array_equal(
        back.column("x").present_values(), [math.inf, -math.inf, 1.25]
    )


def test_trailing_blank_lines_still_skipped():
    back = read_csv(io.StringIO('"c"\n"a"\n\n\n'), name="t")
    assert back.n_rows == 1


def test_signed_zeros_roundtrip():
    table = Table("t", [NumericColumn("x", [-0.0, 0.0, -2.0])])
    text = _csv_text(table)
    assert text.splitlines()[1:] == ["-0.0", "0", "-2"]
    back = read_csv(io.StringIO(text), name="t")
    np.testing.assert_array_equal(
        np.signbit(back.column("x").present_values()), [True, False, True]
    )
