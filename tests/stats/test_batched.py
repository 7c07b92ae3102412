"""Property tests: the batched NMI kernel against the scalar reference.

The contract under test is the acceptance criterion of the graph-engine
PR: on identical codes, :func:`pairwise_nmi_matrix` must agree with the
scalar :func:`column_dependency` path to ``atol 1e-12`` across random
mixed-type tables with missing values, constant columns, all-missing
columns and sub-``MIN_COMPLETE_ROWS`` overlaps — and the streaming
variant must agree with the in-memory kernel bit for bit.
"""

import numpy as np
import pytest

from oracles import column_dependency, encode_table
from repro.resilience.deadline import DeadlineExceeded, deadline_scope
from repro.stats import batched
from repro.stats.batched import (
    MIN_COMPLETE_ROWS,
    ColumnCodes,
    StreamingPairwiseNMI,
    pairwise_nmi_matrix,
)
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table

ATOL = 1e-12


def mixed_table(n: int, seed: int) -> Table:
    """A random mixed-type table exercising every degenerate shape."""
    rng = np.random.default_rng(seed)
    columns = []
    base = rng.normal(0.0, 1.0, n)
    for i in range(5):
        values = base * rng.uniform(-2, 2) + rng.normal(
            0.0, rng.uniform(0.1, 2.0), n
        )
        if i % 2 == 0:
            values = values.copy()
            values[rng.random(n) < rng.uniform(0.0, 0.3)] = np.nan
        columns.append(NumericColumn(f"num{i}", values))
    labels = np.array(["a", "b", "c", "d"])[rng.integers(0, 4, n)].astype(
        object
    )
    labels[rng.random(n) < 0.2] = None
    columns.append(CategoricalColumn.from_labels("cat", list(labels)))
    columns.append(NumericColumn("const", np.full(n, 3.14)))
    columns.append(NumericColumn("all_missing", np.full(n, np.nan)))
    sparse = np.full(n, np.nan)
    k = min(MIN_COMPLETE_ROWS - 3, n)
    sparse[:k] = rng.normal(0.0, 1.0, k)
    columns.append(NumericColumn("sparse", sparse))
    return Table("mixed", columns)


def scalar_reference(table: Table) -> np.ndarray:
    """The weight matrix built one pair at a time from the scalar path."""
    names = table.column_names
    out = np.eye(len(names))
    for i, a in enumerate(names):
        for j in range(i + 1, len(names)):
            value = column_dependency(table.column(a), table.column(names[j]))
            out[i, j] = out[j, i] = value
    return out


class TestKernelAgainstScalarReference:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 9, 60, 400])
    def test_matches_column_dependency(self, n, seed):
        table = mixed_table(n, seed)
        weights = pairwise_nmi_matrix(encode_table(table))
        np.testing.assert_allclose(
            weights, scalar_reference(table), atol=ATOL, rtol=0.0
        )

    def test_symmetric_unit_diagonal_bounded(self):
        weights = pairwise_nmi_matrix(encode_table(mixed_table(200, 9)))
        assert np.array_equal(weights, weights.T)
        assert np.all(np.diag(weights) == 1.0)
        assert weights.min() >= 0.0 and weights.max() <= 1.0

    def test_sub_min_complete_overlap_is_zero(self):
        table = mixed_table(100, 3)
        weights = pairwise_nmi_matrix(encode_table(table))
        names = list(table.column_names)
        sparse = names.index("sparse")
        assert np.all(weights[sparse, : sparse] == 0.0)
        for degenerate in ("const", "all_missing"):
            row = names.index(degenerate)
            off = np.delete(weights[row], row)
            assert np.all(off == 0.0)

    def test_single_column(self):
        table = mixed_table(50, 0)
        codes = encode_table(table, columns=("num0",))
        assert np.array_equal(pairwise_nmi_matrix(codes), np.eye(1))

    def test_an_expired_deadline_aborts_before_a_row(self):
        codes = encode_table(mixed_table(50, 0))
        with deadline_scope(0.0):
            with pytest.raises(DeadlineExceeded) as excinfo:
                pairwise_nmi_matrix(codes)
        assert excinfo.value.stage == "graph.nmi.row"

    @pytest.mark.parametrize("n_columns", [1, 2, 7])
    def test_one_checkpoint_per_left_column(self, monkeypatch, n_columns):
        """An expired deadline aborts between rows of the matrix, never
        inside one: one checkpoint before each left column."""
        stages = []
        monkeypatch.setattr(batched, "checkpoint", stages.append)
        table = mixed_table(60, 4)
        codes = encode_table(table, columns=table.column_names[:n_columns])
        pairwise_nmi_matrix(codes)
        assert stages == ["graph.nmi.row"] * (n_columns - 1)


class TestStreamingAgreesBitwise:
    @pytest.mark.parametrize("chunk", [1, 17, 100, 1000])
    def test_streaming_identical(self, chunk):
        codes = encode_table(mixed_table(300, 4))
        expected = pairwise_nmi_matrix(codes)
        streaming = StreamingPairwiseNMI(codes.names, codes.n_codes)
        for start in range(0, codes.n_rows, chunk):
            streaming.update(codes.codes[:, start : start + chunk])
        assert np.array_equal(expected, streaming.finalize())

    def test_streaming_rejects_mismatched_chunk(self):
        streaming = StreamingPairwiseNMI(("a", "b"), (2, 2))
        with pytest.raises(ValueError, match="chunk"):
            streaming.update(np.zeros((3, 10), dtype=np.int32))

    def test_streaming_refuses_oversized_layout(self):
        with pytest.raises(ValueError, match="sample"):
            StreamingPairwiseNMI(
                tuple(f"c{i}" for i in range(40)), (3000,) * 40
            )


class TestColumnCodes:
    def test_gather_restricts_rows(self):
        codes = encode_table(mixed_table(120, 5))
        picked = np.asarray([3, 10, 11, 57])
        gathered = codes.gather(picked)
        assert gathered.n_rows == 4
        assert gathered.n_codes == codes.n_codes
        assert np.array_equal(gathered.codes, codes.codes[:, picked])

    def test_gathered_codes_feed_the_kernel(self):
        codes = encode_table(mixed_table(200, 6))
        rows = np.arange(0, 200, 3)
        from_gather = pairwise_nmi_matrix(codes.gather(rows))
        assert from_gather.shape == (codes.n_columns, codes.n_columns)
        assert np.all(np.diag(from_gather) == 1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="matrix"):
            ColumnCodes(("a",), np.zeros(3, dtype=np.int32), (1,))
        with pytest.raises(ValueError, match="names"):
            ColumnCodes(("a",), np.zeros((2, 3), dtype=np.int32), (1, 1))
        with pytest.raises(ValueError, match="n_codes"):
            ColumnCodes(("a", "b"), np.zeros((2, 3), dtype=np.int32), (1,))

    def test_encode_cardinalities(self):
        table = mixed_table(100, 7)
        codes = encode_table(table)
        names = list(codes.names)
        assert codes.n_codes[names.index("cat")] == 4
        assert codes.n_codes[names.index("all_missing")] == 0
        # A constant column collapses to one occupied bin (the scalar
        # discretizer's long-standing "ties go low" quirk puts it at
        # code 1, so the cardinality bound is 2).
        assert codes.n_codes[names.index("const")] == 2
        for row, card in zip(codes.codes, codes.n_codes):
            assert row.max(initial=-1) < max(card, 1)
            assert row.min(initial=0) >= -1
