"""Unit tests for the quantized query space (expressivity, paper §2)."""

import pytest

from repro.core.pipeline import build_map
from repro.core.queries import QuantizedQuery, quantized_queries, state_to_sql
from repro.table.predicates import Comparison, Everything
from synthetic import numeric_blobs


@pytest.fixture(scope="module")
def mapped():
    planted = numeric_blobs(n_rows=300, k=3, n_features=2, spread=0.4, seed=41)
    data_map = build_map(
        planted.table,
        planted.table.column_names,
    )
    return planted.table, data_map


class TestStateToSql:
    def test_plain_projection(self):
        sql = state_to_sql("t", Everything(), ("a", "b"))
        assert sql == 'SELECT "a", "b" FROM "t"'

    def test_star_when_no_columns(self):
        assert state_to_sql("t", Everything(), ()) == 'SELECT * FROM "t"'

    def test_where_clause(self):
        sql = state_to_sql("t", Comparison("a", "<", 1), ("a",))
        assert sql == 'SELECT "a" FROM "t" WHERE "a" < 1'

    def test_quoted_select_list_with_where(self):
        sql = state_to_sql("t", Comparison("a", "<", 3), ("a", "b"))
        assert sql == 'SELECT "a", "b" FROM "t" WHERE "a" < 3'

    def test_identifiers_are_escaped_like_the_predicates(self):
        predicate = Comparison('a"b', "<", 3)
        sql = state_to_sql('my"table', predicate, ('a"b', "c"))
        assert sql == (
            'SELECT "a""b", "c" FROM "my""table" WHERE "a""b" < 3'
        )


class TestQuantizedQueries:
    def test_one_query_per_region(self, mapped):
        table, data_map = mapped
        queries = quantized_queries(table, data_map)
        assert len(queries) == len(data_map.regions())
        assert all(isinstance(query, QuantizedQuery) for query in queries)

    def test_queries_select_exactly_region_rows(self, mapped):
        # The core expressivity check: each quantized query, evaluated
        # directly against the table, returns the region's tuples.
        table, data_map = mapped
        for query in quantized_queries(table, data_map):
            assert table.select(query.predicate).n_rows == query.n_rows

    def test_queries_nest_along_the_hierarchy(self, mapped):
        table, data_map = mapped
        by_id = {q.region_id: q for q in quantized_queries(table, data_map)}
        for region in data_map.regions():
            for child in region.children:
                parent_mask = by_id[region.region_id].predicate.mask(table)
                child_mask = by_id[child.region_id].predicate.mask(table)
                assert not (child_mask & ~parent_mask).any()

    def test_enclosing_selection_conjoined(self, mapped):
        table, data_map = mapped
        outer = Comparison("x0", ">", 0)
        queries = quantized_queries(table, data_map, selection=outer)
        for query in queries:
            mask = query.predicate.mask(table)
            assert not (mask & ~outer.mask(table)).any()

    def test_sql_is_runnable_shape(self, mapped):
        table, data_map = mapped
        for query in quantized_queries(table, data_map):
            assert query.sql.startswith("SELECT")
            assert '"blobs"' in query.sql
