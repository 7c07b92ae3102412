"""Unit tests for the tracer: spans, context propagation, export."""

from __future__ import annotations

import asyncio
import json
import threading
import tracemalloc

import numpy as np
import pytest

from repro.cluster.clara import clara
from repro.cli import main as cli_main
from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    collect_notes,
    configure_tracing,
    current_span,
    format_fields,
    get_tracer,
    group_traces,
    note,
    render_trace,
)
from repro.service.pool import WorkerPool


class TestSpans:
    def test_nested_spans_share_the_trace_and_parent_correctly(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as root:
            assert current_span() is root
            with tracer.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
                with tracer.span("grandchild") as grandchild:
                    assert grandchild.parent_id == child.span_id
        assert current_span() is None
        names = [s.name for s in tracer.spans()]
        # Finish order: innermost first.
        assert names == ["grandchild", "child", "root"]

    def test_sibling_roots_get_distinct_trace_ids(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id
        assert a.parent_id is None and b.parent_id is None

    def test_attributes_and_duration_are_recorded(self):
        tracer = Tracer(enabled=True)
        with tracer.span("op") as span:
            span.set("k", 3)
            span.set("cache_hit", False)
        record = tracer.spans()[0].to_dict()
        assert record["attributes"] == {"k": 3, "cache_hit": False}
        assert record["duration"] >= 0.0
        assert record["name"] == "op"

    def test_exception_still_finishes_the_span(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert [s.name for s in tracer.spans()] == ["boom"]
        assert current_span() is None


class TestDisabledTracer:
    def test_disabled_span_is_the_shared_null_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything") is NULL_SPAN
        assert tracer.span("other") is NULL_SPAN
        with tracer.span("x") as span:
            span.set("ignored", 1)
            assert span.enabled is False
        assert tracer.spans() == []
        assert NULL_SPAN.attributes == {}

    def test_disabled_spans_do_not_allocate(self):
        tracer = Tracer(enabled=False)

        def loop() -> None:
            for _ in range(1000):
                with tracer.span("x") as span:
                    if span.enabled:
                        span.set("a", 1)

        loop()  # warm up caches and code objects
        tracemalloc.start()
        loop()
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert current == 0
        assert peak < 2048  # nothing per-iteration; only loop scaffolding

    def test_validation(self):
        with pytest.raises(ValueError):
            Tracer(buffer_size=0)
        with pytest.raises(ValueError):
            Tracer(slow_op_threshold=0.0)


class TestPropagation:
    def test_worker_pool_children_parent_to_the_request_span(self):
        tracer = configure_tracing(enabled=True, buffer_size=64)

        def work() -> tuple[str, str | None]:
            with get_tracer().span("engine.work") as span:
                return span.trace_id, span.parent_id

        async def main():
            pool = WorkerPool(workers=2, max_pending=8)
            try:
                with tracer.span("http.request") as root:
                    results = await asyncio.gather(
                        pool.run(work), pool.run(work)
                    )
                return root, results
            finally:
                pool.shutdown(wait=True)

        root, results = asyncio.run(main())
        assert {trace_id for trace_id, _ in results} == {root.trace_id}
        assert {parent for _, parent in results} == {root.span_id}

    def test_each_pool_job_records_its_wait_for_a_thread(self):
        """A ``pool.wait`` span covers each job's submit → start wait,
        under the request span: a job queued behind the only thread
        waits as long as that thread stays busy."""
        tracer = configure_tracing(enabled=True, buffer_size=64)
        release = threading.Event()

        async def main():
            pool = WorkerPool(workers=1, max_pending=4)
            try:
                with tracer.span("http.request") as root:
                    busy = asyncio.ensure_future(pool.run(release.wait, 10))
                    queued = asyncio.ensure_future(pool.run(int))
                    await asyncio.sleep(0.05)
                    release.set()
                    await asyncio.gather(busy, queued)
                return root
            finally:
                pool.shutdown(wait=True)

        root = asyncio.run(main())
        waits = [span for span in tracer.spans() if span.name == "pool.wait"]
        assert [(s.trace_id, s.parent_id) for s in waits] == [
            (root.trace_id, root.span_id)
        ] * 2
        assert max(span.duration for span in waits) >= 0.04  # the queued job

    def test_an_untraced_pool_job_runs_unwrapped(self):
        configure_tracing(enabled=False)
        pool = WorkerPool(workers=1, max_pending=2)
        submitted = []
        submit = pool._executor.submit

        def recording(fn, *args):
            submitted.append(args[0])  # fn is the context's run
            return submit(fn, *args)

        pool._executor.submit = recording
        try:
            assert asyncio.run(pool.run(int, "7")) == 7
        finally:
            pool.shutdown(wait=True)
        assert submitted == [int]

    def test_clara_draw_spans_join_the_callers_trace(self):
        """One span per CLARA run (its draws run as one batch), parented
        to the caller's span, naming every draw's cost and the winner."""
        tracer = configure_tracing(enabled=True, buffer_size=256)
        points = np.random.default_rng(7).normal(size=(80, 3))
        with tracer.span("map.build") as root:
            result = clara(points, k=2, n_draws=3, rng=np.random.default_rng(0))
        (draws,) = [s for s in tracer.spans() if s.name == "clara.draws"]
        assert draws.trace_id == root.trace_id
        assert draws.parent_id == root.span_id
        attributes = draws.attributes
        assert attributes["k"] == 2
        assert len(attributes["costs"]) == 3
        best = attributes["best_draw"]
        assert attributes["costs"][best] == result.cost == min(attributes["costs"])
        assert attributes["n_iterations"] == result.n_iterations

    def test_tracing_does_not_change_clara_results(self):
        points = np.random.default_rng(7).normal(size=(80, 3))
        configure_tracing(enabled=True, buffer_size=256)
        traced = clara(points, k=2, n_draws=3, rng=np.random.default_rng(0))
        configure_tracing(enabled=False)
        plain = clara(points, k=2, n_draws=3, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(traced.labels, plain.labels)
        np.testing.assert_array_equal(traced.medoids, plain.medoids)


class TestBufferAndExport:
    def test_ring_buffer_evicts_oldest_spans(self):
        tracer = Tracer(enabled=True, buffer_size=3)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]

    def test_traces_groups_newest_first(self):
        tracer = Tracer(enabled=True, buffer_size=32)
        with tracer.span("first") as first:
            with tracer.span("first.child"):
                pass
        with tracer.span("second") as second:
            pass
        traces = tracer.traces(limit=10)
        assert [t["trace_id"] for t in traces] == [
            second.trace_id,
            first.trace_id,
        ]
        # Spans inside one trace come back in start order.
        assert [s["name"] for s in traces[1]["spans"]] == [
            "first",
            "first.child",
        ]
        assert len(tracer.traces(limit=1)) == 1

    def test_trace_cli_reads_and_exports_the_same_trees(self, tmp_path, capsys):
        tracer = Tracer(enabled=True)
        for name in ("first", "second", "third"):
            with tracer.span(name) as root:
                root.set("rows", 10)
                with tracer.span(f"{name}.child"):
                    pass
        spans = tmp_path / "spans.jsonl"
        spans.write_text(
            "".join(json.dumps(s.to_dict()) + "\n" for s in tracer.spans()),
            encoding="utf-8",
        )
        export = tmp_path / "export.jsonl"
        cli_main(["trace", str(spans), "--limit", "2", "--export", str(export)])
        shown = tracer.traces(limit=2)
        lines = export.read_text(encoding="utf-8").splitlines()
        reread = group_traces([json.loads(line) for line in lines], limit=10)
        # The export lists the shown traces oldest first, as a span log
        # does, so re-reading it shows the same trees in the same order.
        assert reread == shown
        printed = capsys.readouterr().out
        assert printed == "".join(render_trace(t) + "\n\n" for t in shown)
        assert "first" not in printed and "third.child" in printed

    def test_an_export_exported_again_is_the_same_file(self, tmp_path):
        tracer = Tracer(enabled=True)
        for name in ("first", "second", "third"):
            with tracer.span(name):
                with tracer.span(f"{name}.child"):
                    pass
        spans = tmp_path / "spans.jsonl"
        spans.write_text(
            "".join(json.dumps(s.to_dict()) + "\n" for s in tracer.spans()),
            encoding="utf-8",
        )
        once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
        cli_main(["trace", str(spans), "--export", str(once)])
        cli_main(["trace", str(once), "--export", str(twice)])
        assert twice.read_bytes() == once.read_bytes()

    def test_group_traces_tolerates_records_missing_fields(self):
        records = [
            {"trace_id": "t1", "offset": 2.0, "name": "late"},
            {"name": "orphan"},
            {"trace_id": "t1", "name": "early"},
        ]
        traces = group_traces(records, limit=5)
        assert [t["trace_id"] for t in traces] == ["?", "t1"]
        assert [s["name"] for s in traces[1]["spans"]] == ["early", "late"]
        with pytest.raises(ValueError):
            group_traces(records, limit=0)

    def test_slow_op_log_fires_only_past_the_threshold(self):
        lines: list[str] = []
        tracer = Tracer(
            enabled=True, slow_op_threshold=1e-9, slow_op_sink=lines.append
        )
        with tracer.span("slow"):
            pass
        assert len(lines) == 1
        assert lines[0].startswith("slow_op name=slow ")
        quiet = Tracer(
            enabled=True, slow_op_threshold=3600.0, slow_op_sink=lines.append
        )
        with quiet.span("fast"):
            pass
        assert len(lines) == 1


class TestFormattingAndNotes:
    def test_format_fields_quotes_awkward_values(self):
        line = format_fields(
            "access", route="/api/open", message='say "hi" now', empty=""
        )
        assert line == (
            'access route=/api/open message="say \\"hi\\" now" empty=""'
        )

    def test_notes_travel_to_the_collector(self):
        with collect_notes() as fields:
            note("map_cache", "miss")
        assert fields == {"map_cache": "miss"}
        note("after", 1)  # nobody listening: dropped
        assert fields == {"map_cache": "miss"}

    def test_render_trace_marks_the_slowest_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root"):
            with tracer.span("leaf") as leaf:
                leaf.set("rows", 5)
        (trace,) = tracer.traces(limit=1)
        text = render_trace(trace)
        assert text.splitlines()[0].startswith(f"trace {leaf.trace_id}")
        assert "- root" in text and "- leaf" in text
        assert "[rows=5]" in text
        assert text.count("◀ slowest") == 1
        # The leaf is indented one level under the root.
        root_line = next(x for x in text.splitlines() if "- root" in x)
        leaf_line = next(x for x in text.splitlines() if "- leaf" in x)
        assert len(leaf_line) - len(leaf_line.lstrip()) > len(
            root_line
        ) - len(root_line.lstrip())
