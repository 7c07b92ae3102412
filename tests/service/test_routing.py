"""Consistent-hash routing and metrics merging for the supervisor."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.service.routing import HashRing
from repro.service.supervisor import merge_metrics


def _keys(n: int) -> list[str]:
    return [f"table:fp{i:04x}" for i in range(n)]


class TestHashRing:
    def test_owner_is_deterministic_across_instances(self):
        a = HashRing(range(4))
        b = HashRing(range(4))
        for key in _keys(100):
            assert a.owner(key) == b.owner(key)

    def test_every_slot_gets_a_fair_share(self):
        ring = HashRing(range(4))
        spread = Counter(ring.owner(key) for key in _keys(2000))
        assert sorted(spread) == [0, 1, 2, 3]
        # Virtual nodes keep the spread within ~2x of the fair share.
        for slot in range(4):
            assert 2000 / 4 / 2 <= spread[slot] <= 2000 / 4 * 2

    def test_removing_one_slot_moves_about_one_nth_of_keys(self):
        keys = _keys(2000)
        ring = HashRing(range(5))
        before = {key: ring.owner(key) for key in keys}
        without = HashRing([0, 1, 3, 4])
        after = {key: without.owner(key) for key in keys}
        moved = [key for key in keys if before[key] != after[key]]
        # Exactly the evicted slot's keys move, nowhere else.
        assert all(before[key] == 2 for key in moved)
        assert 2000 / 5 / 2 <= len(moved) <= 2000 / 5 * 2
        assert all(after[key] != 2 for key in keys)

    def test_a_restarted_slot_reclaims_exactly_its_keyspace(self):
        keys = _keys(500)
        before = {key: HashRing(range(3)).owner(key) for key in keys}
        ring = HashRing([0, 2])
        ring.add(1)  # the respawned worker reoccupies its slot
        assert {key: ring.owner(key) for key in keys} == before

    def test_membership_protocol(self):
        ring = HashRing(range(2))
        assert len(ring) == 2 and 1 in ring and 5 not in ring
        ring.add(5)
        ring.add(5)  # idempotent
        assert len(ring) == 3 and 5 in ring

    def test_a_two_slot_placement_is_pinned(self):
        # The ledger pins each fleet walk to ``HashRing(range(2)).owner``
        # of its table; these owners were recorded before the ring lost
        # its ``remove``, and must not move.
        ring = HashRing(range(2))
        assert [ring.owner(key) for key in _keys(16)] == [
            0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0,
        ]

    def test_owners_lists_distinct_failover_targets_in_order(self):
        ring = HashRing(range(4))
        for key in _keys(100):
            preference = ring.owners(key, 2)
            assert preference[0] == ring.owner(key)
            assert len(preference) == 2
            assert len(set(preference)) == 2

    def test_owners_failover_is_stable_under_unrelated_churn(self):
        # The proxy's fallback slot must not reshuffle when some other
        # slot is missing from the ring — only keys owned by it move.
        keys = _keys(300)
        ring = HashRing(range(4))
        before = {key: ring.owners(key, 2) for key in keys}
        without = HashRing(range(3))
        for key in keys:
            if 3 not in before[key]:
                assert without.owners(key, 2) == before[key]

    def test_owners_clamps_at_the_fleet_size(self):
        ring = HashRing(range(2))
        assert sorted(ring.owners("k", 5)) == [0, 1]

    def test_empty_ring_refuses_to_route(self):
        ring = HashRing([])
        with pytest.raises(LookupError):
            ring.owner("anything")


class TestMergeMetrics:
    def test_sums_matching_series_across_workers(self):
        worker_a = (
            "# TYPE blaeu_http_requests_total counter\n"
            'blaeu_http_requests_total{route="/v1/tables"} 3\n'
        )
        worker_b = (
            "# TYPE blaeu_http_requests_total counter\n"
            'blaeu_http_requests_total{route="/v1/tables"} 4\n'
            'blaeu_http_requests_total{route="/healthz"} 1\n'
        )
        merged = merge_metrics([(0, worker_a), (1, worker_b)])
        assert 'blaeu_http_requests_total{route="/v1/tables"} 7' in merged
        assert 'blaeu_http_requests_total{route="/healthz"} 1' in merged
        assert merged.count("# TYPE blaeu_http_requests_total counter") == 1

    def test_histogram_suffixes_group_under_their_type_line(self):
        body = (
            "# TYPE blaeu_build_seconds histogram\n"
            'blaeu_build_seconds_bucket{le="1"} 2\n'
            "blaeu_build_seconds_sum 1.5\n"
            "blaeu_build_seconds_count 2\n"
        )
        merged = merge_metrics([(0, body), (1, body)])
        lines = merged.splitlines()
        type_at = lines.index("# TYPE blaeu_build_seconds histogram")
        assert 'blaeu_build_seconds_bucket{le="1"} 4' in lines[type_at:]
        assert "blaeu_build_seconds_sum 3" in lines[type_at:]
        assert "blaeu_build_seconds_count 4" in lines[type_at:]

    def test_extra_lines_append_supervisor_series(self):
        merged = merge_metrics(
            [(0, "# TYPE up gauge\nup 1\n")],
            extra=["blaeu_supervisor_workers 2"],
        )
        assert merged.rstrip().endswith("blaeu_supervisor_workers 2")

    def test_garbage_lines_are_dropped_not_fatal(self):
        merged = merge_metrics(
            [(0, "up 1\nnot a metric line at all\n\nup one\n")]
        )
        assert "up 1" in merged
        assert "not a metric" not in merged

    def test_gauges_keep_one_series_per_worker_slot(self):
        """Two half-open breakers read half-open (1) on each slot, not
        open (2), and a last-build gauge is each worker's own."""
        body = (
            "# TYPE blaeu_resilience_breaker_state gauge\n"
            "blaeu_resilience_breaker_state 1\n"
            "# TYPE blaeu_graph_last_build_seconds gauge\n"
            'blaeu_graph_last_build_seconds{kind="nmi"} 0.05\n'
            "# TYPE blaeu_pool_completed_total counter\n"
            "blaeu_pool_completed_total 3\n"
        )
        lines = merge_metrics([(0, body), (1, body)]).splitlines()
        assert 'blaeu_resilience_breaker_state{slot="0"} 1' in lines
        assert 'blaeu_resilience_breaker_state{slot="1"} 1' in lines
        assert (
            'blaeu_graph_last_build_seconds{kind="nmi",slot="1"} 0.05' in lines
        )
        assert "blaeu_pool_completed_total 6" in lines
        assert not [line for line in lines if line.endswith(" 2")]
        assert lines.count("# TYPE blaeu_resilience_breaker_state gauge") == 1
