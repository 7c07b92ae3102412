"""Unit tests for the session manager (the NodeJS tier's behaviour)."""

import json

import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.server.session import SessionManager
from synthetic import mixed_blobs


@pytest.fixture
def manager():
    engine = Blaeu(BlaeuConfig(map_k_values=(2, 3)))
    engine.register(mixed_blobs(n_rows=300, k=2, seed=71).table)
    return SessionManager(engine)


def send(manager, **body):
    return json.loads(manager.handle_json(json.dumps(body)))


def open_session(manager, session="s1"):
    themes = send(manager, command="themes", table="mixed_blobs")
    theme = themes["themes"]["themes"][0]["name"]
    return send(
        manager, command="open", session=session,
        table="mixed_blobs", theme=theme,
    )


class TestLifecycle:
    def test_tables(self, manager):
        response = send(manager, command="tables")
        assert response == {"ok": True, "tables": ["mixed_blobs"]}

    def test_themes(self, manager):
        response = send(manager, command="themes", table="mixed_blobs")
        assert response["ok"]
        assert response["themes"]["themes"]

    def test_open_returns_map(self, manager):
        response = open_session(manager)
        assert response["ok"]
        assert response["map"]["n_rows"] == 300
        assert manager.session_ids() == ("s1",)

    def test_open_by_theme_index(self, manager):
        response = send(
            manager, command="open", session="s1",
            table="mixed_blobs", theme=0,
        )
        assert response["ok"]

    def test_duplicate_session_rejected(self, manager):
        open_session(manager)
        response = send(
            manager, command="open", session="s1",
            table="mixed_blobs", theme=0,
        )
        assert not response["ok"]
        assert "already exists" in response["error"]

    def test_close(self, manager):
        open_session(manager)
        response = send(manager, command="close", session="s1")
        assert response == {"ok": True, "closed": "s1"}
        assert manager.session_ids() == ()


class TestNavigationCommands:
    def test_zoom_and_rollback(self, manager):
        opened = open_session(manager)
        children = opened["map"]["root"]["children"]
        biggest = max(children, key=lambda c: c["value"])
        zoomed = send(manager, command="zoom", session="s1", region=biggest["id"])
        assert zoomed["ok"]
        assert zoomed["map"]["n_rows"] == biggest["value"]
        rolled = send(manager, command="rollback", session="s1")
        assert rolled["map"]["n_rows"] == 300

    def test_project(self, manager):
        open_session(manager)
        response = send(manager, command="project", session="s1", theme=0)
        assert response["ok"]

    def test_highlight(self, manager):
        open_session(manager)
        response = send(
            manager, command="highlight", session="s1",
            region="r", columns=["cat0"],
        )
        assert response["ok"]
        assert response["highlight"]["n_rows"] == 300
        assert "cat0" in response["highlight"]["categories"]

    def test_highlight_columns_must_be_list(self, manager):
        open_session(manager)
        response = send(
            manager, command="highlight", session="s1",
            region="r", columns="cat0",
        )
        assert not response["ok"]

    def test_sql_and_history(self, manager):
        open_session(manager)
        sql = send(manager, command="sql", session="s1")
        assert sql["sql"].startswith("SELECT")
        history = send(manager, command="history", session="s1")
        assert len(history["history"]) == 1


class TestErrorHandling:
    def test_unknown_session_is_error_response(self, manager):
        response = send(manager, command="zoom", session="ghost", region="r0")
        assert not response["ok"]
        assert "ghost" in response["error"]
        assert response["command"] == "zoom"

    def test_unknown_region_is_error_response(self, manager):
        open_session(manager)
        response = send(manager, command="zoom", session="s1", region="r99")
        assert not response["ok"]

    @pytest.mark.parametrize("command", ["open", "project"])
    @pytest.mark.parametrize("index", [99, -5, -1])
    def test_theme_index_out_of_range_is_error_response(
        self, manager, command, index
    ):
        # An index is refused the way an unknown name is — no
        # IndexError escapes, and -1 is not "the last theme".
        themes = send(manager, command="themes", table="mixed_blobs")
        n_themes = len(themes["themes"]["themes"])
        if command == "project":
            open_session(manager, "s2")
        response = send(
            manager, command=command, session="s2", table="mixed_blobs", theme=index
        )
        assert response == {
            "ok": False,
            "command": command,
            "error": f"'no theme {index}; the table has {n_themes}'",
        }

    def test_malformed_json_is_error_response(self, manager):
        response = json.loads(manager.handle_json("{broken"))
        assert not response["ok"]
        assert "malformed" in response["error"]

    def test_unknown_table_is_error_response(self, manager):
        response = send(manager, command="themes", table="ghost")
        assert not response["ok"]

    def test_rollback_at_root_is_error_response(self, manager):
        open_session(manager)
        response = send(manager, command="rollback", session="s1")
        assert not response["ok"]

    def test_close_unknown_session(self, manager):
        response = send(manager, command="close", session="ghost")
        assert not response["ok"]


class TestCatalogCommand:
    def test_catalog_lists_fingerprints(self, manager):
        response = send(manager, command="catalog")
        assert response["ok"] is True
        (record,) = response["catalog"]
        assert record["name"] == "mixed_blobs"
        assert record["n_rows"] == 300
        assert len(record["fingerprint"]) == 64


class TestConcurrentDispatch:
    def test_parallel_opens_and_navigation(self, manager):
        """Many threads driving distinct sessions must not corrupt state."""
        import threading

        themes = send(manager, command="themes", table="mixed_blobs")
        theme = themes["themes"]["themes"][0]["name"]
        errors = []

        def worker(index):
            session = f"t{index}"
            try:
                response = send(
                    manager, command="open", session=session,
                    table="mixed_blobs", theme=theme,
                )
                if not response["ok"]:
                    errors.append(response)
                    return
                for command in ("map", "sql", "history", "close"):
                    response = send(manager, command=command, session=session)
                    if not response["ok"]:
                        errors.append(response)
            except Exception as error:  # pragma: no cover
                errors.append(repr(error))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert manager.session_ids() == ()

    def test_concurrent_duplicate_opens_admit_exactly_one(self, manager):
        import threading

        themes = send(manager, command="themes", table="mixed_blobs")
        theme = themes["themes"]["themes"][0]["name"]
        outcomes = []
        barrier = threading.Barrier(4, timeout=30)

        def worker():
            barrier.wait()
            response = send(
                manager, command="open", session="shared",
                table="mixed_blobs", theme=theme,
            )
            outcomes.append(response["ok"])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert outcomes.count(True) == 1
        assert outcomes.count(False) == 3
        assert manager.session_ids() == ("shared",)
