"""The ``ingest`` subcommand and store-directory loading in the CLI."""

import io

import pytest

from repro.cli import build_engine, ingest_main
from repro.shell import BlaeuShell

CSV = "x,y,tag\n" + "".join(
    f"{(i % 4) * 5 + i * 0.01},{(i % 4) * -3 + i * 0.01},t{i % 4}\n"
    for i in range(80)
)


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text(CSV, encoding="utf-8")
    return path


class TestIngestMain:
    def test_creates_store(self, csv_path, tmp_path, capsys):
        out = tmp_path / "store"
        ingest_main([str(csv_path), str(out), "--chunk-rows", "16"])
        captured = capsys.readouterr().out
        assert "ingested 80 rows x 3 columns" in captured
        assert (out / "manifest.json").is_file()

    def test_refuses_existing_store(self, csv_path, tmp_path):
        out = tmp_path / "store"
        ingest_main([str(csv_path), str(out)])
        with pytest.raises(SystemExit, match="ingest failed"):
            ingest_main([str(csv_path), str(out)])

    def test_bad_csv_is_a_clean_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("", encoding="utf-8")
        with pytest.raises(SystemExit, match="ingest failed"):
            ingest_main([str(bad), str(tmp_path / "out")])


class TestBuildEngineWithStores:
    def test_store_directory_argument(self, csv_path, tmp_path):
        out = tmp_path / "store"
        ingest_main([str(csv_path), str(out), "--name", "points"])
        engine = build_engine([str(out)])
        assert engine.tables() == ("points",)
        table = engine.database.table("points")
        assert getattr(table, "residency", "memory") == "store"

    def test_mixed_csv_and_store_arguments(self, csv_path, tmp_path):
        out = tmp_path / "store"
        ingest_main([str(csv_path), str(out), "--name", "stored_points"])
        engine = build_engine([str(csv_path), str(out)])
        assert set(engine.tables()) == {"points", "stored_points"}

    def test_shell_marks_store_residency(self, csv_path, tmp_path):
        out = tmp_path / "store"
        ingest_main([str(csv_path), str(out), "--name", "points"])
        engine = build_engine([str(out)])
        sink = io.StringIO()
        shell = BlaeuShell(engine, out=sink)
        shell.handle("tables")
        assert "[store" in sink.getvalue()

    def test_shell_explores_store_backed_table(self, csv_path, tmp_path):
        out = tmp_path / "store"
        ingest_main([str(csv_path), str(out), "--name", "points"])
        engine = build_engine([str(out)])
        sink = io.StringIO()
        shell = BlaeuShell(engine, out=sink)
        shell.handle("open 0")
        rendered = sink.getvalue()
        assert "error" not in rendered.lower()
        assert "r0" in rendered or "region" in rendered.lower()
