"""Unit tests for the command line (repro.cli) and its shell (repro.shell)."""

import io

import pytest

from repro.cli import build_engine
from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.shell import BlaeuShell
from synthetic import mixed_blobs


@pytest.fixture
def shell():
    engine = Blaeu(BlaeuConfig(map_k_values=(2, 3)))
    engine.register(mixed_blobs(n_rows=300, k=2, seed=81).table)
    out = io.StringIO()
    return BlaeuShell(engine, out=out), out


def run(shell_pair, *lines):
    shell, out = shell_pair
    shell.run(lines)
    return out.getvalue()


class TestShellCommands:
    def test_tables_lists_registered(self, shell):
        text = run(shell, "tables")
        assert "mixed_blobs" in text
        assert "300 rows" in text

    def test_single_table_autoselected(self, shell):
        text = run(shell, "themes")
        assert "THEMES" in text

    def test_themes_reports_graph_build(self, shell):
        text = run(shell, "themes")
        assert "graph: last build" in text
        assert "builds 1" in text
        assert "code cache" in text

    def test_repeated_themes_do_not_rebuild(self, shell):
        text = run(shell, "themes", "themes")
        # The explorer caches the ThemeSet, so the second command still
        # reports a single graph build.
        assert "builds 1" in text.rsplit("graph: last build", 1)[1]

    def test_open_and_map(self, shell):
        text = run(shell, "open 0", "map")
        assert text.count("DATA MAP") == 2

    def test_zoom_back_cycle(self, shell):
        text = run(shell, "open 0", "zoom r0", "back")
        assert text.count("DATA MAP") == 3

    def test_highlight(self, shell):
        text = run(shell, "open 0", "highlight r cat0")
        assert "REGION r" in text

    def test_insight(self, shell):
        text = run(shell, "open 0", "insight r0")
        assert "headline:" in text

    def test_hist(self, shell):
        text = run(shell, "open 0", "hist x0")
        assert "x0 (300 rows)" in text

    def test_sql_and_history_and_goto(self, shell):
        text = run(shell, "open 0", "zoom r0", "history", "goto 0", "sql")
        assert "[0] open theme" in text
        assert "SELECT" in text

    def test_project(self, shell):
        text = run(shell, "open 0", "project 0")
        assert text.count("DATA MAP") == 2

    def test_help(self, shell):
        assert "zoom <region>" in run(shell, "help")

    def test_quit_stops_processing(self, shell):
        text = run(shell, "quit", "tables")
        assert "bye" in text
        assert "mixed_blobs" not in text

    def test_unknown_command_reported(self, shell):
        assert "unknown command" in run(shell, "frobnicate")

    def test_errors_do_not_crash_session(self, shell):
        text = run(shell, "zoom r0", "open 0")  # zoom before open
        assert "error:" in text
        assert "DATA MAP" in text  # the session continued

    def test_bad_arguments_reported(self, shell):
        assert "usage: zoom" in run(shell, "open 0", "zoom")
        assert "usage: goto" in run(shell, "goto x")

    def test_parse_error_reported(self, shell):
        assert "parse error" in run(shell, 'open "unterminated')

    def test_blank_lines_ignored(self, shell):
        assert run(shell, "", "   ") == ""

    def test_use_unknown_table(self, shell):
        assert "error:" in run(shell, "use nope")


class TestBuildEngine:
    def test_csv_paths(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "a,b\n" + "\n".join(f"{i},{i%2}" for i in range(30)), "utf-8"
        )
        engine = build_engine([str(path)])
        assert "d" in engine.tables()

    def test_demo_hollywood(self):
        engine = build_engine(["--demo", "hollywood"])
        assert engine.tables() == ("hollywood",)

    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit):
            build_engine([])

    def test_bad_demo_is_usage_error(self):
        with pytest.raises(SystemExit):
            build_engine(["--demo", "nope"])

    def test_unknown_word_is_usage_error(self, capsys):
        """``python -m repro frobnicate`` used to end in pathlib's
        ``FileNotFoundError`` traceback."""
        with pytest.raises(SystemExit) as caught:
            build_engine(["frobnicate"])
        assert caught.value.code == 2
        error = capsys.readouterr().err
        assert error.startswith("usage:") and "frobnicate" in error
        assert len(error.splitlines()) == 1


class TestGotoStates:
    def test_goto_out_of_range(self, shell):
        text = run(shell, "open 0", "goto 5")
        assert "error:" in text

    def test_states_exposed_via_history(self, shell):
        text = run(shell, "open 0", "zoom r0", "history")
        assert "[0]" in text and "[1]" in text
