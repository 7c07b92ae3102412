"""Session persistence: save and replay explorations.

A demo session is a sequence of actions; persisting the *actions* (not
the maps) keeps files tiny and replays deterministically on the same
engine seed.  ``save_session`` serializes an explorer's history to JSON;
``replay_session`` reconstructs an equivalent explorer by re-running the
actions through the public API — so a saved exploration survives process
restarts, and a session can be handed to a colleague as a file.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.core.engine import Blaeu
from repro.core.navigation import Explorer

__all__ = ["save_session", "replay_session", "session_to_dict"]

_FORMAT = "blaeu.session/1"


def session_to_dict(table_name: str, explorer: Explorer) -> dict[str, object]:
    """The replayable description of an exploration."""
    steps: list[dict[str, object]] = []
    for state in explorer.states():
        action = state.action
        if action.startswith("open theme "):
            steps.append({"do": "open_theme", "theme": _quoted(action)})
        elif action.startswith("open columns "):
            steps.append({"do": "open_columns", "columns": list(state.columns)})
        elif action.startswith("zoom into "):
            region = action.split(" ", 2)[2].split(" ", 1)[0]
            steps.append({"do": "zoom", "region": region})
        elif action.startswith("project onto theme "):
            steps.append({"do": "project", "theme": _quoted(action)})
        elif action.startswith("project onto columns "):
            steps.append(
                {"do": "project_columns", "columns": list(state.columns)}
            )
        else:  # pragma: no cover - exhaustive over Explorer's actions
            raise ValueError(f"unknown action in history: {action!r}")
    return {
        "format": _FORMAT,
        "table": table_name,
        "seed": explorer.config.seed,
        "steps": steps,
    }


def save_session(
    path: str | Path, table_name: str, explorer: Explorer
) -> None:
    """Write the exploration to ``path`` as JSON, atomically.

    The payload goes to a temporary file in the destination directory
    first and is moved into place with :func:`os.replace`, so a crash
    mid-write leaves either the old file or the new one — never a
    truncated hybrid.
    """
    payload = session_to_dict(table_name, explorer)
    text = json.dumps(payload, indent=2, sort_keys=True)
    path = Path(path)
    descriptor, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:  # pragma: no cover - already renamed or gone
            pass
        raise


def replay_session(path: str | Path, engine: Blaeu) -> Explorer:
    """Reconstruct an explorer by replaying a saved session.

    The engine must already hold the session's table; with the same
    engine config the replayed maps are identical to the saved run's,
    whether or not either engine has a map cache (every build is seeded
    from its content key).
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != _FORMAT:
        raise ValueError(
            f"not a blaeu session file (format {payload.get('format')!r})"
        )
    table_name = str(payload["table"])
    explorer = engine.explore(table_name)
    for step in payload["steps"]:
        verb = step["do"]
        if verb == "open_theme":
            explorer.open_theme(str(step["theme"]))
        elif verb == "open_columns":
            explorer.open_columns(tuple(step["columns"]))
        elif verb == "zoom":
            explorer.zoom(str(step["region"]))
        elif verb == "project":
            explorer.project(str(step["theme"]))
        elif verb == "project_columns":
            explorer.project_columns(tuple(step["columns"]))
        else:
            raise ValueError(f"unknown step {verb!r} in session file")
    return explorer


def _quoted(action: str) -> str:
    """Extract the 'quoted' theme name from an action string."""
    return action.split("'")[1]
