"""Driving Blaeu through the client/server protocol (Figure 4).

The paper deploys Blaeu as a web application: browser → NodeJS session
manager → R mapping engine → MonetDB.  This example exercises the same
round-trip shape in process: every interaction is a JSON request line
handed to the :class:`~repro.server.session.SessionManager`, and every
answer is a JSON payload a D3 client could render.

Run with::

    python examples/server_session.py
"""

import json

from repro import Blaeu
from repro.datasets import hollywood
from repro.server.session import SessionManager


def send(manager: SessionManager, request: dict) -> dict:
    """One wire round-trip, with logging."""
    line = json.dumps(request)
    print(f">>> {line}")
    response = json.loads(manager.handle_json(line))
    summary = {k: response[k] for k in ("ok", "error") if k in response}
    if "map" in response:
        root = response["map"]["root"]
        summary["map"] = (
            f"{response['map']['k']} clusters over "
            f"{response['map']['n_rows']} rows; root children: "
            f"{[c['name'] for c in root.get('children', [])]}"
        )
    if "themes" in response:
        summary["themes"] = [t["name"] for t in response["themes"]["themes"]]
    if "highlight" in response:
        summary["highlight"] = (
            f"{response['highlight']['n_rows']} rows in region "
            f"{response['highlight']['region']}"
        )
    for key in ("sql", "history", "tables", "closed"):
        if key in response:
            summary[key] = response[key]
    print(f"<<< {json.dumps(summary, default=str)}")
    print()
    return response


def main() -> None:
    engine = Blaeu()
    engine.register(hollywood())
    manager = SessionManager(engine)

    send(manager, {"command": "tables"})
    themes = send(manager, {"command": "themes", "table": "hollywood"})
    first_theme = themes["themes"]["themes"][0]["name"]

    send(
        manager,
        {
            "command": "open",
            "session": "demo",
            "table": "hollywood",
            "theme": first_theme,
        },
    )
    response = send(manager, {"command": "map", "session": "demo"})
    # Zoom into the largest child region of the root.
    children = response["map"]["root"]["children"]
    biggest = max(children, key=lambda c: c["value"])
    send(manager, {"command": "zoom", "session": "demo", "region": biggest["id"]})
    send(
        manager,
        {
            "command": "highlight",
            "session": "demo",
            "region": "r",
            "columns": ["Title", "Genre", "Budget"],
        },
    )
    send(manager, {"command": "sql", "session": "demo"})
    send(manager, {"command": "rollback", "session": "demo"})
    send(manager, {"command": "history", "session": "demo"})

    # Errors come back as structured responses, never as crashes.
    send(manager, {"command": "zoom", "session": "nope", "region": "r0"})
    send(manager, {"command": "close", "session": "demo"})


if __name__ == "__main__":
    main()
