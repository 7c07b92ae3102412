"""The HTTP route table: one declaration per route, one matcher.

The worker (:mod:`repro.service.app`) and the fleet's proxy
(:mod:`repro.service.supervisor`) both dispatch on :func:`match`, so
they cannot disagree on what a path means.  A row says which verb the
route answers, which request parameter names the content it works on —
the proxy places the request by it, on the consistent-hash ring — and
which tier answers it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.server.protocol import COMMANDS

__all__ = ["ROUTES", "Route", "match", "unknown_label"]


@dataclass(frozen=True)
class Route:
    """One row of the route table.

    ``tier`` says who answers: ``"worker"`` routes are served by one
    worker (behind a supervisor: the owner of ``key``); ``"all"`` routes
    by every worker, the supervisor merging their answers; ``"fleet"``
    routes by the supervisor alone — a single process has none.
    """

    #: The handler's name on the tier that answers (``_serve_<name>``).
    name: str
    #: The verb answered; ``None`` takes any (probes and scrapers).
    method: str | None
    #: The path, ``{parameter}`` standing for one segment.
    template: str
    #: Routing-key parameters, in preference order: looked up among the
    #: path parameters, then in the JSON body.
    key: tuple[str, ...] = ()
    tier: str = "worker"

    def label(self, params: dict[str, str]) -> str:
        """The ``route`` metric label: the template, cardinality-bounded.

        A parameter with a closed value set (the command) keeps its
        value; an open one (a table reference) shows as ``<name>``.
        """
        shown = {name: f"<{name}>" for name in params}
        command = params.get("command")
        if command is not None:
            shown["command"] = command if command in COMMANDS else "<unknown>"
        return self.template.format(**shown)


ROUTES: tuple[Route, ...] = (
    Route("healthz", None, "/healthz", tier="all"),
    Route("metrics", None, "/metrics", tier="all"),
    Route("tables", "GET", "/v1/tables"),
    Route("traces", "GET", "/v1/traces", tier="all"),
    Route("map", "GET", "/v1/tables/{table}/map", key=("table",)),
    Route("graph", "GET", "/v1/tables/{table}/graph", key=("table",)),
    Route("themes", "GET", "/v1/tables/{table}/themes", key=("table",)),
    Route("suggestions", "GET", "/v1/tables/{table}/suggestions", key=("table",)),
    Route("command", "POST", "/v1/commands/{command}", key=("session", "table")),
    Route("workers", "GET", "/v1/workers", tier="fleet"),
    Route("restart", "POST", "/v1/workers/{slot}/restart", tier="fleet"),
)

_PATTERNS = tuple(
    (route, re.compile(re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", route.template)))
    for route in ROUTES
)


def match(path: str) -> tuple[Route | None, dict[str, str]]:
    """The route ``path`` names and its parameters (``(None, {})``: no
    route).  A trailing slash is ignored.
    """
    path = path.rstrip("/") or "/"
    for route, pattern in _PATTERNS:
        found = pattern.fullmatch(path)
        if found is not None:
            return route, found.groupdict()
    return None, {}


def unknown_label(path: str) -> str:
    """The ``route`` metric label of a path no route matches."""
    if path.startswith("/v1/tables/"):
        return "/v1/tables/<unknown>"
    return "/<unknown>"
