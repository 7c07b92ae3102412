"""The client ↔ server message protocol.

Requests are JSON objects with a ``command`` plus command-specific
arguments; responses carry ``ok`` and either a payload or an error.  The
command set covers the UI's verbs exactly:

========== =====================================================
command     arguments
========== =====================================================
tables      —
catalog     —
themes      table
open        session, table, theme
map         session
zoom        session, region
project     session, theme
highlight   session, region, columns (optional)
rollback    session
sql         session, region (optional)
history     session
suggest     session, limit (optional)
close       session
========== =====================================================

Each argument has one JSON type (:data:`ARGUMENTS`): ``session``,
``table`` and ``region`` are strings, ``theme`` a name (string) or an
index (integer), ``columns`` a list of strings and ``limit`` an
integer; a ``bool`` is never an integer, and ``null`` for an optional
argument is its absence.  A request that breaks this is refused by
:func:`validate_request` with a :class:`ProtocolError` naming the
argument, before any session, table or theme is looked up.

A map (or theme list) is encoded once: the session tier passes the text
:mod:`repro.viz.export` kept with the immutable map as a
:class:`JsonText` payload value, and :func:`encode_payload` — the one
response encoder, shared with the HTTP tier — splices that text verbatim
at its sorted key instead of decoding and re-encoding it.  This module
stays stdlib-only: the fleet's supervisor loads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "ProtocolError",
    "JsonText",
    "Request",
    "Response",
    "ErrorResponse",
    "encode_payload",
    "parse_request",
    "validate_request",
]

#: Commands the dispatcher understands, with their required arguments.
COMMANDS: dict[str, tuple[str, ...]] = {
    "tables": (),
    "catalog": (),
    "themes": ("table",),
    "open": ("session", "table", "theme"),
    "map": ("session",),
    "zoom": ("session", "region"),
    "project": ("session", "theme"),
    "highlight": ("session", "region"),
    "rollback": ("session",),
    "sql": ("session",),
    "history": ("session",),
    "suggest": ("session",),
    "close": ("session",),
}


#: The arguments a command takes without requiring them.
OPTIONAL: dict[str, tuple[str, ...]] = {
    "highlight": ("columns",),
    "sql": ("region",),
    "suggest": ("limit",),
}


def _is_string(value: object) -> bool:
    return isinstance(value, str)


def _is_integer(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Every argument's JSON type: a test of the decoded value, and what
#: the refusal says it must be.
ARGUMENTS: dict[str, tuple[Callable[[object], bool], str]] = {
    "session": (_is_string, "a string"),
    "table": (_is_string, "a string"),
    "region": (_is_string, "a string"),
    "theme": (
        lambda v: _is_string(v) or _is_integer(v),
        "a theme name (string) or index (integer)",
    ),
    "columns": (
        lambda v: isinstance(v, list) and all(isinstance(c, str) for c in v),
        "a list of strings",
    ),
    "limit": (_is_integer, "an integer"),
}


class ProtocolError(ValueError):
    """A malformed or invalid client request."""


class JsonText(str):
    """A JSON document already encoded: :func:`encode_payload` splices
    it verbatim where a payload's top-level value would be encoded.

    The type, not the content, marks it, so no session id or error text
    can pass for one.
    """

    __slots__ = ()


_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


def encode_payload(payload: dict[str, object]) -> str:
    """``payload`` as ``json.dumps(payload, sort_keys=True, default=str)``
    reads, byte for byte — with each top-level :class:`JsonText` value
    spliced as the document it holds rather than encoded as a string.
    """
    items = (
        f"{_ENCODER.encode(key)}: "
        + (value if isinstance(value, JsonText) else _ENCODER.encode(value))
        for key, value in sorted(payload.items())
    )
    return "{" + ", ".join(items) + "}"


@dataclass(frozen=True)
class Request:
    """A parsed, validated client request."""

    command: str
    args: dict[str, object] = field(default_factory=dict)

    def arg(self, name: str) -> object:
        """The named argument (``None`` when absent)."""
        return self.args.get(name)

    def to_json(self) -> str:
        """Serialize back to wire format."""
        return json.dumps({"command": self.command, **self.args}, sort_keys=True)


@dataclass(frozen=True)
class Response:
    """A successful server response.

    A map-bearing payload holds its map as :class:`JsonText`;
    ``counts_status`` is that map's count status (``None`` on a response
    that carries no map), so the service need not decode the text.
    """

    payload: dict[str, object]
    counts_status: str | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        """Always ``True`` for successful responses."""
        return True

    def to_json(self) -> str:
        """Serialize to wire format."""
        return encode_payload({"ok": True, **self.payload})


@dataclass(frozen=True)
class ErrorResponse:
    """A failed server response.

    ``code`` optionally carries a machine-readable error class (e.g.
    ``"map_build_invalid"`` for requests the map pipeline rejects as
    posed), so HTTP clients can branch without parsing prose.
    """

    error: str
    command: str | None = None
    code: str | None = None

    @property
    def ok(self) -> bool:
        """Always ``False`` for error responses."""
        return False

    def to_json(self) -> str:
        """Serialize to wire format."""
        body: dict[str, object] = {"ok": False, "error": self.error}
        if self.command:
            body["command"] = self.command
        if self.code:
            body["code"] = self.code
        return json.dumps(body, sort_keys=True)


def parse_request(text: str) -> Request:
    """Parse and validate one JSON request line.

    Raises :class:`ProtocolError` on malformed JSON and wherever
    :func:`validate_request` does.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"malformed JSON: {error}") from error
    return validate_request(raw)


def validate_request(raw: object) -> Request:
    """The request a decoded JSON value states: an object with a known
    string ``command``, that command's required arguments, and each
    argument the command takes of its JSON type (:data:`ARGUMENTS`).

    The one validation path of every request, off the wire or off an
    HTTP route.  Pops ``command`` off ``raw``; every other key becomes
    an argument (one the command does not take is ignored).  Raises
    :class:`ProtocolError` on anything else.
    """
    if not isinstance(raw, dict):
        raise ProtocolError("request must be a JSON object")
    command = raw.pop("command", None)
    if not isinstance(command, str):
        raise ProtocolError("request must carry a string 'command'")
    if command not in COMMANDS:
        raise ProtocolError(
            f"unknown command {command!r}; known: {sorted(COMMANDS)}"
        )
    missing = [name for name in COMMANDS[command] if name not in raw]
    if missing:
        raise ProtocolError(
            f"command {command!r} is missing arguments: {missing}"
        )
    optional = OPTIONAL.get(command, ())
    for name in COMMANDS[command] + optional:
        value = raw.get(name)
        if value is None and name in optional:
            continue
        accepts, expected = ARGUMENTS[name]
        if not accepts(value):
            found = _JSON_TYPES.get(type(value), type(value).__name__)
            raise ProtocolError(
                f"argument {name!r} of command {command!r} must be "
                f"{expected}, got {found}"
            )
    return Request(command=command, args=raw)


#: The JSON name of each type :func:`json.loads` decodes to.
_JSON_TYPES = {
    type(None): "null",
    bool: "a boolean",
    int: "a number",
    float: "a number",
    str: "a string",
    list: "an array",
    dict: "an object",
}
