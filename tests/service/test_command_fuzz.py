"""A seeded mutation fuzzer over ``POST /v1/commands/<verb>`` bodies.

Each case mutates one valid body of one verb into a request the service
must refuse: a body that is not a JSON object, an argument of the wrong
type, a missing argument (alone or beside extra ones), a body
``command`` that names another verb than the route, deep nesting,
bytes that are not UTF-8, a truncated document.  Every case must get a
4xx carrying a machine-readable ``code`` — never a 500, a hang or a
dropped connection — and exactly the status recorded for it below.
The route is authoritative for the command, so a body naming another
verb is validated as the route's verb.
"""

from __future__ import annotations

import http.client
import json
import random

import pytest

from repro.server.protocol import COMMANDS

SEED = 0xB1AE

#: One valid body per verb, against the session ``live`` the fixture
#: opens (``open`` names a session that does not exist yet).
VALID: dict[str, dict[str, object]] = {
    "tables": {},
    "catalog": {},
    "themes": {"table": "mixed_blobs"},
    "open": {"session": "fresh", "table": "mixed_blobs", "theme": 0},
    "map": {"session": "live"},
    "zoom": {"session": "live", "region": "r0"},
    "project": {"session": "live", "theme": 0},
    "highlight": {"session": "live", "region": "r0", "columns": ["x0"]},
    "rollback": {"session": "live"},
    "sql": {"session": "live", "region": "r0"},
    "history": {"session": "live"},
    "suggest": {"session": "live", "limit": 3},
    "close": {"session": "live"},
}

#: Values of the wrong type (or, for a name, of no existing thing) for
#: an argument.  No ``None`` / ``[]`` (which the optional arguments
#: accept as "absent"), so each one leaves the request invalid; a
#: ``bool`` has its own test below.
WRONG = (1.5, -1, {}, {"a": [1]}, [1, "x"], "", "é☃")

#: The arguments a case gives a wrong value: every one but ``open``'s
#: session, where any value just names a new session.
TYPED = {
    verb: tuple(name for name in body if (verb, name) != ("open", "session"))
    for verb, body in VALID.items()
}


def _nested(depth: int) -> bytes:
    return b"[" * depth + b"]" * depth


def _cases() -> list[tuple[str, str, bytes]]:
    """``(id, verb, body)`` for every case, drawn from :data:`SEED`."""
    rng = random.Random(SEED)
    cases: list[tuple[str, str, bytes]] = []

    def add(family: str, verb: str, body: object) -> None:
        raw = body if isinstance(body, bytes) else json.dumps(body).encode()
        cases.append((f"{verb}/{family}/{len(cases)}", verb, raw))

    for verb, valid in VALID.items():
        add("not_an_object", verb, rng.choice([[valid], 3, "x", None, True]))
        text = json.dumps(valid).encode()
        add("truncated", verb, text[: rng.randint(1, len(text) - 1)])
        add("not_utf8", verb, b'{"table": "\xff' + rng.randbytes(3) + b'"}')
        for name in TYPED[verb]:
            add(f"wrong_{name}", verb, {**valid, name: rng.choice(WRONG)})
        required = COMMANDS[verb]
        if required:
            name = rng.choice(required)
            missing = {k: v for k, v in valid.items() if k != name}
            add(f"missing_{name}", verb, missing)
            junk = {f"extra{i}": rng.choice(WRONG) for i in range(3)}
            add(f"missing_{name}_with_extras", verb, {**missing, **junk})
            other = rng.choice(
                [o for o in VALID if not set(required) <= set(VALID[o])]
            )
            add(f"command_{other}", verb, {"command": other, **VALID[other]})
            key = required[0]
            add(
                f"deep_{key}",
                verb,
                b'{"%s": ' % key.encode() + _nested(rng.choice([3, 5_000])) + b"}",
            )
    add("deep_body", "zoom", _nested(100_000))
    add("deep_object", "map", b'{"a": ' * 2_000 + b"1" + b"}" * 2_000)
    add("bom_utf16", "zoom", '{"session": 1}'.encode("utf-16"))
    return cases


CASES = _cases()

#: The cases answered 404: well-formed requests whose every argument
#: has its JSON type but names a session or region that does not exist.
#: Every other case is a 400.
NOT_FOUND = {
    "highlight/wrong_region/53", "history/wrong_session/79",
    "rollback/wrong_session/62", "zoom/wrong_session/34",
}  # fmt: skip

#: The cases that were 404s (404 → 400) until ``validate_request``
#: checked each argument's JSON type: a wrong-typed value was read as
#: its ``str`` and looked up as a name (``{"session": 1.5}`` was "no
#: session '1.5'").  Now each is a 400 naming the argument.
WERE_404 = {
    "close/deep_session/100", "close/wrong_session/96",
    "highlight/wrong_session/52", "map/wrong_session/26",
    "open/wrong_table/17", "open/wrong_theme/18",
    "project/wrong_session/43", "project/wrong_theme/44",
    "sql/deep_session/75", "sql/wrong_region/71", "sql/wrong_session/70",
    "suggest/wrong_session/87", "themes/deep_table/13",
    "themes/wrong_table/9", "zoom/wrong_region/35",
}  # fmt: skip

#: The cases that were 500s — an uncaught ``UnicodeDecodeError`` or
#: ``RecursionError`` out of the JSON decoder — until ``HttpRequest.json``
#: answered every decoder failure with a 400.
WERE_500 = {
    "catalog/not_utf8/5", "close/not_utf8/95", "highlight/not_utf8/51",
    "history/deep_session/83", "history/not_utf8/78", "map/deep_object/102",
    "map/deep_session/30", "map/not_utf8/25", "open/not_utf8/16",
    "project/deep_session/48", "project/not_utf8/42",
    "rollback/deep_session/66", "rollback/not_utf8/61", "sql/not_utf8/69",
    "suggest/deep_session/92", "suggest/not_utf8/86", "tables/not_utf8/2",
    "themes/not_utf8/8", "zoom/deep_body/101", "zoom/not_utf8/33",
}  # fmt: skip

EXPECTED = {
    case_id: 404 if case_id in NOT_FOUND else 400 for case_id, _, _ in CASES
}


@pytest.fixture(scope="module")
def live(service):
    status, _ = service.post(
        "/v1/commands/open",
        {"session": "live", "table": "mixed_blobs", "theme": 0},
    )
    assert status == 200
    yield service
    service.post("/v1/commands/close", {"session": "live"})


def _exchange(port: int, verb: str, body: bytes) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request(
            "POST",
            f"/v1/commands/{verb}",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def test_the_fuzzer_covers_every_family():
    families = {case_id.split("/")[1] for case_id, _, _ in CASES}
    assert {"not_an_object", "truncated", "not_utf8", "deep_body"} <= families
    assert {f for f in families if f.startswith("wrong_")} >= {
        "wrong_session",
        "wrong_region",
        "wrong_theme",
        "wrong_table",
        "wrong_columns",
        "wrong_limit",
    }
    assert any(f.startswith("command_") for f in families)
    assert any(f.endswith("_with_extras") for f in families)
    # The recorded ids still name generated cases (a changed generator
    # must re-record them).
    assert NOT_FOUND | WERE_404 | WERE_500 <= set(EXPECTED)
    assert not NOT_FOUND & WERE_404
    assert len(CASES) == 104


def test_every_mutated_body_gets_its_typed_4xx(live):
    answered = {}
    for case_id, verb, body in CASES:
        status, raw = _exchange(live.port, verb, body)
        payload = json.loads(raw)
        assert 400 <= status < 500, (case_id, status, payload)
        assert payload["ok"] is False and payload["code"], (case_id, payload)
        answered[case_id] = status
    assert answered == EXPECTED
    # No case opened, moved or closed anything: ``live`` is where it was.
    status, history = live.post("/v1/commands/history", {"session": "live"})
    assert status == 200 and len(history["history"]) == 1
    assert live.post("/v1/commands/map", {"session": "fresh"})[0] == 404


@pytest.mark.parametrize(
    "verb, body, argument",
    [
        ("open", {"session": "b", "table": "mixed_blobs", "theme": True}, "theme"),
        ("project", {"session": "live", "theme": False}, "theme"),
        ("suggest", {"session": "live", "limit": True}, "limit"),
        ("map", {"session": 1.5}, "session"),
        ("open", {"session": 7, "table": "mixed_blobs", "theme": 0}, "session"),
    ],
)
def test_a_wrong_json_type_is_a_400_naming_the_argument(live, verb, body, argument):
    """A ``bool`` is never an integer (``{"theme": true}`` opened theme
    1), and no value is read as its ``str`` (``{"session": 1.5}`` was a
    404 for session ``'1.5'``)."""
    status, raw = _exchange(live.port, verb, json.dumps(body).encode())
    payload = json.loads(raw)
    assert status == 400 and payload["code"] == "bad_request", payload
    assert f"argument {argument!r}" in payload["error"]
    assert live.post("/v1/commands/map", {"session": "b"})[0] == 404
