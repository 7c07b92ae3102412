"""Unit tests for the JSON protocol layer."""

import json

import pytest

from repro.server.protocol import (
    COMMANDS,
    ErrorResponse,
    JsonText,
    ProtocolError,
    Request,
    Response,
    encode_payload,
    parse_request,
)


class TestParseRequest:
    def test_valid_request(self):
        request = parse_request('{"command": "themes", "table": "t"}')
        assert request.command == "themes"
        assert request.arg("table") == "t"

    def test_malformed_json_rejected(self):
        with pytest.raises(ProtocolError, match="malformed"):
            parse_request("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            parse_request('["zoom"]')

    def test_missing_command_rejected(self):
        with pytest.raises(ProtocolError, match="command"):
            parse_request('{"table": "t"}')

    def test_unknown_command_rejected(self):
        with pytest.raises(ProtocolError, match="unknown command"):
            parse_request('{"command": "frobnicate"}')

    def test_missing_required_arguments_listed(self):
        with pytest.raises(ProtocolError, match="region"):
            parse_request('{"command": "zoom", "session": "s"}')

    @pytest.mark.parametrize("command,required", sorted(COMMANDS.items()))
    def test_each_command_validates_requirements(self, command, required):
        body = {"command": command}
        body.update({name: "x" for name in required})
        request = parse_request(json.dumps(body))
        assert request.command == command


_REGION = {"session": "s", "region": "r"}


class TestArgumentTypes:
    @pytest.mark.parametrize("theme", [0, 3, "", "Theme 1"])
    def test_a_theme_is_a_name_or_an_index(self, theme):
        body = {"command": "project", "session": "s", "theme": theme}
        assert parse_request(json.dumps(body)).arg("theme") == theme

    @pytest.mark.parametrize(
        "body, name",
        [
            ({"command": "project", "session": "s", "theme": True}, "theme"),
            ({"command": "suggest", "session": "s", "limit": False}, "limit"),
            ({"command": "suggest", "session": "s", "limit": 2.0}, "limit"),
            ({"command": "zoom", "session": "s", "region": 0}, "region"),
            ({"command": "highlight", **_REGION, "columns": "a"}, "columns"),
            ({"command": "highlight", **_REGION, "columns": [1]}, "columns"),
            ({"command": "themes", "table": None}, "table"),
            ({"command": "close", "session": ["s"]}, "session"),
        ],
    )
    def test_a_wrong_json_type_names_the_argument(self, body, name):
        with pytest.raises(ProtocolError, match=f"argument {name!r}"):
            parse_request(json.dumps(body))

    @pytest.mark.parametrize(
        "command, name",
        [("highlight", "columns"), ("sql", "region"), ("suggest", "limit")],
    )
    def test_null_is_an_absent_optional_argument(self, command, name):
        body = {"command": command, "session": "s", "region": "r", name: None}
        assert parse_request(json.dumps(body)).arg(name) is None

    def test_an_argument_the_command_does_not_take_is_not_checked(self):
        body = {"command": "map", "session": "s", "theme": True, "limit": {}}
        assert parse_request(json.dumps(body)).command == "map"


class TestSerialization:
    def test_request_roundtrip(self):
        request = Request(command="zoom", args={"session": "s", "region": "r0"})
        back = parse_request(request.to_json())
        assert back == request

    def test_response_wire_format(self):
        response = Response({"sql": "SELECT 1"})
        payload = json.loads(response.to_json())
        assert payload == {"ok": True, "sql": "SELECT 1"}
        assert response.ok

    def test_error_wire_format(self):
        error = ErrorResponse(error="boom", command="zoom")
        payload = json.loads(error.to_json())
        assert payload == {"ok": False, "error": "boom", "command": "zoom"}
        assert not error.ok


MAP_TEXT = json.dumps(
    {"type": "blaeu.map", "k": 2, "root": {"name": "all rows", "é": [1.5, None]}},
    sort_keys=True,
)


def _reference(payload):
    """What ``json.dumps`` makes of ``payload`` with each kept text
    decoded first: the bytes :func:`encode_payload` must reproduce."""
    decoded = {
        key: json.loads(value) if isinstance(value, JsonText) else value
        for key, value in payload.items()
    }
    return json.dumps(decoded, sort_keys=True, default=str)


class TestEncodePayload:
    """The one response encoder splices kept text at its sorted key and
    otherwise reads byte for byte as ``json.dumps(sort_keys=True,
    default=str)``."""

    @pytest.mark.parametrize(
        "payload",
        [
            # Kept text first, in the middle and last in key order.
            {"a_map": JsonText(MAP_TEXT), "ok": True, "session": "s1"},
            {
                "counts_status": "exact",
                "map": JsonText(MAP_TEXT),
                "ok": True,
                "refining": False,
                "session": "s1",
            },
            {"ok": True, "session": "s1", "themes": JsonText(MAP_TEXT)},
            # Two kept texts, and none at all.
            {"map": JsonText(MAP_TEXT), "ok": True, "themes": JsonText("[]")},
            {"ok": True, "sql": "SELECT 1", "rows": [1, 2.5, None, "x"]},
            {},
        ],
        ids=["first", "middle", "last", "two", "none", "empty"],
    )
    def test_bytes_match_json_dumps_of_the_decoded_payload(self, payload):
        assert encode_payload(payload) == _reference(payload)

    def test_values_json_cannot_encode_go_through_str(self):
        payload = {"map": JsonText(MAP_TEXT), "when": object, "ok": True}
        assert encode_payload(payload) == _reference(payload)

    def test_a_plain_string_that_reads_as_json_stays_a_string(self):
        """Only the type marks kept text: a session id or error text
        holding JSON is encoded as the string it is."""
        payload = {"map": JsonText(MAP_TEXT), "session": MAP_TEXT}
        assert json.loads(encode_payload(payload))["session"] == MAP_TEXT
        assert encode_payload(payload) == _reference(payload)

    def test_response_to_json_splices_the_map(self):
        response = Response({"session": "s1", "map": JsonText(MAP_TEXT)})
        assert response.to_json() == _reference(
            {"ok": True, "session": "s1", "map": JsonText(MAP_TEXT)}
        )
        assert json.loads(response.to_json())["map"] == json.loads(MAP_TEXT)
