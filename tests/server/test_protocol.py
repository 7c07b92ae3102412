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
