"""A stdlib-only ``asyncio`` HTTP/1.1 server for the serving layer.

No framework: the container ships only the scientific toolchain, and
the protocol surface Blaeu needs — short JSON requests and responses —
fits in a few hundred lines of careful parsing.  The server supports
keep-alive (interactive clients issue many small requests per
connection), bounds header and body sizes, enforces a per-read timeout
so dead peers cannot pin sockets, and hands every request to an async
handler that returns an :class:`HttpResponse`.  Its header reader and
framing checks also read the responses of the one client in the tree,
the supervisor's proxy (:func:`read_response`).

The handler contract is deliberately tiny so the app layer stays
testable without sockets::

    async def handler(request: HttpRequest) -> HttpResponse: ...
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
from dataclasses import dataclass, field
from typing import Awaitable, Callable
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = [
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "error_response",
    "json_response",
    "read_response",
    "serve_until_signalled",
    "text_response",
]

#: Hard caps keeping a hostile or broken peer from exhausting memory.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Status → default machine-readable error code (every error body the
#: service emits carries one; see the /v1 API contract in the README).
ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    408: "request_timeout",
    413: "payload_too_large",
    429: "throttled",
    500: "internal",
    503: "unavailable",
    504: "deadline_exceeded",
}


class HttpError(Exception):
    """A request-level failure with an HTTP status and error code.

    ``code`` defaults to the status-derived code from
    :data:`ERROR_CODES`, so every error body carries a structured code
    even when the raising site only knows the status.
    """

    def __init__(
        self,
        status: int,
        message: str,
        code: str | None = None,
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code or ERROR_CODES.get(status, "error")
        self.headers = headers or {}

    def response(self) -> HttpResponse:
        """The error body this failure answers with."""
        return error_response(
            self.status, self.code, self.message, headers=self.headers
        )


@dataclass(frozen=True)
class HttpRequest:
    """One parsed HTTP request.

    ``path`` and ``query`` are decoded (routing matches on them);
    ``target`` is the request target exactly as it arrived, still
    percent-encoded — what a proxy forwards.
    """

    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict[str, str]
    body: bytes
    target: str = ""

    def json(self) -> dict[str, object]:
        """The body parsed as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as error:
            raise HttpError(400, f"malformed JSON body: {error}") from error
        if not isinstance(payload, dict):
            raise HttpError(400, "JSON body must be an object")
        return payload

    def query_int(
        self,
        name: str,
        default: int | None = None,
        minimum: int | None = None,
    ) -> int | None:
        """The integer ``?name=`` parameter (400 on anything else)."""
        values = self.query.get(name)
        if not values:
            return default
        try:
            value = int(values[0])
        except ValueError:
            raise HttpError(
                400, f"{name} must be an integer, got {values[0]!r}"
            ) from None
        if minimum is not None and value < minimum:
            raise HttpError(400, f"{name} must be at least {minimum}")
        return value


@dataclass(frozen=True)
class HttpResponse:
    """One HTTP response the server will serialize."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json; charset=utf-8"
    headers: dict[str, str] = field(default_factory=dict)

    def serialize(self, keep_alive: bool) -> bytes:
        """The full wire representation of the response."""
        reason = REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode("ascii") + self.body


def json_response(
    payload: dict[str, object],
    status: int = 200,
    headers: dict[str, str] | None = None,
) -> HttpResponse:
    """A JSON response from a payload dictionary."""
    body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return HttpResponse(status=status, body=body, headers=headers or {})


def error_response(
    status: int,
    code: str,
    message: str,
    headers: dict[str, str] | None = None,
    **extra: object,
) -> HttpResponse:
    """The one error shape: ``{"ok": false, "error": …, "code": …}``.

    ``code`` is the machine-readable half of the contract (see
    :data:`ERROR_CODES` for the status-derived defaults); ``extra``
    adds fields such as the failing ``command``.
    """
    return json_response(
        {"ok": False, "error": message, "code": code, **extra},
        status,
        headers=headers,
    )


def text_response(text: str, status: int = 200) -> HttpResponse:
    """A plain-text response (used by ``/metrics``)."""
    return HttpResponse(
        status=status,
        body=text.encode("utf-8"),
        content_type="text/plain; charset=utf-8",
    )


Handler = Callable[[HttpRequest], Awaitable[HttpResponse]]


class HttpServer:
    """An asyncio TCP server speaking enough HTTP/1.1 for the app layer.

    Parameters
    ----------
    handler:
        The async request handler; exceptions it leaks become 500s.
    host / port:
        Bind address.  ``port=0`` picks a free port (tests, benchmarks);
        the real port is available as :attr:`port` after :meth:`start`.
    read_timeout:
        Seconds an idle connection may sit between requests.
    """

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 8787,
        read_timeout: float = 30.0,
    ) -> None:
        self._handler = handler
        self._host = host
        self._port = port
        self._read_timeout = read_timeout
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task[None]] = set()
        self._active_requests = 0

    @property
    def host(self) -> str:
        """The bind host."""
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when 0 was asked)."""
        return self._port

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self._port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until cancelled (call :meth:`start` first)."""
        if self._server is None:
            raise RuntimeError("server not started")
        await self._server.serve_forever()

    @property
    def active_requests(self) -> int:
        """Requests currently inside the handler (not idle keep-alives)."""
        return self._active_requests

    async def drain(self, timeout: float) -> bool:
        """Stop accepting and wait for in-flight *requests* to finish.

        Idle keep-alive connections do not count — only requests inside
        the handler.  Returns True when the server drained cleanly
        within ``timeout``, False when requests were still running (the
        caller will cancel them via :meth:`stop`).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        give_up = loop.time() + max(timeout, 0.0)
        while self._active_requests > 0:
            if loop.time() >= give_up:
                return False
            await asyncio.sleep(0.02)
        return True

    async def stop(self) -> None:
        """Stop accepting, cancel open connections, wait for them."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader), timeout=self._read_timeout
                    )
                except asyncio.TimeoutError:
                    break
                except HttpError as error:
                    writer.write(error.response().serialize(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:  # client closed the connection
                    break
                keep_alive = (
                    request.headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                try:
                    self._active_requests += 1
                    try:
                        response = await self._handler(request)
                    finally:
                        self._active_requests -= 1
                except HttpError as error:
                    response = error.response()
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # noqa: BLE001 - last resort
                    response = error_response(
                        500, "internal", f"internal error: {error}"
                    )
                writer.write(response.serialize(keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.CancelledError, ConnectionError):
            # ConnectionError covers reset *and* broken-pipe: a peer
            # vanishing mid-write is routine, not a server fault.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> HttpRequest | None:
        """Parse one request off the stream (``None`` on clean EOF)."""
        try:
            request_line = await reader.readline()
        except (ValueError, ConnectionResetError) as error:
            raise HttpError(400, f"unreadable request line: {error}") from error
        if not request_line:
            return None
        if len(request_line) > MAX_REQUEST_LINE:
            raise HttpError(413, "request line too long")
        try:
            method, target, version = (
                request_line.decode("ascii").strip().split(" ", 2)
            )
        except (UnicodeDecodeError, ValueError) as error:
            raise HttpError(400, "malformed request line") from error
        if not version.startswith("HTTP/1."):
            raise HttpError(400, f"unsupported protocol {version!r}")

        headers = await read_headers(reader)
        body = b""
        length = content_length(headers, MAX_BODY_BYTES)
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as error:
                raise HttpError(400, "truncated request body") from error
        elif length is None and (
            headers.get("transfer-encoding", "").lower() == "chunked"
        ):
            raise HttpError(400, "chunked request bodies are not supported")

        parts = urlsplit(target)
        return HttpRequest(
            method=method.upper(),
            path=unquote(parts.path) or "/",
            query=parse_qs(parts.query),
            headers=headers,
            body=body,
            target=target,
        )


async def read_headers(reader: asyncio.StreamReader) -> dict[str, str]:
    """One header block, up to its blank line: lower-cased name → value.

    Shared by both directions (requests here, worker responses in the
    supervisor), so both are capped alike: a line past the stream
    reader's limit or a block past :data:`MAX_HEADER_BYTES` is a 413.
    """
    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readline()
        except ValueError as error:
            # One header line overflowed the stream reader's limit.
            raise HttpError(413, "header line too long") from error
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(413, "headers too large")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


def content_length(headers: dict[str, str], limit: int | None) -> int | None:
    """The body length a header block declares; ``None`` if it has none.

    A 400 for ambiguous framing (RFC 9112 §6.1: Content-Length *and*
    Transfer-Encoding, a smuggling vector) or a value that is not a
    non-negative integer; a 413 past ``limit``.
    """
    length_text = headers.get("content-length")
    if length_text is None:
        return None
    if "transfer-encoding" in headers:
        raise HttpError(
            400, "both Content-Length and Transfer-Encoding present"
        )
    try:
        length = int(length_text)
    except ValueError as error:
        raise HttpError(400, "invalid Content-Length") from error
    if length < 0:
        raise HttpError(400, "negative Content-Length")
    if limit is not None and length > limit:
        raise HttpError(413, "request body too large")
    return length


async def read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    """One length-framed response off the stream: status, headers, body.

    The client half of :class:`HttpServer`'s parsing, under the same
    caps.  A response without a Content-Length is refused rather than
    read to EOF — on a kept-alive connection EOF only comes when the
    server gives up on it.  Every failure is a ``ConnectionError`` (or
    the stream's ``IncompleteReadError`` on a short body): to a client,
    a peer that answers garbage has failed the exchange like one that
    hung up.
    """
    try:
        status_line = await reader.readline()
    except ValueError as error:
        raise ConnectionError("status line too long") from error
    if not status_line:
        raise ConnectionError("connection closed before a response")
    parts = status_line.decode("latin-1").rstrip("\r\n").split(" ", 2)
    if (
        len(parts) < 2
        or not parts[0].startswith("HTTP/1.")
        or not (parts[1].isascii() and parts[1].isdigit())
        or len(status_line) > MAX_REQUEST_LINE
    ):
        raise ConnectionError(f"bad status line {status_line[:80]!r}")
    try:
        headers = await read_headers(reader)
        length = content_length(headers, None)
    except HttpError as error:
        raise ConnectionError(f"malformed response: {error.message}") from error
    if length is None:
        raise ConnectionError("response without a Content-Length")
    body = await reader.readexactly(length)
    return int(parts[1]), headers, body


async def serve_until_signalled(server, announce: Callable[[], None]) -> None:
    """Run a service until SIGINT/SIGTERM: start, announce, serve, stop.

    ``server`` has ``start`` / ``serve_forever`` / ``stop`` coroutines
    (a worker's service, or the supervisor); ``announce`` runs once the
    socket is bound — it prints the banner a launcher parses the port
    from.
    """
    await server.start()
    loop = asyncio.get_running_loop()
    stop_requested = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):  # pragma: no cover
            loop.add_signal_handler(signum, stop_requested.set)
    announce()
    serve_task = asyncio.create_task(server.serve_forever())
    await stop_requested.wait()
    await server.stop()
    serve_task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await serve_task
