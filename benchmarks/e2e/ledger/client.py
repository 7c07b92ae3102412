"""The closed-loop client: timed requests, the digest oracle, the walker.

A request's latency is time-to-last-byte: from just before the request
line is written to just after the body is read.  JSON parsing, digest
checks and region picking happen after the clock stops.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ledger.data import Step, Walk
from ledger.spec import KERNEL_REFERENCE_S

REQUEST_TIMEOUT_S = 60.0

#: Regions smaller than this are not zoomed into or highlighted: the
#: server refuses zooms under 20 rows, and a failed operation is a
#: failed run.
MIN_REGION_ROWS = 40


#: A client runs the host-speed kernel when this long has passed since its
#: last one: after every cold action, after every ~25 warm ones.
TICK_EVERY_S = 0.05

def speed_kernel() -> float:
    """Seconds this host takes for a fixed slice of interpreter work
    (about 2 ms when nothing else competes for the core).

    Plain bytecode on purpose: measured against the served workloads on
    this host, a pure-Python loop tracks their slowdown one to one
    (log-log slope 1.0-1.15, r = 0.85), while small NumPy kernels slow
    down less than half as much and loopback round trips not at all.
    """
    started = time.perf_counter()
    total = 0
    for i in range(25_000):
        total += i * i % 7
    return time.perf_counter() - started


def digest(value: object) -> str:
    """sha256 of the canonical JSON form of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Spans (the harness's own; the program's tracer is a later issue)
# ----------------------------------------------------------------------


class Spans:
    """In-memory span records: name, start, end, parent, action id.

    Disabled (the untraced run), :meth:`span` costs one attribute test.
    Parents nest per thread.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict[str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, action: int | None = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        record: dict[str, object] = {
            "id": span_id,
            "name": name,
            "parent": stack[-1] if stack else None,
            "action": action,
            "start": time.perf_counter(),
        }
        stack.append(span_id)
        try:
            yield
        finally:
            stack.pop()
            record["end"] = time.perf_counter()
            self.records.append(record)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (count, self seconds) — duration minus children."""
        child_time: dict[object, float] = {}
        for record in self.records:
            if record["parent"] is not None:
                child_time[record["parent"]] = child_time.get(
                    record["parent"], 0.0
                ) + (record["end"] - record["start"])
        table: dict[str, tuple[int, float]] = {}
        for record in self.records:
            own = record["end"] - record["start"] - child_time.get(record["id"], 0.0)
            count, total = table.get(record["name"], (0, 0.0))
            table[record["name"]] = (count + 1, total + own)
        return table


# ----------------------------------------------------------------------
# The action log and the oracle
# ----------------------------------------------------------------------


@dataclass
class Action:
    """One attempted operation."""

    kind: str
    phase: str
    seconds: float
    n_bytes: int
    ok: bool
    first_visit: bool
    #: ``perf_counter`` reading when the last byte arrived.
    ended: float


@dataclass
class Ledger:
    """Everything a run observed: actions, digests, failure notes."""

    spans: Spans
    actions: list[Action] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    #: Host-speed samples: (``perf_counter`` at the end, kernel seconds).
    ticks: list[tuple[float, float]] = field(default_factory=list)
    _visited: set[str] = field(default_factory=set)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _tick_cache: tuple[np.ndarray, np.ndarray] | None = None

    def fresh_boot(self) -> None:
        """A new server generation: nothing has been visited on it yet."""
        with self._lock:
            self._visited.clear()

    def first_visit(self, key: str) -> bool:
        with self._lock:
            if key in self._visited:
                return False
            self._visited.add(key)
            return True

    def check(self, key: str, value: object) -> bool:
        """The oracle: every serving of ``key`` must carry one digest."""
        found = digest(value)
        with self._lock:
            expected = self.digests.setdefault(key, found)
        if expected != found:
            self.fail(f"digest mismatch at {key}: {found[:12]} != {expected[:12]}")
            return False
        return True

    def fail(self, note: str) -> None:
        with self._lock:
            self.failures.append(note)

    def timed(self, phase: str) -> list[Action]:
        return [a for a in self.actions if a.phase == phase]

    def tick(self, n: int = 1) -> None:
        """Sample the host's speed ``n`` times."""
        for _ in range(n):
            seconds = speed_kernel()
            self.ticks.append((time.perf_counter(), seconds))

    def slowdown(self, at: float, window: float = 1.5) -> float:
        """How much slower than the reference the host ran around ``at``:
        the mean kernel time within ``window`` seconds (or of the eight
        nearest samples) over the reference time.  The mean, because a
        burst of interference that the median would ignore did slow the
        requests around it."""
        times, seconds = self._tick_arrays()
        low = int(np.searchsorted(times, at - window, "left"))
        high = int(np.searchsorted(times, at + window, "right"))
        if high - low < 8:
            middle = int(np.searchsorted(times, at))
            low, high = max(0, middle - 4), min(len(times), middle + 4)
        return float(np.mean(seconds[low:high])) / KERNEL_REFERENCE_S

    def at_reference(self, start: float, end: float) -> float:
        """The span ``[start, end]`` in seconds at the reference speed:
        each half second of it divided by the slowdown around it."""
        pieces = max(1, int((end - start) / 0.5))
        step = (end - start) / pieces
        return sum(
            step / self.slowdown(start + (index + 0.5) * step)
            for index in range(pieces)
        )

    def _tick_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._tick_cache is None or len(self._tick_cache[0]) != len(self.ticks):
            ordered = np.array(sorted(self.ticks))
            self._tick_cache = (ordered[:, 0], ordered[:, 1])
        return self._tick_cache


class Client:
    """One keep-alive connection issuing timed requests into a ledger."""

    def __init__(self, port: int, ledger: Ledger, phase: str) -> None:
        self._port = port
        self._ledger = ledger
        self.phase = phase
        self._last_tick = 0.0
        self._connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )

    def close(self) -> None:
        self._connection.close()

    def raw(
        self, method: str, path: str, body: object = None
    ) -> tuple[int, bytes, float]:
        """One request; returns (status, body, seconds).  Status 0: no answer."""
        payload = None if body is None else json.dumps(body)
        started = time.perf_counter()
        try:
            self._connection.request(method, path, body=payload)
            response = self._connection.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self._connection.close()
            self._connection = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=REQUEST_TIMEOUT_S
            )
            data, status = b"", 0
        return status, data, time.perf_counter() - started

    def act(
        self,
        kind: str,
        method: str,
        path: str,
        body: object = None,
        *,
        visit_key: str,
        oracle: tuple[str, str] | None = None,
    ) -> dict | None:
        """A timed, checked operation; returns the payload or ``None``.

        ``oracle`` is ``(key, field)``: the response's ``field`` must
        digest to what ``key`` digested to on every earlier serving.
        """
        ledger = self._ledger
        action_id = len(ledger.actions)
        with ledger.spans.span(f"http.{kind}", action=action_id):
            status, data, seconds = self.raw(method, path, body)
        ended = time.perf_counter()
        payload: dict | None = None
        ok = status == 200
        if ok:
            try:
                payload = json.loads(data)
            except ValueError:
                ok = False
            else:
                ok = bool(payload.get("ok")) and not payload.get("degraded")
        if not ok:
            ledger.fail(f"{kind} {path} -> {status} {data[:160]!r}")
            payload = None
        elif oracle is not None:
            key, field_name = oracle
            if not ledger.check(key, payload.get(field_name)):
                ok, payload = False, None
        ledger.actions.append(
            Action(
                kind=kind,
                phase=self.phase,
                seconds=seconds,
                n_bytes=len(data),
                ok=ok,
                first_visit=ledger.first_visit(visit_key),
                ended=ended,
            )
        )
        if ended - self._last_tick >= TICK_EVERY_S:
            ledger.tick()
            self._last_tick = time.perf_counter()
        return payload


# ----------------------------------------------------------------------
# The walker
# ----------------------------------------------------------------------


def _leaves(data_map: dict) -> list[dict]:
    leaves: list[dict] = []
    stack = [data_map["root"]]
    while stack:
        node = stack.pop()
        children = node.get("children") or []
        if children:
            stack.extend(children)
        else:
            leaves.append(node)
    return leaves


def _rows(leaf: dict) -> int:
    """A leaf's row count: ``value`` in session maps (the treemap
    export), ``n_rows`` in the stateless resource's plain form."""
    return int(leaf["value"] if "value" in leaf else leaf["n_rows"])


def big_regions(data_map: dict) -> list[dict]:
    """Leaves worth acting on, largest first (ties by id)."""
    keep = [leaf for leaf in _leaves(data_map) if _rows(leaf) >= MIN_REGION_ROWS]
    keep.sort(key=lambda leaf: (-_rows(leaf), str(leaf["id"])))
    return keep


def check_map(
    ledger: Ledger, key: str, data_map: dict, expected_rows: int | None
) -> None:
    """Exact-count invariants: the leaves tile the selection."""
    total = sum(_rows(leaf) for leaf in _leaves(data_map))
    n_rows = int(data_map.get("n_rows", -1))
    if data_map.get("counts_status") != "exact":
        ledger.fail(f"{key}: counts are {data_map.get('counts_status')!r}, not exact")
    if total != n_rows:
        ledger.fail(f"{key}: leaves hold {total} rows, the map says {n_rows}")
    if expected_rows is not None and n_rows != expected_rows:
        ledger.fail(f"{key}: map over {n_rows} rows, expected {expected_rows}")


class Walker:
    """Executes walks against one server for one client."""

    def __init__(
        self, client: Client, ledger: Ledger, table_rows: dict[str, int]
    ) -> None:
        self._client = client
        self._ledger = ledger
        self._table_rows = table_rows

    def themes(self, table: str) -> dict | None:
        return self._client.act(
            "themes",
            "GET",
            f"/v1/tables/{table}/themes",
            visit_key=f"{table}|themes",
            oracle=(f"{table}|themes", "themes"),
        )

    def walk(self, walk: Walk, session: str) -> bool:
        """Open ``walk``'s theme, then take its steps; ``False`` on failure."""
        table = walk.table
        state = f"{table}|open:{walk.theme}"
        payload = self._command(
            "open", {"session": session, "table": table, "theme": walk.theme}, state
        )
        if payload is None:
            return False
        check_map(self._ledger, state, payload["map"], self._table_rows[table])
        #: (state key, map, theme) frames, as the server's Explorer stacks them.
        frames = [(state, payload["map"], walk.theme)]
        for step in walk.steps:
            if not self._step(step, session, table, frames):
                return False
        return True

    def _command(
        self, kind: str, body: dict, state: str, field_name: str = "map"
    ) -> dict | None:
        return self._client.act(
            kind,
            "POST",
            f"/v1/commands/{kind}",
            body,
            visit_key=state,
            oracle=(state, field_name),
        )

    def _step(self, step: Step, session: str, table: str, frames: list) -> bool:
        state, data_map, theme = frames[-1]
        kind = step.kind
        if kind in ("zoom", "highlight"):
            regions = big_regions(data_map)
            if not regions:
                kind = "map"  # nothing large enough left: look again instead
            else:
                region = regions[step.pick % len(regions)]
        if kind == "zoom":
            new_state = f"{state}/zoom:{region['id']}"
            payload = self._command(
                "zoom", {"session": session, "region": region["id"]}, new_state
            )
            if payload is None:
                return False
            check_map(self._ledger, new_state, payload["map"], int(region["value"]))
            frames.append((new_state, payload["map"], theme))
        elif kind == "highlight":
            payload = self._command(
                "highlight",
                {"session": session, "region": region["id"]},
                f"{state}/highlight:{region['id']}",
                field_name="highlight",
            )
            if payload is None:
                return False
            if int(payload["highlight"]["n_rows"]) != int(region["value"]):
                self._ledger.fail(
                    f"{state}: highlight of {region['id']} counts "
                    f"{payload['highlight']['n_rows']}, the map {region['value']}"
                )
        elif kind == "project":
            new_state = f"{state}/project:{step.pick}"
            payload = self._command(
                "project", {"session": session, "theme": step.pick}, new_state
            )
            if payload is None:
                return False
            check_map(self._ledger, new_state, payload["map"], int(data_map["n_rows"]))
            frames.append((new_state, payload["map"], step.pick))
        elif kind == "map":
            if self._command("map", {"session": session}, state) is None:
                return False
        elif kind == "rollback":
            if len(frames) < 2:
                return True
            if self._command("rollback", {"session": session}, frames[-2][0]) is None:
                return False
            frames.pop()
        elif kind == "close":
            payload = self._client.act(
                "close",
                "POST",
                "/v1/commands/close",
                {"session": session},
                visit_key=f"{table}|close",
            )
            return payload is not None
        elif kind == "get_map":
            key = f"{table}|get_map:{theme}:{step.pick}"
            payload = self._client.act(
                "get_map",
                "GET",
                f"/v1/tables/{table}/map?theme={theme}&k={step.pick}",
                visit_key=key,
                oracle=(key, "map"),
            )
            if payload is None:
                return False
            check_map(self._ledger, key, payload["map"], self._table_rows[table])
        elif kind == "suggestions":
            key = f"{table}|suggestions:{theme}"
            payload = self._client.act(
                "suggestions",
                "GET",
                f"/v1/tables/{table}/suggestions?theme={theme}",
                visit_key=key,
                oracle=(key, "suggestions"),
            )
            return payload is not None
        else:
            raise ValueError(f"unknown step kind {kind!r}")
        return True
