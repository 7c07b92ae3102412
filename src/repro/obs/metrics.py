"""The process-global metric registry (Prometheus text exposition).

Grown out of the serving layer's private registry: counters keyed
by (route, status), log-bucketed latency histograms, named counters,
named histograms and gauges — all thread-safe, all rendered by
:meth:`Metrics.render` into the ``/metrics`` body.

Promotion to :mod:`repro.obs` adds three things:

* a **process-global registry** (:func:`get_metrics`), so the cluster,
  store, graph and pipeline layers record uniformly whether or not the
  service is running;
* **named histograms** (:meth:`Metrics.observe`) for per-stage and
  per-scan latencies, not just per-route request latencies;
* **validation at registration time**: malformed metric names and label
  values containing ``\\n`` or ``"`` are rejected with ``ValueError``
  instead of silently corrupting the exposition body
  (:func:`escape_label_value` sanitizes untrusted label inputs first).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left

__all__ = [
    "BUCKETS",
    "Histogram",
    "Metrics",
    "escape_label_value",
    "get_metrics",
    "reset_metrics",
    "set_global_metrics",
]

#: Every histogram's latency buckets (seconds): 1 ms … 10 s, roughly
#: log-spaced.
BUCKETS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: The Prometheus metric-name grammar.
_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")


def _validate_name(name: str) -> str:
    if not isinstance(name, str) or _NAME_RE.match(name) is None:
        raise ValueError(
            f"invalid metric name {name!r}: must match "
            "[a-zA-Z_:][a-zA-Z0-9_:]*"
        )
    return name


def _has_unescaped_quote(value: str) -> bool:
    backslashes = 0
    for char in value:
        if char == "\\":
            backslashes += 1
            continue
        if char == '"' and backslashes % 2 == 0:
            return True
        backslashes = 0
    return False


def _validate_label_value(value: str) -> str:
    if (
        not isinstance(value, str)
        or "\n" in value
        or _has_unescaped_quote(value)
    ):
        raise ValueError(
            f"invalid label value {value!r}: raw newlines and unescaped "
            "double quotes would corrupt the exposition body; "
            "escape_label_value() first"
        )
    return value


def escape_label_value(value: str) -> str:
    """Make an untrusted string safe to use as a label value.

    Escapes backslashes, double quotes and newlines per the exposition
    format.  Every label the serving layer records today is a fixed
    string (an unmatched request path becomes
    :func:`repro.service.routes.unknown_label`), so nothing calls this
    yet; a label built from request input must go through it first.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class Histogram:
    """A histogram of observed values (seconds) over :data:`BUCKETS`."""

    def __init__(self) -> None:
        self._counts = [0] * (len(BUCKETS) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(BUCKETS, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(BUCKETS, counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Approximate quantile (upper bucket bound); 0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        cumulative = self.cumulative()
        total = cumulative[-1][1]
        if total == 0:
            return 0.0
        threshold = q * total
        for bound, running in cumulative:
            if running >= threshold:
                return bound if bound != float("inf") else BUCKETS[-1]
        return BUCKETS[-1]  # pragma: no cover - loop always returns


class Metrics:
    """One metric registry.

    ``observe_request`` is the write path of the HTTP layer;
    ``increment`` / ``observe`` / ``set_gauge`` are the generic write
    paths every other layer shares.  Names and label values are
    validated at registration time (see the module docstring).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests: dict[tuple[str, int], int] = {}
        self._latency: dict[str, Histogram] = {}
        self._gauges: dict[str, float] = {}
        self._counters: dict[str, int] = {}
        self._labeled: dict[str, dict[tuple[tuple[str, str], ...], int]] = {}
        self._histograms: dict[str, Histogram] = {}

    def observe_request(self, route: str, status: int, seconds: float) -> None:
        """Record one finished HTTP request."""
        _validate_label_value(route)
        with self._lock:
            key = (route, int(status))
            self._requests[key] = self._requests.get(key, 0) + 1
            histogram = self._latency.get(route)
            if histogram is None:
                histogram = self._latency[route] = Histogram()
        histogram.observe(seconds)

    def set_gauge(self, name: str, value: float) -> None:
        """Set an instantaneous value (cache size, pool depth, …)."""
        _validate_name(name)
        with self._lock:
            self._gauges[name] = float(value)

    def increment(self, name: str, by: int = 1) -> None:
        """Add to a monotonic named counter (created at first use).

        The generic sibling of ``observe_request`` for non-HTTP events —
        the graph engine counts its builds and cache hits here, so the
        same numbers back both ``/metrics`` and the CLI's build report.
        """
        with self._lock:
            if name not in self._counters:
                _validate_name(name)  # once, when the counter is registered
            self._counters[name] = self._counters.get(name, 0) + by

    def counter(self, name: str) -> int:
        """Current value of a named counter (0 before first increment)."""
        with self._lock:
            return self._counters.get(name, 0)

    def increment_labeled(self, name: str, labels: dict[str, str]) -> None:
        """Add one to a labeled series of a monotonic counter.

        The labeled sibling of :meth:`increment` — one counter name
        carries several ``{label="value"}`` series (the tiered cache
        splits its hits by ``tier``).  Label names follow the metric
        grammar; label values must already be exposition-safe
        (:func:`escape_label_value` untrusted input first).
        """
        key = tuple(sorted(labels.items()))
        with self._lock:
            series = self._labeled.get(name)
            if series is None or key not in series:
                # Validated once, when the series is registered.
                _validate_name(name)
                if not key:
                    raise ValueError("labeled counters need at least one label")
                for label, value in key:
                    _validate_name(label)
                    _validate_label_value(value)
                series = self._labeled.setdefault(name, {})
            series[key] = series.get(key, 0) + 1

    def labeled(self, name: str, labels: dict[str, str]) -> int:
        """Current value of one labeled counter series (0 before its
        first increment)."""
        key = tuple(sorted(labels.items()))
        with self._lock:
            return self._labeled.get(name, {}).get(key, 0)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram.

        The per-stage and per-scan latency path: every layer observes
        under its own ``blaeu_*_seconds`` name and ``/metrics`` renders
        them all uniformly.
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                _validate_name(name)
                histogram = self._histograms[name] = Histogram()
        histogram.observe(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def histogram(self, route: str) -> Histogram | None:
        """The latency histogram of ``route`` (``None`` before traffic)."""
        with self._lock:
            return self._latency.get(route)

    def render(self) -> str:
        """The Prometheus-style text body served at ``/metrics``."""
        with self._lock:
            requests = dict(self._requests)
            latency = dict(self._latency)
            gauges = dict(self._gauges)
            counters = dict(self._counters)
            labeled = {
                name: dict(series) for name, series in self._labeled.items()
            }
            histograms = dict(self._histograms)
        lines: list[str] = []
        lines.append("# TYPE blaeu_requests_total counter")
        for (route, status), count in sorted(requests.items()):
            lines.append(
                f'blaeu_requests_total{{route="{route}",status="{status}"}} '
                f"{count}"
            )
        lines.append("# TYPE blaeu_request_seconds histogram")
        for route, histogram in sorted(latency.items()):
            _render_histogram(
                lines, "blaeu_request_seconds", histogram, f'route="{route}",'
            )
        for name, value in sorted(counters.items()):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {value}")
        for name, series in sorted(labeled.items()):
            lines.append(f"# TYPE {name} counter")
            for key, value in sorted(series.items()):
                rendered = ",".join(f'{k}="{v}"' for k, v in key)
                lines.append(f"{name}{{{rendered}}} {value}")
        for name, histogram in sorted(histograms.items()):
            lines.append(f"# TYPE {name} histogram")
            _render_histogram(lines, name, histogram, "")
        for name, value in sorted(gauges.items()):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {value:g}")
        return "\n".join(lines) + "\n"


def _render_histogram(
    lines: list[str], name: str, histogram: Histogram, label_prefix: str
) -> None:
    for bound, running in histogram.cumulative():
        label = "+Inf" if bound == float("inf") else f"{bound:g}"
        lines.append(
            f'{name}_bucket{{{label_prefix}le="{label}"}} {running}'
        )
    if label_prefix:
        labels = "{" + label_prefix.rstrip(",") + "}"
    else:
        labels = ""
    lines.append(f"{name}_sum{labels} {histogram.sum:.6f}")
    lines.append(f"{name}_count{labels} {histogram.count}")


# ----------------------------------------------------------------------
# The process-global registry
# ----------------------------------------------------------------------

_GLOBAL = Metrics()


def get_metrics() -> Metrics:
    """The process-global registry every layer records into by default."""
    return _GLOBAL


def set_global_metrics(metrics: Metrics) -> Metrics:
    """Install ``metrics`` as the process-global registry."""
    global _GLOBAL
    _GLOBAL = metrics
    return metrics


def reset_metrics() -> Metrics:
    """Install (and return) a fresh process-global registry.

    The shell calls this at construction so its build reports start
    from zero, and tests call it (or have their fixture call it) to
    count from zero.  A service does not: one process has one registry,
    which every layer records into at each event.
    """
    return set_global_metrics(Metrics())
