"""The serving layer's options, each declared once.

Every leaf of :class:`ServiceConfig` is a dataclass field; the ones a
deployment sets carry their ``blaeu serve`` flag, their ``BLAEU_*``
override and their help text as field metadata.  Everything else is
derived from those declarations (:data:`OPTIONS`):

* :func:`add_flags` — the ``serve`` flags.  An unset flag is ``None``,
  so the environment can win;
* :func:`resolve` — explicit > environment > default, and the only
  place serving code reads ``os.environ``.  Range checks live in the
  dataclasses' ``__post_init__`` and nowhere else;
* :func:`worker_env` — the supervisor → worker hand-off: the *resolved*
  config exported as the same variables, so a fleet cannot disagree
  with its front.

``BLAEU_FAULTS`` is not a serving option: it is read one layer below
the service (at the fault points), so ``blaeu serve --faults`` exports
it and every worker inherits it.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Iterator, Mapping, get_args, get_type_hints

__all__ = [
    "OPTIONS",
    "CacheConfig",
    "GuideConfig",
    "Option",
    "PoolConfig",
    "ResilienceConfig",
    "ServiceConfig",
    "TraceConfig",
    "add_flags",
    "resolve",
    "worker_env",
]


def _option(default: object, flag: str | None, env: str | None, help: str):
    """A config leaf a deployment can set: by ``flag``, by ``env``, or both."""
    return field(
        default=default, metadata={"flag": flag, "env": env, "help": help}
    )


@dataclass(frozen=True)
class CacheConfig:
    """The result-cache tiers: in-memory L1, optional on-disk L2.

    ``dir=None`` disables the disk tier (single-process default);
    pointing several workers at one ``dir`` is what shares warm
    artifacts across processes and restarts.
    """

    size: int = _option(
        256, "--cache-size", "BLAEU_CACHE_SIZE", "shared map-cache capacity (entries)"
    )
    ttl: float | None = _option(
        None,
        "--cache-ttl",
        "BLAEU_CACHE_TTL",
        "map-cache entry lifetime in seconds (default: no expiry)",
    )
    dir: str | None = _option(
        None,
        "--cache-dir",
        "BLAEU_CACHE_DIR",
        "shared on-disk artifact cache (the L2 tier); created if "
        "missing.  Workers of one supervisor always share a cache dir "
        "(when this is unset, a temp dir the fleet removes on stop)",
    )
    # The literal keeps this module (and so the supervisor) free of the
    # store and the engine; a test pins it to ArtifactCache's default.
    disk_bytes: int = _option(
        1 << 30,
        "--cache-disk-bytes",
        "BLAEU_CACHE_DISK_BYTES",
        "size budget of --cache-dir before LRU eviction",
    )

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("cache_size must be at least 1")
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError("cache_ttl must be positive (or None)")
        if self.disk_bytes < 1:
            raise ValueError("cache disk_bytes must be positive")


@dataclass(frozen=True)
class TraceConfig:
    """Observability knobs (tracing, slow-op log, access log)."""

    enabled: bool = _option(
        False,
        "--trace",
        "BLAEU_TRACE",
        "record request traces (served at /v1/traces, headers carry "
        "X-Blaeu-Trace)",
    )
    buffer_size: int = _option(
        512,
        "--trace-buffer",
        "BLAEU_TRACE_BUFFER",
        "spans retained in the trace ring buffer",
    )
    slow_op_threshold: float | None = _option(
        None,
        "--slow-op-threshold",
        "BLAEU_SLOW_OP_THRESHOLD",
        "log any span at least this slow (default: off)",
    )
    access_log: bool = _option(
        False,
        "--access-log",
        "BLAEU_ACCESS_LOG",
        "log one structured line per request to stderr",
    )

    def __post_init__(self) -> None:
        if self.buffer_size < 1:
            raise ValueError("trace_buffer_size must be at least 1")
        if self.slow_op_threshold is not None and self.slow_op_threshold <= 0:
            raise ValueError("slow_op_threshold must be positive (or None)")


@dataclass(frozen=True)
class PoolConfig:
    """Concurrency shape: threads per worker, processes per service.

    ``max_pending=None`` sizes the admission bound to the pool —
    ``max(64, 4 × threads)`` — so a large ``threads`` never trips the
    ``max_pending >= threads`` invariant by itself.
    """

    threads: int = _option(
        4, "--threads", "BLAEU_THREADS", "worker threads per process for map builds"
    )
    max_pending: int | None = _option(
        None,
        None,
        "BLAEU_MAX_PENDING",
        "admission bound: in-flight plus queued pool jobs before 503 "
        "(default: max(64, 4 x threads))",
    )
    processes: int = _option(
        1,
        "--workers",
        "BLAEU_WORKERS",
        "worker *processes*; more than one boots the supervisor over "
        "a shared on-disk artifact cache",
    )

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.max_pending is None:
            object.__setattr__(self, "max_pending", max(64, self.threads * 4))
        if self.max_pending < self.threads:
            raise ValueError("max_pending must be >= threads")
        if self.processes < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class GuideConfig:
    """Guided exploration: suggestion depth and speculative prefetch.

    ``prefetch`` is opt-in: when on, every served map/theme response
    plans the top-``top_n`` suggested next actions and builds them as
    background pool jobs into the shared cache (at most
    ``prefetch_jobs`` at a time, only on idle workers, cancelled when
    the user navigates elsewhere).  Suggestions themselves are always
    available — the ``/v1/.../suggestions`` endpoint and the
    ``suggest`` command work with prefetch off.
    """

    top_n: int = _option(
        3,
        "--guide-top-n",
        "BLAEU_GUIDE_TOP_N",
        "suggestions per /suggestions response and actions warmed per "
        "speculation",
    )
    prefetch: bool = _option(
        False,
        "--prefetch",
        "BLAEU_GUIDE_PREFETCH",
        "speculatively build the top suggested next maps into the "
        "shared cache after each served map (idle workers only)",
    )
    prefetch_jobs: int = _option(
        1,
        "--guide-prefetch-jobs",
        "BLAEU_GUIDE_PREFETCH_JOBS",
        "maximum concurrent speculative builds",
    )

    def __post_init__(self) -> None:
        if self.top_n < 1:
            raise ValueError("guide top_n must be at least 1")
        if self.prefetch_jobs < 1:
            raise ValueError("guide prefetch_jobs must be at least 1")


@dataclass(frozen=True)
class ResilienceConfig:
    """Deadlines, degradation and the L2 circuit breaker.

    ``request_deadline=None`` means requests carry no default budget —
    only an explicit ``X-Blaeu-Deadline`` header installs one.  The
    header, when present, always wins (clamped to ``max_deadline``).

    ``degrade_when_busy`` lets map requests fall back to
    ``count_mode="approximate"`` when every pool thread is busy or the
    request's remaining budget is short — a fast degraded answer
    instead of an exact one that would queue past its deadline.
    """

    request_deadline: float | None = _option(
        None,
        "--request-deadline",
        "BLAEU_REQUEST_DEADLINE",
        "default per-request time budget; requests past it get a 504 "
        "(clients can override per request with X-Blaeu-Deadline; "
        "default: no deadline)",
    )
    max_deadline: float = 300.0
    drain_timeout: float = _option(
        5.0,
        "--drain-timeout",
        "BLAEU_DRAIN_TIMEOUT",
        "seconds to let in-flight requests finish on shutdown or "
        "worker restart",
    )
    degrade_when_busy: bool = _option(
        True,
        None,
        "BLAEU_DEGRADE_WHEN_BUSY",
        "serve approximate counts when every pool thread is busy or "
        "the request's budget is nearly spent",
    )
    degrade_remaining: float = 1.0
    background_deadline: float = _option(
        30.0,
        None,
        "BLAEU_BACKGROUND_DEADLINE",
        "time budget of one background pool job (count refinement, "
        "speculative prefetch)",
    )
    breaker_failures: int = _option(
        3,
        None,
        "BLAEU_BREAKER_FAILURES",
        "consecutive disk-tier failures that open the L2 circuit breaker",
    )
    breaker_recovery: float = _option(
        5.0,
        None,
        "BLAEU_BREAKER_RECOVERY",
        "seconds an open L2 breaker waits before probing the disk again",
    )
    breaker_latency: float | None = _option(
        None,
        None,
        "BLAEU_BREAKER_LATENCY",
        "count a disk-tier call at least this slow as a failure "
        "(default: latency is not judged)",
    )

    def __post_init__(self) -> None:
        if self.request_deadline is not None and self.request_deadline <= 0:
            raise ValueError("request_deadline must be positive (or None)")
        if self.max_deadline <= 0:
            raise ValueError("max_deadline must be positive")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")
        if self.background_deadline <= 0:
            raise ValueError("background_deadline must be positive")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be at least 1")
        if self.breaker_recovery <= 0:
            raise ValueError("breaker_recovery must be positive")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the serving layer (the engine has its own config).

    Constructing one reads nothing but its arguments; a deployment's
    flags and ``BLAEU_*`` environment become one through
    :func:`resolve`.
    """

    host: str = _option("127.0.0.1", "--host", None, "bind address")
    port: int = _option(8787, "--port", None, "bind port (0: pick free)")
    read_timeout: float = 30.0
    cache: CacheConfig = field(default_factory=CacheConfig)
    trace: TraceConfig = field(default_factory=TraceConfig)
    pool: PoolConfig = field(default_factory=PoolConfig)
    guide: GuideConfig = field(default_factory=GuideConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")
_NOUNS = {int: "an integer", float: "a number"}


@dataclass(frozen=True)
class Option:
    """One declared leaf of :class:`ServiceConfig`."""

    #: The nested group's field name; ``None`` for a top-level leaf.
    group: str | None
    name: str
    kind: type
    default: object
    flag: str | None
    env: str | None
    help: str

    @property
    def path(self) -> str:
        """The leaf's dotted name (``cache.size``); also its flag's dest."""
        return f"{self.group}.{self.name}" if self.group else self.name

    def of(self, config: ServiceConfig) -> object:
        """This option's value in ``config``."""
        owner = getattr(config, self.group) if self.group else config
        return getattr(owner, self.name)

    def parse(self, text: str) -> object:
        """The value an environment string spells (``ValueError`` names
        the variable)."""
        if self.kind is bool:
            lowered = text.lower()
            if lowered in _TRUE or lowered in _FALSE:
                return lowered in _TRUE
            raise ValueError(f"{self.env} must be a boolean flag, got {text!r}")
        try:
            return self.kind(text)
        except ValueError:
            raise ValueError(
                f"{self.env} must be {_NOUNS[self.kind]}, got {text!r}"
            ) from None


def _declared(cls: type, group: str | None = None) -> Iterator[Option]:
    hints = get_type_hints(cls)
    for leaf in fields(cls):
        kind = hints[leaf.name]
        if is_dataclass(kind):
            yield from _declared(kind, leaf.name)
        elif leaf.metadata:
            # ``float | None`` parses as its value type; None is "unset".
            kind = (get_args(kind) or (kind,))[0]
            yield Option(group, leaf.name, kind, leaf.default, **leaf.metadata)


#: Every option a deployment can set, in declaration order.
OPTIONS: tuple[Option, ...] = tuple(_declared(ServiceConfig))


def add_flags(parser: argparse.ArgumentParser) -> None:
    """Add every declared flag to ``parser``, unset meaning ``None``.

    A flag's dest is its option's :attr:`~Option.path`, so
    ``vars(parser.parse_args())`` is :func:`resolve`'s ``explicit``.
    """
    for option in OPTIONS:
        if option.flag is None:
            continue
        notes = []
        if option.default is not None and option.kind is not bool:
            notes.append(f"default {option.default}")
        if option.env is not None:
            notes.append(f"env {option.env}")
        shape: dict[str, object] = (
            {"action": "store_const", "const": True}
            if option.kind is bool
            else {"type": option.kind, "metavar": option.name.upper()}
        )
        parser.add_argument(
            option.flag,
            dest=option.path,
            default=None,
            help=option.help + (f" [{'; '.join(notes)}]" if notes else ""),
            **shape,
        )


def resolve(
    explicit: Mapping[str, object] | None = None,
    environ: Mapping[str, str] | None = None,
) -> ServiceConfig:
    """The config a deployment asked for: explicit > environment > default.

    ``explicit`` maps option paths (``"cache.size"``) to values, ``None``
    meaning "not given"; ``environ`` defaults to ``os.environ``, where a
    blank variable counts as unset.  Raises ``ValueError`` — naming the
    variable for a malformed one, from ``__post_init__`` for a value out
    of range.
    """
    explicit = {} if explicit is None else explicit
    environ = os.environ if environ is None else environ
    chosen: dict[str | None, dict[str, object]] = {}
    for option in OPTIONS:
        value = explicit.get(option.path)
        if value is None and option.env is not None:
            text = environ.get(option.env, "").strip()
            if text:
                value = option.parse(text)
        if value is not None:
            chosen.setdefault(option.group, {})[option.name] = value
    groups = get_type_hints(ServiceConfig)
    return ServiceConfig(
        **chosen.pop(None, {}),
        **{name: groups[name](**values) for name, values in chosen.items()},
    )


def worker_env(
    config: ServiceConfig, inherited: Mapping[str, str]
) -> dict[str, str]:
    """The environment a supervisor boots its workers under.

    ``inherited`` with every serving option replaced by its resolved
    value, so :func:`resolve` in the worker rebuilds what the
    supervisor resolved — whatever mix of flags and variables that came
    from.  The process count is never handed down (a worker is one
    process); host and port have no variable (the supervisor passes
    each worker's as flags).
    """
    names = {option.env for option in OPTIONS}
    env = {k: v for k, v in inherited.items() if k not in names}
    for option in OPTIONS:
        value = option.of(config)
        if option.env and value is not None and option.path != "pool.processes":
            env[option.env] = str(value)
    return env
