"""The serving layer: a concurrent HTTP front-end over the engine.

The paper's architecture (Figure 4) puts a server between the browser
and the DBMS; this package is that tier, grown for the ROADMAP's
"heavy traffic" north star:

* :mod:`repro.service.cache` — the in-memory LRU+TTL result cache and
  the memory/disk :class:`TieredCache` that stacks it over the shared
  on-disk :class:`~repro.store.artifacts.ArtifactCache`.
* :mod:`repro.service.pool` — a bounded worker pool that keeps slow
  map builds off the event loop.
* :mod:`repro.service.http` — a stdlib-only ``asyncio`` HTTP/1.1
  server.
* :mod:`repro.service.config` — every serving option declared once;
  the ``serve`` flags, the ``BLAEU_*`` overrides and the supervisor →
  worker hand-off are derived from the declarations.
* :mod:`repro.service.routes` — the route table worker and proxy both
  dispatch on.
* :mod:`repro.service.app` — the wiring: engine + session manager +
  cache tiers + pool behind the versioned ``/v1`` JSON API, with
  graceful shutdown.
* :mod:`repro.service.routing` / :mod:`repro.service.supervisor` — the
  multi-process tier: consistent-hash placement of table fingerprints
  and the pre-fork supervisor behind ``blaeu serve --workers N``.

This package is also the *facade* for the session tier: the entry
points of ``repro.server``'s submodules (session management, protocol
parsing, session persistence) are re-exported here.
"""

from repro.server.persistence import replay_session, save_session
from repro.server.protocol import (
    ErrorResponse,
    ProtocolError,
    Request,
    Response,
    parse_request,
)
from repro.server.session import Session, SessionManager
from repro.service.app import BlaeuService
from repro.service.cache import (
    CacheStats,
    LRUCache,
    TieredCache,
    TieredCacheStats,
)
from repro.service.config import (
    CacheConfig,
    GuideConfig,
    PoolConfig,
    ResilienceConfig,
    ServiceConfig,
    TraceConfig,
)
from repro.service.pool import PoolSaturatedError, WorkerPool
from repro.service.routing import HashRing
from repro.service.supervisor import Supervisor, SupervisorError

__all__ = [
    "BlaeuService",
    "CacheConfig",
    "CacheStats",
    "ErrorResponse",
    "GuideConfig",
    "HashRing",
    "LRUCache",
    "PoolConfig",
    "PoolSaturatedError",
    "ProtocolError",
    "Request",
    "ResilienceConfig",
    "Response",
    "ServiceConfig",
    "Session",
    "SessionManager",
    "Supervisor",
    "SupervisorError",
    "TieredCache",
    "TieredCacheStats",
    "TraceConfig",
    "WorkerPool",
    "parse_request",
    "replay_session",
    "save_session",
]
