"""The serving layer: a concurrent HTTP front-end over the engine.

The paper's architecture (Figure 4) puts a server between the browser
and the DBMS; this package is that tier, grown for the ROADMAP's
"heavy traffic" north star:

* :mod:`repro.service.cache` — the in-memory LRU+TTL result cache and
  the :class:`TieredCache` that stacks it over the shared on-disk
  :class:`~repro.store.artifacts.ArtifactCache` (or over nothing): the
  one cache shape the service installs.
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
  and the supervisor behind ``blaeu serve --workers N``, a stdlib-only
  proxy over spawned ``python -m repro serve`` workers.

Import names from their submodules: this package re-exports nothing, so
importing the supervisor does not import the engine.
"""
