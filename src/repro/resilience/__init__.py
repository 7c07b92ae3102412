"""Resilience primitives for the serving stack.

Four small, composable pieces:

- :mod:`repro.resilience.deadline` — per-request budgets carried via
  contextvars, with cooperative checkpoints in expensive stages.
- :mod:`repro.resilience.retry` — retry budgets and jittered backoff
  for the supervisor proxy.
- :mod:`repro.resilience.breaker` — a circuit breaker around the L2
  disk artifact tier.
- :mod:`repro.resilience.faults` — deterministic, seed-keyed fault
  injection powering the chaos tests
  (``tests/service/test_supervisor_resilience.py``).

Import names from their submodules: this package re-exports nothing, so
the supervisor's retry budget does not pull in the breaker, deadline
and fault machinery (or the metric registry they record into).
"""
