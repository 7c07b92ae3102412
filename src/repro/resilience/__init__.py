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
"""

from repro.resilience.breaker import BreakerOpenError, CircuitBreaker
from repro.resilience.deadline import (
    Deadline,
    DeadlineExceeded,
    checkpoint,
    clear_deadline,
    current_deadline,
    deadline_scope,
    set_deadline,
)
from repro.resilience.faults import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
    clear_faults,
    corrupt_bytes,
    fault_point,
    install_faults,
)
from repro.resilience.retry import RetryBudget, jittered_backoff

__all__ = [
    "BreakerOpenError",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "RetryBudget",
    "checkpoint",
    "clear_deadline",
    "clear_faults",
    "corrupt_bytes",
    "current_deadline",
    "deadline_scope",
    "fault_point",
    "install_faults",
    "jittered_backoff",
    "set_deadline",
]
