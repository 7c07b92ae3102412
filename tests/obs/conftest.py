"""Keep the process-global tracer and metrics out of other tests."""

from __future__ import annotations

import pytest

from repro.obs.metrics import get_metrics, set_global_metrics
from repro.obs.trace import get_tracer, set_tracer


@pytest.fixture(autouse=True)
def restore_obs_globals():
    """Snapshot and restore the obs globals around every test."""
    tracer = get_tracer()
    metrics = get_metrics()
    yield
    set_tracer(tracer)
    set_global_metrics(metrics)
