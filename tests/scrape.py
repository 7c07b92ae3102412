"""Read the metrics registry the way a scraper does.

``Metrics.render()`` is the body ``/metrics`` serves, so a test that
reads its numbers here checks what an operator sees, and the registry
needs no reader of its own that only tests call.
"""

from __future__ import annotations

import re

from repro.obs.metrics import Metrics

_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def scraped(metrics: Metrics | str, name: str, **labels: str) -> float:
    """The sum of every sample of ``name`` in ``metrics.render()`` (or in
    an exposition text already fetched from ``/metrics``) whose label set
    holds ``labels`` (label values as rendered, escapes kept); 0 when
    none is rendered yet."""
    text = metrics if isinstance(metrics, str) else metrics.render()
    total = 0.0
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        series_name, _, label_text = series.partition("{")
        if series_name != name:
            continue
        found = dict(_LABEL.findall(label_text))
        if all(found.get(key) == wanted for key, wanted in labels.items()):
            total += float(value)
    return total
