"""The navigation-latency ledger: an end-to-end benchmark of ``blaeu serve``.

``benchmarks/e2e/run.py`` is the entry point; see ``README.md`` beside it
for what every workload and metric means.
"""
