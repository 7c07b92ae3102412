"""The LOFAR scenario: a large table, sampled at interaction time.

The paper's third demo dataset is a radio-astronomy catalog with
"100,000s of tuples".  This example shows the engine staying interactive
at that scale: every map is built from a few-thousand-tuple sample (with
CLARA for the clustering), while region counts remain exact over the full
table.  It also demonstrates the highlight inspectors (text histogram and
scatter plot) on a zoomed population.

Run with::

    python examples/lofar_survey.py          # 200k rows (paper scale)
    python examples/lofar_survey.py 50000    # smaller, faster
"""

import sys
import time

import numpy as np

from repro import Blaeu, BlaeuConfig
from repro.datasets import lofar
from repro.viz import render_map, text_histogram, text_scatter


def main(n_rows: int) -> None:
    print(f"generating the LOFAR catalog ({n_rows:,} sources)…")
    table = lofar(n_rows=n_rows)

    engine = Blaeu(BlaeuConfig(map_sample_size=2000))
    engine.register(table)
    explorer = engine.explore("lofar")

    # Maps over the physical properties of the sources.
    columns = (
        "Flux150MHz",
        "SpectralIndex",
        "AngularSize",
        "AxisRatio",
        "Variability",
    )
    started = time.perf_counter()
    data_map = explorer.open_columns(columns)
    elapsed = time.perf_counter() - started
    print()
    print(render_map(data_map))
    print(
        f"(built from a {data_map.sample_size:,}-tuple sample of "
        f"{table.n_rows:,} in {elapsed:.2f}s)"
    )

    # Zoom into the largest population and inspect it.
    biggest = max(data_map.leaves(), key=lambda region: region.n_rows)
    started = time.perf_counter()
    explorer.zoom(biggest.region_id)
    elapsed = time.perf_counter() - started
    print()
    print(f"zoomed into {biggest.region_id} ({biggest.label}) in {elapsed:.2f}s")
    print(render_map(explorer.state.map))

    # Highlight: the classic univariate / bivariate inspectors.
    selection = table.select(explorer.state.selection)
    print()
    print(text_histogram(selection.column("SpectralIndex")))
    print()
    sample = selection.sample(1500, rng=np.random.default_rng(0))
    print(
        text_scatter(
            sample.column("AngularSize"),  # type: ignore[arg-type]
            sample.column("AxisRatio"),  # type: ignore[arg-type]
        )
    )

    print()
    print("implicit query:", explorer.sql())


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200_000)
