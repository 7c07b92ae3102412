"""Statistical dependency measures for the dependency graph.

The paper builds its dependency graph from pairwise column dependencies
and picks mutual information "because it is very flexible: it copes with
mixed values and it is sensitive to non-linear relationships" (§3).  This
package implements that estimator (via discretization, all pairs at once
in :mod:`repro.stats.batched`) and the normalization the preprocessing
stage needs; it is the one dependency measure Blaeu uses.  The one-pair-at-a-time
scalar estimators the batched kernels are checked against are test
oracles, kept under ``tests/``.
"""

from repro.stats.batched import (
    ColumnCodes,
    StreamingPairwiseNMI,
    pairwise_nmi_matrix,
)
from repro.stats.discretize import (
    apply_bin_cuts,
    equal_frequency_cuts,
    suggest_bin_count,
)
from repro.stats.entropy import c_log_c, entropies_from_sums
from repro.stats.normalize import zscore

__all__ = [
    "ColumnCodes",
    "StreamingPairwiseNMI",
    "apply_bin_cuts",
    "c_log_c",
    "entropies_from_sums",
    "equal_frequency_cuts",
    "pairwise_nmi_matrix",
    "suggest_bin_count",
    "zscore",
]
