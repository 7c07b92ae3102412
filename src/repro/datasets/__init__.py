"""Demo datasets — synthetic stand-ins for the paper's three databases.

The paper demonstrates Blaeu on the Hollywood movie dataset (~900×12),
the OECD Countries-and-Work dataset (6,823×378, 31 countries) and the
LOFAR radio-astronomy catalog (100,000s × dozens).  None of those files
ship with the paper, so this package generates seeded synthetic tables
matching their published shapes, mixed types, missing-value rates and —
crucially for evaluation — with *planted* themes and clusters whose
recovery ``tests/paper/`` scores.  (The generic generators with known
ground truth that the tests build their tables from live under
``tests/``.)
"""

from repro.datasets.hollywood import hollywood
from repro.datasets.lofar import lofar
from repro.datasets.oecd import oecd

__all__ = [
    "hollywood",
    "lofar",
    "oecd",
]
