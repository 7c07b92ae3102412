"""Every example runs to completion.

The examples are entry points: the reachability guard
(``tests/test_reachability.py``) counts what they call as reached, so an
example that no longer runs would keep dead code alive unnoticed.  Each
runs in a fresh interpreter, as a user would start it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_there_are_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.name)
def test_the_example_runs(example):
    result = subprocess.run(
        [sys.executable, str(example)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
