"""Where generators are born: one allow-list, a reason per entry.

A build's randomness is a pure function of its content key
(:func:`repro.table.sampling.seed_for`).  That rule is only as good as
the absence of a second root, so this walk pins every place in ``src/``
that constructs a generator — the way
``tests/service/test_service_config.py`` pins ``os.environ`` reads.  A
new bare ``default_rng(config.seed)`` anywhere fails here — a second one
inside a listed function too: each site constructs exactly one
generator.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Constructors of a random stream: NumPy's and the stdlib's.
CONSTRUCTORS = {"default_rng", "Random"}

ALLOWED = {
    # Rooted at seed_for(content key).
    ("core/pipeline.py", "MapPipeline._chain_rng"): "seed_for(pipeline key)",
    ("core/pipeline.py", "MapPipeline._resume_rng"): (
        "an empty shell whose state is overwritten with the recorded "
        "post-sample state of the key-seeded chain"
    ),
    ("graph/dependency.py", "GraphBuilder._build"): "seed_for(graph key)",
    # Persisted formats: stored and served bytes depend on these seeds.
    ("graph/codes.py", "_cut_sample_rows"): "bin cuts, shared across processes",
    ("store/format.py", "write_priorities"): "priority.bin, written once",
    # Data generators: the caller's seed *is* the content.
    ("datasets/hollywood.py", "hollywood"): "dataset generator",
    ("datasets/lofar.py", "lofar"): "dataset generator",
    ("datasets/oecd.py", "oecd"): "dataset generator",
    # Timing, not results.
    ("service/supervisor.py", "Supervisor.__init__"): "retry back-off jitter",
}


def _call_sites(
    names: set[str], sources: dict[str, str] | None = None
) -> Counter[tuple[str, str]]:
    """How many calls to one of ``names`` each ``(file, enclosing def)``
    makes, over ``sources`` (path to text; all of ``src/`` by default)."""
    found: Counter[tuple[str, str]] = Counter()

    def visit(node: ast.AST, path: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call):
                callee = child.func
                name = getattr(callee, "attr", None) or getattr(callee, "id", None)
                if name in names:
                    found[(path, ".".join(scope) or "<module>")] += 1
            visit(child, path, inner)

    if sources is None:
        sources = {
            file.relative_to(SRC).as_posix(): file.read_text(encoding="utf-8")
            for file in sorted(SRC.rglob("*.py"))
        }
    for path, text in sources.items():
        visit(ast.parse(text), path, ())
    return found


def test_generators_are_born_only_at_the_listed_sites():
    assert _call_sites(CONSTRUCTORS) == dict.fromkeys(ALLOWED, 1)


def test_a_second_generator_at_a_listed_site_is_counted():
    planted = """
class MapPipeline:
    def _chain_rng(self, key):
        rng = np.random.default_rng(seed_for(key))
        spare = np.random.default_rng(self.config.seed)
        return rng
"""
    assert _call_sites(CONSTRUCTORS, {"core/pipeline.py": planted}) == {
        ("core/pipeline.py", "MapPipeline._chain_rng"): 2
    }


def test_no_salted_hash_can_reach_a_seed():
    """``hash(str)`` differs from interpreter to interpreter: the only
    calls left implement ``__hash__`` itself."""
    callers = {function for _, function in _call_sites({"hash"})}
    assert all(name.endswith(".__hash__") for name in callers), callers


def test_the_second_regime_left_no_name_behind():
    assert not (SRC / "core" / "mapping.py").exists()
    for file in sorted(SRC.rglob("*.py")):
        source = file.read_text(encoding="utf-8")
        for needle in ("_key_seed", "pipeline_reuse", "core.mapping"):
            assert needle not in source, (file.name, needle)


def _clara_draw_rows(seed: int) -> list[list[int]]:
    """The rows CLARA's first five draws pick, over 1 000 points, in a
    Cluster stage resumed from the post-sample state of a build whose
    Sample stage started at ``seed``."""
    import numpy as np

    from repro.core.config import BlaeuConfig
    from repro.core.pipeline import MapPipeline
    from repro.table.column import NumericColumn
    from repro.table.table import Table

    table = Table("t", [NumericColumn("x", np.arange(10.0))])
    pipeline = MapPipeline(table, ("x",), BlaeuConfig())
    sampled = np.random.default_rng(seed)
    sampled.random(3)  # the Sample stage's draws
    resumed = pipeline._resume_rng(sampled.bit_generator.state)
    assert resumed.random() == sampled.random()  # the stream is resumed
    resumed = pipeline._resume_rng(sampled.bit_generator.state)
    return [
        sorted(draw.choice(1_000, size=44, replace=False).tolist())
        for draw in resumed.spawn(5)
    ]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "finding: MapPipeline._resume_rng sets the recorded state on a "
        "default_rng(0) shell, so clara()'s rng.spawn always spawns from "
        "SeedSequence(0) and every CLARA-scale map draws the same row "
        "positions; fixing it moves every CLARA-scale digest"
    ),
)
def test_clara_draws_follow_the_build_seed():
    assert _clara_draw_rows(11) != _clara_draw_rows(99)
