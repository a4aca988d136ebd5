"""CI's smoke matrix stays in step with the perf-gate leg registry.

``repro.analysis.scorecard.scorecard_legs()`` names every gated leg
once.  CI's ``benchmark-smoke`` matrix must run a bench leg for each of
them (the ``repro`` leg runs in the ``perf-gate`` job instead).  The
workflow is read as text so the check needs no YAML parser.
"""

import re
from pathlib import Path

from repro.analysis.scorecard import scorecard_legs

ROOT = Path(__file__).resolve().parent.parent


def smoke_matrix_legs():
    """The ``leg:`` list of the ``benchmark-smoke`` job in ``ci.yml``."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    job = text.split("\n  benchmark-smoke:\n", 1)[1]
    match = re.search(r"^\s+leg:\s*\[([^\]]*)\]", job, re.MULTILINE)
    assert match, "benchmark-smoke has no leg matrix"
    return [leg.strip() for leg in match.group(1).split(",")]


def test_smoke_matrix_covers_every_gated_leg():
    matrix = smoke_matrix_legs()
    missing = set(scorecard_legs()) - {"repro"} - set(matrix)
    assert not missing, f"benchmark-smoke misses legs {sorted(missing)}"


def test_every_smoke_leg_has_a_bench_file():
    for leg in smoke_matrix_legs():
        assert (ROOT / "benchmarks" / f"bench_ext_{leg}.py").is_file(), leg
