"""Every run of ``tools/corpus.py`` keeps the outcome ``tests/outcomes.json`` pins.

Residual digits and messages are left to ``tools/compare_outputs.py``.  A
change that moves an outcome on purpose regenerates the table with
``python3 tools/corpus.py > tests/outcomes.json``; its diff names the rows.
"""

import difflib
from pathlib import Path

OUTCOMES = Path(__file__).resolve().parent / "outcomes.json"


def test_every_run_keeps_its_outcome(corpus_run):
    table, _ = corpus_run
    pinned = OUTCOMES.read_text(encoding="utf-8")
    diff = difflib.unified_diff(
        pinned.splitlines(), table.splitlines(), "tests/outcomes.json", "this tree", n=0, lineterm=""
    )
    changed = "\n".join(diff)
    assert not changed, f"runs whose outcome moved:\n{changed}"
