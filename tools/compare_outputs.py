"""Compare what two source trees of ``quadric`` print, run by run.

Usage, from anywhere::

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is the ``src`` directory of a checkout, the one that holds
``quadric/``.  The hypersurface payloads of ``tools/corpus.py`` that
``classify`` and ``spectrum`` read are written once, by PARENT_SRC's
``quadric``.  Each tree then runs the same corpus of in-process ``cli.main``
calls twice in one fresh interpreter with one BLAS thread, so state that the
package keeps between calls (the shared tangent model of each dimension)
cannot change an output unseen.  The corpus covers all six commands, their
error exits, the loader's refusals and ``--json PATH``.  For every run the exit code, stdout, stderr and the file
that ``--json PATH`` writes are compared byte for byte against the parent's
first pass: the change's two passes and the parent's second.  Each differing
argv is printed with the pass and the fields that differ; the exit status is
1 on any difference and 0 when every run is identical.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

import corpus

#: Passes of the corpus in one interpreter of each tree.
PASSES = 2


def _first_difference(old, new, label: str) -> str:
    """The first line on which the parent's output and ``label``'s differ,
    or both values when not text."""
    if not (isinstance(old, str) and isinstance(new, str)):
        return f"parent {old!r}, {label} {new!r}"
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for i, (a, b) in enumerate(zip(old_lines, new_lines)):
        if a != b:
            return f"line {i + 1}: parent {a!r}, {label} {b!r}"
    return f"parent {len(old_lines)} lines, {label} {len(new_lines)} lines"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv)
    for src in (parent, change):
        if not (src / "quadric" / "__init__.py").is_file():
            print(f"{src} holds no quadric package", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        payloads = root / "payloads"
        sys.path.insert(0, str(parent))  # the payloads are written by PARENT_SRC's quadric
        corpus.write_payloads(payloads)
        argvs = corpus.runs(payloads)
        before, _ = corpus.run_tree(parent, argvs, PASSES, root / "parent")
        after, _ = corpus.run_tree(change, argvs, PASSES, root / "change")

    # Every pass is held to the parent's first.
    others = {
        **{f"parent pass {i + 1}": results for i, results in enumerate(before[1:], 1)},
        **{f"change pass {i + 1}": results for i, results in enumerate(after)},
    }
    differing = 0
    for run, argv in enumerate(argvs):
        old = before[0][run]
        shown = " ".join(arg.replace(str(payloads) + os.sep, "") for arg in argv)
        differs = False
        for label, results in others.items():
            new = results[run]
            fields = [key for key in old if old[key] != new[key]]
            if fields:
                differs = True
                print(f"DIFF {shown} ({label}): {', '.join(fields)}")
                for key in fields:
                    print(f"  {key}: {_first_difference(old[key], new[key], label)}")
        differing += differs
    print(f"{len(argvs)} runs, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
