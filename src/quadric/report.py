"""Named-check reports with deterministic JSON serialization.

Every verification command produces a ``CheckReport``: a list of named
residual checks with tolerances, plus the run parameters and the single
seed that drove any sampling.  Serialization is byte stable for fixed
inputs: insertion order is preserved and floats are printed with seventeen
significant digits, enough to round-trip doubles exactly.

:func:`report_to_json` writes a report in one pass: the envelope's keys are
constant text, each check is one f-string, and the summary is counted while
the checks are written.  Its bytes are those :func:`render_json` gives for
the report as a nested dict.  :func:`render_json` is the one generic
renderer: it writes ``params``, every check value that is not a ``str``
name or a finite ``float``, and payload files.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

VERSION = "0.3.0"


@dataclass(frozen=True)
class Check:
    """One named residual check against its tolerance."""

    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.residual) and self.residual <= self.tol


@dataclass
class CheckReport:
    """Outcome of one verification command."""

    command: str
    params: dict
    checks: list[Check]
    seed: int = 7

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _format_float(x: float) -> str:
    if math.isfinite(x):
        return f"{x:.17g}"
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


#: JSON string escapes: the quote, the backslash and the control characters.
_ESCAPES = str.maketrans(
    {'"': '\\"', "\\": "\\\\", **{chr(c): f"\\u{c:04x}" for c in range(0x20)}}
)

#: Finds the first character that :data:`_ESCAPES` rewrites.
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]').search


def _escape(s: str) -> str:
    if _NEEDS_ESCAPE(s) is None:
        return '"' + s + '"'
    return '"' + s.translate(_ESCAPES) + '"'


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Dicts keep insertion order; only types that appear in reports are
    supported (dict, list/tuple, str, bool, None, int, float).  ``bool`` is
    tested before ``int``, its base class; ``np.float64`` is a ``float``, and
    other numpy scalars are written through their ``.item()``.
    """
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return _escape(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{_escape(str(k))}: {render_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    # numpy scalars and similar
    if hasattr(obj, "item"):
        return render_json(obj.item(), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _number(x) -> str:
    """A check's residual or tol: a finite float inline, anything else by :func:`render_json`."""
    if type(x) is float and math.isfinite(x):
        return f"{x:.17g}"
    return render_json(x, 3)


def report_to_json(report: CheckReport) -> str:
    """The report as deterministic JSON text, ending in a newline."""
    rows = []
    passed = 0
    for c in report.checks:
        ok = c.passed
        passed += ok
        name = c.name
        rows.append(
            '    {\n      "name": '
            f"{_escape(name) if type(name) is str else render_json(name, 3)},\n"
            f'      "residual": {_number(c.residual)},\n'
            f'      "tol": {_number(c.tol)},\n'
            f'      "pass": {"true" if ok else "false"}\n    }}'
        )
    checks = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    command, seed, total = report.command, report.seed, len(rows)
    return (
        '{\n  "command": '
        f"{_escape(command) if type(command) is str else render_json(command, 1)},\n"
        f'  "version": {_escape(VERSION)},\n'
        f'  "seed": {seed if type(seed) is int else render_json(seed, 1)},\n'
        f'  "params": {render_json(report.params, 1)},\n'
        f'  "checks": {checks},\n'
        '  "summary": {\n'
        f'    "total": {total},\n'
        f'    "passed": {passed},\n'
        f'    "failed": {total - passed}\n'
        "  }\n}\n"
    )
