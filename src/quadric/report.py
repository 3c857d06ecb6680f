"""Named-check reports with deterministic JSON serialization.

Every verification command produces a ``CheckReport``: a list of named
residual checks with tolerances, plus the run parameters and the single
seed that drove any sampling.  Serialization is byte stable for fixed
inputs: insertion order is preserved and floats are printed with seventeen
significant digits, enough to round-trip doubles exactly.
"""

from __future__ import annotations

import math
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
    def summary(self) -> dict:
        passed = sum(1 for c in self.checks if c.passed)
        return {"total": len(self.checks), "passed": passed, "failed": len(self.checks) - passed}

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_payload(self) -> dict:
        return {
            "command": self.command,
            "version": VERSION,
            "seed": self.seed,
            "params": self.params,
            "checks": [
                {"name": c.name, "residual": c.residual, "tol": c.tol, "pass": c.passed}
                for c in self.checks
            ],
            "summary": self.summary,
        }


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


#: JSON string escapes: the quote, the backslash and the control characters.
_ESCAPES = str.maketrans(
    {'"': '\\"', "\\": "\\\\", **{chr(c): f"\\u{c:04x}" for c in range(0x20)}}
)


def _escape(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Dicts keep insertion order; only types that appear in reports are
    supported (dict, list/tuple, str, bool, None, int, float).
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
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


def report_to_json(report: CheckReport) -> str:
    return render_json(report.to_payload()) + "\n"
