"""Deterministic JSON rendering of reports."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import corpus
import quadric
from quadric.report import VERSION, Check, CheckReport, _escape, render_json, report_to_json


def per_character_escape(s):
    """The escape rule written one character at a time: the reference."""
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


NON_ASCII = ["\x80", "\xa0", "\xe9", "\u2028", "\u03b1", "\ufeff", "\U0001f600"]


def test_escape_matches_the_per_character_rule():
    """Every code point 0-0x7F, a few beyond ASCII, and mixed strings."""
    for ch in [chr(c) for c in range(0x80)] + NON_ASCII:
        assert _escape(ch) == per_character_escape(ch)
    mixed = "".join(chr(c) for c in range(0x80)) + "".join(NON_ASCII)
    assert _escape(mixed) == per_character_escape(mixed)
    assert _escape("") == '""'


def test_escaped_strings_round_trip_through_json():
    text = "".join(chr(c) for c in range(0x80)) + "".join(NON_ASCII)
    assert json.loads(render_json({text: [text]})) == {text: [text]}


def test_package_version_matches_pyproject():
    """The report schema version and the package version are bumped together."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == quadric.VERSION


def reference_payload(report):
    """The report as the nested dict whose :func:`render_json` text is the reference."""
    passed = sum(1 for c in report.checks if c.passed)
    return {
        "command": report.command,
        "version": VERSION,
        "seed": report.seed,
        "params": report.params,
        "checks": [
            {"name": c.name, "residual": c.residual, "tol": c.tol, "pass": c.passed}
            for c in report.checks
        ],
        "summary": {
            "total": len(report.checks),
            "passed": passed,
            "failed": len(report.checks) - passed,
        },
    }


def test_every_corpus_report_renders_as_its_parse(corpus_run):
    """Every report the corpus writes, under all six commands: its text is
    :func:`render_json` of its own parse, each ``pass`` is true exactly when
    the residual is a finite number no greater than ``tol``, and the summary
    counts its checks.  Integers parse as floats, since an integral float
    such as ``0.0`` is written ``0``."""
    _, _, outputs = corpus_run
    texts = [text for text in map(corpus.report_text, outputs) if text is not None]
    reports = [json.loads(text, parse_int=float) for text in texts]
    assert {report["command"] for report in reports} == {
        "verify ambient", "verify tube", "scan tube", "nonexistence", "classify", "spectrum"
    }
    assert {check["pass"] for report in reports for check in report["checks"]} == {True, False}
    for text, report in zip(texts, reports):
        assert text == render_json(report) + "\n"
        checks = report["checks"]
        for check in checks:
            residual = check["residual"]
            finite = isinstance(residual, float) and math.isfinite(residual)
            assert check["pass"] is (finite and residual <= check["tol"]), check["name"]
        passed = sum(check["pass"] for check in checks)
        assert report["summary"] == {
            "total": len(checks), "passed": passed, "failed": len(checks) - passed
        }


NAMES = ['quote " here', "back\\slash", "new\nline", "unit\x1fsep", "\u03b1 = 2", "a b", ""]
RESIDUALS = [
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    5e-324,
    1e300,
    np.float64(0.1),
    np.int64(3),
    2,
    np.float32(0.5),
]


def _hand_built_reports():
    checks = [Check(name, 1e-15, 1e-12) for name in NAMES]
    checks += [Check(f"residual[{i}]", residual, 1e-10) for i, residual in enumerate(RESIDUALS)]
    checks += [Check("int_tol", 0.5, 1), Check("int_tol_exceeded", 2.0, 1)]
    nested = {
        "lists": [[1.5, [2, []]], (), (None, True)],
        "flag": np.bool_(True),
        "none": None,
        "empty": {},
        "k\"ey": {"inner": (0.25, "x\ty")},
    }
    return [
        CheckReport("verify ambient", {"m": 3}, checks, seed=11),
        CheckReport("classify", {}, []),
        CheckReport("spectrum", nested, checks[:2], seed=0),
        CheckReport('odd "command"\n', {"r": math.nan}, checks[-3:]),
    ]


def test_hand_built_reports_render_as_their_reference_payload():
    for report in _hand_built_reports():
        assert report_to_json(report) == render_json(reference_payload(report)) + "\n"


EXACT_TEXT = """{
  "command": "verify ambient",
  "version": "0.3.0",
  "seed": 3,
  "params": {
    "m": 2,
    "tol": 1e-10,
    "warnings": [
      "m < 3 is outside the classification range"
    ]
  },
  "checks": [
    {
      "name": "jacobi_trace[principal]",
      "residual": 0.10000000000000001,
      "tol": 9.9999999999999998e-13,
      "pass": false
    },
    {
      "name": "conjugation_trace",
      "residual": 2.5e-15,
      "tol": 1e-14,
      "pass": true
    },
    {
      "name": "hopf",
      "residual": "inf",
      "tol": 9.9999999999999998e-13,
      "pass": false
    }
  ],
  "summary": {
    "total": 3,
    "passed": 1,
    "failed": 2
  }
}
"""


def test_report_text_is_pinned():
    """The whole text of one report, independent of the reference renderer."""
    report = CheckReport(
        "verify ambient",
        {"m": 2, "tol": 1e-10, "warnings": ["m < 3 is outside the classification range"]},
        [
            Check("jacobi_trace[principal]", 0.1, 1e-12),
            Check("conjugation_trace", 2.5e-15, 1e-14),
            Check("hopf", math.inf, 1e-12),
        ],
        seed=3,
    )
    assert report_to_json(report) == EXACT_TEXT


def test_escape_matches_the_per_character_rule_on_any_text():
    """The unescaped fast path and the translation agree with the rule on mixed strings."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    special = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u03b1"])

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.text() | st.text(st.characters() | special))
    def check(s):
        assert _escape(s) == per_character_escape(s)

    check()
