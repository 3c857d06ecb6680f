"""Deterministic JSON rendering of reports."""

import json
from pathlib import Path

import pytest

import quadric
from quadric.report import _escape, render_json


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
