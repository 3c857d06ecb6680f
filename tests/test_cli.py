"""Command-line interface: exit codes, JSON reports, determinism."""

import contextlib
import copy
import io
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quadric as q
from quadric import cli, suites
from quadric.cli import main
from quadric.report import render_json, report_to_json

from corpus import non_hopf


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tube_payload(path, k=2, r=0.6, mutate=None):
    tube = q.build_tube(k, r, non_vanishing=False)
    payload = q.to_dict(tube.h)
    payload.update({"family": "T_A", "k": tube.k, "r": tube.r})
    if mutate:
        mutate(payload)
    path.write_text(render_json(payload) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# verify / scan / nonexistence
# ---------------------------------------------------------------------------

class TestVerifyCommands:
    def test_verify_ambient_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "ambient", "--m", "4")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["failed"] == 0
        names = {c["name"] for c in report["checks"]}
        assert "jacobi_spectrum[principal]" in names
        assert "jacobi_spectrum[isotropic]" in names

    def test_verify_ambient_check_names_at_m16(self, capsys):
        """The stacked curvature sampling keeps every check and its name."""
        code, out, _ = run(capsys, "verify", "ambient", "--m", "16", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["failed"] == 0
        assert [c["name"] for c in report["checks"]] == [
            "complex_structure_squares_to_minus_id",
            "conjugation_is_involution",
            "conjugation_anti_commutes",
            "conjugation_trace",
            "rotated_conjugation_involution[theta=0.3]",
            "rotated_conjugation_involution[theta=1.0472]",
            "rotated_conjugation_involution[theta=2]",
            "curvature_skew_in_last_slots",
            "curvature_pair_symmetry",
            "first_bianchi_identity",
            "jacobi_kills_direction[principal]",
            "jacobi_spectrum[principal]",
            "jacobi_trace[principal]",
            "jacobi_kills_direction[isotropic]",
            "jacobi_spectrum[isotropic]",
            "jacobi_trace[isotropic]",
        ]

    def test_verify_ambient_small_m_warns(self, capsys):
        code, out, _ = run(capsys, "verify", "ambient", "--m", "2")
        assert code == 0
        report = json.loads(out)
        assert any("m < 3" in w for w in report["params"]["warnings"])

    @pytest.mark.parametrize("m", ["1", "65"])
    def test_verify_ambient_bad_dimension(self, capsys, m):
        code, _, err = run(capsys, "verify", "ambient", "--m", m)
        assert code == 2
        assert "error" in err

    def test_verify_tube_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "tube", "--k", "2", "--r", "0.6")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["failed"] == 0
        worst = max(c["residual"] for c in report["checks"])
        assert worst < 1e-11

    def test_verify_tube_quarter_pi_refused(self, capsys):
        code, _, err = run(capsys, "verify", "tube", "--k", "2", "--r", str(math.pi / 4.0))
        assert code == 2
        assert "0.785" in err

    def test_verify_tube_quarter_pi_admitted_by_flag(self, capsys):
        code, out, _ = run(
            capsys, "verify", "tube", "--k", "3", "--r", repr(math.pi / 4.0), "--no-non-vanishing"
        )
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0

    def test_verify_tube_construction_defect_exits_one(self, capsys):
        """At r = 1e-6 the built tube is not Hopf to rounding: the report shows
        the failing checks and exits 1 (it used to exit 2 from build_tube)."""
        code, out, err = run(capsys, "verify", "tube", "--k", "3", "--r", "1e-6")
        assert code == 1
        assert err == ""
        failed = {c["name"] for c in json.loads(out)["checks"] if not c["pass"]}
        assert {"hopf", "isometric_reeb_flow", "hopf_identity"} <= failed

    @pytest.mark.parametrize("k", ["2", "32"])
    def test_spectrum_value_mismatch_reports_its_deviation(self, capsys, k):
        """At r = 1e-6 the structure Jacobi clusters have the template's
        multiplicities but not its values: the check fails with the measured
        deviation (4.9e-5 at k = 2, 3.8e-6 at k = 32), not a stand-in inf."""
        code, out, _ = run(capsys, "verify", "tube", "--k", k, "--r", "1e-6")
        assert code == 1
        (check,) = [c for c in json.loads(out)["checks"] if c["name"] == "structure_jacobi_spectrum"]
        assert isinstance(check["residual"], float)
        assert 1e-10 < check["residual"] < 1e-3
        assert not check["pass"]

    def test_scan_tube_skips_exclusion_window(self, capsys):
        code, out, _ = run(
            capsys, "scan", "tube", "--k", "3", "--r-min", "0.1", "--r-max", "1.5",
            "--steps", "30",
        )
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["failed"] == 0
        evaluated = report["params"]["evaluated"]
        skipped = report["params"]["skipped_near_quarter_pi"]
        assert len(evaluated) + len(skipped) == 30
        assert all(abs(r - math.pi / 4.0) >= 0.01 for r in evaluated)

    def test_nonexistence_certificate(self, capsys):
        code, out, _ = run(capsys, "nonexistence", "--m", "3", "--alpha-samples", "6")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["failed"] == 0
        assert report["params"]["forced_trace_on_c"] == 4

    def test_nonexistence_below_range_warns(self, capsys):
        """At m = 2 the certificate still passes, but the report carries the
        note of ``verify ambient --m 2``: the theorem needs m >= 3."""
        warnings = {}
        for m in ("2", "3"):
            code, out, _ = run(capsys, "nonexistence", "--m", m, "--alpha-samples", "2")
            assert code == 0
            warnings[m] = json.loads(out)["params"].get("warnings")
        _, out, _ = run(capsys, "verify", "ambient", "--m", "2")
        assert warnings == {"2": json.loads(out)["params"]["warnings"], "3": None}

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "tube", "--k", "65", "--r", "0.6"],
            ["verify", "tube", "--k", "33", "--r", "0.6"],
            ["scan", "tube", "--k", "33", "--r-min", "0.1", "--r-max", "1.5", "--steps", "3"],
        ],
        ids=["verify-k65", "verify-k33", "scan-k33"],
    )
    def test_tube_too_large_names_k(self, capsys, argv):
        """A tube beyond the ambient model is refused for the ``k`` the user
        typed, not for the complex dimension ``2k`` it would need."""
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: tube requires integer 2 <= k <= 32, got {argv[3]}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["nonexistence", "--m", "1"], "2 <= m <= 64"),
            (["nonexistence", "--m", "65"], "2 <= m <= 64"),
            (["nonexistence", "--m", "3", "--alpha-samples", "0"], "at least one alpha sample"),
            (["nonexistence", "--m", "3", "--alpha-samples", "-2"], "at least one alpha sample"),
            (["scan", "tube", "--k", "3", "--r-min", "0.1", "--r-max", "1.5", "--steps", "0"],
             "steps >= 1"),
            (["scan", "tube", "--k", "3", "--r-min", "0.1", "--r-max", "1.5", "--steps", "-1"],
             "steps >= 1"),
            (["scan", "tube", "--k", "3", "--r-min", "0.78", "--r-max", "0.79", "--steps", "3"],
             "of pi/4"),
            (["nonexistence", "--m", "3", "--alpha-samples", str(suites.MAX_COUNT + 1)],
             "at most"),
            (["nonexistence", "--m", "3", "--alpha-samples", str(10**11)], "at most"),
            (["scan", "tube", "--k", "2", "--r-min", "0.1", "--r-max", "1.5",
              "--steps", str(suites.MAX_COUNT + 1)], "at most"),
            (["scan", "tube", "--k", "2", "--r-min", "0.1", "--r-max", "1.5",
              "--steps", str(10**11)], "at most"),
        ],
        ids=["m1", "m65", "no-samples", "negative-samples", "steps0", "steps-1", "all-excluded",
             "samples-cap", "samples-1e11", "steps-cap", "steps-1e11"],
    )
    def test_vacuous_or_invalid_count_exits_two(self, capsys, argv, message):
        """A count that leaves nothing to certify, or cannot be evaluated, is
        refused at the boundary instead of passing on zero checks."""
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# classify / spectrum
# ---------------------------------------------------------------------------

class TestClassifyCommand:
    def test_tube_round_trip(self, capsys, tmp_path):
        path = write_tube_payload(tmp_path / "tube.json")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert out.splitlines()[0] == "tube k=2 r=0.600000"

    def test_rotated_principal_candidate_is_nonexistent(self, capsys, payloads):
        """Seed 2 gave ``normal not singular`` with the pairing formula."""
        code, out, _ = run(capsys, "classify", str(payloads / "rotated-candidate-5.json"))
        assert code == 0
        assert out.splitlines()[0] == "nonexistent"

    @pytest.mark.parametrize("m", [1, 2])
    def test_principal_candidate_below_range_exits_one(self, capsys, tmp_path, payloads, m):
        """Below ``m = 3``, outside the theorem's range, a Reeb-parallel principal
        candidate is not certified ``nonexistent``: at ``m = 1`` the forced
        trace ``2m - 2`` is 0, the required trace."""
        path = payloads / f"candidate-{m}.json"
        code, out, _ = run(capsys, "classify", str(path), "--json", str(tmp_path / "r.json"))
        assert code == 1
        reason = f"complex dimension m = {m} is outside the classification range (m >= 3)"
        assert out.splitlines()[0] == f"outside-hypotheses ({reason})"
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["params"]["verdict"] == "outside-hypotheses"
        assert report["params"]["reason"] == reason
        assert [(c["name"], c["pass"]) for c in report["checks"]] == [
            ("classification_admissible", False)
        ]

    def test_vanishing_curvature_exits_one(self, capsys, tmp_path):
        path = write_tube_payload(tmp_path / "flat.json", r=math.pi / 4.0)
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 1
        assert out.splitlines()[0].startswith("outside-hypotheses")

    def test_non_hopf_exits_one(self, capsys, tmp_path):
        path = tmp_path / "nonhopf.json"
        path.write_text(render_json(q.to_dict(non_hopf(3, 1))) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 1
        assert "not Hopf" in out

    def test_broken_flow_reports_residual(self, capsys, tmp_path):
        h = q.perturbed_tube(2, 0.6, np.random.default_rng(2))
        path = tmp_path / "broken.json"
        path.write_text(render_json(q.to_dict(h)) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "classify", str(path), "--json", str(tmp_path / "r.json"))
        assert code == 1
        report = json.loads((tmp_path / "r.json").read_text())
        residuals = {c["name"]: c["residual"] for c in report["checks"]}
        assert residuals["reeb_parallel_structure_jacobi"] > 1e-3

    def test_non_unit_normal_exits_two(self, capsys, tmp_path):
        def mutate(payload):
            payload["N"] = [2.0 * x for x in payload["N"]]

        path = write_tube_payload(tmp_path / "bad.json", mutate=mutate)
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2
        assert "normal not unit" in err

    @pytest.mark.parametrize("command", ["classify", "spectrum"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["N", "S"])
    def test_non_finite_payload_exits_two(self, capsys, tmp_path, command, field, bad):
        def mutate(payload):
            if field == "N":
                payload["N"][0] = bad
            else:
                payload["S"][3][4] = bad

        path = write_tube_payload(tmp_path / "nonfinite.json", mutate=mutate)
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "non-finite" in err

    @pytest.mark.parametrize("command", ["classify", "spectrum"])
    @pytest.mark.parametrize("field", ["N", "S"])
    def test_null_entry_exits_two(self, capsys, tmp_path, command, field):
        """A JSON null is a mistyped entry, not a NaN: before, it was read as
        NaN and refused as ``non-finite``."""
        def mutate(payload):
            if field == "N":
                payload["N"][0] = None
            else:
                payload["S"][3][4] = None

        path = write_tube_payload(tmp_path / "null.json", mutate=mutate)
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {field} must hold JSON numbers only, got NoneType\n"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("m", math.inf),
            ("m", 4.5),
            ("m", "4"),
            ("m", True),
            ("N", 10**400),
            ("S", 1e300),
            ("q_xi", 1e300),
            ("q_xi", True),
            ("q_xi", "3.5"),
            ("alpha", str),
            ("N", lambda N: [str(x) for x in N]),
            ("S", lambda S: [[bool(x) if x in (0.0, 1.0) else x for x in row] for row in S]),
        ],
        ids=[
            "m-inf",
            "m-4.5",
            "m-str",
            "m-bool",
            "N-bigint",
            "S-1e300",
            "q_xi-1e300",
            "q_xi-bool",
            "q_xi-str",
            "alpha-str",
            "N-str",
            "S-bool",
        ],
    )
    def test_out_of_range_payload_exits_two(self, capsys, tmp_path, field, value):
        """Before, an infinite m or an integer beyond the float range raised
        OverflowError, m = 4.5 and "4" were read as 4, finite entries that
        overflow in the arithmetic gave reports built on inf, and strings and
        booleans in N, S, alpha or q_xi were read as numbers.  A callable
        value rewrites the whole field."""

        def mutate(payload):
            if callable(value):
                payload[field] = value(payload[field])
            elif field == "N":
                payload["N"][0] = value
            elif field == "S":
                payload["S"][1][1] = value
            else:
                payload[field] = value

        path = tmp_path / "range.json"
        payload = _tube_payload()
        mutate(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("command", ["classify", "spectrum"])
    def test_wrong_shape_operator_exits_two(self, capsys, tmp_path, command):
        path = tmp_path / "shape.json"
        payload = {"m": 3, "N": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], "S": np.eye(5).tolist()}
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == "" and "shape operator must be" in err

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text('{"m": 4, "N": [1,', encoding="utf-8")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2
        assert "line 1" in err and "column" in err

    @pytest.mark.parametrize(
        "case, message",
        [
            ("not-utf8", "cannot read"),
            ("deep-json", "nested too deeply"),
            ("unwritable-json", "cannot write"),
            ("unwritable-json-classify", "cannot write"),
        ],
    )
    def test_file_error_exits_two(self, capsys, tmp_path, case, message):
        """Before, each of these ended in a traceback with exit 1."""
        code, out, err = run(capsys, *_refusal_argv(case, tmp_path))
        assert code == 2
        assert out == "" and err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command", ["classify", "spectrum"])
    def test_contradicting_gauge_exits_two(self, capsys, tmp_path, command):
        """With g(A xi, xi) != 0 the gauge is forced to 2 alpha; before, a
        shifted one was read and the principal data classified as
        outside-hypotheses."""
        path = tmp_path / "principal.json"
        path.write_text(json.dumps(_principal_payload()), encoding="utf-8")
        assert run(capsys, command, str(path))[0] == 0
        code, out, err = run(capsys, *_refusal_argv("gauge", tmp_path, command))
        assert code == 2
        assert out == "" and "contradicts its forced value" in err

    def test_free_isotropic_gauge_is_read(self, capsys, tmp_path):
        """A tube's g(A xi, xi) computes to -2.2e-17, rounding that forces no
        gauge; before, this payload exited 2 as contradicting its forced value."""

        def mutate(payload):
            payload["q_xi"] = 2.0 * payload["alpha"] + 1e9

        code, out, err = run(capsys, "spectrum", str(write_tube_payload(tmp_path / "t.json", mutate=mutate)))
        assert code == 0 and err == ""
        assert json.loads(out)["command"] == "spectrum"

    def test_spectrum_command(self, capsys, tmp_path):
        path = write_tube_payload(tmp_path / "tube.json")
        code, out, _ = run(capsys, "spectrum", str(path))
        assert code == 0
        report = json.loads(out)
        shape = {tuple(entry) for entry in report["params"]["shape_spectrum"]}
        mults = sorted(m for _, m in shape)
        assert mults == [1, 2, 2, 2]


# ---------------------------------------------------------------------------
# Payload fuzzing
# ---------------------------------------------------------------------------

def _tube_payload():
    payload = q.to_dict(q.build_tube(2, 0.6).h)
    payload.update({"family": "T_A", "k": 2, "r": 0.6})
    return payload


def _principal_payload():
    """Principal data with ``g(A xi, xi) = -1``, which forces ``q_xi = 2 alpha``."""
    return q.to_dict(q.reeb_parallel_principal_candidate(3, 1.2))


def _refusal_argv(case, tmp_path, command="classify"):
    """Command line of one input that the CLI refuses with exit 2, with any
    file it reads written under ``tmp_path``."""
    missing = str(tmp_path / "missing" / "out.json")
    if case == "unwritable-json":
        return ["verify", "tube", "--k", "2", "--r", "0.6", "--json", missing]
    if case == "unwritable-json-classify":
        return ["classify", str(write_tube_payload(tmp_path / "tube.json")), "--json", missing]
    if case == "samples-cap":
        return ["nonexistence", "--m", "3", "--alpha-samples", str(suites.MAX_COUNT + 1)]
    if case == "steps-cap":
        return ["scan", "tube", "--k", "2", "--r-min", "0.1", "--r-max", "1.5",
                "--steps", str(suites.MAX_COUNT + 1)]
    path = tmp_path / f"{case}.json"
    if case == "not-utf8":
        path.write_bytes(b'\xff\xfe{"m": 4}')
    elif case == "deep-json":
        path.write_text("[" * 200000, encoding="utf-8")
    elif case == "bool-m":
        # Shaped for m = 1, which the boolean would otherwise be read as.
        payload = {"m": True, "N": [1.0, 0.0], "S": [[0.0, 0.0], [0.0, 0.0]]}
        path.write_text(json.dumps(payload), encoding="utf-8")
    elif case == "gauge":
        payload = _principal_payload()
        payload["q_xi"] += 1.0
        path.write_text(json.dumps(payload), encoding="utf-8")
    return [command, str(path)]


#: Valid payloads to mutate: a tube (classify exits 0) and a perturbed tube
#: (classify exits 1), both at m = 4.
BASE_PAYLOADS = (_tube_payload(), q.to_dict(q.perturbed_tube(2, 0.6, np.random.default_rng(2))))

non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
any_float = st.floats() | non_finite
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def invalid_payloads(draw):
    """A valid payload with one defect that must be refused: a non-finite
    entry, a wrong shape, or a non-unit normal."""
    payload = copy.deepcopy(draw(st.sampled_from(BASE_PAYLOADS)))
    N, S = payload["N"], payload["S"]
    n = len(N)
    index = st.integers(0, n - 1)
    defect = draw(st.sampled_from(["non_finite_N", "non_finite_S", "shape", "non_unit"]))
    if defect == "non_finite_N":
        N[draw(index)] = draw(non_finite)
    elif defect == "non_finite_S":
        S[draw(index)][draw(index)] = draw(non_finite)
    elif defect == "shape":
        reshape = draw(
            st.sampled_from(
                [
                    lambda: N.pop(),
                    lambda: N.append(0.0),
                    lambda: payload.update(N=[N]),
                    lambda: S.pop(),
                    lambda: S[draw(index)].pop(),
                    lambda: [row.append(0.0) for row in S],
                    lambda: payload.update(S=[x for row in S for x in row]),
                    lambda: payload.update(m=draw(st.sampled_from([0, -1, 3, 5, 65, 10**6]))),
                ]
            )
        )
        reshape()
    else:
        scale = draw(st.floats(0.0, 1.0 - 1e-6) | st.floats(1.0 + 1e-6, 1e6))
        payload["N"] = [scale * x for x in N]
    return payload


@st.composite
def mutated_payloads(draw):
    """A valid payload, perhaps with S scaled by a power of ten (and the
    stored Reeb curvature dropped), then up to three arbitrary edits: any
    float in one entry of N or S, a field replaced by any JSON value or
    deleted, or the whole payload replaced."""
    payload = copy.deepcopy(draw(st.sampled_from(BASE_PAYLOADS)))
    n = len(payload["N"])
    index = st.integers(0, n - 1)
    exponent = draw(st.just(0) | st.integers(-320, 308))
    if exponent:
        payload["S"] = [[10.0**exponent * x for x in row] for row in payload["S"]]
        del payload["alpha"]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["entry", "replace", "delete", "whole"]))
        if edit == "entry" and isinstance(payload, dict) and isinstance(payload.get("S"), list):
            if draw(st.booleans()) and isinstance(payload.get("N"), list) and len(payload["N"]) == n:
                payload["N"][draw(index)] = draw(any_float)
            elif len(payload["S"]) == n and isinstance(payload["S"][0], list):
                payload["S"][draw(index)][0] = draw(any_float)
        elif edit in ("replace", "delete") and isinstance(payload, dict):
            key = draw(st.sampled_from(["m", "N", "S", "alpha", "q_xi", "family"]))
            if edit == "replace":
                payload[key] = draw(json_values)
            else:
                payload.pop(key, None)
        elif edit == "whole":
            payload = draw(json_values)
    return payload


def run_quiet(*argv):
    """:func:`run` without ``capsys``: hypothesis reruns a test body many times
    under one function-scoped fixture, so the output is captured here."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def payload_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "payload.json"


class TestPayloadFuzz:
    """Every payload ends in exit 0, 1 or 2 through the CLI, never in an exception."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(payload=mutated_payloads())
    def test_any_payload_exits_cleanly(self, payload_path, payload):
        payload_path.write_text(json.dumps(payload), encoding="utf-8")
        for command in ("classify", "spectrum"):
            code, _, err = run_quiet(command, str(payload_path))
            assert code in (0, 1, 2)
            assert "Traceback" not in err

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(payload=invalid_payloads())
    def test_invalid_payload_exits_two(self, payload_path, payload):
        payload_path.write_text(json.dumps(payload), encoding="utf-8")
        for command in ("classify", "spectrum"):
            code, out, err = run_quiet(command, str(payload_path))
            assert code == 2, (command, err)
            assert out == "" and err.startswith("error:")


# ---------------------------------------------------------------------------
# Exit status of the process
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "case",
    ["not-utf8", "deep-json", "unwritable-json", "unwritable-json-classify", "bool-m", "gauge",
     "samples-cap", "steps-cap"],
)
def test_refusal_is_the_process_exit_status(tmp_path, case):
    """An exception that escapes ``main`` fails an in-process test as an
    error, but ends the process with exit 1 and a traceback; the exit status
    is what the command-line contract promises."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "quadric.cli", *_refusal_argv(case, tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("m, expected", [("4", 0), ("1", 2)])
def test_module_entry_exits_with_mains_code(monkeypatch, capsys, m, expected):
    """``python -m quadric.cli`` ends with ``main``'s return value as its exit
    status.  The module runs afresh as ``__main__``, in this process."""
    monkeypatch.setattr(sys, "argv", ["quadric.cli", "verify", "ambient", "--m", m])
    monkeypatch.delitem(sys.modules, "quadric.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("quadric.cli", run_name="__main__")
    assert exc.value.code == expected
    out = capsys.readouterr().out
    assert (json.loads(out)["command"] == "verify ambient") if expected == 0 else out == ""


# ---------------------------------------------------------------------------
# Parser reuse and options
# ---------------------------------------------------------------------------

class TestToleranceOption:
    """``nonexistence`` and ``spectrum`` take no ``--tol``: neither reads one."""

    def test_tol_refused(self, capsys, tmp_path):
        path = write_tube_payload(tmp_path / "tube.json")
        for argv in (("nonexistence", "--m", "3"), ("spectrum", str(path))):
            code, out, err = run(capsys, *argv, "--tol", "1e-300")
            assert code == 2
            assert out == "" and "--tol" in err

    def test_default_reports_unchanged(self, capsys, tmp_path):
        path = write_tube_payload(tmp_path / "tube.json")
        code, out, _ = run(capsys, "nonexistence", "--m", "3", "--alpha-samples", "4")
        assert code == 0
        assert out == report_to_json(suites.nonexistence(3, samples=4, seed=7))
        code, out, _ = run(capsys, "spectrum", str(path))
        assert code == 0
        h = q.from_dict(json.loads(path.read_text(encoding="utf-8")))
        assert out == report_to_json(suites.spectrum_report(h))


def _argv_for(command, path):
    """Arguments that run ``command`` to a report; ``path`` is a tube payload."""
    return {
        "verify ambient": ["verify", "ambient", "--m", "3"],
        "verify tube": ["verify", "tube", "--k", "2", "--r", "0.6"],
        "scan tube": ["scan", "tube", "--k", "2", "--r-min", "0.3", "--r-max", "1.2",
                      "--steps", "3"],
        "nonexistence": ["nonexistence", "--m", "3", "--alpha-samples", "2"],
        "classify": ["classify", str(path)],
        "spectrum": ["spectrum", str(path)],
    }[command]


class TestSeedAndToleranceValues:
    """``--seed`` and ``--tol`` values that cannot drive a meaningful run exit 2."""

    @pytest.mark.parametrize(
        "command",
        ["verify ambient", "verify tube", "scan tube", "nonexistence", "classify", "spectrum"],
    )
    def test_negative_seed_exits_two(self, capsys, tmp_path, command):
        """``np.random.default_rng`` refuses a negative seed; every command
        refuses it at the parser, including those that draw nothing."""
        argv = _argv_for(command, write_tube_payload(tmp_path / "tube.json"))
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 2
        assert out == "" and "--seed" in err and "integer >= 0" in err
        assert "Traceback" not in err
        code, _, _ = run(capsys, *argv, "--seed", "0")
        assert code == 0

    def test_non_integer_seed_exits_two(self, capsys):
        code, out, err = run(capsys, "verify", "ambient", "--m", "4", "--seed", "abc")
        assert code == 2
        assert out == "" and "--seed" in err and "integer >= 0" in err

    @pytest.mark.parametrize(
        "command",
        ["verify ambient", "verify tube", "scan tube", "nonexistence", "classify", "spectrum"],
    )
    def test_seed_recorded_in_every_report(self, capsys, tmp_path, command):
        """The CLI writes ``--seed`` on every report, whether or not the command samples."""
        argv = _argv_for(command, write_tube_payload(tmp_path / "tube.json"))
        code, out, _ = run(capsys, *argv, "--seed", "5")
        assert code == 0
        assert '"seed": 5,' in out
        assert json.loads(out.partition("\n")[2] if command == "classify" else out)["seed"] == 5

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0", "-1", "1e400", "x"])
    @pytest.mark.parametrize("command", ["verify ambient", "verify tube", "scan tube", "classify"])
    def test_tol_not_finite_positive_exits_two(self, capsys, tmp_path, command, tol):
        """``inf`` would pass every tolerance-gated check, and ``nan``, ``0``
        or a negative bound would fail them as if the identity were broken."""
        argv = _argv_for(command, write_tube_payload(tmp_path / "tube.json"))
        code, out, err = run(capsys, *argv, f"--tol={tol}")
        assert code == 2
        assert out == "" and "--tol" in err and "finite number > 0" in err

    @pytest.mark.parametrize("command", ["verify ambient", "verify tube", "scan tube", "classify"])
    def test_small_positive_tol_runs(self, capsys, tmp_path, command):
        """A positive bound below every residual is a run that fails, not a refusal."""
        argv = _argv_for(command, write_tube_payload(tmp_path / "tube.json"))
        code, out, _ = run(capsys, *argv, "--tol", "1e-300")
        assert code == 1
        assert json.loads(out.partition("\n")[2] if command == "classify" else out)


class TestParserReuse:
    def test_main_reuses_one_parser(self):
        assert cli._shared_parser() is cli._shared_parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_flag_not_carried_into_next_call(self, capsys):
        argv = ("verify", "tube", "--k", "3", "--r", repr(math.pi / 4.0))
        code, _, _ = run(capsys, *argv, "--no-non-vanishing")
        assert code == 0
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "0.785" in err

    def test_json_path_not_carried_into_next_call(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "tube", "--k", "2", "--r", "0.6", "--json", str(path))
        assert code == 0
        assert out == ""
        written = path.read_text(encoding="utf-8")
        code, out, _ = run(capsys, "verify", "tube", "--k", "2", "--r", "0.7")
        assert code == 0
        assert json.loads(out)["params"]["r"] == 0.7
        assert path.read_text(encoding="utf-8") == written


# ---------------------------------------------------------------------------
# Determinism and JSON rendering
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dense_payload(payloads):
    """The corpus payload of a rotated ``k = 6`` tube, the shape of the ``classify-dense`` payloads."""
    return str(payloads / "rotated-tube-6-0.5-4.json")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "ambient", "--m", "3", "--seed", "11"),
            ("nonexistence", "--m", "3", "--alpha-samples", "4", "--seed", "11"),
            ("scan", "tube", "--k", "2", "--r-min", "0.2", "--r-max", "1.3", "--steps", "5"),
            ("verify", "tube", "--k", "32", "--r", "0.6"),
            ("classify", "PAYLOAD"),
            ("spectrum", "PAYLOAD"),
        ],
    )
    def test_byte_identical_reports(self, capsys, dense_payload, argv):
        """A repeated call reads the shared tangent model that the first call
        left behind, and prints the same bytes."""
        argv = [dense_payload if arg == "PAYLOAD" else arg for arg in argv]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_seed_changes_sampled_report(self, capsys):
        _, out1, _ = run(capsys, "nonexistence", "--m", "3", "--seed", "1")
        _, out2, _ = run(capsys, "nonexistence", "--m", "3", "--seed", "2")
        assert out1 != out2


class TestRenderJson:
    def test_floats_round_trip(self):
        values = [1.0 / 3.0, 0.1, 1e-300, -2.5e17, 0.0, 1.7976931348623157e308]
        text = render_json({"values": values})
        assert json.loads(text)["values"] == values

    def test_escaping_and_scalars(self):
        text = render_json({"s": 'quote " backslash \\ tab \t', "b": True, "n": None})
        decoded = json.loads(text)
        assert decoded["s"] == 'quote " backslash \\ tab \t'
        assert decoded["b"] is True and decoded["n"] is None

    def test_numpy_scalars(self):
        text = render_json({"x": np.float64(0.5), "k": np.int64(3)})
        decoded = json.loads(text)
        assert decoded == {"x": 0.5, "k": 3}

    def test_empty_dict_and_unsupported_type(self):
        assert render_json({}) == "{}"
        with pytest.raises(TypeError, match="cannot serialize"):
            render_json(object())

    def test_nonfinite_become_strings(self):
        decoded = json.loads(render_json({"x": float("inf"), "y": float("nan")}))
        assert decoded == {"x": "inf", "y": "nan"}
