"""Command-line interface: exit codes, JSON reports, determinism."""

import json
import math

import numpy as np
import pytest

import quadric as q
from quadric.cli import main
from quadric.report import render_json
from quadric.suites import dump_hypersurface


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tube_payload(path, k=2, r=0.6, mutate=None):
    tube = q.build_tube(k, r, non_vanishing=False)
    payload = dump_hypersurface(tube.h, family={"family": "T_A", "k": tube.k, "r": tube.r})
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


# ---------------------------------------------------------------------------
# classify / spectrum
# ---------------------------------------------------------------------------

class TestClassifyCommand:
    def test_tube_round_trip(self, capsys, tmp_path):
        path = write_tube_payload(tmp_path / "tube.json")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert out.splitlines()[0] == "tube k=2 r=0.600000"

    def test_vanishing_curvature_exits_one(self, capsys, tmp_path):
        path = write_tube_payload(tmp_path / "flat.json", r=math.pi / 4.0)
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 1
        assert out.splitlines()[0].startswith("outside-hypotheses")

    def test_non_hopf_exits_one(self, capsys, tmp_path):
        model = q.build_tangent_model(3)
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((6, 6))
        h = q.induce_from_normal(model, model.zvec(1), 0.5 * (raw + raw.T))
        path = tmp_path / "nonhopf.json"
        path.write_text(render_json(q.to_dict(h)) + "\n", encoding="utf-8")
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

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text('{"m": 4, "N": [1,', encoding="utf-8")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_spectrum_command(self, capsys, tmp_path):
        path = write_tube_payload(tmp_path / "tube.json")
        code, out, _ = run(capsys, "spectrum", str(path))
        assert code == 0
        report = json.loads(out)
        shape = {tuple(entry) for entry in report["params"]["shape_spectrum"]}
        mults = sorted(m for _, m in shape)
        assert mults == [1, 2, 2, 2]


# ---------------------------------------------------------------------------
# Determinism and JSON rendering
# ---------------------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "ambient", "--m", "3", "--seed", "11"),
            ("nonexistence", "--m", "3", "--alpha-samples", "4", "--seed", "11"),
            ("scan", "tube", "--k", "2", "--r-min", "0.2", "--r-max", "1.3", "--steps", "5"),
        ],
    )
    def test_byte_identical_reports(self, capsys, argv):
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

    def test_nonfinite_become_strings(self):
        decoded = json.loads(render_json({"x": float("inf"), "y": float("nan")}))
        assert decoded == {"x": "inf", "y": "nan"}
