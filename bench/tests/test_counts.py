"""Exact work counts from traced runs, and the oracles' verdicts on wrong outputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from run import attempt
from workloads import WORKLOADS, OracleSweep

#: ``(workload, requests, {function: calls per request})`` implied by the code.
EXPECTED = [
    ("classify-dense", 2, {"spectra.sym_eigen": 3}),
    ("tube-verify", 3, {"models.build_tube": 2, "hypersurface.reeb_shape_derivative": 3}),
    (
        "oracle-sweep",
        2,
        {
            "hypersurface.induced_curvature": (2 * OracleSweep.M - 1) ** 2,
            "tangent.ambient_curvature": 100,
        },
    ),
]


@pytest.mark.parametrize("name,requests,calls", EXPECTED, ids=[e[0] for e in EXPECTED])
def test_counts_repeat_and_match_the_code(traced, name, requests, calls):
    first = traced(name, seed=11, requests=requests).summary()
    second = traced(name, seed=11, requests=requests).summary()
    assert dict(first.calls) == dict(second.calls)
    assert first.counters == second.counters
    for function, per_request in calls.items():
        assert first.calls_per_req(function) == per_request, function


def test_wrong_outputs_count_as_failures(program, tmp_path):
    workload = WORKLOADS["tube-verify"](program, np.random.default_rng(5), tmp_path)
    code, out, err = workload.request(0)
    assert workload.check(0, (code, out, err)) is None
    assert workload.check(0, (1, out, err)) == "verify tube: exit 1"
    report = json.loads(out)
    report["checks"][0]["pass"] = False
    assert "checks failed" in workload.check(0, (0, json.dumps(report), err))
    report = json.loads(out)
    report["params"]["r"] += 1e-12
    assert "parameters" in workload.check(0, (0, json.dumps(report), err))

    def crash(i, request):
        raise RuntimeError("boom")

    _, reason = attempt(workload, 0, crash)
    assert reason == "RuntimeError: boom"

    dense = WORKLOADS["classify-dense"](program, np.random.default_rng(5), tmp_path)
    (c_code, c_out, c_err), spectrum = dense.request(0)
    assert dense.check(0, ((c_code, c_out, c_err), spectrum)) is None
    verdict, body = c_out.split("\n", 1)
    payload = json.loads(body)
    payload["params"]["r"] += 1e-6
    wrong = verdict + "\n" + json.dumps(payload)
    assert "radius" in dense.check(0, ((c_code, wrong, c_err), spectrum))


def test_refuses_to_run_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parent.parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tube-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
