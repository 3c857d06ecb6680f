"""The benchmark's workloads: input generators, requests and output oracles.

Each workload is a closed loop with one client.  The constructor generates
every input from the seeded generator (set-up); :meth:`request` runs one
request through the program's public entry points (``quadric.cli.main`` and
``quadric.suites.ricci_consistency``); :meth:`check` compares the outputs
with the truth the generator knows and returns ``None`` or the reason the
request failed.  Within a workload every request does the same kind and
amount of work, so the median and the tail fall in one cost class.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from tracer import LAYERS, PACKAGE

#: Radius window around pi/4 that the tube suites exclude.
QUARTER_PI_WINDOW = 0.01
#: The tube suites' documented radius range.
RADIUS_RANGE = (0.05, math.pi / 2.0 - 0.05)


def load_program(src: Path) -> dict:
    """Import the package afresh from ``src`` and return its layer modules.

    Modules imported earlier are dropped first, so every call pays the
    package's own import time (but not that of the standard library).
    """
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} imported from {package.__file__}, not from {src}")
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with standard output and error captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def draw_radius(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Uniform radius in ``(lo, hi)`` outside the window around pi/4."""
    while True:
        r = float(rng.uniform(lo, hi))
        if abs(r - math.pi / 4.0) >= QUARTER_PI_WINDOW:
            return r


def tube_principal_curvatures(k: int, r: float) -> list[tuple[float, int]]:
    """Closed-form shape spectrum of the tube of radius ``r``, ascending."""
    return sorted(
        [
            (2.0 / math.tan(2.0 * r), 1),
            (0.0, 2),
            (-math.tan(r), 2 * k - 2),
            (1.0 / math.tan(r), 2 * k - 2),
        ]
    )


def _report_failure(code: int, text: str, command: str) -> str | None:
    """Reason a CLI report is not a clean pass of ``command``, or ``None``."""
    if code != 0:
        return f"{command}: exit {code}"
    report = json.loads(text)
    if report["command"] != command:
        return f"{command}: report of {report['command']!r}"
    failing = [c["name"] for c in report["checks"] if c["pass"] is not True]
    if failing or report["summary"]["failed"] != 0:
        return f"{command}: checks failed {failing}"
    return None


class ClassifyDense:
    """``classify FILE`` then ``spectrum FILE`` on a rotated tube payload.

    The tube at ``k = 6`` (``m = 12``) is rotated by ``diag(Q, Q)`` with a
    seeded ``Q`` in ``O(m)``; that keeps ``J`` and the conjugation, so the
    data is still a tube but every frame matrix is dense (23 x 23) and each
    request makes three full ``sym_eigen`` solves.  No request exits early.
    """

    name = "classify-dense"
    K = 6
    PAYLOADS = 128
    #: Jacobi rotations are numpy calls on 23-vectors.
    PROBE = "vector"

    def __init__(self, program: dict, rng: np.random.Generator, workdir: Path) -> None:
        self.cli = program["cli"]
        build_tube = program["models"].build_tube
        m = 2 * self.K
        self.inputs = []
        for i in range(self.PAYLOADS):
            r = draw_radius(rng, *RADIUS_RANGE)
            tube = build_tube(self.K, r)
            q, upper = np.linalg.qr(rng.standard_normal((m, m)))
            q *= np.sign(np.diag(upper))
            rot = np.block([[q, np.zeros((m, m))], [np.zeros((m, m)), q]])
            N = rot @ tube.h.N
            S = rot @ tube.h.S @ rot.T
            S = 0.5 * (S + S.T)
            path = workdir / f"tube-{i:03d}.json"
            xi = -(tube.h.model.J @ N)
            payload = {"m": m, "N": N.tolist(), "S": S.tolist(), "alpha": float(xi @ S @ xi)}
            path.write_text(json.dumps(payload), encoding="utf-8")
            self.inputs.append((str(path), r))

    def request(self, i: int):
        path, _ = self.inputs[i % len(self.inputs)]
        return run_cli(self.cli, ["classify", path]), run_cli(self.cli, ["spectrum", path])

    def check(self, i: int, outcome) -> str | None:
        _, r = self.inputs[i % len(self.inputs)]
        (c_code, c_out, _), (s_code, s_out, _) = outcome
        if c_code != 0:
            return f"classify: exit {c_code}"
        verdict_line, body = c_out.split("\n", 1)
        params = json.loads(body)["params"]
        if params["verdict"] != "tube" or params["k"] != self.K:
            return f"classify: {verdict_line!r}"
        if not abs(params["r"] - r) <= 1e-9:
            return f"classify: radius {params['r']!r} != {r!r}"
        reason = _report_failure(s_code, s_out, "spectrum")
        if reason:
            return reason
        clusters = json.loads(s_out)["params"]["shape_spectrum"]
        expected = tube_principal_curvatures(self.K, r)
        if [k for _, k in clusters] != [k for _, k in expected]:
            return f"spectrum: multiplicities {clusters!r}"
        for (got, _), (want, _) in zip(clusters, expected):
            if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
                return f"spectrum: eigenvalue {got!r} != {want!r}"
        return None


class TubeVerify:
    """``verify tube --k 32 --r R`` at the package's dimension cap (``m = 64``).

    Radii are uniform over the suites' documented range outside the pi/4
    window: the range on which every check of the suite must pass.
    """

    name = "tube-verify"
    K = 32
    RADII = 256
    PROBE = "matmul"

    def __init__(self, program: dict, rng: np.random.Generator, workdir: Path) -> None:
        self.cli = program["cli"]
        self.inputs = [draw_radius(rng, *RADIUS_RANGE) for _ in range(self.RADII)]
        self.argv = [["verify", "tube", "--k", str(self.K), "--r", repr(r)] for r in self.inputs]

    def request(self, i: int):
        return run_cli(self.cli, self.argv[i % len(self.argv)])

    def check(self, i: int, outcome) -> str | None:
        code, out, _ = outcome
        reason = _report_failure(code, out, "verify tube")
        if reason:
            return reason
        params = json.loads(out)["params"]
        if params["k"] != self.K or params["r"] != self.inputs[i % len(self.inputs)]:
            return f"verify tube: parameters {params!r}"
        return None


class OracleSweep:
    """Ricci consistency, ``verify ambient`` and ``nonexistence`` at ``m = 16``.

    Inputs are seeded ``random_hopf_data(16, kind)`` with ``kind`` cycling
    through the three singular types, and one suite seed per request.
    """

    name = "oracle-sweep"
    M = 16
    KINDS = ("isotropic", "principal", "generic")
    INPUTS = 30
    RICCI_TOL = 1e-9
    PROBE = "vector"

    def __init__(self, program: dict, rng: np.random.Generator, workdir: Path) -> None:
        self.cli = program["cli"]
        self.suites = program["suites"]
        random_hopf_data = program["models"].random_hopf_data
        self.inputs = []
        for i in range(self.INPUTS):
            h = random_hopf_data(self.M, rng, self.KINDS[i % len(self.KINDS)])
            seed = str(int(rng.integers(1, 2**31)))
            self.inputs.append(
                (
                    h,
                    ["verify", "ambient", "--m", str(self.M), "--seed", seed],
                    ["nonexistence", "--m", str(self.M), "--alpha-samples", "25", "--seed", seed],
                )
            )

    def request(self, i: int):
        h, ambient, nonexistence = self.inputs[i % len(self.inputs)]
        check = self.suites.ricci_consistency(h)
        return check, run_cli(self.cli, ambient), run_cli(self.cli, nonexistence)

    def check(self, i: int, outcome) -> str | None:
        check, (a_code, a_out, _), (n_code, n_out, _) = outcome
        if not (math.isfinite(check.residual) and check.residual <= self.RICCI_TOL):
            return f"ricci_consistency: residual {check.residual!r}"
        reason = _report_failure(a_code, a_out, "verify ambient") or _report_failure(
            n_code, n_out, "nonexistence"
        )
        if reason:
            return reason
        params = json.loads(n_out)["params"]
        if len(params["alpha_samples"]) != 25 or params["forced_trace_on_c"] != 2 * self.M - 2:
            return f"nonexistence: parameters {params!r}"
        return None


WORKLOADS = {w.name: w for w in (ClassifyDense, TubeVerify, OracleSweep)}


def tube_edge_fail_frac(program: dict, rng: np.random.Generator, count: int = 48) -> float:
    """Share of ``verify tube --k 32`` runs that do not pass near the radius ends.

    Radii are uniform in ``(0, 0.05)`` and ``(pi/2 - 0.05, pi/2)``, outside
    the suites' documented range; every identity the suite checks is still
    true there.  A non-zero share is the absolute-tolerance defect of the
    residual gauges, kept visible here instead of in a workload.
    """
    cli = program["cli"]
    failed = 0
    for _ in range(count):
        r = 0.05 * (1.0 - float(rng.random()))
        if rng.random() < 0.5:
            r = math.pi / 2.0 - r
        code, _, _ = run_cli(cli, ["verify", "tube", "--k", "32", "--r", repr(r)])
        failed += code != 0
    return failed / count
