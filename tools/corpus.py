"""The fixed corpus of ``quadric`` command runs that every harness reads.

:func:`write_payloads` writes the payloads that ``classify`` and ``spectrum``
read, :func:`runs` lists the argvs and :func:`run_tree` runs them in a fresh
interpreter of one ``src`` tree.  ``tools/compare_outputs.py`` compares two
trees' outputs byte for byte; the tests run the corpus once, check which
functions it reached and hold each outcome to ``tests/outcomes.json``.
``quadric`` is imported where it is used, so that importing this module
picks no tree.  To regenerate the outcome table of this checkout::

    python3 tools/corpus.py > tests/outcomes.json
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"


def rotated(h, seed):
    """``h`` moved by ``diag(Q, Q)`` for a seeded ``Q`` in ``O(m)``.

    The rotation commutes with ``J`` and the base conjugation, so the singular
    type, the Hopf property and every curvature are kept, while ``N`` and
    ``S`` become dense.
    """
    import quadric as q

    m = h.model.m
    Q, upper = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    Q *= np.sign(np.diag(upper))
    R = np.block([[Q, np.zeros((m, m))], [np.zeros((m, m)), Q]])
    S = R @ h.S @ R.T
    return q.induce_from_normal(h.model, R @ h.N, 0.5 * (S + S.T))


def non_hopf(m, seed):
    """Data with a principal-free normal ``Z_1`` and a seeded dense shape operator."""
    import quadric as q

    model = q.build_tangent_model(m)
    raw = np.random.default_rng(seed).standard_normal((2 * m, 2 * m))
    return q.induce_from_normal(model, model.zvec(1), 0.5 * (raw + raw.T))


#: Payloads of ``tube-2-0.6`` with one leaf of a kind the loader refuses; but
#: for the ``null``, each keeps its value (``S[0][0]`` is 0).  Their runs
#: come last, after those of the other payloads.
LEAF_REFUSALS = {
    "bool-in-S": lambda p: {**p, "S": [[False, *p["S"][0][1:]], *p["S"][1:]]},
    "str-in-N": lambda p: {**p, "N": [str(p["N"][0]), *p["N"][1:]]},
    "null-in-N": lambda p: {**p, "N": [None, *p["N"][1:]]},
    "str-alpha": lambda p: {**p, "alpha": str(p["alpha"])},
}


def write_payloads(out: Path) -> None:
    """Write one ``NAME.json`` per payload into the new directory ``out``,
    plus three files that hold no valid payload."""
    import quadric as q
    from quadric.report import render_json

    data = {
        **{
            f"tube-{k}-{r}": q.build_tube(k, r).h
            for k, r in [(2, 0.3), (2, 0.6), (2, 0.7), (2, 1.2), (3, 0.85), (8, 0.6)]
        },
        "tube-flat": q.build_tube(2, np.pi / 4.0, non_vanishing=False).h,
        **{
            f"rotated-tube-{k}-{seed}": rotated(q.build_tube(k, r).h, seed)
            for k, r, seed in [(2, 0.6, 1), (2, 0.6, 2), (3, 0.85, 3)]
        },
        # Rotated k = 3 tubes (n = 12), where BLAS sums an F-ordered left
        # factor of ``_rank_sum`` in another order, so that a change of
        # summation order moves more than one run.
        **{
            f"rotated-tube-3-{r}-{seed}": rotated(q.build_tube(3, r).h, seed)
            for r in (0.3, 1.2)
            for seed in (4, 5)
        },
        # The shape of the classify-dense benchmark payloads: k = 6 (m = 12),
        # dense 23 x 23 frame operators.
        **{
            f"rotated-tube-6-{r}-{seed}": rotated(q.build_tube(6, r).h, seed)
            for r in (0.06, 0.5, 1.0, 1.5)
            for seed in (4, 5)
        },
        **{
            f"{kind}-{m}": q.random_hopf_data(m, np.random.default_rng(100 + m), kind=kind)
            for kind in ("generic", "principal", "isotropic")
            for m in (2, 3, 4)
        },
        **{f"candidate-{m}": q.reeb_parallel_principal_candidate(m, 1.2) for m in (1, 2, 3, 4, 5)},
        "rotated-candidate-5": rotated(q.reeb_parallel_principal_candidate(5, 0.7), 2),
        "perturbed": q.perturbed_tube(2, 0.6, np.random.default_rng(41)),
        "non-hopf": non_hopf(3, 31),
    }
    payloads = {name: q.to_dict(h) for name, h in data.items()}

    tube = data["tube-2-0.6"]
    asymmetric = q.to_dict(tube)
    asymmetric["S"] = (tube.S + 0.1 * np.outer(tube.frame[:, 0], tube.frame[:, 1])).tolist()
    payloads["asymmetric"] = asymmetric
    payloads["non-unit"] = {**q.to_dict(tube), "N": [2.0 * x for x in tube.N]}
    payloads["wrong-alpha"] = {**q.to_dict(tube), "alpha": tube.alpha + 1.0}
    payloads["nan-entry"] = {**q.to_dict(tube), "N": [float("nan")] + [float(x) for x in tube.N[1:]]}
    payloads["huge"] = {**q.to_dict(tube), "S": (1e200 * tube.S).tolist()}
    payloads |= {name: refuse(q.to_dict(tube)) for name, refuse in LEAF_REFUSALS.items()}

    out.mkdir()
    for name, payload in payloads.items():
        (out / f"{name}.json").write_text(render_json(payload) + "\n", encoding="utf-8")
    (out / "malformed.json").write_text('{"m": 2, "N": [', encoding="utf-8")
    (out / "array.json").write_text("[1, 2]\n", encoding="utf-8")
    (out / "missing-keys.json").write_text('{"m": 2}\n', encoding="utf-8")


def runs(payloads: Path) -> list[list[str]]:
    """The fixed argv list over the files that :func:`write_payloads` wrote
    into ``payloads``.  Each ``--json`` run writes its own file under
    ``reports/``, relative to the run directory."""
    argvs: list[list[str]] = [[], ["--help"], ["verify"], ["bogus"]]
    reports = itertools.count()

    def json_out(argv: list[str]) -> list[str]:
        return [*argv, "--json", f"reports/{next(reports)}.json"]

    ambient = ["verify", "ambient", "--m"]
    argvs += [[*ambient, str(m)] for m in (1, 2, 3, 4, 5, 6, 8, 16, 32, 64)]
    argvs += [[*ambient, "3", "--seed", seed] for seed in ("0", "11", "123")]
    argvs += [[*ambient, "4", "--tol", tol] for tol in ("1e-6", "1e-17")]
    argvs += [
        [*ambient, m] for m in ("0", "-1", "65", "x")
    ] + [
        [*ambient, "2", *extra]
        for extra in (
            ["--seed", "-1"], ["--seed", "x"], ["--tol", "inf"], ["--tol", "0"], ["--tol", "nan"]
        )
    ] + [["verify", "ambient"]]
    argvs += [json_out([*ambient, m]) for m in ("2", "16")]
    argvs.append([*ambient, "2", "--json", "reports/missing-dir/r.json"])

    tube = ["verify", "tube", "--k"]
    argvs += [
        [*tube, str(k), "--r", str(r)] for k in (1, 2, 3, 8, 32) for r in (0.1, 0.6, 0.85, 1.3)
    ]
    argvs += [[*tube, k, "--r", "1e-06"] for k in ("2", "8")]
    argvs += [[*tube, "2", "--r", "1.5707"], [*tube, "3", "--r", "0.6", "--tol", "1e-17"]]
    quarter = repr(math.pi / 4.0)
    argvs += [[*tube, k, "--r", quarter, "--no-non-vanishing"] for k in ("2", "3")]
    argvs += [[*tube, "2", "--r", quarter]]
    argvs += [
        [*tube, k, "--r", r]
        for k, r in [("2", "0"), ("2", "2"), ("2", "-1"), ("2", "nan"), ("0", "0.6"), ("33", "0.6")]
    ]
    argvs += [[*tube, "2", "--r", "0.6", "--tol", "inf"], [*tube, "2"]]
    argvs += [json_out([*tube, k, "--r", "0.6"]) for k in ("2", "32")]

    scan = ["scan", "tube", "--k"]
    argvs += [
        [*scan, k, "--r-min", lo, "--r-max", hi, "--steps", steps]
        for k, lo, hi, steps in [
            ("2", "0.3", "1.2", "3"), ("3", "0.1", "1.5", "8"), ("8", "0.2", "1.4", "4"),
            ("2", "0.6", "0.6", "1"), ("2", "1e-06", "0.6", "2"),
            ("2", "0.3", "1.2", "0"), ("2", "1.2", "0.3", "3"), ("2", "0.3", "2", "3"),
            ("1", "0.3", "1.2", "3"),
        ]
    ]
    argvs.append(json_out([*scan, "2", "--r-min", "0.3", "--r-max", "1.2", "--steps", "3"]))

    nonex = ["nonexistence", "--m"]
    argvs += [
        [*nonex, str(m), "--alpha-samples", str(samples), "--seed", str(seed)]
        for m in (2, 3, 5, 16, 64) for samples in (1, 25, 300) for seed in (7, 11)
    ]
    argvs += [[*nonex, "4"]]
    argvs += [[*nonex, m] for m in ("1", "65")]
    argvs += [[*nonex, "3", "--alpha-samples", s] for s in ("0", "-1")]
    argvs += [[*nonex, "3", "--seed", "-1"], [*nonex, "3", "--tol", "1e-8"]]
    argvs.append(json_out([*nonex, "3"]))

    for name in sorted(p.stem for p in payloads.glob("*.json") if p.stem not in LEAF_REFUSALS):
        path = str(payloads / f"{name}.json")
        argvs += [["classify", path], ["spectrum", path]]
    tube_path = str(payloads / "tube-2-0.7.json")
    argvs += [["classify", tube_path, "--tol", tol] for tol in ("0.5", "1e-3", "1e-17", "0")]
    argvs += [
        ["classify", str(payloads / f"{name}.json"), "--tol", "1e-3"]
        for name in ("perturbed", "isotropic-4", "candidate-3")
    ]
    absent = str(payloads / "absent.json")
    argvs += [["classify", absent], ["spectrum", absent], ["classify"]]
    argvs += [
        json_out([command, str(payloads / f"{name}.json")])
        for command in ("classify", "spectrum")
        for name in ("tube-3-0.85", "candidate-2", "perturbed")
    ]
    argvs.append(["classify", tube_path, "--json", "reports/missing-dir/r.json"])
    argvs += [
        [command, str(payloads / f"{name}.json")]
        for name in LEAF_REFUSALS
        for command in ("classify", "spectrum")
    ]
    return argvs


def run(argvs: list[list[str]], passes: int) -> list[list[dict]]:
    """Every argv through ``cli.main``, ``passes`` times in this interpreter,
    each pass with an empty ``reports/`` in the working directory: for each
    run its exit code, stdout, stderr and the file ``--json PATH`` wrote."""
    from quadric import cli

    results = []
    for _ in range(passes):
        shutil.rmtree("reports", ignore_errors=True)
        Path("reports").mkdir()
        outputs = []
        for argv in argvs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except BaseException:  # a crash is an output too
                    code = "raised: " + traceback.format_exc().splitlines()[-1]
            written = None
            if "--json" in argv:
                path = Path(argv[argv.index("--json") + 1])
                written = path.read_text(encoding="utf-8") if path.is_file() else None
            outputs.append(
                {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "json": written}
            )
        results.append(outputs)
    return results


#: Run by :func:`run_tree`: :func:`run` over the argvs of file ``sys.argv[1]``
#: with ``sys.argv[2]`` passes, under a profiler installed before ``quadric``
#: is imported; the passes and the ``(file, first line)`` of every code object
#: called go to file ``sys.argv[3]``.
_CHILD = r"""
import json, sys
from pathlib import Path
codes = set()
sys.setprofile(lambda frame, event, arg: codes.add(frame.f_code) if event == "call" else None)
import corpus
passes = corpus.run(json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")), int(sys.argv[2]))
sys.setprofile(None)
calls = sorted({(code.co_filename, code.co_firstlineno) for code in codes})
Path(sys.argv[3]).write_text(json.dumps({"passes": passes, "calls": calls}), encoding="utf-8")
"""


def run_tree(src: Path, argvs: list[list[str]], passes: int, workdir: Path) -> tuple[list, set]:
    """:func:`run` in a fresh interpreter of ``src``, with one BLAS thread and
    ``workdir`` as its working directory: the passes, and the ``(file, first
    line)`` of every code object called."""
    workdir.mkdir(exist_ok=True)
    (workdir / "argvs.json").write_text(json.dumps(argvs), encoding="utf-8")
    one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = {**os.environ, **one_thread, "PYTHONPATH": os.pathsep.join((str(src), str(TOOLS)))}
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, "argvs.json", str(passes), "results.json"],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{src}: child interpreter failed\n{done.stderr}")
    results = json.loads((workdir / "results.json").read_text(encoding="utf-8"))
    return results["passes"], {tuple(call) for call in results["calls"]}


def report_text(output: dict) -> str | None:
    """The report text of one run's output, from its ``--json`` file or its
    stdout (after the verdict line of ``classify``), or None when it wrote none."""
    text = output["json"] or output["stdout"]
    return text[text.index("{\n"):] if "{\n" in text else None


def _outcome(argv: list[str], output: dict) -> dict:
    """One row of the outcome table: the argv, the exit code and, when the
    run wrote a report, ``params.verdict`` (``classify`` only), the number
    of checks and the names of the failing ones."""
    row = {"argv": argv, "exit": output["exit"]}
    text = report_text(output)
    if text is not None:
        report = json.loads(text)
        if "verdict" in report["params"]:
            row["verdict"] = report["params"]["verdict"]
        row["checks"] = len(report["checks"])
        row["failing"] = [check["name"] for check in report["checks"] if not check["pass"]]
    return row


def run_once(payloads: Path) -> tuple[str, set, list[dict]]:
    """The corpus over the files :func:`write_payloads` wrote into
    ``payloads``, run once in a fresh interpreter of :data:`SRC` in the
    directory that holds them: the outcome table, one JSON row per line with
    ``payloads`` stripped from each argv, the ``(file, first line)`` of
    every code object called, and the outputs of :func:`run`."""
    argvs = runs(payloads)
    [outputs], calls = run_tree(SRC, argvs, 1, payloads.parent)
    prefix = str(payloads) + os.sep
    rows = [
        json.dumps(_outcome([arg.replace(prefix, "") for arg in argv], output))
        for argv, output in zip(argvs, outputs)
    ]
    return "[\n" + ",\n".join(rows) + "\n]\n", calls, outputs


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        write_payloads(Path(tmp) / "payloads")
        sys.stdout.write(run_once(Path(tmp) / "payloads")[0])
