"""Compare what two source trees of ``quadric`` print, run by run.

Usage, from anywhere::

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is the ``src`` directory of a checkout, the one that holds
``quadric/``.  The hypersurface payloads that ``classify`` and ``spectrum``
read are written once, by PARENT_SRC's ``quadric``.  Each tree then runs the
same fixed corpus of in-process ``cli.main`` calls twice in one fresh
interpreter with one BLAS thread, so state that the package keeps between
calls (the shared tangent model of each dimension) cannot change an output
unseen.  The corpus covers all six commands, their error exits and
``--json PATH``.  For every run the exit code, stdout, stderr and the file
that ``--json PATH`` writes are compared byte for byte against the parent's
first pass: the change's two passes and the parent's second.  Each differing
argv is printed with the pass and the fields that differ; the exit status is
1 on any difference and 0 when every run is identical.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: Written by PARENT_SRC's ``quadric`` into ``sys.argv[1]``: one ``NAME.json``
#: per payload, plus three files that hold no valid payload.
_BUILD = r"""
import sys
from pathlib import Path

import numpy as np

import quadric as q
from quadric.report import render_json

out = Path(sys.argv[1])


def rotated(h, seed):
    # diag(Q, Q) for Q in O(m) commutes with J and the base conjugation.
    m = h.model.m
    Q, upper = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    Q *= np.sign(np.diag(upper))
    R = np.block([[Q, np.zeros((m, m))], [np.zeros((m, m)), Q]])
    S = R @ h.S @ R.T
    return q.induce_from_normal(h.model, R @ h.N, 0.5 * (S + S.T))


def non_hopf(m, seed):
    model = q.build_tangent_model(m)
    raw = np.random.default_rng(seed).standard_normal((2 * m, 2 * m))
    return q.induce_from_normal(model, model.zvec(1), 0.5 * (raw + raw.T))


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

for name, payload in payloads.items():
    (out / f"{name}.json").write_text(render_json(payload) + "\n", encoding="utf-8")
(out / "malformed.json").write_text('{"m": 2, "N": [', encoding="utf-8")
(out / "array.json").write_text("[1, 2]\n", encoding="utf-8")
(out / "missing-keys.json").write_text('{"m": 2}\n', encoding="utf-8")
print("\n".join(sorted(p.stem for p in out.glob("*.json"))))
"""

#: Passes of the corpus in one interpreter of each tree.
PASSES = 2

#: Run in the tree's own interpreter, with the run directory as its working
#: directory: every argv of ``sys.argv[1]`` through ``cli.main``, ``PASSES``
#: times, each pass with an empty ``reports/``; one result list per pass to
#: ``sys.argv[2]``.
_RUN = r"""
import contextlib, io, json, shutil, sys, traceback
from pathlib import Path

from quadric import cli

corpus = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
passes = []
for _ in range(int(sys.argv[3])):
    shutil.rmtree("reports", ignore_errors=True)
    Path("reports").mkdir()
    results = []
    for argv in corpus:
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
        results.append(
            {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "json": written}
        )
    passes.append(results)
Path(sys.argv[2]).write_text(json.dumps(passes), encoding="utf-8")
"""


def _corpus(payloads: Path, names: list[str]) -> list[list[str]]:
    """The fixed argv list.  Each ``--json`` run writes its own file under
    ``reports/``, relative to the run directory of its tree."""
    runs: list[list[str]] = [[], ["--help"], ["verify"], ["bogus"]]
    reports = itertools.count()

    def json_out(argv: list[str]) -> list[str]:
        return [*argv, "--json", f"reports/{next(reports)}.json"]

    ambient = ["verify", "ambient", "--m"]
    runs += [[*ambient, str(m)] for m in (1, 2, 3, 4, 5, 6, 8, 16, 32, 64)]
    runs += [[*ambient, "3", "--seed", seed] for seed in ("0", "11", "123")]
    runs += [[*ambient, "4", "--tol", tol] for tol in ("1e-6", "1e-17")]
    runs += [
        [*ambient, m] for m in ("0", "-1", "65", "x")
    ] + [
        [*ambient, "2", *extra]
        for extra in (
            ["--seed", "-1"], ["--seed", "x"], ["--tol", "inf"], ["--tol", "0"], ["--tol", "nan"]
        )
    ] + [["verify", "ambient"]]
    runs += [json_out([*ambient, m]) for m in ("2", "16")]
    runs.append([*ambient, "2", "--json", "reports/missing-dir/r.json"])

    tube = ["verify", "tube", "--k"]
    runs += [
        [*tube, str(k), "--r", str(r)] for k in (1, 2, 3, 8, 32) for r in (0.1, 0.6, 0.85, 1.3)
    ]
    runs += [[*tube, k, "--r", "1e-06"] for k in ("2", "8")]
    runs += [[*tube, "2", "--r", "1.5707"], [*tube, "3", "--r", "0.6", "--tol", "1e-17"]]
    quarter = repr(math.pi / 4.0)
    runs += [[*tube, k, "--r", quarter, "--no-non-vanishing"] for k in ("2", "3")]
    runs += [[*tube, "2", "--r", quarter]]
    runs += [
        [*tube, k, "--r", r]
        for k, r in [("2", "0"), ("2", "2"), ("2", "-1"), ("2", "nan"), ("0", "0.6"), ("33", "0.6")]
    ]
    runs += [[*tube, "2", "--r", "0.6", "--tol", "inf"], [*tube, "2"]]
    runs += [json_out([*tube, k, "--r", "0.6"]) for k in ("2", "32")]

    scan = ["scan", "tube", "--k"]
    runs += [
        [*scan, k, "--r-min", lo, "--r-max", hi, "--steps", steps]
        for k, lo, hi, steps in [
            ("2", "0.3", "1.2", "3"), ("3", "0.1", "1.5", "8"), ("8", "0.2", "1.4", "4"),
            ("2", "0.6", "0.6", "1"), ("2", "1e-06", "0.6", "2"),
            ("2", "0.3", "1.2", "0"), ("2", "1.2", "0.3", "3"), ("2", "0.3", "2", "3"),
            ("1", "0.3", "1.2", "3"),
        ]
    ]
    runs.append(json_out([*scan, "2", "--r-min", "0.3", "--r-max", "1.2", "--steps", "3"]))

    nonex = ["nonexistence", "--m"]
    runs += [
        [*nonex, str(m), "--alpha-samples", str(samples), "--seed", str(seed)]
        for m in (2, 3, 5, 16, 64) for samples in (1, 25, 300) for seed in (7, 11)
    ]
    runs += [[*nonex, "4"]]
    runs += [[*nonex, m] for m in ("1", "65")]
    runs += [[*nonex, "3", "--alpha-samples", s] for s in ("0", "-1")]
    runs += [[*nonex, "3", "--seed", "-1"], [*nonex, "3", "--tol", "1e-8"]]
    runs.append(json_out([*nonex, "3"]))

    for name in names:
        path = str(payloads / f"{name}.json")
        runs += [["classify", path], ["spectrum", path]]
    tube_path = str(payloads / "tube-2-0.7.json")
    runs += [["classify", tube_path, "--tol", tol] for tol in ("0.5", "1e-3", "1e-17", "0")]
    runs += [
        ["classify", str(payloads / f"{name}.json"), "--tol", "1e-3"]
        for name in ("perturbed", "isotropic-4", "candidate-3")
    ]
    absent = str(payloads / "absent.json")
    runs += [["classify", absent], ["spectrum", absent], ["classify"]]
    runs += [
        json_out([command, str(payloads / f"{name}.json")])
        for command in ("classify", "spectrum")
        for name in ("tube-3-0.85", "candidate-2", "perturbed")
    ]
    runs.append(["classify", tube_path, "--json", "reports/missing-dir/r.json"])
    return runs


def _run_tree(src: Path, corpus: Path, workdir: Path) -> list[list[dict]]:
    """The results of every pass of the corpus, in one interpreter of ``src``."""
    workdir.mkdir()
    results = workdir / "results.json"
    _python(src, _RUN, str(corpus), str(results), str(PASSES), cwd=workdir)
    return json.loads(results.read_text(encoding="utf-8"))


def _python(src: Path, code: str, *args: str, cwd: Path) -> str:
    one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = {**os.environ, **one_thread, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"{src}: child interpreter failed\n{done.stderr}")
    return done.stdout


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
        payloads.mkdir()
        names = _python(parent, _BUILD, str(payloads), cwd=root).split()
        corpus = _corpus(payloads, names)
        corpus_file = root / "corpus.json"
        corpus_file.write_text(json.dumps(corpus), encoding="utf-8")
        before = _run_tree(parent, corpus_file, root / "parent")
        after = _run_tree(change, corpus_file, root / "change")

    # Every pass is held to the parent's first.
    others = {
        **{f"parent pass {i + 1}": results for i, results in enumerate(before[1:], 1)},
        **{f"change pass {i + 1}": results for i, results in enumerate(after)},
    }
    differing = 0
    for run, argv in enumerate(corpus):
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
    print(f"{len(corpus)} runs, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
