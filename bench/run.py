"""Benchmark of the quadric verification engine.

Runs one closed-loop workload in-process through the package's public entry
points, checks every output against the truth the input generator knows,
and prints the metrics by name with their units.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Usage, from the root of a checkout::

    python3 bench/run.py --workload tube-verify --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run that alternates untraced requests with requests traced through every
public function of the package (see ``tracer.py``), and reports the
per-layer metrics plus the tracing overhead.  The spans are written to
``.bench_out/trace-<workload>-<seed>.jsonl.gz``.  All times are scaled to a
reference host speed measured by :func:`probe`.
"""

from __future__ import annotations

import os

# One BLAS thread: with two, a request burns twice the CPU for the same
# wall time, and the spread between runs grows.  Must precede numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, load_program, tube_edge_fail_frac  # noqa: E402

#: Set-ups per run; the reported ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Samples the tail latency must have beyond it.
TAIL_BEYOND = 10
#: Highest percentile reported as the tail; see :meth:`Loop.tail`.
TAIL_PERCENTILE = 95.0
#: Median time of :func:`probe` on the reference host (2-core x86_64 VM,
#: Python 3.11, at its usual fast speed).  Times are reported at this speed.
REFERENCE_PROBE_MS = 1.8

_PROBE_RNG = np.random.default_rng(0)
_PROBE_VECTOR = _PROBE_RNG.standard_normal(32)
_PROBE_SMALL = _PROBE_RNG.standard_normal((32, 32)) / 8.0
_PROBE_LARGE = _PROBE_RNG.standard_normal((128, 128)) / 16.0


def probe(kind: str) -> float:
    """Time of a fixed kernel that does not touch the program.

    The host this benchmark was built on runs at two speeds for minutes at a
    time: identical ``verify tube`` requests take 13 ms or 20 ms.  Kinds of
    work slow by different factors, so the probe does the workload's kind:
    a third interpreted Python, two thirds numpy calls on 32-vectors
    (``"vector"``) or 128 x 128 products (``"matmul"``).  Latency times
    reference over local probe time is then steady where raw latency is not.
    """
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(6700):
        total += i * i % 7
        table[i & 255] = total
    if kind == "vector":
        x = _PROBE_VECTOR
        for _ in range(300):
            x = _PROBE_SMALL @ x
            x = x / (np.linalg.norm(x) + 1.0) + 0.5 * _PROBE_VECTOR
    else:
        b = _PROBE_LARGE
        for _ in range(14):
            b = _PROBE_LARGE @ b
    return time.perf_counter() - start


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
    }


class Loop:
    """Outcome of a timed closed loop, with a host-speed probe after each request."""

    def __init__(self, probe_kind: str) -> None:
        self.probe_kind = probe_kind
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.failures: Counter[str] = Counter()

    def record(self, latency: float, reason: str | None) -> None:
        self.latencies.append(latency)
        self.probes.append(probe(self.probe_kind))
        if reason is not None:
            self.failures[reason[:160]] += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def adjusted(self) -> np.ndarray:
        """Latencies at the reference host speed, from the probes just before and after."""
        probes = np.asarray(self.probes)
        around = 0.5 * (np.concatenate([probes[:1], probes[:-1]]) + probes)
        return np.asarray(self.latencies) * (REFERENCE_PROBE_MS / 1e3) / around

    @property
    def req_per_s(self) -> float:
        """Correct requests per second of request time, at the reference host speed."""
        return (self.attempted - self.failed) / float(np.sum(self.adjusted()))

    def tail(self) -> tuple[float, float]:
        """``(percentile, latency)`` of the tail.

        The highest percentile with ten samples beyond it, ``100 (n - 10) / n``,
        but at most ``TAIL_PERCENTILE``: above it a handful of requests hit by
        short bursts of host noise set the value.  Below twenty samples the
        tail is the largest latency.
        """
        adjusted = self.adjusted()
        n = len(adjusted)
        if n < 2 * TAIL_BEYOND:
            return 100.0, float(adjusted.max())
        pct = min(TAIL_PERCENTILE, 100.0 * (n - TAIL_BEYOND) / n)
        return pct, float(np.percentile(adjusted, pct))


def attempt(workload, i: int, call=lambda i, request: request(i)) -> tuple[float, str | None]:
    """Run and check request ``i``: ``(latency, failure reason or None)``."""
    start = time.perf_counter()
    try:
        outcome = call(i, workload.request)
    except Exception as exc:  # a crashing request is a failed request
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    try:
        return latency, workload.check(i, outcome)
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed output
        return latency, f"malformed output: {type(exc).__name__}: {exc}"


def timed_loop(workload, seconds: float) -> Loop:
    """Closed loop with one client: send request ``i + 1`` once ``i`` is done."""
    loop = Loop(workload.PROBE)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        loop.record(*attempt(workload, i))
        i += 1
    return loop


def traced_loops(workload, seconds: float, tracer: Tracer) -> tuple[Loop, Loop]:
    """Closed loop alternating untraced and traced requests.

    Alternating makes a drift in host speed hit both sides alike, so the
    tracing overhead is not confused with it.
    """
    untraced, traced = Loop(workload.PROBE), Loop(workload.PROBE)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        if i % 2 == 0:
            untraced.record(*attempt(workload, i))
        else:
            with tracer:
                result = attempt(workload, i, lambda j, request: tracer.request(j, lambda: request(j)))
            traced.record(*result)
        i += 1
    return untraced, traced


def set_up(name: str, seed: int, workdir: Path) -> tuple[dict, object, list[float], bool]:
    """Import the package, generate and write the inputs, run one warm-up request.

    Done ``SETUP_REPEATS`` times; returns the last program and workload, the
    time of each set-up at the reference host speed (probed just before it),
    and whether every warm-up request was correct.
    """
    times, warm_ok = [], True
    kind = WORKLOADS[name].PROBE
    for _ in range(SETUP_REPEATS):
        speed = REFERENCE_PROBE_MS / 1e3 / statistics.median(probe(kind) for _ in range(3))
        begin = time.perf_counter()
        program = load_program(SRC)
        workload = WORKLOADS[name](program, np.random.default_rng(seed), workdir)
        _, reason = attempt(workload, 0)
        warm_ok = warm_ok and reason is None
        times.append((time.perf_counter() - begin) * speed)
    return program, workload, times, warm_ok


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, setup_times: list[float]) -> dict:
    _, tail = loop.tail()
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "req_per_s": metric(loop.req_per_s, "1/s"),
        "latency_p50_ms": metric(float(np.median(loop.adjusted())) * 1e3, "ms"),
        "latency_tail_ms": metric(tail * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(summary, untraced: Loop, traced: Loop, edge_fail_frac: float) -> dict:
    c = summary.counters
    speed = REFERENCE_PROBE_MS / 1e3 / statistics.median(untraced.probes + traced.probes)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_req"] = metric(summary.self_ms_per_req(layer) * speed, "ms")
        out[f"{layer}.calls_per_req"] = metric(summary.per_request(summary.layer_calls[layer]), "count")
    for name in (
        "spectra.sym_eigen",
        "hypersurface.induced_curvature",
        "hypersurface.reeb_covariant_derivative",
        "hypersurface.reeb_shape_derivative",
        "models.build_tube",
        "tangent.ambient_curvature",
        "tangent.build_tangent_model",
    ):
        out[f"{name}.calls_per_req"] = metric(summary.calls_per_req(name), "count")
    out["spectra.sym_eigen.ms_per_call"] = metric(summary.ms_per_call("spectra.sym_eigen") * speed, "ms")
    out["spectra.sym_eigen.n3_per_req"] = metric(summary.per_request(c.get("spectra.sym_eigen.n3", 0.0)), "n3")
    out["spectra.recon_residual_max"] = metric(c.get("spectra.recon_residual_max", 0.0), "norm")
    out["hypersurface.induce_from_normal.ms_per_call"] = metric(
        summary.ms_per_call("hypersurface.induce_from_normal") * speed, "ms"
    )
    out["report.bytes_per_req"] = metric(summary.per_request(c.get("report.bytes", 0.0)), "B")
    out["report.checks_per_req"] = metric(summary.per_request(c.get("report.checks", 0.0)), "count")
    out["report.worst_margin"] = metric(c.get("report.worst_margin", 0.0), "ratio")
    out["suites.verify_tube.edge_fail_frac"] = metric(edge_fail_frac, "ratio")
    out["trace.overhead_frac"] = metric(untraced.req_per_s / traced.req_per_s - 1.0, "ratio")
    out["trace.requests"] = metric(summary.requests, "count")
    out["host.probe_ms"] = metric(REFERENCE_PROBE_MS / speed, "ms")
    return out


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run(args: argparse.Namespace, workdir: Path) -> dict:
    env = environment(args.seed)
    program, workload, setup_times, warm_ok = set_up(args.workload, args.seed, workdir)
    gc.collect()
    if not args.trace:
        loop = timed_loop(workload, args.seconds)
        metrics = end_to_end(loop, setup_times)
        raw = np.asarray(loop.latencies) * 1e3
        pct, _ = loop.tail()
        print(f"workload {args.workload}  seed {args.seed}  requests {loop.attempted}")
        print(f"error_rate {loop.failed / loop.attempted:.6g} ratio  ({loop.failed} of {loop.attempted})")
        print(
            f"host probe {statistics.median(loop.probes) * 1e3:.4g} ms (reference {REFERENCE_PROBE_MS} ms);"
            f" unadjusted latency p50 {np.median(raw):.6g} ms, p{pct:.4g} {np.percentile(raw, pct):.6g} ms"
        )
        for name, m in metrics.items():
            note = f"  (p{pct:.4g} of {loop.attempted} samples)" if name == "latency_tail_ms" else ""
            print(f"{name} {m['value']:.6g} {m['unit']}{note}")
        attempted, failures = loop.attempted, loop.failures
    else:
        tracer = Tracer()
        untraced, traced = traced_loops(workload, args.seconds, tracer)
        edge = tube_edge_fail_frac(program, np.random.default_rng(args.seed))
        tracer.write(
            OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz", {"workload": args.workload, "env": env}
        )
        metrics = per_layer(tracer.summary(), untraced, traced, edge)
        attempted = untraced.attempted + traced.attempted
        failures = untraced.failures + traced.failures
        print(f"workload {args.workload}  seed {args.seed}  traced requests {traced.attempted}")
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    for reason, count in sorted(failures.items()):
        print(f"failed x{count}: {reason}")
    print("env " + json.dumps(env, sort_keys=True))
    failed = sum(failures.values())
    return {"correct": warm_ok and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "quadric" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'quadric'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
