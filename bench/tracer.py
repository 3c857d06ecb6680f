"""Span tracer that wraps the public functions of the ``quadric`` modules.

The tracer lives entirely in the benchmark: it replaces every public
(no leading underscore) module-level function of each layer with a
span-recording wrapper, everywhere that function object is bound.  That is
its own module, which catches intra-module calls such as
``reeb_parallel_residual -> reeb_covariant_derivative``, and every
``from .x import y`` importer, such as ``suites.sym_eigen``.  Leaving the
context restores every patched attribute to the original function object.

A span is ``(function index, start ns, end ns, parent span, request id)``.
Spans are kept in memory; :meth:`Tracer.write` stores them when the run ends.
A re-entrant call (``render_json`` recursing into itself) runs inside the
outer span and records none of its own.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "quadric"

#: The package's modules that do work; ``errors`` only defines exceptions.
LAYERS = (
    "cli",
    "report",
    "suites",
    "classification",
    "models",
    "hypersurface",
    "spectra",
    "tangent",
)

#: Name of the root span the benchmark opens around each request.
REQUEST = "request"


def _sym_eigen_hook(counters: dict, args, kwargs, result) -> None:
    op = args[0] if args else kwargs["op"]
    n = len(op)
    counters["spectra.sym_eigen.n3"] += n**3
    counters["spectra.recon_residual_max"] = max(
        counters["spectra.recon_residual_max"], float(result.reconstruction_residual)
    )


def _report_to_json_hook(counters: dict, args, kwargs, result) -> None:
    report = args[0] if args else kwargs["report"]
    counters["report.bytes"] += len(result.encode("utf-8"))
    counters["report.checks"] += len(report.checks)
    for check in report.checks:
        margin = check.residual / check.tol if check.tol > 0 else math.inf
        counters["report.worst_margin"] = max(counters["report.worst_margin"], margin)


#: Work counts read from arguments or results, keyed by ``layer.function``.
HOOKS = {
    "spectra.sym_eigen": _sym_eigen_hook,
    "report.report_to_json": _report_to_json_hook,
}


def public_functions(modules: dict) -> list[tuple[str, object]]:
    """``(layer.function, function)`` for every public function defined in a layer."""
    found = []
    for layer in LAYERS:
        module = modules[layer]
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                found.append((f"{layer}.{name}", obj))
    return found


class Tracer:
    """Records spans for calls into the program while installed.

    Install it (or use it as a context manager) around the traced requests,
    and open one root span per request with :meth:`request`.
    """

    def __init__(self) -> None:
        self.names: list[str] = [REQUEST]
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._request_id = -1
        self._bindings: list[tuple[object, str, object, object]] | None = None

    # -- installation -----------------------------------------------------

    def _wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns
        active = False

        def wrapper(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            active = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active = False
                stack.pop()
                spans[slot] = (index, start, end, parent, self._request_id)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Bind the wrappers in place of the originals (built on first use)."""
        if self._bindings is None:
            modules = [
                module
                for name, module in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")
            ]
            layers = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
            wrappers = {id(fn): (fn, self._wrap(q, fn)) for q, fn in public_functions(layers)}
            self._bindings = []
            for module in modules:
                for attr, value in vars(module).items():
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        self._bindings.append((module, attr, value, entry[1]))
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute to its original function object."""
        for module, attr, original, _ in self._bindings or ():
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- requests -----------------------------------------------------------

    def request(self, request_id: int, fn):
        """Run ``fn()`` inside a root span tagged with ``request_id``."""
        self._request_id = request_id
        slot = len(self.spans)
        self.spans.append(None)
        self._stack.append(slot)
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[slot] = (0, start, end, -1, request_id)

    # -- output ---------------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        """Store the spans as gzip JSON lines: a header, then one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({**header, "names": self.names}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def summary(self) -> "TraceSummary":
        return TraceSummary(self.names, self.spans, dict(self.counters))


class TraceSummary:
    """Per-layer and per-function aggregates of a finished trace."""

    def __init__(self, names: list[str], spans: list[tuple], counters: dict) -> None:
        self.counters = counters
        children_ns = defaultdict(int)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children_ns[parent] += end - start
        self.requests = 0
        self.request_ns = 0
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        for slot, (index, start, end, _, _) in enumerate(spans):
            name = names[index]
            if name == REQUEST:
                self.requests += 1
                self.request_ns += end - start
                continue
            layer = name.split(".", 1)[0]
            self.layer_self_ns[layer] += end - start - children_ns[slot]
            self.layer_calls[layer] += 1
            self.calls[name] += 1
            self.inclusive_ns[name] += end - start

    def per_request(self, value: float) -> float:
        return value / self.requests if self.requests else 0.0

    def self_ms_per_req(self, layer: str) -> float:
        return self.per_request(self.layer_self_ns[layer] / 1e6)

    def calls_per_req(self, name: str) -> float:
        return self.per_request(self.calls[name])

    def ms_per_call(self, name: str) -> float:
        calls = self.calls[name]
        return self.inclusive_ns[name] / 1e6 / calls if calls else 0.0
