"""Tracer hygiene: restored bindings, one span per re-entrant call, self times that add up."""

import inspect
import sys

from tracer import LAYERS, PACKAGE, REQUEST, Tracer


def _function_bindings() -> dict:
    """Every function-valued attribute of every loaded ``quadric`` module."""
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
        for attr, value in vars(module).items()
        if inspect.isfunction(value)
    }


def test_every_binding_is_wrapped_then_restored(program):
    before = _function_bindings()
    with Tracer():
        during = _function_bindings()
        # Patched in the defining module, in importers and in the package namespace.
        for name in (f"{PACKAGE}.spectra", f"{PACKAGE}.suites", PACKAGE):
            assert sys.modules[name].sym_eigen.__wrapped__ is before[(f"{PACKAGE}.spectra", "sym_eigen")]
        assert program["cli"].report_to_json is not before[(f"{PACKAGE}.report", "report_to_json")]
        # Private helpers stay unwrapped.
        assert during[(f"{PACKAGE}.spectra", "_jacobi_rotate")] is before[(f"{PACKAGE}.spectra", "_jacobi_rotate")]
    after = _function_bindings()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key


def test_reentrant_call_records_one_span(program):
    nested = {"a": [1, {"b": [2.5, {"c": None}]}], "d": "e"}
    tracer = Tracer()
    with tracer:
        text = tracer.request(0, lambda: program["report"].render_json(nested))
    assert '"c": null' in text
    names = [tracer.names[span[0]] for span in tracer.spans]
    assert names == [REQUEST, "report.render_json"]


def test_layer_self_times_add_up_to_request_time(traced):
    summary = traced("tube-verify", seed=3, requests=6).summary()
    layer_ns = sum(summary.layer_self_ns[layer] for layer in LAYERS)
    assert summary.requests == 6
    # The rest of the request span is the benchmark's own output capture.
    assert 0.97 * summary.request_ns <= layer_ns <= summary.request_ns
