import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, load_program  # noqa: E402

SRC = BENCH.parent / "src"


@pytest.fixture
def program():
    return load_program(SRC)


@pytest.fixture
def traced(tmp_path):
    """``traced(name, seed, requests)``: a fresh traced run, checked request by request."""

    def run(name: str, seed: int, requests: int):
        workload = WORKLOADS[name](load_program(SRC), np.random.default_rng(seed), tmp_path)
        tracer = Tracer()
        with tracer:
            for i in range(requests):
                outcome = tracer.request(i, lambda: workload.request(i))
                assert workload.check(i, outcome) is None
        return tracer

    return run
