"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables or figures (see
``python -m repro list``) and asserts its qualitative shape — who wins,
by roughly what factor, where the crossovers fall.  Run with::

    pytest benchmarks/ --benchmark-only

The cycle-level figures (11 and 12) use trimmed sweeps to keep wall-clock
reasonable; ``examples/bandwidth_scaling.py`` runs the full grids.
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` exactly once (the DRAM-simulation figures are too slow
    for statistical rounds, and their output is deterministic anyway)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def runner(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return runner
