"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables or figures (see
``python -m repro list``), times it and prints it.  Its qualitative shape —
who wins, by roughly what factor, where the crossovers fall — is checked
at the same sizes by ``tests/test_paper_fidelity.py`` in the tier-1
suite.  The files and functions are named ``bench_*``, which pytest does
not collect by default; ``benchmarks/pytest.ini`` collects the 14 artefact
benchmarks (and not ``bench_perf.py``, a command-line harness) whenever
pytest is pointed at this directory, so run (pytest-benchmark installed)::

    PYTHONPATH=src pytest benchmarks/ --benchmark-only

The tier-1 suite, run from the repository root, does not read that file
and collects nothing here.

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
