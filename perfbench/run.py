"""Benchmark entry point: cold paper-artefact workloads, closed loop.

Run from the root of the repository::

    python3 perfbench/run.py --workload fig11_cpu --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
and reports host times at a reference host speed (see :func:`probe_seconds`).
``--trace 1`` measures per-layer metrics instead: it alternates untraced
passes with passes traced by :mod:`tracer`, and writes the spans to
``perfbench/out/``.  Human-readable lines go first; the last line of
standard output is one JSON object.  The exit code is 0 only when every
operation returned and matched its expected output.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

#: Every REPRO_* switch, pinned so a stray variable cannot change what is
#: measured.  Any other REPRO_* variable is removed.
PINNED_ENV = {
    "REPRO_FAST_DRAIN": "1",
    "REPRO_TIMING_CACHE": "1",
    "REPRO_INSTR_MEMO": "1",
    "REPRO_JOBS": "1",
    "REPRO_PARALLEL_MIN_RECORDS": "4096",
}
#: One thread for NumPy's BLAS, so the single-process closed loop uses one
#: core of the shared host; set before NumPy is first imported.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Cold set-ups timed per run, each scaled to the reference speed by its
#: own speed probes, so that one moment of host noise cannot set ``setup_s``.
SETUP_PROBES = 9
MIN_PASSES = 2
#: Iterations of the speed probe's loop, and the seconds it takes at the
#: reference speed (about its median on a shared 2-CPU x86-64 VM with
#: CPython 3.11), so scaled times stay close to host seconds.
PROBE_ITERATIONS = 150_000
REFERENCE_PROBE_S = 0.0144
#: One cold set-up in a fresh interpreter: import the simulator, build
#: the workload's inputs; prints the seconds the two took, scaled to the
#: reference speed by speed probes before and after.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from run import speed_scale, probe_seconds
probe = probe_seconds()
start = time.perf_counter()
import bench_workloads
imported = time.perf_counter()
workload = bench_workloads.WORKLOADS[sys.argv[2]]()
built = time.perf_counter()
workload.build(int(sys.argv[3]))
seconds = imported - start + time.perf_counter() - built
print(seconds * speed_scale(probe, probe_seconds()))
"""

HERE = Path(__file__).resolve().parent


def probe_seconds() -> float:
    """Host seconds for a fixed pure-Python loop: the host's current speed.

    A shared host's speed drifts over seconds to minutes as neighbours
    load it.  The probe runs next to the measured work and drifts with
    it, and nothing in the simulator can change its cost.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor from host seconds to seconds at the reference speed."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


def pin_environment(src: Path) -> dict:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        if key not in PINNED_ENV:
            del os.environ[key]
    os.environ.update(PINNED_ENV)
    os.environ.update(THREAD_ENV)
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    import numpy

    return {
        **PINNED_ENV,
        **THREAD_ENV,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def setup_seconds(workload) -> float:
    """Time one cold set-up of ``workload`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(HERE), workload.name, str(workload.seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, workload, label, op) -> float:
        """Time one operation, check its output; return its host seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op()
        except Exception:
            elapsed = time.perf_counter() - start
            self._fail(f"{label}: raised\n{traceback.format_exc()}")
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            error = workload.check(label, result)
        except Exception:
            error = f"{label}: check raised\n{traceback.format_exc()}"
        if error:
            self._fail(error)
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {message}", file=sys.stderr)


def memo_counters() -> dict:
    from bench_workloads import INSTR_MEMO, TIMING_MEMO

    return {
        "trace_hits": TIMING_MEMO.hits, "trace_misses": TIMING_MEMO.misses,
        "instr_hits": INSTR_MEMO.hits, "instr_misses": INSTR_MEMO.misses,
    }


def run_pass(workload, pass_no: int, tally: Tally, probes=None) -> tuple[list[float], dict]:
    """One pass: op times, plus the memo counters it added.

    Given a ``probes`` list, a speed probe runs before the first operation
    and after each one, outside the timed regions, and its seconds are
    appended to the list.
    """
    workload.before_pass()
    gc.collect()
    before = memo_counters()
    times = []
    if probes is not None:
        probes.append(probe_seconds())
    for label, op in workload.operations(pass_no):
        times.append(tally.run(workload, label, op))
        if probes is not None:
            probes.append(probe_seconds())
    after = memo_counters()
    return times, {k: after[k] - before[k] for k in after}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with 20 samples or fewer no such
    percentile lies above the median, and the maximum is reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, seconds: float, tally: Tally) -> tuple[dict, list]:
    """The set-up probes, then passes until ``seconds`` have gone by.

    Every time is scaled to the reference speed; see :func:`probe_seconds`.
    """
    start = time.perf_counter()
    setups = [setup_seconds(workload) for _ in range(SETUP_PROBES)]
    passes, raw_walls = [], []
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        probes = []
        times = run_pass(workload, len(passes), tally, probes)[0]
        # Each operation at the speed the probes around it measured.
        passes.append([t * speed_scale(a, b) for t, a, b in zip(times, probes, probes[1:])])
        raw_walls.append(sum(times))
    walls = [sum(p) for p in passes]
    ops = [t for p in passes for t in p]
    wall = statistics.median(walls)
    tail_s, pct = tail(ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "sim_req_per_s": workload.requests_per_pass() / wall,
        "op_p50_s": statistics.median(ops),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "paper_rel_err": workload.paper_rel_err(),
    }
    notes = [
        f"passes={len(passes)} ops={len(ops)} op_tail percentile=p{pct:.1f}",
        f"unscaled wall_s (host seconds)={statistics.median(raw_walls):.4g} s",
        f"cold set-ups={len(setups)} min={min(setups):.4g} s max={max(setups):.4g} s",
        f"sim requests per pass={workload.requests_per_pass()}",
    ]
    return metrics, notes


def per_layer(workload, seconds: float, tally: Tally, out_dir: Path, pins: dict):
    """Alternate untraced and traced passes; reduce the spans to metrics."""
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    untraced, traced = [], []
    memo = {}
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        untraced.append(sum(run_pass(workload, 2 * len(traced), tally)[0]))
        tracer.install()
        try:
            times, counters = run_pass(workload, 2 * len(traced) + 1, tally)
        finally:
            tracer.uninstall()
        traced.append(sum(times))
        for key, value in counters.items():
            memo[key] = memo.get(key, 0) + value

    n = len(traced)
    inclusive, self_s, root_ns = tracer.span_totals()
    drained = tracer.drained
    rate = lambda hits, misses: hits / (hits + misses) if hits + misses else 0.0
    metrics = {
        "dram.system.enqueue_trace_s": inclusive["dram.system.enqueue_trace"] / n,
        "dram.system.enqueue_calls": tracer.counts["dram.system.enqueue_calls"] / n,
        "dram.system.run_s": inclusive["dram.system.run"] / n,
        "dram.controller.enqueue_calls": tracer.counts["dram.controller.enqueue_calls"] / n,
        "dram.controller.drain_s": inclusive["dram.controller.drain"] / n,
        "dram.controller.drains": drained["drains"] / n,
        "dram.controller.drained_req": drained["accesses"] / n,
        "dram.controller.drain_ns_per_req": (
            inclusive["dram.controller.drain"] * 1e9 / drained["accesses"]
            if drained["accesses"] else 0.0
        ),
        "dram.controller.row_hit_rate": rate(
            drained["row_hits"], drained["accesses"] - drained["row_hits"]
        ),
        "dram.memo.trace_hit_rate": rate(memo["trace_hits"], memo["trace_misses"]),
        "dram.memo.instr_hit_rate": rate(memo["instr_hits"], memo["instr_misses"]),
        "dram.memo.lookup_s": inclusive["dram.memo.lookup"] / n,
        "dram.cache.gather_s": inclusive["dram.cache.gather"] / n,
        "core.nmp_core.describe_s": inclusive["core.nmp_core.describe"] / n,
        "core.nmp_core.expand_s": inclusive["core.nmp_core.expand"] / n,
        "core.nmp_core.execute_s": inclusive["core.nmp_core.execute"] / n,
        "core.tensordimm.execute_timed_s": inclusive["core.tensordimm.execute_timed"] / n,
        "core.tensornode.broadcast_s": inclusive["core.tensornode.broadcast"] / n,
        "core.tensornode.write_indices_s": inclusive["core.tensornode.write_indices"] / n,
        "core.runtime.gather_s": inclusive["core.runtime.gather"] / n,
        "core.runtime.pool_mean_s": inclusive["core.runtime.pool_mean"] / n,
        "core.runtime.combine_s": inclusive["core.runtime.combine"] / n,
        "parallel.map_s": inclusive["parallel.map"] / n,
        "system.evaluate_s": inclusive["system.evaluate"] / n,
        "bench.ablations_s": inclusive["bench.ablations"] / n,
        "bench.traced_wall_s": sum(traced) / n,
        "bench.unattributed_s": (sum(traced) - root_ns / 1e9) / n,
        "bench.trace_overhead_s": statistics.median(traced) - statistics.median(untraced),
        **{f"{layer}.self_s": self_s[layer] / n for layer in LAYERS},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_file = out_dir / f"trace-{workload.name}-seed{workload.seed}.json"
    with open(trace_file, "w") as f:
        json.dump(
            {
                "workload": workload.name, "seed": workload.seed, "pins": pins,
                "traced_passes": n, "missing": tracer.missing,
                "metrics": metrics, "spans": tracer.spans,
            },
            f,
        )
    notes = [
        f"untraced passes={len(untraced)} traced passes={n}",
        f"spans={len(tracer.spans)} written to {trace_file}",
    ]
    if tracer.missing:
        notes.append(f"missing targets (report 0): {', '.join(tracer.missing)}")
    return metrics, notes


def load_units() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no simulator sources at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    pins = pin_environment(src)
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    tally = Tally()
    workload.build(args.seed)
    for label, op in workload.warmup():
        tally.run(workload, label, op)
    if args.trace:
        metrics, notes = per_layer(workload, args.seconds, tally, HERE / "out", pins)
    else:
        metrics, notes = end_to_end(workload, args.seconds, tally)
    notes += workload.notes()

    units = load_units()
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in pins.items()))
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units.get(name, '')}")
    failed_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_ratio = {failed_ratio:.6g} ({tally.failed}/{tally.attempted})")
    correct = tally.attempted > 0 and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
