"""Record the simulator's current outputs as the benchmark's reference.

Run from the repository root, on a commit whose outputs are trusted::

    python3 perfbench/record_reference.py

It rewrites ``perfbench/reference.json``:

* ``fig11_cpu``: every grid point's bandwidth;
* ``fast_artefacts``: every CLI command's stdout;
* ``node_embedding``: for each seed in ``SEEDS``, a digest of each
  batch's per-instruction ControllerStats fields and node seconds, for
  batches ``0..BATCHES-1``.  A run that goes past the recorded batches,
  or uses another seed, checks those batches against NumPy only and says
  so in its output.
"""

import json
import sys
from pathlib import Path

SEEDS = range(11)
#: About eight times the batches a 30 s run reaches at the seed commit.
BATCHES = 1024


def main() -> int:
    import run

    run.pin_environment(Path.cwd() / "src")
    import bench_workloads as bw

    reference = {}
    fig11 = bw.Fig11Cpu()
    bw.clear_memos()
    grid = bw.figure11.sweep_grid(fig11.points, jobs=1)
    reference[fig11.name] = {bw.point_key(p): gbps for p, gbps in grid.items()}

    fast = bw.FastArtefacts()
    entry = {}
    for label, op in fast.operations(0):
        code, text = op()
        if code != 0:
            raise SystemExit(f"{label} exited {code}")
        entry[label] = text
    reference[fast.name] = entry

    node = bw.NodeEmbedding()
    seeds = {}
    for seed in SEEDS:
        node.build(seed)
        node.digests = []  # check against NumPy only
        bw.clear_memos()
        digests = []
        for k in range(BATCHES):
            result = node.run_batch(k, node.indices(k))
            error = node.check(f"batch{k}", result)
            if error:
                raise SystemExit(error)
            digests.append(bw.launches_digest(result[3]))
        seeds[str(seed)] = digests
        print(f"node_embedding seed {seed}: {len(digests)} batches", file=sys.stderr)
    reference[node.name] = {"seeds": seeds}

    bw.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
