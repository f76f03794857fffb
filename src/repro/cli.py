"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro list
    python -m repro figure 14
    python -m repro figure 11 --quick --jobs 8
    python -m repro table 3
    python -m repro ablations
    python -m repro evaluate Facebook --batch 64

Only the cycle-simulated figures (11 and 12) accept ``--jobs N``, which
fans their design-point grid out over N worker processes (see
:mod:`repro.parallel`; default 1, 0 = all CPUs).  Every other command
runs in-process.
"""

import argparse
import importlib
import sys

#: Each figure's module under :mod:`repro.bench`, imported only when its
#: command runs, so an analytic figure never loads the cycle-level model.
_FIGURES = {
    "3": ("figure03", "NCF model size growth"),
    "4": ("figure04", "baseline performance vs the GPU oracle"),
    "11": ("figure11", "tensor-op bandwidth utilisation (cycle-level)"),
    "12": ("figure12", "throughput vs DIMM count (cycle-level)"),
    "13": ("figure13", "latency breakdown at batch 64"),
    "14": ("figure14", "five design points vs the GPU oracle"),
    "15": ("figure15", "speedups with scaled embeddings"),
    "16": ("figure16", "interconnect-bandwidth sensitivity"),
}


def _cmd_list(_args) -> int:
    from .models.model_zoo import WORKLOADS_BY_NAME

    print("figures:")
    for number, (_, description) in sorted(_FIGURES.items(), key=lambda kv: int(kv[0])):
        print(f"  figure {number:>2} — {description}")
    print("tables:\n  table 3  — NMP-core FPGA utilisation + node power")
    print("other:\n  ablations — design-choice ablation studies")
    print(f"  evaluate <workload> — one of: {', '.join(sorted(WORKLOADS_BY_NAME))}")
    return 0


def _cmd_figure(args) -> int:
    if args.number not in _FIGURES:
        known = ", ".join(sorted(_FIGURES, key=int))
        print(f"unknown figure {args.number!r}; known: {known}", file=sys.stderr)
        return 2
    for option, given in (("--quick", args.quick), ("--jobs", args.jobs is not None)):
        if given and args.number not in ("11", "12"):
            print(
                f"{option} applies only to figures 11 and 12, not figure {args.number}",
                file=sys.stderr,
            )
            return 2
    module = importlib.import_module(f".bench.{_FIGURES[args.number][0]}", __package__)
    kwargs = {}
    if args.quick and args.number == "11":
        kwargs["batches"] = (8, 32, 96)
    if args.quick and args.number == "12":
        kwargs["ops"] = ("GATHER", "REDUCE")
        kwargs["batch"] = 48
    if args.jobs is not None:
        kwargs["jobs"] = args.jobs
    result = module.run(**kwargs)
    print(module.format_table(result))
    return 0


def _cmd_table(args) -> int:
    if args.number != "3":
        print("only table 3 has a regeneration harness", file=sys.stderr)
        return 2
    from .bench import table3

    print(table3.format_table(table3.run()))
    return 0


def _cmd_ablations(args) -> int:
    from .bench import ablation

    results = ablation.run_all(overrides={"cpu_cache": {"accesses": 8000}})
    mapping = results["address_mapping"]
    print(f"address mapping: interleaved {mapping.interleaved / 1e9:.1f} GB/s vs "
          f"whole-row {mapping.whole_row / 1e9:.1f} GB/s ({mapping.advantage:.2f}x)")
    sched = results["scheduler"]
    print(f"scheduler: FR-FCFS {sched.fr_fcfs / 1e9:.1f} GB/s vs "
          f"FCFS {sched.fcfs / 1e9:.1f} GB/s ({sched.advantage:.2f}x)")
    cache = results["cpu_cache"]
    print(f"cpu cache: uniform gathers at {cache.uniform:.1%} of peak, "
          f"zipfian {cache.zipfian:.1%}, streaming {cache.streaming:.1%}")
    pages = results["page_policy"]
    print(f"page policy: open {pages.open_page / 1e9:.1f} GB/s vs "
          f"closed {pages.closed_page / 1e9:.1f} GB/s ({pages.open_advantage:.2f}x)")
    queues = results["queue_sizing"]
    print(f"queue sizing: {queues.required_bytes} B per queue "
          f"(paper: {queues.paper_bytes} B)")
    return 0


def _cmd_evaluate(args) -> int:
    from .bench.harness import Table
    from .models.model_zoo import workload
    from .system.design_points import DESIGN_NAMES, evaluate_all

    try:
        config = workload(args.workload)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    config = config.scaled_embedding(args.scale)
    results = evaluate_all(config, args.batch)
    table = Table(
        f"{config.name} @ batch {args.batch}, embedding dim {config.embedding_dim}",
        ["design", "lookup (us)", "memcpy (us)", "compute (us)", "other (us)",
         "total (us)", "vs oracle"],
    )
    reference = results["GPU-only"]
    for design in DESIGN_NAMES:
        r = results[design]
        table.add(
            design,
            r.lookup * 1e6,
            r.transfer * 1e6,
            r.computation * 1e6,
            r.other * 1e6,
            r.total * 1e6,
            r.normalized_to(reference),
        )
    print(table.render())
    return 0


def _positive_int(text: str) -> int:
    """argparse ``type`` for counts: anything below 1 exits 2 with usage."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _jobs(text: str) -> int:
    """argparse ``type`` for ``--jobs``: a count, or 0 for every CPU."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer (0 = all CPUs), got {text!r}"
        )
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TensorDIMM reproduction experiment runner",
        epilog=(
            "Figures 11 and 12 take --jobs N to run their cycle-level sweep "
            "over N worker processes (0 means all CPUs); every other command "
            "runs in-process."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        fn=_cmd_list
    )

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", help="figure number (3, 4, 11-16)")
    figure.add_argument(
        "--quick", action="store_true", help="trimmed sweep (figures 11 and 12)"
    )
    figure.add_argument(
        "--jobs",
        type=_jobs,
        metavar="N",
        help="worker processes for the sweep (figures 11 and 12; "
        "default 1, 0 = all CPUs)",
    )
    figure.set_defaults(fn=_cmd_figure)

    tbl = sub.add_parser("table", help="regenerate a paper table")
    tbl.add_argument("number", help="table number (3)")
    tbl.set_defaults(fn=_cmd_table)

    sub.add_parser("ablations", help="run the ablation studies").set_defaults(
        fn=_cmd_ablations
    )

    ev = sub.add_parser("evaluate", help="evaluate one workload")
    ev.add_argument("workload", help="NCF | YouTube | Fox | Facebook")
    ev.add_argument("--batch", type=_positive_int, default=64)
    ev.add_argument(
        "--scale", type=_positive_int, default=1, help="embedding scale factor"
    )
    ev.set_defaults(fn=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
