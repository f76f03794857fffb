"""Ablations of the TensorDIMM design choices (not paper figures)."""

from repro.bench import ablation


def bench_ablation_address_mapping(once):
    """Rank-interleaved striping (Fig. 7) vs whole-row placement."""
    result = once(ablation.address_mapping)
    print(f"\ninterleaved {result.interleaved / 1e9:.1f} GB/s vs "
          f"whole-row {result.whole_row / 1e9:.1f} GB/s "
          f"({result.advantage:.2f}x)")


def bench_ablation_scheduler(once):
    """FR-FCFS reordering vs strict FCFS on the gather pattern."""
    result = once(ablation.scheduler)
    print(f"\nFR-FCFS {result.fr_fcfs / 1e9:.1f} GB/s vs "
          f"FCFS {result.fcfs / 1e9:.1f} GB/s ({result.advantage:.2f}x)")


def bench_ablation_cpu_cache(once):
    """The Gupta et al. observation: CPU sparse gathers realise a sliver of
    peak DRAM bandwidth; popularity skew buys some of it back."""
    result = once(ablation.cpu_cache)
    print(f"\nuniform {result.uniform:.3f}, zipfian {result.zipfian:.3f}, "
          f"streaming {result.streaming:.3f} of peak")


def bench_ablation_page_policy(once):
    """Open- vs closed-page row policy on the NMP streaming pattern."""
    result = once(ablation.page_policy)
    print(f"\nopen {result.open_page / 1e9:.1f} GB/s vs "
          f"closed {result.closed_page / 1e9:.1f} GB/s "
          f"({result.open_advantage:.2f}x)")


def bench_ablation_queue_sizing(once):
    """Section 4.2's bandwidth-delay-product rule: 512 B per SRAM queue."""
    result = once(ablation.queue_sizing)
    print(f"\nrequired queue: {result.required_bytes} B (paper: 512 B)")
