"""The paper's shapes and numbers, checked on every run of the suite.

Each test regenerates one table or figure, at the size the matching
``benchmarks/bench_*.py`` entry times, and checks it against the claims of
the paper (``repro.bench.paper_data``): who wins, by roughly what factor,
where the crossovers fall.  The benchmarks only time and print.  The
cycle-level figures run with the timing memos on, as the CLI does.
"""

from repro.bench import (
    ablation,
    figure03,
    figure04,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    table3,
)
from repro.bench.paper_data import (
    BASELINE_SLOWDOWN_RANGE,
    FIG11_CPU_MAX_GBPS,
    FIG12_CPU_SATURATION_GBPS,
    FIG12_NODE_MAX_GBPS,
    FIG14_SPEEDUP_VS_CPU_GPU,
    FIG14_SPEEDUP_VS_CPU_ONLY,
    FIG14_TDIMM_VS_ORACLE_MIN,
    FIG15_MAX_SPEEDUP,
    FIG16_PMEM_MAX_LOSS,
    FIG16_TDIMM_MAX_LOSS,
    POWER_BUDGET_RANGE_W,
    POWER_NODE_W,
    POWER_PER_DIMM_W,
    TABLE3,
)


def test_figure03_model_size_grid():
    result = figure03.run()

    # Claim 1: embedding dimension, not MLP dimension, drives model size.
    assert result.embedding_dominated()

    # Claim 2: the sweep spans hundreds of GBs into the TB range —
    # far beyond any GPU's local memory (the paper's premise).
    assert result.size_gb(64, 64) > 1.0
    assert result.size_gb(8192, 32768) > 2000.0

    # Growing embeddings 8x grows the model ~8x (tables dominate).
    ratio = result.size_gb(512, 4096) / result.size_gb(512, 512)
    assert 7.0 < ratio < 9.0


def test_figure04_baseline_slowdowns():
    result = figure04.run()

    # Shape 1: both baselines suffer multi-fold slowdowns at scale; the
    # paper reports an average 7.3-20.9x across its configurations.
    low, high = result.slowdown_range()
    assert high > BASELINE_SLOWDOWN_RANGE[0]

    # Shape 2: CPU-only beats CPU-GPU at batch 1 (PCIe latency dominates
    # small transfers) but the crossover appears at large batch for the
    # compute-dominated model (NCF) — exactly Fig. 4's per-workload pattern.
    assert result.cpu_only_wins_at_small_batch()
    assert result.values[("NCF", 128, "CPU-GPU")] > result.values[("NCF", 128, "CPU-only")]

    # Shape 3: the baselines only degrade as batch grows (the gap to the
    # GPU oracle widens with more embedding traffic).
    for design in ("CPU-only", "CPU-GPU"):
        assert result.average(design, 128) < result.average(design, 1)


def test_figure11_bandwidth_utilization(timing_memo):
    result = figure11.run(batches=(8, 32, 96))

    # Shape 1: the TensorNode's aggregate bandwidth dwarfs the CPU's.
    # Paper: 4x on average (808 vs 192 GB/s at the top end).
    assert result.speedup() > 2.5

    # Shape 2: the CPU side saturates near its 204.8 GB/s channel limit
    # and never exceeds it; paper measures 192 GB/s max.
    assert result.max_bandwidth("CPU") <= result.cpu_peak
    assert result.max_bandwidth("CPU") > 0.5 * FIG11_CPU_MAX_GBPS * 1e9

    # Shape 3: the node approaches its aggregate peak on streaming ops.
    assert result.max_bandwidth("TensorNode") > 0.7 * result.node_peak

    # Shape 4: node bandwidth grows with batch size (the figure's x-axis
    # trend); the CPU saturates almost immediately at its channel limit.
    assert (
        result.values[("TensorNode", "GATHER", 96)]
        >= result.values[("TensorNode", "GATHER", 8)]
    )
    assert result.values[("CPU", "GATHER", 96)] > 0.5 * result.cpu_peak

    # Reproduction note (NmpCore.accumulate_mean): a faithful 150 MHz pair-per-cycle
    # ALU leaves AVERAGE partly compute-bound, unlike the paper's GPU-based
    # emulation — it still beats the CPU by a wide margin.
    assert (
        result.values[("TensorNode", "AVERAGE", 96)]
        > 2.0 * result.values[("CPU", "AVERAGE", 96)]
    )


def test_figure12_dimm_scaling(timing_memo):
    result = figure12.run(ops=("GATHER", "REDUCE"), batch=48)

    # Shape 1: the conventional memory system gains nothing from extra
    # DIMMs — its channels are the bottleneck (paper: flat at ~200 GB/s).
    assert result.cpu_max() < 1.1 * FIG12_CPU_SATURATION_GBPS * 1e9
    for op in ("GATHER", "REDUCE"):
        assert result.cpu_scaling(op) < 1.25

    # Shape 2: the TensorNode scales near-linearly: 4x the DIMMs should buy
    # at least 3x the bandwidth on every op.
    for op in ("GATHER", "REDUCE"):
        assert result.node_scaling(op) > 3.0

    # Shape 3: at 128 TensorDIMMs the node sits in the TB/s regime
    # (paper: 3.1 TB/s; streaming ops get closest).
    assert result.node_max() > 0.6 * FIG12_NODE_MAX_GBPS * 1e9


def test_figure13_latency_breakdown():
    result = figure13.run()

    workloads = sorted({w for w, _ in result.breakdowns})
    for workload in workloads:
        # Shape 1: TDIMM shrinks both the lookup and the copy stage
        # relative to the hybrid baseline (Section 6.2's claim).
        assert result.tdimm_cuts_lookup_and_copy(workload)

        # Shape 2: the oracle never transfers; CPU-only never transfers.
        assert result.breakdowns[(workload, "GPU-only")].transfer == 0.0
        assert result.breakdowns[(workload, "CPU-only")].transfer == 0.0

    # Shape 3: for the transfer-heavy hybrid design, cudaMemcpy dominates
    # on the multi-hot models (YouTube/Fox/Facebook).
    for workload in ("YouTube", "Fox", "Facebook"):
        stack = result.normalized_stack(workload, "CPU-GPU")
        assert stack["memcpy"] > stack["computation"]

    # Shape 4: CPU-only's pain is lookup + computation, not transfer.
    for workload in ("YouTube", "Fox"):
        breakdown = result.breakdowns[(workload, "CPU-only")]
        assert breakdown.lookup + breakdown.computation > 0.99 * breakdown.total


def test_figure14_design_point_comparison():
    result = figure14.run()

    # Headline 1: TDIMM delivers most of the unbuildable oracle's
    # performance (paper: 84% average, no point below 75%).
    assert 0.80 <= result.geomean_design("TDIMM") <= 1.0
    assert result.tdimm_min() >= FIG14_TDIMM_VS_ORACLE_MIN - 0.05

    # Headline 2: multi-fold speedups over both CPU-resident baselines
    # (paper: 6.2x and 8.9x on average; shape target is same order and
    # CPU-GPU hurting more than CPU-only).
    speedup_cpu = result.speedup("CPU-only")
    speedup_hybrid = result.speedup("CPU-GPU")
    assert speedup_cpu > 0.5 * FIG14_SPEEDUP_VS_CPU_ONLY
    assert speedup_hybrid > 0.5 * FIG14_SPEEDUP_VS_CPU_GPU
    assert speedup_hybrid > speedup_cpu

    # Ordering: oracle >= TDIMM >= PMEM >= CPU baselines (geomeans).
    order = [
        result.geomean_design(d)
        for d in ("GPU-only", "TDIMM", "PMEM", "CPU-only")
    ]
    assert order == sorted(order, reverse=True)


def test_figure15_scaled_embeddings():
    result = figure15.run()

    # Shape 1: speedups grow monotonically with embedding scale for both
    # baselines (the paper's 6.2->15.0x and 8.9->17.6x trends).
    assert result.monotonic_in_scale("CPU-only")
    assert result.monotonic_in_scale("CPU-GPU")

    # Shape 2: by 8x embeddings the speedups are well into double digits
    # territory against the hybrid baseline.
    assert result.average("CPU-GPU", 8) > 10.0
    assert result.average("CPU-only", 8) > 7.0

    # Shape 3: individual configurations can spike far above the average
    # but stay bounded by the paper's 35x maximum observation.
    assert 15.0 < result.max_speedup() < FIG15_MAX_SPEEDUP + 5.0

    # Shape 4: scaling 1x -> 8x should at least double the advantage.
    assert result.average("CPU-GPU", 8) > 1.8 * result.average("CPU-GPU", 1)


def test_figure16_link_sensitivity():
    result = figure16.run()

    # Shape 1: PMEM collapses on slow links (paper: up to 68% loss) —
    # every raw embedding crosses the wire.
    assert result.max_loss("PMEM") > 0.5
    assert result.max_loss("PMEM") < FIG16_PMEM_MAX_LOSS + 0.1

    # Shape 2: TDIMM barely notices (paper: <=15% worst, 10% average) —
    # near-memory reduction shrank the transfer N-fold first.
    assert result.max_loss("TDIMM") < 2 * FIG16_TDIMM_MAX_LOSS
    assert result.average_loss("TDIMM") < 0.2

    # Shape 3: at every link speed, TDIMM retains more performance.
    for bandwidth in (25e9, 50e9):
        assert result.average("TDIMM", bandwidth) > result.average("PMEM", bandwidth)

    # Shape 4: performance is monotone in link bandwidth for both.
    for design in ("PMEM", "TDIMM"):
        curve = [result.average(design, bw) for bw in (25e9, 50e9, 150e9)]
        assert curve == sorted(curve)


def test_table3_area_and_power():
    result = table3.run()

    # Table 3's message: every NMP-core component is a rounding error on
    # the VCU1525 (all utilisations well below half a percent).
    assert result.all_under(0.5)

    # The dominant entries should land near the paper's reported values.
    fpu = result.utilization["FPU"]
    assert abs(fpu["LUT"] - TABLE3["FPU"]["LUT"]) < 0.05
    assert abs(fpu["DSP"] - TABLE3["FPU"]["DSP"]) < 0.05
    alu = result.utilization["ALU"]
    assert abs(alu["LUT"] - TABLE3["ALU"]["LUT"]) < 0.05

    # Section 6.5: ~13 W per 128 GB LR-DIMM, ~416 W per node, inside an
    # OCP accelerator module's 350-700 W TDP envelope.
    assert abs(result.power.per_dimm_w - POWER_PER_DIMM_W) < 4.0
    assert abs(result.power.total_w - POWER_NODE_W) < 120.0
    assert result.power.total_w <= POWER_BUDGET_RANGE_W[1]


def test_ablation_address_mapping():
    # Striping engages every NMP core at inference batch sizes.
    assert ablation.address_mapping().advantage > 1.5


def test_ablation_scheduler():
    # FR-FCFS reordering vs strict FCFS on the gather pattern.
    assert ablation.scheduler().advantage > 1.5


def test_ablation_cpu_cache():
    # The Gupta et al. observation: CPU sparse gathers realise a sliver of
    # peak DRAM bandwidth; popularity skew buys some of it back.
    result = ablation.cpu_cache()
    assert result.uniform_below_5_percent
    assert result.zipfian > result.uniform


def test_ablation_page_policy():
    # Open- vs closed-page row policy on the NMP streaming pattern.
    assert ablation.page_policy().open_advantage > 1.5


def test_ablation_queue_sizing():
    # Section 4.2's bandwidth-delay-product rule: 512 B per SRAM queue.
    assert ablation.queue_sizing().matches_paper
