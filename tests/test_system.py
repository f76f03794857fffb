"""Tests for the five design points and the latency pipeline."""

import pytest

from repro.interconnect.link import NVLINK2_GPU, PCIE3_X16
from repro.models.model_zoo import ALL_WORKLOADS, FACEBOOK, FOX, NCF, YOUTUBE
from repro.system.design_points import (
    DESIGN_NAMES,
    evaluate,
    evaluate_all,
    normalized_performance,
)
from repro.system.params import DEFAULT_PARAMS, SystemParams
from repro.system.pipeline import index_bytes, tdimm_node_time
from repro.system.result import LatencyBreakdown


class TestLatencyBreakdown:
    def make(self, **overrides):
        defaults = dict(
            design="X", workload="W", batch=1,
            lookup=1e-3, transfer=2e-3, interaction=3e-4, dnn=7e-4, other=1e-5,
        )
        defaults.update(overrides)
        return LatencyBreakdown(**defaults)

    def test_total(self):
        assert self.make().total == pytest.approx(4.01e-3)

    def test_computation_bucket(self):
        assert self.make().computation == pytest.approx(1e-3)

    def test_speedup(self):
        fast = self.make(lookup=1e-4, transfer=0.0)
        slow = self.make()
        assert fast.speedup_over(slow) > 1.0

    def test_fractions_sum_to_one(self):
        fractions = self.make().fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_speedup_zero_total(self):
        zero = self.make(lookup=0, transfer=0, interaction=0, dnn=0, other=0)
        with pytest.raises(ValueError):
            zero.speedup_over(self.make())


class TestDesignPointRegistry:
    def test_five_designs(self):
        assert DESIGN_NAMES == ("CPU-only", "CPU-GPU", "PMEM", "TDIMM", "GPU-only")

    def test_unknown_design(self):
        with pytest.raises(KeyError):
            evaluate("TPU-only", NCF, 8)

    def test_invalid_batch(self):
        for name in DESIGN_NAMES:
            with pytest.raises(ValueError):
                evaluate(name, NCF, 0)

    def test_evaluate_all_covers_registry(self):
        results = evaluate_all(NCF, 8)
        assert set(results) == set(DESIGN_NAMES)

    def test_result_labels(self):
        result = evaluate("TDIMM", YOUTUBE, 16)
        assert result.design == "TDIMM"
        assert result.workload == "YouTube"
        assert result.batch == 16


class TestStructuralProperties:
    def test_cpu_only_never_transfers(self):
        for config in ALL_WORKLOADS:
            assert evaluate("CPU-only", config, 64).transfer == 0.0

    def test_gpu_only_never_transfers(self):
        for config in ALL_WORKLOADS:
            assert evaluate("GPU-only", config, 64).transfer == 0.0

    def test_cpu_gpu_pays_pcie(self):
        result = evaluate("CPU-GPU", FACEBOOK, 64)
        expected = PCIE3_X16.transfer_time(FACEBOOK.gathered_bytes(64))
        assert result.transfer == pytest.approx(expected)

    def test_tdimm_ships_only_reduced_tensors(self):
        tdimm = evaluate("TDIMM", FOX, 64)
        pmem = evaluate("PMEM", FOX, 64)
        # Fox reduces 50-way: TDIMM's copy must be far smaller.
        assert tdimm.transfer < pmem.transfer / 10

    def test_all_stages_non_negative(self):
        for config in ALL_WORKLOADS:
            for design in DESIGN_NAMES:
                r = evaluate(design, config, 32)
                for value in (r.lookup, r.transfer, r.interaction, r.dnn, r.other):
                    assert value >= 0

    def test_latency_monotonic_in_batch(self):
        for design in DESIGN_NAMES:
            totals = [evaluate(design, YOUTUBE, b).total for b in (8, 32, 128)]
            assert totals == sorted(totals)

    def test_cpu_lookup_slower_than_gpu_lookup(self):
        cpu = evaluate("CPU-only", YOUTUBE, 64)
        gpu = evaluate("GPU-only", YOUTUBE, 64)
        assert cpu.lookup > 5 * gpu.lookup


class TestPaperShapeClaims:
    """The qualitative results of Figures 4, 13, 14 must hold."""

    def test_gpu_only_is_fastest_at_scale(self):
        for config in ALL_WORKLOADS:
            results = evaluate_all(config, 64)
            best = min(results.values(), key=lambda r: r.total)
            assert best.design == "GPU-only"

    def test_tdimm_is_best_buildable_design(self):
        """TDIMM wins outright wherever there is real reduction fan-in;
        for NCF (fan-in 2) the NMP advantage is small, so TDIMM need only
        be within a few percent of the best buildable design."""
        for config in ALL_WORKLOADS:
            for batch in (8, 64, 128):
                results = evaluate_all(config, batch)
                buildable = {k: v for k, v in results.items() if k != "GPU-only"}
                best = min(buildable.values(), key=lambda r: r.total)
                if config.max_reduction >= 25:
                    assert best.design == "TDIMM", (config.name, batch)
                else:
                    tdimm = results["TDIMM"].total
                    assert tdimm <= 1.1 * best.total, (config.name, batch)

    def test_tdimm_within_75_percent_of_oracle(self):
        # Fig. 14: "no less than 75%".
        for config in ALL_WORKLOADS:
            for batch in (8, 64, 128):
                norm = normalized_performance(config, batch)
                assert norm["TDIMM"] >= 0.70, (config.name, batch)

    def test_cpu_only_beats_cpu_gpu_at_batch_one(self):
        # Fig. 4: "CPU-only exhibits some performance advantage ... for
        # certain low batch inference scenarios".
        wins = sum(
            1
            for config in ALL_WORKLOADS
            if evaluate("CPU-only", config, 1).total < evaluate("CPU-GPU", config, 1).total
        )
        assert wins >= 3

    def test_cpu_gpu_beats_cpu_only_at_large_batch_for_compute_heavy(self):
        ncf = evaluate_all(NCF, 128)
        assert ncf["CPU-GPU"].total < ncf["CPU-only"].total

    def test_pmem_between_cpu_gpu_and_tdimm(self):
        """PMEM isolates the fast-link benefit from the NMP benefit: it must
        beat CPU-GPU everywhere and lose to TDIMM wherever reductions are
        substantial (NCF's 2-way fan-in leaves PMEM ~= TDIMM)."""
        for config in ALL_WORKLOADS:
            results = evaluate_all(config, 64)
            assert results["PMEM"].total < results["CPU-GPU"].total
            if config.max_reduction >= 25:
                assert results["TDIMM"].total < results["PMEM"].total

    def test_tdimm_speedup_grows_with_embedding_scale(self):
        # Fig. 15's monotonic trend.
        def speedup(scale):
            results = evaluate_all(YOUTUBE.scaled_embedding(scale), 64)
            return results["TDIMM"].speedup_over(results["CPU-GPU"])

        assert speedup(1) < speedup(2) < speedup(4) < speedup(8)

    def test_tdimm_insensitive_to_link_bandwidth(self):
        # Fig. 16: TDIMM loses little even at 6x lower link bandwidth.
        slow = SystemParams(node_link=NVLINK2_GPU.scaled(25e9))
        for config in ALL_WORKLOADS:
            fast_t = evaluate("TDIMM", config, 64).total
            slow_t = evaluate("TDIMM", config, 64, slow).total
            assert slow_t < 1.4 * fast_t

    def test_pmem_sensitive_to_link_bandwidth(self):
        slow = SystemParams(node_link=NVLINK2_GPU.scaled(25e9))
        fast_t = evaluate("PMEM", FACEBOOK, 64).total
        slow_t = evaluate("PMEM", FACEBOOK, 64, slow).total
        assert slow_t > 1.5 * fast_t


class TestPipelineHelpers:
    def test_tdimm_node_time_counts_instructions(self):
        seconds, instructions = tdimm_node_time(FACEBOOK, 64, DEFAULT_PARAMS)
        # 8 GATHERs + 8 AVERAGEs for the 8 multi-hot tables.
        assert instructions == 16
        assert seconds > 0

    def test_ncf_instruction_count(self):
        _, instructions = tdimm_node_time(NCF, 64, DEFAULT_PARAMS)
        # 4 GATHERs + 3 chained REDUCEs (element-wise interaction).
        assert instructions == 7

    def test_index_bytes(self):
        assert index_bytes(YOUTUBE, 64) == 64 * 2 * 50 * 4

    def test_node_bandwidth_scales_with_dimms(self):
        base = DEFAULT_PARAMS
        double = base.with_node_dimms(64)
        assert double.node_bandwidth == pytest.approx(2 * base.node_bandwidth)

    def test_node_time_shrinks_with_more_dimms(self):
        small, _ = tdimm_node_time(FACEBOOK, 64, DEFAULT_PARAMS)
        big, _ = tdimm_node_time(FACEBOOK, 64, DEFAULT_PARAMS.with_node_dimms(128))
        assert big < small


class TestSystemParamsValidation:
    """A bad platform parameter raises ``ValueError`` naming the field,
    instead of a NaN, negative or ``ZeroDivisionError`` latency later."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("node_dimms", 0),
            ("node_dimms", -4),
            ("node_dimms", 2.5),
            ("node_dimms", True),
            ("pool_channels", 0),
            ("pool_channels", 8.0),
            ("dimm_bandwidth", 0.0),
            ("dimm_bandwidth", -1e9),
            ("dimm_bandwidth", float("nan")),
            ("dimm_bandwidth", float("inf")),
            ("node_stream_efficiency", float("nan")),
            ("node_stream_efficiency", 0.0),
            ("node_stream_efficiency", 1.5),
            ("pool_stream_efficiency", 0.0),
            ("pool_stream_efficiency", float("nan")),
            ("cpu_framework_overhead", -1e-6),
            ("gpu_framework_overhead", float("inf")),
            ("instruction_overhead", -1.0),
            ("instruction_overhead", float("nan")),
        ],
    )
    def test_bad_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            SystemParams(**{field: value})

    def test_with_node_dimms_checks_too(self):
        with pytest.raises(ValueError, match="node_dimms"):
            DEFAULT_PARAMS.with_node_dimms(0)

    def test_zero_overheads_accepted(self):
        params = SystemParams(
            cpu_framework_overhead=0.0, gpu_framework_overhead=0.0, instruction_overhead=0.0
        )
        assert params.node_dimms == DEFAULT_PARAMS.node_dimms
