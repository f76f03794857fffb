"""Tests for the experiment harness (small configurations)."""

import tracemalloc

import pytest

from repro.bench import (
    ablation,
    figure03,
    figure04,
    figure13,
    figure14,
    figure15,
    figure16,
    harness,
    table3,
)
from repro.models.model_zoo import FOX, NCF, YOUTUBE


class TestHarness:
    def test_geomean(self):
        assert harness.geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geomean_rejects_empty(self):
        with pytest.raises(ValueError):
            harness.geomean([])

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harness.geomean([1.0, 0.0])

    def test_table_render(self):
        table = harness.Table("T", ["a", "b"])
        table.add(1, 2.5)
        text = table.render()
        assert "T" in text and "2.500" in text

    def test_table_row_width_check(self):
        table = harness.Table("T", ["a"])
        with pytest.raises(ValueError):
            table.add(1, 2)

    def test_compare_line(self):
        line = harness.compare_line("x", 2.0, 4.0)
        assert "ratio 0.50" in line


class TestFigure3:
    def test_grid_complete(self):
        result = figure03.run(mlp_dims=(64, 128), embedding_dims=(64, 128))
        assert len(result.sizes) == 4

    def test_embedding_dominates(self):
        result = figure03.run()
        assert result.embedding_dominated()

    def test_peak_size_matches_paper_scale(self):
        # Fig. 3's top-right region sits in the multi-TB range.
        result = figure03.run()
        assert result.size_gb(8192, 32768) > 2000

    def test_format_table(self):
        assert "NCF model size" in figure03.format_table(figure03.run())


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self):
        return figure04.run(workloads=(NCF, YOUTUBE, FOX), batches=(1, 64))

    def test_baselines_slow_at_scale(self, result):
        low, high = result.slowdown_range()
        assert high > 5.0

    def test_cpu_only_wins_small_batch(self, result):
        assert result.cpu_only_wins_at_small_batch()

    def test_format_table(self, result):
        text = figure04.format_table(result)
        assert "Average" in text


class TestFigure13:
    @pytest.fixture(scope="class")
    def result(self):
        return figure13.run(workloads=(YOUTUBE, FOX))

    def test_slowest_normalises_to_one(self, result):
        slowest = result.slowest("Fox")
        stack = result.normalized_stack("Fox", slowest.design)
        assert stack["total"] == pytest.approx(1.0)

    def test_stack_components_sum_to_total(self, result):
        stack = result.normalized_stack("YouTube", "CPU-GPU")
        parts = stack["lookup"] + stack["memcpy"] + stack["computation"] + stack["else"]
        assert parts == pytest.approx(stack["total"])

    def test_tdimm_cuts_lookup_and_copy(self, result):
        # Section 6.2's claim, per workload.
        assert result.tdimm_cuts_lookup_and_copy("YouTube")
        assert result.tdimm_cuts_lookup_and_copy("Fox")

    def test_format_table(self, result):
        assert "latency breakdown" in figure13.format_table(result)


class TestFigure14:
    @pytest.fixture(scope="class")
    def result(self):
        return figure14.run()

    def test_tdimm_in_paper_band(self, result):
        # Paper: average 84%, no less than 75% of the oracle.
        assert 0.75 <= result.geomean_design("TDIMM") <= 1.0
        assert result.tdimm_min() >= 0.70

    def test_speedup_over_cpu_only(self, result):
        # Paper: 6.2x average; the shape target is "several-fold".
        assert 3.5 <= result.speedup("CPU-only") <= 9.0

    def test_speedup_over_cpu_gpu_larger(self, result):
        assert result.speedup("CPU-GPU") > result.speedup("CPU-only")

    def test_gpu_only_normalises_to_one(self, result):
        assert result.geomean_design("GPU-only") == pytest.approx(1.0)

    def test_format_table(self, result):
        assert "geomean" in figure14.format_table(result)


class TestFigure15:
    @pytest.fixture(scope="class")
    def result(self):
        return figure15.run(scales=(1, 2, 8))

    def test_monotonic_in_scale(self, result):
        assert result.monotonic_in_scale("CPU-only")
        assert result.monotonic_in_scale("CPU-GPU")

    def test_8x_speedup_band(self, result):
        # Paper reaches 15.0x / 17.6x at 8x embeddings (max 35x).
        assert result.average("CPU-only", 8) > 6.0
        assert result.average("CPU-GPU", 8) > 8.0
        assert result.max_speedup() < 40.0

    def test_format_table(self, result):
        assert "emb x8" in figure15.format_table(result)


class TestFigure16:
    @pytest.fixture(scope="class")
    def result(self):
        return figure16.run(scales=(1, 4))

    def test_pmem_collapses_on_slow_links(self, result):
        # Paper: up to 68% loss.
        assert 0.45 <= result.max_loss("PMEM") <= 0.85

    def test_tdimm_robust(self, result):
        # Paper: at most 15% loss, 10% on average.
        assert result.max_loss("TDIMM") <= 0.30
        assert result.average_loss("TDIMM") <= 0.20

    def test_reference_point_is_unity(self, result):
        assert result.average("TDIMM", 150e9) == pytest.approx(1.0)

    def test_format_table(self, result):
        assert "150 GB/s" in figure16.format_table(result)


class TestTable3:
    def test_all_under_half_percent(self):
        assert table3.run().all_under(0.5)

    def test_power_in_budget(self):
        assert table3.run().power_in_budget()

    def test_format_table(self):
        text = table3.format_table(table3.run())
        assert "FPU" in text and "TensorNode power" in text


class TestAblations:
    def test_queue_sizing_matches_paper(self):
        assert ablation.queue_sizing().matches_paper

    def test_interleaved_mapping_wins(self):
        # At inference-scale batches, hash-placement leaves DIMMs idle and
        # unbalanced while striping engages every NMP core.
        result = ablation.address_mapping(node_dimms=16, batch=16)
        assert result.advantage > 1.5

    def test_mapping_advantage_shrinks_with_huge_batch(self):
        # With enough independent rows, hashing balances out — the striping
        # win is fundamentally a small/medium-batch effect.
        small = ablation.address_mapping(node_dimms=8, batch=4)
        large = ablation.address_mapping(node_dimms=8, batch=64)
        assert small.advantage > large.advantage

    def test_fr_fcfs_beats_fcfs(self):
        result = ablation.scheduler(batch=128)
        assert result.advantage > 1.05

    def test_cpu_cache_gather_efficiency(self):
        result = ablation.cpu_cache(accesses=5000)
        assert result.uniform_below_5_percent
        assert result.zipfian > result.uniform

    @pytest.mark.parametrize("accesses", [0, -5])
    def test_cpu_cache_rejects_no_accesses(self, accesses):
        with pytest.raises(ValueError, match="accesses"):
            ablation.cpu_cache(accesses=accesses)

    @pytest.mark.parametrize("row_bytes", [0, -64, 32, 100])
    def test_cpu_cache_rejects_rows_not_whole_lines(self, row_bytes):
        with pytest.raises(ValueError, match="row_bytes"):
            ablation.cpu_cache(row_bytes=row_bytes, accesses=10)

    def test_cpu_cache_traced_peak_below_32_mb(self):
        # The CLI's study size.  The 2M-row Zipf table (a float64 CDF and an
        # int32 permutation) is 24 MB of it; the cache model adds little.
        tracemalloc.start()
        try:
            ablation.cpu_cache(accesses=8000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_open_page_wins_for_streaming(self):
        result = ablation.page_policy(num_words=3000)
        assert result.open_advantage > 1.5


def _load_bench_perf():
    """Import benchmarks/bench_perf.py by path (it is not a package)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_perf.py"
    spec = importlib.util.spec_from_file_location("_bench_perf_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPerfBaselineGuard:
    """The CI regression guard: memo-cold req/s vs the committed JSON."""

    def _committed(self, tmp_path):
        import json

        committed = {
            "entries": [
                {"workload": "gather_cold", "req_per_sec": 100_000.0},
                {"workload": "node_gather", "req_per_sec": 500_000.0},
            ]
        }
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps(committed))
        return path

    def test_within_tolerance_passes(self, tmp_path):
        bp = _load_bench_perf()
        report = {"entries": [{"workload": "gather_cold", "req_per_sec": 80_000.0}]}
        assert bp.check_baseline(report, self._committed(tmp_path), 0.30) == []

    def test_cold_regression_fails(self, tmp_path):
        bp = _load_bench_perf()
        report = {"entries": [{"workload": "gather_cold", "req_per_sec": 60_000.0}]}
        failures = bp.check_baseline(report, self._committed(tmp_path), 0.30)
        assert len(failures) == 1
        assert "gather_cold" in failures[0]

    def test_scaled_rates_are_compared(self, tmp_path):
        # A slow host day halves host req/s but not the probe-scaled rate;
        # a real slowdown halves the scaled rate too.
        import json

        bp = _load_bench_perf()
        path = tmp_path / "BENCH_perf.json"
        base = {"workload": "gather_cold", "req_per_sec": 100_000.0, "scaled_req_per_sec": 90_000.0}
        path.write_text(json.dumps({"entries": [base]}))
        slow_day = {"workload": "gather_cold", "req_per_sec": 50_000.0, "scaled_req_per_sec": 88_000.0}
        assert bp.check_baseline({"entries": [slow_day]}, path, 0.30) == []
        slower = {"workload": "gather_cold", "req_per_sec": 100_000.0, "scaled_req_per_sec": 45_000.0}
        failures = bp.check_baseline({"entries": [slower]}, path, 0.30)
        assert len(failures) == 1 and "scaled" in failures[0]

    def test_only_cold_entries_participate(self, tmp_path):
        # node_gather (a memo-warm entry) regressing must not fail the
        # guard — its number depends on memo state.
        bp = _load_bench_perf()
        report = {"entries": [{"workload": "node_gather", "req_per_sec": 1.0}]}
        assert bp.check_baseline(report, self._committed(tmp_path), 0.30) == []

    def test_entries_missing_from_committed_are_ignored(self, tmp_path):
        bp = _load_bench_perf()
        report = {"entries": [{"workload": "reduce_cold", "req_per_sec": 1.0}]}
        assert bp.check_baseline(report, self._committed(tmp_path), 0.30) == []

    def test_artefact_entries_stay_out_of_the_guard(self):
        # The end-to-end artefact entries time interpreter start-up too;
        # the guard compares memo-cold req/s only.
        bp = _load_bench_perf()
        assert set(bp.ARTEFACTS).isdisjoint(bp.COLD_WORKLOADS)
        assert bp._cli_args(["figure", "12"], smoke=True) == [
            "figure", "12", "--jobs", "1", "--quick"
        ]
        assert bp._cli_args(["figure", "12"], smoke=False) == ["figure", "12", "--jobs", "1"]
        assert bp._cli_args(["ablations"], smoke=True) == ["ablations", "--jobs", "1"]

    def test_every_artefact_command_has_a_golden(self):
        bp = _load_bench_perf()
        for commands in bp.ARTEFACTS.values():
            for args in commands:
                assert bp._golden(args).is_file(), args
        assert len(bp.ARTEFACTS["analytic"]) == 11
        assert bp._cli_args(["table", "3"], smoke=False) == ["table", "3"]


class TestBenchPerfTolerance:
    """``REPRO_BENCH_TOLERANCE``: a fraction in [0, 1), or it fails loudly."""

    @pytest.mark.parametrize("raw,expected", [(None, 0.30), ("", 0.30), ("0.1", 0.1), ("0", 0.0)])
    def test_valid_values(self, monkeypatch, raw, expected):
        bp = _load_bench_perf()
        if raw is None:
            monkeypatch.delenv("REPRO_BENCH_TOLERANCE", raising=False)
        else:
            monkeypatch.setenv("REPRO_BENCH_TOLERANCE", raw)
        assert bp.read_tolerance() == expected

    @pytest.mark.parametrize("raw", ["30%", "thirty", "30", "1", "-0.1", "nan"])
    def test_bad_value_names_the_variable(self, monkeypatch, raw):
        bp = _load_bench_perf()
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE", raw)
        with pytest.raises(ValueError, match=f"REPRO_BENCH_TOLERANCE='{raw}'"):
            bp.read_tolerance()
