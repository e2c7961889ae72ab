"""Tests for the extension experiments (shootout, encoding, OPT, OS)."""

import hashlib
import json

import pytest

from repro.experiments import (
    antialiasing_shootout,
    encoding_ablation,
    opt_replacement,
    os_pressure,
)
from tests.conftest import TEST_SCALE

BENCHES = ("groff", "real_gcc")


class TestShootout:
    @pytest.fixture(scope="class")
    def result(self):
        return antialiasing_shootout.run(
            scale=TEST_SCALE, benchmarks=BENCHES, budget_bits=4096
        )

    def test_every_design_within_budget(self, result):
        for per_design in result.results.values():
            for __, storage in per_design.values():
                assert storage <= result.budget_bits

    def test_all_antialiasing_designs_beat_gshare_on_average(self, result):
        """Each 1997 anti-aliasing design should improve on plain gshare
        at matched budget, on average across benchmarks."""
        means = result.mean_ratios()
        for design in ("gskew (partial)", "e-gskew", "agree", "bi-mode"):
            assert means[design] <= means["gshare"] * 1.08

    def test_contenders_spec_sizes(self):
        specs = antialiasing_shootout.contenders(8192, 8)
        assert specs["gshare"] == "gshare:4k:h8"
        assert specs["gskew (partial)"] == "gskew:3x1k:h8:partial"
        assert specs["agree"] == "agree:2k:h8"
        assert specs["bi-mode"] == "bimode:1k:h8"

    def test_render(self, result):
        text = antialiasing_shootout.render(result)
        assert "shootout" in text
        assert "MEAN" in text


class TestEncodingAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return encoding_ablation.run(
            scale=TEST_SCALE, benchmarks=BENCHES, bank_entries=256
        )

    def test_storage_ordering(self, result):
        storage = {
            label: bits
            for label, (_, bits) in next(iter(result.results.values())).items()
        }
        assert (
            storage["1-bit"]
            < storage["shared hyst. 4-way"]
            < storage["shared hyst. 2-way"]
            < storage["2-bit replicated"]
        )

    def test_accuracy_ordering(self, result):
        """More hysteresis bits never hurt (within noise): 2-bit best,
        1-bit worst."""
        for per_design in result.results.values():
            two_bit = per_design["2-bit replicated"][0]
            shared2 = per_design["shared hyst. 2-way"][0]
            one_bit = per_design["1-bit"][0]
            assert two_bit <= shared2 * 1.05
            assert shared2 < one_bit

    def test_sharing_is_cheap(self, result):
        """The EV8 finding: 2-way sharing costs little accuracy for a
        25% storage saving."""
        for per_design in result.results.values():
            two_bit = per_design["2-bit replicated"][0]
            shared2 = per_design["shared hyst. 2-way"][0]
            assert shared2 <= two_bit + 0.012

    def test_render(self, result):
        assert "encoding ablation" in encoding_ablation.render(result).lower()


class TestOptReplacement:
    @pytest.fixture(scope="class")
    def result(self):
        return opt_replacement.run(
            scale=TEST_SCALE, benchmarks=BENCHES, sizes=(64, 512)
        )

    def test_opt_never_worse_than_lru(self, result):
        for series in result.curves.values():
            for lru, opt in zip(series["lru"], series["opt"]):
                assert opt <= lru + 1e-12

    def test_gap_largest_at_small_sizes(self, result):
        """Replacement slack matters when capacity is tight."""
        for series in result.curves.values():
            gap_small = series["lru"][0] - series["opt"][0]
            gap_large = series["lru"][-1] - series["opt"][-1]
            assert gap_small >= gap_large - 1e-9

    def test_render(self, result):
        assert "OPT vs LRU" in opt_replacement.render(result)

    def test_default_curves_are_pinned(self):
        """SHA-256 of every benchmark's LRU and OPT miss ratios (floats
        in their exact repr) at the default sizes and history."""
        curves = opt_replacement.run(scale=0.05).curves
        text = json.dumps(curves, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4bb782898880155d9a028ceb6f52054d"
            "92d1fe8182784d2633c262e0198f1c1f"
        )


class TestOsPressure:
    @pytest.fixture(scope="class")
    def result(self):
        return os_pressure.run(
            scale=TEST_SCALE,
            kernel_shares=(0.0, 0.3),
            quanta=(300, 4000),
        )

    def test_kernel_raises_conflicts(self, result):
        """Adding a kernel component raises conflict aliasing at every
        quantum (the Gloy/Sechrest observation the paper builds on)."""
        for quantum in result.quanta:
            no_kernel = result.grid[(0.0, quantum)][1]
            with_kernel = result.grid[(0.3, quantum)][1]
            assert with_kernel >= no_kernel * 0.95

    def test_fast_switching_hurts(self, result):
        """Shorter quanta -> more interleaving -> worse prediction."""
        for share in result.kernel_shares:
            fast = result.grid[(share, 300)][0]
            slow = result.grid[(share, 4000)][0]
            assert fast >= slow * 0.97

    def test_render(self, result):
        assert "OS-pressure sweep" in os_pressure.render(result)


class TestContextSwitchAblation:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import context_switch_ablation

        return context_switch_ablation.run(
            scale=TEST_SCALE, benchmarks=BENCHES
        )

    def test_history_flush_is_cheap(self, result):
        for per_variant in result.results.values():
            assert (
                abs(per_variant["flush history"] - per_variant["shared"])
                < 0.02
            )

    def test_table_flush_is_costly(self, result):
        for per_variant in result.results.values():
            assert per_variant["flush tables"] > per_variant["shared"]

    def test_switches_observed(self, result):
        assert all(count > 0 for count in result.switches.values())

    def test_render(self, result):
        from repro.experiments import context_switch_ablation

        text = context_switch_ablation.render(result)
        assert "Context-switch ablation" in text


class TestWarmupStudy:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import warmup

        return warmup.run(scale=TEST_SCALE, benchmarks=BENCHES, window=1000)

    def test_series_present_for_every_design(self, result):
        for per_design in result.series.values():
            assert set(per_design) == set(result.specs)
            for windowed in per_design.values():
                assert windowed.branches

    def test_comparative_claim_survives_steady_state(self, result):
        """gskew vs gshare must not be a warm-up artefact: compare the
        steady-state regions alone."""
        for per_design in result.series.values():
            gskew = per_design["gskew"].steady_state()
            gshare = per_design["gshare"].steady_state()
            assert gskew <= gshare * 1.10

    def test_render(self, result):
        from repro.experiments import warmup

        text = warmup.render(result)
        assert "Warm-up study" in text
        assert "steady state" in text


class TestWorkloadClass:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import workload_class

        return workload_class.run(
            scale=TEST_SCALE,
            ibs=("groff", "real_gcc"),
            spec=("spec_fp_like", "spec_compiler_like"),
        )

    def test_os_traces_mispredict_more_on_average(self, result):
        assert result.class_mean(
            "IBS-like", "misprediction"
        ) > result.class_mean("SPEC-like", "misprediction")

    def test_os_traces_show_more_capacity_pressure(self, result):
        assert result.class_mean("IBS-like", "capacity") >= result.class_mean(
            "SPEC-like", "capacity"
        )

    def test_rows_labelled(self, result):
        classes = {row.workload_class for row in result.rows.values()}
        assert classes == {"IBS-like", "SPEC-like"}

    def test_render(self, result):
        from repro.experiments import workload_class

        text = workload_class.render(result)
        assert "Workload-class study" in text
        assert "MEAN (SPEC-like)" in text
