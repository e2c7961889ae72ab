"""Tests for per-branch misprediction profiling and stage timing."""

import pytest

from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.static import AlwaysTakenPredictor
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.profile import (
    NULL_STAGE_TIMER,
    StageTimer,
    profile_mispredictions,
)
from repro.traces.trace import BranchRecord, Trace


def _trace():
    records = []
    # 0x100: always taken (never missed by always-taken).
    # 0x104: always not-taken (always missed by always-taken).
    for __ in range(20):
        records.append(BranchRecord(pc=0x100, taken=True))
        records.append(BranchRecord(pc=0x104, taken=False))
    return Trace.from_records(records, name="profiled")


class TestProfile:
    def test_attribution(self):
        result = profile_mispredictions(AlwaysTakenPredictor(), _trace())
        assert result.total_branches == 40
        assert result.total_mispredictions == 20
        top = result.profiles[0]
        assert top.pc == 0x104
        assert top.mispredictions == 20
        assert top.miss_rate == 1.0
        assert top.taken_ratio == 0.0

    def test_sorted_by_misses(self):
        result = profile_mispredictions(AlwaysTakenPredictor(), _trace())
        misses = [p.mispredictions for p in result.profiles]
        assert misses == sorted(misses, reverse=True)

    def test_concentration(self):
        result = profile_mispredictions(AlwaysTakenPredictor(), _trace())
        assert result.concentration(1) == 1.0  # one branch owns all misses
        assert result.concentration(0) == 0.0

    def test_totals_match_engine(self, small_trace):
        profiled = profile_mispredictions(BimodalPredictor(8), small_trace)
        direct = simulate(BimodalPredictor(8), small_trace)
        assert profiled.total_branches == direct.conditional_branches
        assert profiled.total_mispredictions == direct.mispredictions
        assert profiled.misprediction_ratio == pytest.approx(
            direct.misprediction_ratio
        )
        assert (
            sum(p.mispredictions for p in profiled.profiles)
            == direct.mispredictions
        )

    def test_every_static_branch_profiled(self, tiny_trace):
        result = profile_mispredictions(BimodalPredictor(8), tiny_trace)
        assert len(result.profiles) == tiny_trace.static_conditional_count

    def test_empty_trace(self):
        empty = Trace.from_columns([], [], [])
        result = profile_mispredictions(AlwaysTakenPredictor(), empty)
        assert result.misprediction_ratio == 0.0
        assert result.profiles == []

class TestStageTimer:
    def test_accumulates_across_entries(self):
        timer = StageTimer()
        with timer.stage("scan"):
            pass
        first = timer.totals["scan"]
        with timer.stage("scan"):
            pass
        assert timer.totals["scan"] >= first
        assert set(timer.totals) == {"scan"}

    def test_exception_still_recorded(self):
        timer = StageTimer()
        with pytest.raises(RuntimeError):
            with timer.stage("reduce"):
                raise RuntimeError("boom")
        assert "reduce" in timer.totals

    def test_null_timer_records_nothing(self):
        with NULL_STAGE_TIMER.stage("scan"):
            pass
        assert NULL_STAGE_TIMER.totals == {}

    @pytest.mark.parametrize(
        "engine", ["native", "vectorized"], ids=["native", "vectorized"]
    )
    def test_engines_populate_pipeline_stages(self, engine, tiny_trace):
        from repro.sim.native import native_available, simulate_native
        from repro.sim.vectorized import simulate_vectorized

        if engine == "native" and not native_available():
            pytest.skip("native backend unavailable")
        run = simulate_native if engine == "native" else simulate_vectorized
        timer = StageTimer()
        run(
            make_predictor("gskew:3x128:h5:total"),
            tiny_trace,
            stage_timer=timer,
        )
        # One frame around both backends: the same three stages.
        assert {"precompute", "scan", "reduce"} <= set(timer.totals)
        assert all(seconds >= 0.0 for seconds in timer.totals.values())


class TestProfileCli:
    def test_cli_profile(self, tmp_path, capsys):
        from repro.traces.cli import main
        from repro.traces.io import save_trace

        path = tmp_path / "p.npz"
        save_trace(_trace(), path)
        capsys.readouterr()
        assert main(["profile", str(path), "taken", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "0x104" in out
        assert "mispredictions" in out
