"""Tests for the parallel sweep runner.

The guarantee under test: a threaded sweep produces a SweepResult grid
*identical* to the serial one — same cell order, same numbers — and the
``jobs`` conventions (``REPRO_JOBS`` env default, ``0`` = one per CPU,
``1`` = strictly serial) hold.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.sim.parallel as parallel_module
from repro.sim.config import make_predictor
from repro.sim.parallel import (
    JOBS_ENV_VAR,
    resolve_jobs,
    run_cells,
    simulate_specs,
)
from repro.sim.sweep import sweep_specs
from repro.sim.vectorized import simulate_fast

from tests.strategies import traces as trace_strategy


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(None) == 3

    def test_invalid_env_var_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        assert resolve_jobs(None) == 1

    def test_explicit_jobs_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) == (os.cpu_count() or 1)


class TestRunCells:
    def test_parallel_matches_serial(self, tiny_trace):
        cells = [
            (0, "gshare:128:h4"),
            (0, "gskew:3x64:h4:partial"),
            (0, "gskew:3x64:h4:total"),
            (0, "bimodal:128"),
            (0, "fa:32:h4"),  # the LRU walk
            (0, "unaliased:h4"),  # the generic interpreter on a thread
        ]
        serial = run_cells([tiny_trace], cells, jobs=1)
        parallel = run_cells([tiny_trace], cells, jobs=4)
        assert parallel == serial
        assert [r.predictor for r in parallel] == [spec for _, spec in cells]

    def test_simulate_specs_alignment(self, tiny_trace):
        specs = ["bimodal:64", "gshare:64:h3", "gselect:64:h3"]
        results = simulate_specs(tiny_trace, specs, jobs=2)
        assert [r.predictor for r in results] == specs
        assert all(r.trace == tiny_trace.name for r in results)

    def test_cells_run_on_threads_of_this_process(self, tiny_trace, monkeypatch):
        threads = []

        def recording(predictor, trace, warmup=0, label=None):
            threads.append((os.getpid(), threading.current_thread()))
            return simulate_fast(predictor, trace, warmup=warmup, label=label)

        monkeypatch.setattr(parallel_module, "simulate_fast", recording)
        cells = [(0, spec) for spec in ("bimodal:64", "gshare:64:h3", "fa:16:h3")]
        run_cells([tiny_trace], cells, jobs=2)
        assert [pid for pid, _ in threads] == [os.getpid()] * len(cells)
        assert threading.main_thread() not in {thread for _, thread in threads}
        threads.clear()
        run_cells([tiny_trace], cells, jobs=1)
        assert {thread for _, thread in threads} == {threading.main_thread()}

    def test_a_failing_cell_raises(self, tiny_trace):
        cells = [(0, "bimodal:64"), (0, "no-such-scheme:64")]
        with pytest.raises(ValueError):
            run_cells([tiny_trace], cells, jobs=2)

    def test_jobs_zero_clamps_to_cpu_count(self, tiny_trace):
        cells = [(0, "bimodal:64"), (0, "gshare:64:h3")]
        assert run_cells([tiny_trace], cells, jobs=0) == run_cells(
            [tiny_trace], cells, jobs=1
        )


def _record_dispatches(monkeypatch):
    """Wrap the runner's ``simulate_fast`` and log ``(trace, label)``
    for every cell it dispatches."""
    seen = []

    def recording(predictor, trace, warmup=0, label=None):
        seen.append((trace, label))
        return simulate_fast(predictor, trace, warmup=warmup, label=label)

    monkeypatch.setattr(parallel_module, "simulate_fast", recording)
    return seen


class TestFusedGroupDispatch:
    """Serial dispatch of multi-trace cell lists: every cell reaches
    ``simulate_fast`` exactly once, on its own trace, in input order,
    and the results equal per-cell simulation."""

    def test_serial_runner_fuses_trace_groups(
        self, tiny_trace, small_trace, monkeypatch
    ):
        """A trace-major cell list runs cell by cell, in order."""
        specs = ["gshare:128:h4", "gshare:256:h4", "bimodal:128", "fa:16:h3"]
        traces = [tiny_trace, small_trace]
        cells = [(0, s) for s in specs] + [(1, s) for s in specs]
        expected = [
            simulate_fast(make_predictor(spec), traces[index], label=spec)
            for index, spec in cells
        ]
        seen = _record_dispatches(monkeypatch)
        assert run_cells(traces, cells, jobs=1) == expected
        assert [label for _, label in seen] == [spec for _, spec in cells]
        assert all(
            trace is traces[index] for (trace, _), (index, _) in zip(seen, cells)
        )

    def test_alternating_traces_group_contiguously(
        self, tiny_trace, small_trace, monkeypatch
    ):
        """Interleaved trace indices keep their cell order and traces."""
        cells = [
            (0, "gshare:128:h4"),
            (1, "gshare:128:h4"),
            (0, "bimodal:128"),
            (0, "gshare:64:h4"),
        ]
        traces = [tiny_trace, small_trace]
        expected = [
            simulate_fast(make_predictor(spec), traces[index], label=spec)
            for index, spec in cells
        ]
        seen = _record_dispatches(monkeypatch)
        assert run_cells(traces, cells, jobs=1) == expected
        assert [label for _, label in seen] == [spec for _, spec in cells]
        assert all(
            trace is traces[index] for (trace, _), (index, _) in zip(seen, cells)
        )


@pytest.mark.slow
class TestFuzzParallelDispatch:
    # Differential fuzz over the whole dispatch stack: ad-hoc traces
    # must produce the same grid under jobs=2, on two threads, as in
    # the calling thread.
    @given(
        trace=trace_strategy(max_length=60),
        specs=st.lists(
            st.sampled_from(
                [
                    "bimodal:16",
                    "gshare:16:h4",
                    "gskew:3x16:h3:total",
                    "gskew:3x16:h3:partial",
                    "fa:16:h3",
                ]
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_jobs2_matches_serial(self, trace, specs):
        cells = [(0, spec) for spec in specs]
        serial = run_cells([trace], cells, jobs=1)
        parallel = run_cells([trace], cells, jobs=2)
        assert parallel == serial


class TestOversubscriptionWarning:
    """Threads pay no IPC, so a pool past the CPU count costs little:
    no run warns."""

    def test_threads_past_the_cpu_count_do_not_warn(self, tiny_trace):
        import warnings

        cells = [(0, "bimodal:64"), (0, "gshare:64:h3")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_cells([tiny_trace], cells, jobs=(os.cpu_count() or 1) + 1)

    def test_serial_run_never_warns(self, tiny_trace):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_cells([tiny_trace], [(0, "bimodal:64")], jobs=1)


class TestParallelSweeps:
    @pytest.fixture(scope="class")
    def series(self):
        return {
            "gshare": ["gshare:64:h3", "gshare:256:h3"],
            "gskew": ["gskew:3x64:h3:partial", "gskew:3x256:h3:partial"],
        }

    def test_grids_identical_to_serial(self, tiny_trace, small_trace, series):
        traces = [tiny_trace, small_trace]
        serial = sweep_specs(traces, series, points=[64, 256], jobs=1)
        parallel = sweep_specs(traces, series, points=[64, 256], jobs=4)
        assert parallel.points == serial.points
        assert parallel.series == serial.series

    def test_env_var_reaches_sweeps(self, tiny_trace, series, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        by_env = sweep_specs([tiny_trace], series, points=[64, 256])
        monkeypatch.delenv(JOBS_ENV_VAR)
        serial = sweep_specs([tiny_trace], series, points=[64, 256])
        assert by_env.series == serial.series
