"""Unit tests for the ``REPRO_FAULTS`` plan grammar and site checks."""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro.resilience.faults import (
    FAULTS_ENV_VAR,
    SITES,
    FaultPlan,
    InjectedFault,
    active_plan,
    fault_active,
    maybe_fail,
    reset_faults,
)


class TestParse:
    def test_empty_text_is_empty_plan(self):
        for text in ("", "  ", ",", " , "):
            plan = FaultPlan.parse(text)
            assert plan.empty
            assert not plan.should_fire("kernel-native")

    def test_single_arrival_fires_exactly_once(self):
        plan = FaultPlan.parse("kernel-native@2")
        fired = [plan.should_fire("kernel-native") for _ in range(4)]
        assert fired == [False, True, False, False]

    def test_closed_range_is_inclusive(self):
        plan = FaultPlan.parse("cache-read@2-3")
        fired = [plan.should_fire("cache-read") for _ in range(4)]
        assert fired == [False, True, True, False]

    def test_open_range_fires_forever(self):
        plan = FaultPlan.parse("kernel-native@3-")
        fired = [plan.should_fire("kernel-native") for _ in range(5)]
        assert fired == [False, False, True, True, True]

    def test_star_fires_on_every_arrival(self):
        plan = FaultPlan.parse("kernel-vectorized@*")
        assert all(plan.should_fire("kernel-vectorized") for _ in range(3))

    def test_sites_count_independently(self):
        plan = FaultPlan.parse("kernel-vectorized@1,cache-read@2")
        assert plan.should_fire("kernel-vectorized")
        # cache-read has seen zero arrivals; its window is still ahead.
        assert not plan.should_fire("cache-read")
        assert plan.should_fire("cache-read")

    def test_repeated_site_clauses_union(self):
        plan = FaultPlan.parse("kernel-native@1,kernel-native@3")
        fired = [plan.should_fire("kernel-native") for _ in range(4)]
        assert fired == [True, False, True, False]

    def test_whitespace_tolerated(self):
        plan = FaultPlan.parse(" kernel-native @ 1 , cache-read@ 2-3 ")
        assert plan.should_fire("kernel-native")

    def test_unknown_site_rejected_with_known_list(self):
        for text in ("warp-core@1", "kernel-gpu@1"):
            with pytest.raises(ValueError, match="unknown fault site"):
                FaultPlan.parse(text)
            with pytest.raises(ValueError, match="kernel-native"):
                FaultPlan.parse(text)

    @pytest.mark.parametrize(
        "text",
        ["kernel-native", "kernel-native@0", "kernel-native@3-2",
         "kernel-native@x", "kernel-native@1-x"],
    )
    def test_malformed_clauses_rejected(self, text):
        with pytest.raises(ValueError):
            FaultPlan.parse(text)

    def test_should_fire_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.parse("").should_fire("warp-core")


class TestArrivalCounters:
    def test_arrivals_visible_for_planned_sites(self):
        plan = FaultPlan.parse("cache-read@5")
        assert plan.arrivals("cache-read") == 0
        for _ in range(3):
            plan.should_fire("cache-read")
        assert plan.arrivals("cache-read") == 3

    def test_unplanned_sites_are_not_counted(self):
        # The no-window early-out keeps unplanned sites free; they never
        # accumulate arrivals.
        plan = FaultPlan.parse("cache-read@1")
        plan.should_fire("kernel-native")
        assert plan.arrivals("kernel-native") == 0


class TestEnvironmentPlumbing:
    def test_unset_env_means_no_faults(self):
        assert active_plan().empty
        assert not fault_active("kernel-native")
        maybe_fail("kernel-native")  # must not raise

    def test_env_change_reparses_with_fresh_counters(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "cache-read@1")
        assert fault_active("cache-read")
        assert not fault_active("cache-read")
        # Same value: cached plan, counters keep advancing.
        assert not fault_active("cache-read")
        # New value: fresh plan, arrival counter restarts at zero.
        monkeypatch.setenv(FAULTS_ENV_VAR, "cache-read@1,kernel-vectorized@1")
        assert fault_active("cache-read")

    def test_reset_faults_restarts_counters(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "cache-read@1")
        assert fault_active("cache-read")
        assert not fault_active("cache-read")
        reset_faults()
        assert fault_active("cache-read")

    def test_maybe_fail_raises_with_site(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "kernel-vectorized@1")
        reset_faults()
        with pytest.raises(InjectedFault) as excinfo:
            maybe_fail("kernel-vectorized")
        assert excinfo.value.site == "kernel-vectorized"

    def test_bad_plan_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "not-a-site@1")
        reset_faults()
        with pytest.raises(ValueError, match="unknown fault site"):
            fault_active("kernel-native")


class TestInjectedFault:
    def test_survives_pickling(self):
        # A fault raised under a caller's own process pool crosses the
        # process boundary in a pickle; it must round-trip intact.
        fault = pickle.loads(pickle.dumps(InjectedFault("kernel-native")))
        assert isinstance(fault, InjectedFault)
        assert fault.site == "kernel-native"

    def test_every_documented_site_exists(self):
        assert SITES == {
            "cache-read",
            "cache-write",
            "kernel-native",
            "kernel-vectorized",
            "serving-shard",
        }


class TestThreadedArrivals:
    def test_threads_lose_no_arrival(self):
        # A threaded sweep counts its cells' arrivals from several
        # threads at once.  A tiny switch interval makes the interpreter
        # hand the GIL over mid-count, where an unlocked
        # read-modify-write would lose arrivals.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads, per_thread = 8, 20_000
        plan = FaultPlan.parse("kernel-native@50000")
        start = threading.Barrier(threads)
        fired = [[] for _ in range(threads)]

        def arrive(log):
            start.wait()
            log.extend(plan.should_fire("kernel-native") for _ in range(per_thread))

        workers = [
            threading.Thread(target=arrive, args=(log,)) for log in fired
        ]
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        assert plan.arrivals("kernel-native") == threads * per_thread
        assert sum(log.count(True) for log in fired) == 1
