"""Unit tests for the ``REPRO_FAULTS`` plan grammar and site checks."""

from __future__ import annotations

import pickle

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
            assert not plan.should_fire("worker-crash")

    def test_single_arrival_fires_exactly_once(self):
        plan = FaultPlan.parse("worker-crash@2")
        fired = [plan.should_fire("worker-crash") for _ in range(4)]
        assert fired == [False, True, False, False]

    def test_closed_range_is_inclusive(self):
        plan = FaultPlan.parse("cache-read@2-3")
        fired = [plan.should_fire("cache-read") for _ in range(4)]
        assert fired == [False, True, True, False]

    def test_open_range_fires_forever(self):
        plan = FaultPlan.parse("worker-crash@3-")
        fired = [plan.should_fire("worker-crash") for _ in range(5)]
        assert fired == [False, False, True, True, True]

    def test_star_fires_on_every_arrival(self):
        plan = FaultPlan.parse("kernel-scan@*")
        assert all(plan.should_fire("kernel-scan") for _ in range(3))

    def test_sites_count_independently(self):
        plan = FaultPlan.parse("kernel-scan@1,cache-read@2")
        assert plan.should_fire("kernel-scan")
        # cache-read has seen zero arrivals; its window is still ahead.
        assert not plan.should_fire("cache-read")
        assert plan.should_fire("cache-read")

    def test_repeated_site_clauses_union(self):
        plan = FaultPlan.parse("worker-crash@1,worker-crash@3")
        fired = [plan.should_fire("worker-crash") for _ in range(4)]
        assert fired == [True, False, True, False]

    def test_whitespace_tolerated(self):
        plan = FaultPlan.parse(" worker-crash @ 1 , cache-read@ 2-3 ")
        assert plan.should_fire("worker-crash")

    def test_unknown_site_rejected_with_known_list(self):
        for text in ("warp-core@1", "kernel-scan-grid@1"):
            with pytest.raises(ValueError, match="unknown fault site"):
                FaultPlan.parse(text)
            with pytest.raises(ValueError, match="worker-crash"):
                FaultPlan.parse(text)

    @pytest.mark.parametrize(
        "text",
        ["worker-crash", "worker-crash@0", "worker-crash@3-2",
         "worker-crash@x", "worker-crash@1-x"],
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
        plan.should_fire("worker-crash")
        assert plan.arrivals("worker-crash") == 0


class TestEnvironmentPlumbing:
    def test_unset_env_means_no_faults(self):
        assert active_plan().empty
        assert not fault_active("worker-crash")
        maybe_fail("worker-crash")  # must not raise

    def test_env_change_reparses_with_fresh_counters(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "cache-read@1")
        assert fault_active("cache-read")
        assert not fault_active("cache-read")
        # Same value: cached plan, counters keep advancing.
        assert not fault_active("cache-read")
        # New value: fresh plan, arrival counter restarts at zero.
        monkeypatch.setenv(FAULTS_ENV_VAR, "cache-read@1,kernel-scan@1")
        assert fault_active("cache-read")

    def test_reset_faults_restarts_counters(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "cache-read@1")
        assert fault_active("cache-read")
        assert not fault_active("cache-read")
        reset_faults()
        assert fault_active("cache-read")

    def test_maybe_fail_raises_with_site(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "kernel-scan@1")
        reset_faults()
        with pytest.raises(InjectedFault) as excinfo:
            maybe_fail("kernel-scan")
        assert excinfo.value.site == "kernel-scan"

    def test_bad_plan_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "not-a-site@1")
        reset_faults()
        with pytest.raises(ValueError, match="unknown fault site"):
            fault_active("worker-crash")


class TestInjectedFault:
    def test_survives_pickling(self):
        # Worker faults cross a process boundary inside the pool's
        # result pickle; the exception must round-trip intact.
        fault = pickle.loads(pickle.dumps(InjectedFault("worker-crash")))
        assert isinstance(fault, InjectedFault)
        assert fault.site == "worker-crash"

    def test_every_documented_site_exists(self):
        assert SITES == {
            "worker-crash",
            "worker-hang",
            "cache-read",
            "cache-write",
            "kernel-native",
            "kernel-scan",
            "kernel-vectorized",
            "serving-shard",
        }
