"""Tests for the content-addressed on-disk trace cache."""

from __future__ import annotations

import dataclasses
import json
import zipfile

import numpy as np
import pytest

import repro.traces.cache as cache_module
from repro.traces.cache import (
    CACHE_ENV_VAR,
    cache_dir,
    cache_stats,
    config_fingerprint,
    generate_trace_cached,
    reset_cache_stats,
    trace_cache_path,
)
from repro.resilience.faults import FAULTS_ENV_VAR, reset_faults
from repro.traces.io import load_trace
from repro.traces.synthetic.behavior import BehaviorMix
from repro.traces.synthetic.generator import (
    GENERATOR_VERSION,
    WorkloadConfig,
    generate_trace,
)


@pytest.fixture()
def cache_in_tmp(tmp_path, monkeypatch):
    """Point the cache at a fresh directory and zero the counters."""
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    reset_cache_stats()
    yield tmp_path
    reset_cache_stats()


def _config(**overrides) -> WorkloadConfig:
    defaults = dict(
        name="cache-test",
        seed=11,
        length=3_000,
        processes=1,
        static_branches_per_process=60,
        procedures_per_process=6,
        kernel_static_branches=0,
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


def _assert_traces_equal(a, b):
    assert a.name == b.name and a.seed == b.seed
    for column in ("pcs", "takens", "conditionals", "targets"):
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype and np.array_equal(x, y)


class TestFingerprint:
    def test_stable_across_equal_configs(self):
        assert config_fingerprint(_config()) == config_fingerprint(_config())

    def test_sensitive_to_every_layer(self, monkeypatch):
        base = config_fingerprint(_config())
        assert config_fingerprint(_config(seed=12)) != base
        assert config_fingerprint(_config(length=3_001)) != base
        # Scale changes length, hence the fingerprint.
        assert config_fingerprint(_config().scaled(0.5)) != base
        # Nested non-dataclass (BehaviorMix) parameters count too.
        tweaked = _config(mix=BehaviorMix(bias_strength=0.99))
        assert config_fingerprint(tweaked) != base
        # Nested dataclass (SchedulerConfig) parameters count too.
        scheduler = dataclasses.replace(_config().scheduler, mean_quantum=99)
        assert config_fingerprint(_config(scheduler=scheduler)) != base
        # So does the generator's version: a bumped generator misses.
        monkeypatch.setattr(
            cache_module, "GENERATOR_VERSION", GENERATOR_VERSION + 1
        )
        assert config_fingerprint(_config()) != base

    def test_sensitive_to_every_field(self):
        """Each declared field reaches the fingerprint, so a config that
        differs in any one of them can never be served another's trace.
        A new field needs an entry here."""
        base = _config()
        changed = {
            "name": "other",
            "seed": base.seed + 1,
            "length": base.length + 1,
            "processes": base.processes + 1,
            "static_branches_per_process": base.static_branches_per_process + 1,
            "procedures_per_process": base.procedures_per_process + 1,
            "mix": BehaviorMix(bias_strength=0.99),
            "kernel_static_branches": base.kernel_static_branches + 1,
            "kernel_mix": BehaviorMix(),
            "scheduler": dataclasses.replace(base.scheduler, mean_quantum=99),
        }
        fields = {field.name for field in dataclasses.fields(WorkloadConfig)}
        assert set(changed) == fields
        for name, value in changed.items():
            other = dataclasses.replace(base, **{name: value})
            assert config_fingerprint(other) != config_fingerprint(base), name


class TestCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        assert cache_dir() == tmp_path

    @pytest.mark.parametrize("value", ["0", "off", "NONE", " disabled "])
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv(CACHE_ENV_VAR, value)
        assert cache_dir() is None
        assert trace_cache_path(_config()) is None

    def test_default_under_xdg_cache(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert cache_dir() == tmp_path / "repro" / "traces"


class TestGenerateTraceCached:
    def test_miss_then_hit_round_trips_exactly(self, cache_in_tmp):
        config = _config()
        first = generate_trace_cached(config)
        assert cache_stats() == {
            "hits": 0, "misses": 1, "stores": 1, "errors": 0,
        }
        second = generate_trace_cached(config)
        assert cache_stats()["hits"] == 1
        _assert_traces_equal(first, second)
        _assert_traces_equal(second, generate_trace(config))

    def test_distinct_configs_get_distinct_entries(self, cache_in_tmp):
        generate_trace_cached(_config())
        generate_trace_cached(_config(seed=12))
        assert cache_stats()["misses"] == 2
        assert len(list(cache_in_tmp.glob("*.npz"))) == 2

    def test_truncated_entry_regenerates(self, cache_in_tmp):
        config = _config()
        expected = generate_trace_cached(config)
        path = trace_cache_path(config)
        path.write_bytes(path.read_bytes()[:32])  # truncate the npz
        reloaded = generate_trace_cached(config)
        _assert_traces_equal(reloaded, expected)
        stats = cache_stats()
        assert stats["errors"] == 1 and stats["misses"] == 2
        # The corrupt file was replaced by a fresh, loadable entry.
        assert cache_stats()["stores"] == 2
        generate_trace_cached(config)
        assert cache_stats()["hits"] == 1

    def test_bit_flipped_entry_regenerates(self, cache_in_tmp):
        """Payload damage (not just truncation) is caught by the zip CRC."""
        config = _config()
        expected = generate_trace_cached(config)
        path = trace_cache_path(config)
        blob = bytearray(path.read_bytes())
        # Flip bits deep inside the array payload, far from the zip
        # directory, so only the CRC check can notice.
        middle = len(blob) // 2
        for offset in range(middle, middle + 8):
            blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))
        reloaded = generate_trace_cached(config)
        _assert_traces_equal(reloaded, expected)
        stats = cache_stats()
        assert stats["errors"] == 1 and stats["misses"] == 2
        # The damaged file was dropped and replaced by a loadable entry.
        generate_trace_cached(config)
        assert cache_stats()["hits"] == 1


class TestFaultInjection:
    """The ``cache-read`` / ``cache-write`` sites drive the same paths."""

    @pytest.fixture(autouse=True)
    def _clean_faults(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        reset_faults()
        yield
        reset_faults()

    def test_injected_read_fault_counts_and_regenerates(
        self, cache_in_tmp, monkeypatch
    ):
        config = _config()
        expected = generate_trace_cached(config)
        monkeypatch.setenv(FAULTS_ENV_VAR, "cache-read@1")
        reset_faults()
        reloaded = generate_trace_cached(config)
        _assert_traces_equal(reloaded, expected)
        stats = cache_stats()
        assert stats["errors"] == 1 and stats["misses"] == 2
        # The fault window is consumed; the regenerated entry now hits.
        generate_trace_cached(config)
        assert cache_stats()["hits"] == 1

    def test_injected_write_corruption_detected_on_next_read(
        self, cache_in_tmp, monkeypatch
    ):
        config = _config()
        monkeypatch.setenv(FAULTS_ENV_VAR, "cache-write@1")
        reset_faults()
        first = generate_trace_cached(config)  # publishes a corrupt entry
        _assert_traces_equal(first, generate_trace(config))
        monkeypatch.delenv(FAULTS_ENV_VAR)
        reset_faults()
        second = generate_trace_cached(config)
        _assert_traces_equal(second, first)
        stats = cache_stats()
        # The poisoned entry was detected, dropped and re-stored clean.
        assert stats["errors"] == 1
        assert stats["misses"] == 2 and stats["stores"] == 2
        generate_trace_cached(config)
        assert cache_stats()["hits"] == 1

    def test_disabled_cache_writes_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, "off")
        reset_cache_stats()
        trace = generate_trace_cached(_config())
        _assert_traces_equal(trace, generate_trace(_config()))
        assert cache_stats() == {
            "hits": 0, "misses": 0, "stores": 0, "errors": 0,
        }
        assert not list(tmp_path.iterdir())

    def test_no_temp_files_left_behind(self, cache_in_tmp):
        generate_trace_cached(_config())
        assert not list(cache_in_tmp.glob("*.tmp*"))
        assert not list(cache_in_tmp.glob(".*"))


class TestEntryFormat:
    """Entries are ``.npz`` files at a fast zlib level: what
    ``np.savez_compressed`` writes, read back by ``np.load`` and
    ``load_trace`` alike."""

    @pytest.fixture(autouse=True)
    def _clean_faults(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        reset_faults()
        yield
        reset_faults()

    def test_entry_round_trips_and_write_fault_regenerates(
        self, cache_in_tmp, monkeypatch
    ):
        config = _config()
        trace = generate_trace_cached(config)
        path = trace_cache_path(config)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_DEFLATED
            }
        with np.load(path) as data:
            # Format 2: the code stream plus the event table.
            assert sorted(data.files) == [
                "codes", "metadata", "table_conditionals", "table_pcs",
                "table_takens", "table_targets",
            ]
            assert data["codes"].dtype == np.uint32
            assert np.array_equal(data["codes"], trace.codes)
            for column in ("pcs", "takens", "conditionals", "targets"):
                table = data[f"table_{column}"]
                assert np.array_equal(table[data["codes"]], getattr(trace, column))
        _assert_traces_equal(load_trace(path), trace)

        # A cache-write fault publishes a truncated entry; the next read
        # drops it and regenerates the same trace.
        path.unlink()
        monkeypatch.setenv(FAULTS_ENV_VAR, "cache-write@1")
        reset_faults()
        generate_trace_cached(config)
        with pytest.raises(Exception):
            load_trace(path)
        monkeypatch.delenv(FAULTS_ENV_VAR)
        reset_faults()
        _assert_traces_equal(generate_trace_cached(config), trace)
        assert cache_stats()["errors"] == 1
        _assert_traces_equal(load_trace(path), trace)

    def test_savez_compressed_entry_still_hits(self, cache_in_tmp):
        # Entries written at numpy's default level stay valid, and so do
        # format-1 entries (four per-event columns): they load
        # bit-identically.
        config = _config()
        trace = generate_trace(config)
        path = trace_cache_path(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        metadata = {"version": 1, "name": trace.name, "seed": trace.seed}
        np.savez_compressed(
            path,
            pcs=trace.pcs,
            takens=trace.takens,
            conditionals=trace.conditionals,
            targets=trace.targets,
            metadata=np.frombuffer(
                json.dumps(metadata).encode("utf-8"), dtype=np.uint8
            ),
        )
        _assert_traces_equal(generate_trace_cached(config), trace)
        assert cache_stats()["hits"] == 1
