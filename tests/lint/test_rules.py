"""Fixture-driven tests: each rule R001-R006 fires on purpose-built
violations and stays silent on the sanctioned pattern next to them."""

from __future__ import annotations


def _rules_hit(report):
    return sorted({v.rule_id for v in report.violations})


def _messages(report):
    return [v.message for v in report.violations]


class TestR001Determinism:
    def test_global_random_calls_flagged(self, project):
        project.write(
            "src/repro/rng_use.py",
            """
            import random
            import numpy as np

            def bad():
                value = random.random()
                random.shuffle([1, 2, 3])
                np.random.seed(3)
                return value
            """,
        )
        report = project.lint(["R001"])
        assert len(report.violations) == 3
        assert all(v.rule_id == "R001" for v in report.violations)
        assert all(v.symbol == "bad" for v in report.violations)
        assert any("random.shuffle" in m for m in _messages(report))
        assert any("np.random.seed" in m for m in _messages(report))

    def test_unseeded_constructors_flagged(self, project):
        project.write(
            "src/repro/rng_ctor.py",
            """
            import random
            from numpy.random import default_rng

            def bad():
                return random.Random(), default_rng()
            """,
        )
        report = project.lint(["R001"])
        assert len(report.violations) == 2
        assert all("explicit seed" in m for m in _messages(report))

    def test_seeded_instances_are_clean(self, project):
        project.write(
            "src/repro/rng_good.py",
            """
            import random
            import numpy as np

            def good(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                return rng.random() + gen.random()
            """,
        )
        assert project.lint(["R001"]).clean


class TestR002BitWidth:
    def test_unmasked_index_return_flagged(self, project):
        project.write(
            "src/repro/idx.py",
            """
            def bad_index(pc, history, index_bits):
                return pc ^ history

            def good_index(pc, history, index_bits):
                mask = (1 << index_bits) - 1
                return (pc ^ history) & mask
            """,
        )
        report = project.lint(["R002"])
        assert [v.symbol for v in report.violations] == ["bad_index"]
        assert "not masked" in report.violations[0].message

    def test_shift_by_width_loop_needs_guard(self, project):
        project.write(
            "src/repro/fold.py",
            """
            def bad_fold(value, index_bits):
                folded = 0
                while value:
                    folded ^= value
                    value >>= index_bits
                return folded

            def good_fold(value, index_bits):
                if index_bits == 0:
                    return 0
                folded = 0
                while value:
                    folded ^= value
                    value >>= index_bits
                return folded
            """,
        )
        report = project.lint(["R002"])
        assert [v.symbol for v in report.violations] == ["bad_fold"]
        assert "never terminates at zero width" in report.violations[0].message

    def test_modulo_by_width_param_needs_guard(self, project):
        project.write(
            "src/repro/slots.py",
            """
            def bad_slot(pc, n):
                return pc % n

            def good_slot(pc, n):
                if n < 1:
                    raise ValueError(n)
                return pc % n
            """,
        )
        report = project.lint(["R002"])
        assert [v.symbol for v in report.violations] == ["bad_slot"]
        assert "% n" in report.violations[0].message

    def test_uncast_dynamic_numpy_shift_flagged(self, project):
        project.write(
            "src/repro/npshift.py",
            """
            import numpy as np

            def bad(values, amount):
                arr = np.asarray(values, dtype=np.uint64)
                return arr << amount

            def good(values, amount):
                arr = np.asarray(values, dtype=np.uint64)
                return (arr << np.uint64(amount)) | (arr >> 3)
            """,
        )
        report = project.lint(["R002"])
        assert [v.symbol for v in report.violations] == ["bad"]
        assert "np.uint64" in report.violations[0].message


class TestR003ExperimentContract:
    RUNNER = """
    EXPERIMENTS = {
        "figure1": (figure1, True),
        "figure2": (figure2, True),
        "figure3": (figure3, False),
    }
    """

    def test_missing_run_and_missing_jobs(self, project):
        project.write("src/repro/experiments/runner.py", self.RUNNER)
        project.write(
            "src/repro/experiments/figure1.py",
            """
            def render(result):
                return str(result)
            """,
        )
        project.write(
            "src/repro/experiments/figure2.py",
            """
            def run(scale=1.0):
                return scale
            """,
        )
        report = project.lint(["R003"])
        by_path = {v.path: v.message for v in report.violations}
        assert "no top-level run()" in by_path["src/repro/experiments/figure1.py"]
        assert "'jobs'" in by_path["src/repro/experiments/figure2.py"]

    def test_unregistered_module_flagged(self, project):
        project.write("src/repro/experiments/runner.py", self.RUNNER)
        project.write(
            "src/repro/experiments/figure9.py",
            """
            def run(jobs=None):
                return jobs
            """,
        )
        report = project.lint(["R003"])
        assert len(report.violations) == 1
        assert "not registered" in report.violations[0].message

    def test_sweep_call_must_thread_jobs(self, project):
        project.write("src/repro/experiments/runner.py", self.RUNNER)
        project.write(
            "src/repro/experiments/figure3.py",
            """
            from repro.sim.sweep import size_sweep

            def run(jobs=None):
                return size_sweep([1, 2], 4)
            """,
        )
        report = project.lint(["R003"])
        assert len(report.violations) == 1
        assert "does not pass jobs=" in report.violations[0].message

    def test_conforming_module_is_clean(self, project):
        project.write("src/repro/experiments/runner.py", self.RUNNER)
        project.write(
            "src/repro/experiments/figure3.py",
            """
            from repro.sim.sweep import size_sweep

            def run(jobs=None):
                return size_sweep([1, 2], 4, jobs=jobs)
            """,
        )
        assert project.lint(["R003"]).clean

    def test_non_experiment_files_ignored(self, project):
        project.write(
            "src/repro/experiments/common.py",
            """
            def helper():
                return 1
            """,
        )
        assert project.lint(["R003"]).clean


class TestR004EngineParity:
    def test_untested_entry_point_flagged(self, project):
        project.write(
            "src/repro/sim/vectorized.py",
            """
            __all__ = ["covered_fn", "uncovered_fn"]

            def covered_fn():
                return 1

            def uncovered_fn():
                return 2

            def _private():
                return 3
            """,
        )
        project.write(
            "tests/test_equiv.py",
            """
            from repro.sim.vectorized import covered_fn

            def test_covered_fn():
                assert covered_fn() == 1
            """,
        )
        report = project.lint(["R004"])
        assert [v.symbol for v in report.violations] == ["uncovered_fn"]

    def test_native_module_is_a_target(self, project):
        project.write(
            "src/repro/sim/native.py",
            """
            __all__ = ["simulate_native"]

            def simulate_native():
                return 1
            """,
        )
        report = project.lint(["R004"])
        assert [v.symbol for v in report.violations] == ["simulate_native"]
        project.write(
            "tests/test_native_equiv.py",
            """
            from repro.sim.native import simulate_native

            def test_simulate_native():
                assert simulate_native() == 1
            """,
        )
        assert project.lint(["R004"]).clean

    def test_dunder_all_limits_the_public_surface(self, project):
        project.write(
            "src/repro/aliasing/vectorized.py",
            """
            __all__ = ["exported"]

            def exported():
                return 1

            def helper_not_exported():
                return 2
            """,
        )
        project.write(
            "tests/test_equiv.py",
            """
            def test_exported():
                from repro.aliasing.vectorized import exported
                assert exported() == 1
            """,
        )
        assert project.lint(["R004"]).clean


class TestR006NativeKernelTest:
    NATIVE = """
    _CDEF = \"\"\"
    void repro_pack_sort(const uint64_t *keys, int64_t n);
    int64_t repro_scan_sorted(const uint64_t *words, int64_t m);
    \"\"\"

    def simulate_native():
        return _CDEF
    """

    def test_unreferenced_entry_point_flagged(self, project):
        project.write("src/repro/sim/native.py", self.NATIVE)
        project.write(
            "tests/test_kernel.py",
            """
            def test_pack_sort(lib):
                lib.repro_pack_sort(b"", 0)
            """,
        )
        report = project.lint(["R006"])
        assert [v.symbol for v in report.violations] == ["repro_scan_sorted"]
        assert "referencing it by name" in report.violations[0].message

    def test_all_entry_points_referenced_is_clean(self, project):
        project.write("src/repro/sim/native.py", self.NATIVE)
        project.write(
            "tests/test_kernel.py",
            """
            def test_kernels(lib):
                lib.repro_pack_sort(b"", 0)
                assert lib.repro_scan_sorted(b"", 0) == 0
            """,
        )
        assert project.lint(["R006"]).clean

    def test_partial_name_match_does_not_count(self, project):
        # "repro_scan_sorted_v2" must not satisfy "repro_scan_sorted";
        # the reference has to be the whole word.
        project.write("src/repro/sim/native.py", self.NATIVE)
        project.write(
            "tests/test_kernel.py",
            """
            def test_kernels(lib):
                lib.repro_pack_sort(b"", 0)
                lib.repro_scan_sorted_v2(b"", 0)
            """,
        )
        report = project.lint(["R006"])
        assert [v.symbol for v in report.violations] == ["repro_scan_sorted"]

    def test_other_modules_ignored(self, project):
        project.write(
            "src/repro/sim/other.py",
            """
            _CDEF = "void repro_untested_kernel(int64_t n);"
            """,
        )
        assert project.lint(["R006"]).clean


class TestR005CacheKey:
    GENERATOR = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class WorkloadConfig:
        name: str
        seed: int
        length: int

        def scaled(self, factor):
            return int(self.length * factor)
    """

    CACHE_ASDICT = """
    import dataclasses
    import hashlib
    import json

    def config_fingerprint(config):
        payload = json.dumps(dataclasses.asdict(config), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()
    """

    CACHE_MANUAL = """
    import hashlib
    import json

    def config_fingerprint(config):
        payload = json.dumps({"name": config.name, "seed": config.seed})
        return hashlib.sha256(payload.encode()).hexdigest()
    """

    def test_undeclared_attribute_read_flagged(self, project):
        project.write("src/repro/traces/synthetic/generator.py", self.GENERATOR)
        project.write("src/repro/traces/cache.py", self.CACHE_ASDICT)
        project.write(
            "src/repro/traces/synthetic/behavior.py",
            """
            def generate(config: "WorkloadConfig"):
                return config.length + config.bogus_knob
            """,
        )
        report = project.lint(["R005"])
        assert len(report.violations) == 1
        assert "config.bogus_knob" in report.violations[0].message

    def test_manual_fingerprint_missing_field_flagged(self, project):
        project.write("src/repro/traces/synthetic/generator.py", self.GENERATOR)
        project.write("src/repro/traces/cache.py", self.CACHE_MANUAL)
        project.write(
            "src/repro/traces/synthetic/behavior.py",
            """
            def generate(config: "WorkloadConfig"):
                return config.length
            """,
        )
        report = project.lint(["R005"])
        messages = _messages(report)
        # Both ends are flagged: the fingerprint is incomplete, and the
        # generator reads the uncovered field.
        assert any("does not cover declared" in m and "length" in m
                   for m in messages)
        assert any("config.length" in m for m in messages)

    def test_asdict_fingerprint_and_declared_reads_are_clean(self, project):
        project.write("src/repro/traces/synthetic/generator.py", self.GENERATOR)
        project.write("src/repro/traces/cache.py", self.CACHE_ASDICT)
        project.write(
            "src/repro/traces/synthetic/behavior.py",
            """
            def generate(config: "WorkloadConfig"):
                return config.scaled(0.5) + config.seed
            """,
        )
        assert project.lint(["R005"]).clean
