"""R007 width-flow: fixtures, seeded historical regressions, baseline."""

from __future__ import annotations


def r007(report):
    return [v for v in report.violations if v.rule_id == "R007"]


class TestSeededRegressions:
    """The two width bugs this repo actually shipped, reduced to fixtures.

    PR 2's gshare bug collapsed the index when ``index_bits`` made the
    shifted history overflow its word; PR 3's variant folded an
    unmasked history register past its container.  R007 must flag both
    shapes with no baseline, no pragma and no guard present.
    """

    def test_gshare_index_width_twin_fires(self, project):
        project.write(
            "src/gshare.py",
            """
            import numpy as np

            def gshare_keys(words, history, index_bits, history_bits):
                folded = np.uint32(history << (index_bits + history_bits))
                return words ^ folded
            """,
        )
        violations = r007(project.lint(["R007"]))
        assert len(violations) == 1
        assert violations[0].symbol == "gshare_keys"
        assert "uint32" in violations[0].message

    def test_unmasked_history_fold_fires(self, project):
        project.write(
            "src/fold.py",
            """
            import numpy as np

            def fold_history(history, hist_bits, n):
                word = np.empty(n, dtype=np.uint16)
                np.left_shift(history, hist_bits, out=word, casting="unsafe")
                return word
            """,
        )
        violations = r007(project.lint(["R007"]))
        assert len(violations) == 1
        assert "uint16" in violations[0].message

    def test_definite_overflow_is_flagged(self, project):
        project.write(
            "src/overflow.py",
            """
            import numpy as np

            def pack(k):
                return np.uint8((3 << 7) << k)
            """,
        )
        violations = r007(project.lint(["R007"]))
        assert len(violations) == 1
        assert "definite overflow" in violations[0].message


class TestSuppressions:
    def test_in_function_guard_silences(self, project):
        project.write(
            "src/guarded.py",
            """
            import numpy as np

            def gshare_keys(words, history, index_bits, history_bits):
                if index_bits + history_bits <= 32:
                    folded = np.uint32(history << (index_bits + history_bits))
                    return words ^ folded
                return words
            """,
        )
        assert r007(project.lint(["R007"])) == []

    def test_cross_module_guard_silences(self, project):
        project.write(
            "src/pack.py",
            """
            import numpy as np

            def pack(stream, entry_bits, b):
                return np.uint64(b << entry_bits)
            """,
        )
        project.write(
            "src/driver.py",
            """
            from pack import pack

            def width_ok(entry_bits):
                return entry_bits + 2 <= 64

            def run(stream, entry_bits):
                if width_ok(entry_bits):
                    return pack(stream, entry_bits, 3)
                return None
            """,
        )
        assert r007(project.lint(["R007"])) == []

    def test_mask_construction_is_exempt(self, project):
        project.write(
            "src/masks.py",
            """
            import numpy as np

            def make_mask(shift):
                return np.uint32((1 << shift) - 2)

            def truncate(history, index_bits):
                return np.uint64((history << 1) & ((1 << index_bits) - 1))
            """,
        )
        assert r007(project.lint(["R007"])) == []

    def test_provable_fit_is_exempt(self, project):
        project.write(
            "src/fits.py",
            """
            import numpy as np

            def small(history, k):
                low = history & ((1 << 8) - 1)
                return np.uint32(low << 4)
            """,
        )
        assert r007(project.lint(["R007"])) == []

    def test_constant_shift_is_not_packing(self, project):
        project.write(
            "src/plain.py",
            """
            import numpy as np

            def positions(n):
                word = np.empty(n, dtype=np.uint32)
                np.left_shift(np.arange(n), 1, out=word)
                return word
            """,
        )
        assert r007(project.lint(["R007"])) == []

    def test_pragma_silences(self, project):
        project.write(
            "src/pragma.py",
            """
            import numpy as np

            def fold(history, bits):
                return np.uint32(history << bits)  # repro-lint: disable=R007
            """,
        )
        assert r007(project.lint(["R007"])) == []


class TestNativeGate:
    """R007 findings can never be grandfathered into a baseline.

    No shipped engine packs fields into machine words any more (the
    native and vectorized tiers walk per-bank index streams, whose only
    narrowing sites are masks), so the fixtures above are what pin the
    rule; this keeps its findings from being silenced wholesale.
    """

    def test_baseline_refuses_r007(self, project):
        from repro.lint.baseline import NEVER_BASELINED

        assert "R007" in NEVER_BASELINED
