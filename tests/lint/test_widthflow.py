"""R007 width-flow: fixtures, seeded historical regressions, native gate."""

from __future__ import annotations

from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


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
    """R007 must rediscover why the packed-word engine needs its gates.

    The native tier walks index streams in order and packs nothing; the
    ``tag | key | position | outcome`` words survive in ``sim/scan.py``,
    whose callers pick uint32 words only when ``key_bits + shift <= 32``
    (and ``scan_supports`` bounds the uint64 words).
    """

    SCAN = REPO_ROOT / "src" / "repro" / "sim" / "scan.py"

    #: The uint32-word guards at the packing sites.
    GATES = {
        "if key_bits + shift <= 32:": "if True:",
        "dtype = np.uint32 if key_bits + shift <= 32 else np.uint64": (
            "dtype = np.uint32"
        ),
    }

    def _fixture_copy(self, project, source: str) -> None:
        # The real module imports half the repo; only its own parsed
        # surface matters to R007 (imports resolve best-effort).
        project.write("src/fixture_scan.py", source)

    def test_real_native_with_gate_is_clean(self, project):
        source = self.SCAN.read_text(encoding="utf-8")
        self._fixture_copy(project, source)
        assert r007(project.lint(["R007"])) == []

    def test_gates_removed_fire_on_packing_site(self, project):
        source = self.SCAN.read_text(encoding="utf-8")
        assert "bank_index_bits + tag_bits + shift <= 64" in source, (
            "scan_supports' uint64 word guard moved; update this test"
        )
        for gate, stripped in self.GATES.items():
            assert gate in source, f"{gate!r} moved; update this test"
            source = source.replace(gate, stripped)
        self._fixture_copy(project, source)
        violations = r007(project.lint(["R007"]))
        assert violations, (
            "removing the width comparisons must expose the uint32 "
            "word packing in _scan_single_table"
        )
        assert {v.symbol for v in violations} == {"_scan_single_table"}
        assert all("32" in v.message for v in violations)

    def test_baseline_refuses_r007(self, project):
        from repro.lint.baseline import NEVER_BASELINED

        assert "R007" in NEVER_BASELINED
