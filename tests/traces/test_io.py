"""Tests for trace serialisation round-trips."""

import numpy as np
import pytest

from repro.traces.io import (
    load_trace,
    load_trace_text,
    save_trace,
    save_trace_text,
)
from repro.traces.trace import BranchRecord, Trace


def _trace():
    return Trace.from_records(
        [
            BranchRecord(pc=0x400100, taken=True, conditional=True),
            BranchRecord(
                pc=0x400104, taken=True, conditional=False, target=0xABC0
            ),
            BranchRecord(pc=0x80000010, taken=False, conditional=True),
        ],
        name="roundtrip",
        seed=33,
    )


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.npz"
        trace = _trace()
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == "roundtrip"
        assert loaded.seed == 33
        assert list(loaded) == list(trace)

    def test_extension_added_by_numpy_handled(self, tmp_path):
        path = tmp_path / "trace"  # numpy will write trace.npz
        save_trace(_trace(), path)
        loaded = load_trace(path)
        assert loaded.name == "roundtrip"

    def test_synthetic_trace_roundtrip(self, tmp_path, tiny_trace):
        path = tmp_path / "tiny.npz"
        save_trace(tiny_trace, path)
        loaded = load_trace(path)
        assert np.array_equal(loaded.pcs, tiny_trace.pcs)
        assert np.array_equal(loaded.takens, tiny_trace.takens)
        assert np.array_equal(loaded.conditionals, tiny_trace.conditionals)


class TestTextFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.txt"
        trace = _trace()
        save_trace_text(trace, path)
        loaded = load_trace_text(path)
        assert loaded.name == "roundtrip"
        assert loaded.seed == 33
        assert list(loaded) == list(trace)

    def test_header_optional(self, tmp_path):
        path = tmp_path / "bare.txt"
        path.write_text("0x100 1 1 0x0\n0x104 0 1 0x0\n")
        loaded = load_trace_text(path)
        assert len(loaded) == 2
        assert loaded.name == "bare"
        assert loaded.seed is None

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.txt"
        path.write_text("\n0x100 1 1 0x0\n\n")
        assert len(load_trace_text(path)) == 1

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0x100 1 1\n")
        with pytest.raises(ValueError, match="expected 4 fields"):
            load_trace_text(path)

    @pytest.mark.parametrize(
        "line, field",
        [
            ("0x400 -1 1 0x0", "taken"),
            ("0x400 2 1 0x0", "taken"),
            ("0x400 1 2 0x0", "conditional"),
            ("0x400 1 -1 0x0", "conditional"),
            ("-0x4 1 1 0x0", "pc"),
            ("0x10000000000000000 1 1 0x0", "pc"),
            ("0x400 1 0 0x10000000000000000", "target"),
            ("0x400 1 0 -1", "target"),
            ("0x400 yes 1 0x0", "taken"),
            ("0xzz 1 1 0x0", "pc"),
        ],
    )
    def test_out_of_range_field_names_path_and_line(self, tmp_path, line, field):
        path = tmp_path / "bad.txt"
        path.write_text(f"# trace bad seed=None\n0x100 1 1 0x0\n{line}\n")
        with pytest.raises(ValueError, match=rf"bad\.txt:3: {field} must be"):
            load_trace_text(path)

    def test_full_width_addresses_accepted(self, tmp_path):
        path = tmp_path / "wide.txt"
        top = (1 << 64) - 1
        path.write_text(f"{top:#x} 0 1 {top:#x}\n0x0 1 0 0x0\n")
        loaded = load_trace_text(path)
        assert loaded.pcs.tolist() == [top, 0]
        assert loaded.targets.tolist() == [top, 0]
        assert loaded.takens.tolist() == [0, 1]
