"""Tests for trace statistics (Tables 1/2 quantities)."""

import pytest

from repro.traces.cli import main
from repro.traces.io import save_trace
from repro.traces.stats import bias_density, substream_stats, trace_counts
from repro.traces.synthetic.validation import profile_trace
from repro.traces.trace import BranchRecord, Trace


def _trace():
    records = []
    # Branch A: always taken, 4 times; branch B: alternating, 4 times.
    for step in range(4):
        records.append(BranchRecord(pc=0x100, taken=True, conditional=True))
        records.append(
            BranchRecord(pc=0x104, taken=step % 2 == 0, conditional=True)
        )
    records.append(
        BranchRecord(pc=0x200, taken=True, conditional=False)
    )
    return Trace.from_records(records, name="stats")


class TestTraceCounts:
    def test_counts(self):
        counts = trace_counts(_trace())
        assert counts.name == "stats"
        assert counts.dynamic == 8
        assert counts.static == 2
        assert counts.events == 9
        assert counts.taken_ratio == pytest.approx(6 / 8)


class TestSubstreamStats:
    def test_zero_history_one_substream_per_branch(self):
        stats = substream_stats(_trace(), 0)
        assert stats.substreams == 2
        assert stats.static == 2
        assert stats.substream_ratio == 1.0

    def test_history_multiplies_substreams(self):
        stats = substream_stats(_trace(), 4)
        assert stats.substream_ratio > 1.0
        assert stats.dynamic == 8

    def test_compulsory_ratio(self):
        stats = substream_stats(_trace(), 0)
        assert stats.compulsory_ratio == pytest.approx(2 / 8)

    def test_monotone_in_history(self, tiny_trace):
        counts = [
            substream_stats(tiny_trace, h).substreams for h in (0, 2, 4, 8)
        ]
        assert counts == sorted(counts)


class TestBiasDensity:
    def test_all_taken(self):
        trace = Trace.from_records(
            [BranchRecord(pc=0x100, taken=True)] * 10
        )
        density = bias_density(trace, 0)
        assert density["static_taken_bias"] == 1.0
        assert density["dynamic_taken_ratio"] == 1.0

    def test_mixed(self):
        density = bias_density(_trace(), 0)
        # Substream A is taken-biased; B is 50/50 (not strictly majority
        # taken since 2 of 4 -> not > half).
        assert density["static_taken_bias"] == pytest.approx(0.5)
        assert density["dynamic_taken_ratio"] == pytest.approx(6 / 8)

    def test_empty(self):
        trace = Trace.from_columns([], [], [])
        density = bias_density(trace, 4)
        assert density["static_taken_bias"] == 0.0


def _info(trace, bits, tmp_path, capsys):
    """``repro-trace info --history bits``: its exit status and stderr."""
    path = tmp_path / "stats.npz"
    save_trace(trace, path)
    with pytest.raises(SystemExit) as exit_info:
        main(["info", str(path), "--history", str(bits)])
    assert exit_info.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("bits", [-1, 64])
@pytest.mark.parametrize(
    "statistic", [substream_stats, bias_density, profile_trace, _info]
)
def test_out_of_range_history_is_refused(statistic, bits, tmp_path, capsys):
    """Every substream statistic takes exactly the lengths the pair
    columns can form, and the CLI refuses the rest before any work."""
    if statistic is _info:
        assert "[0, 63]" in _info(_trace(), bits, tmp_path, capsys)
        return
    with pytest.raises(ValueError, match=r"\[0, 63\]"):
        statistic(_trace(), bits)
