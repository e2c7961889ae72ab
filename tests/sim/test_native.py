"""Equivalence tests: the native C engine vs the generic engine.

The native engine compiles the scan pipeline into C passes (pack,
direct-bucket or LSD radix grouping, fused sequential counter walks);
its correctness argument is bit-identity with
``repro.sim.engine.simulate`` — same SimulationResult, same final
counter values, same final history register — across every spec family
it claims, plus differential fuzz pinning the cffi entry points —
``repro_thread_backend``, ``repro_pack_bucket``, ``repro_pack_sort``,
``repro_scan_sorted``, ``repro_scan_lazy1`` and
``repro_scan_partial_round`` — to scalar oracles (the R006 lint rule
requires every kernel entry point to be referenced here by name).
Grouping-strategy (direct-bucket vs LSD) and thread-count choices must
be byte-invisible, so both are pinned against each other too.

The whole module degrades cleanly when the backend cannot build: every
test that needs the compiled kernel skips with an explicit reason, and
the dispatch tests that *disable* it (``REPRO_NATIVE=0``) keep running,
so the suite is green both with and without a C compiler.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.native import (
    _backend,
    compiler_info,
    native_available,
    native_cell_ok,
    native_supports,
    native_threads,
    run_lazy1_kernel,
    run_partial_kernel,
    run_table_kernel,
    simulate_native,
    sort_strategy,
    word_width_ok,
)
from repro.sim.profile import NULL_STAGE_TIMER
from repro.sim.vectorized import forced_engine, simulate_fast
from repro.traces.trace import Trace

from tests.strategies import traces as trace_strategy

requires_native = pytest.mark.skipif(
    not native_available(),
    reason="native backend unavailable (no C compiler, no cffi, or "
    "REPRO_NATIVE=0); the scan tier covers these specs instead",
)

#: Every spec family the native engine claims, including degenerate
#: geometries (one-entry tables, h=0, history folding, 1-bit counters):
#: the always-update bucket (bimodal/gshare/gselect, single-bank
#: non-LAZY skewed, multi-bank TOTAL skewed/e-gskew), single-bank LAZY
#: (``repro_scan_lazy1``) and multi-bank PARTIAL (the
#: ``repro_scan_partial_round`` fixpoint).
NATIVE_SPECS = [
    "bimodal:256",
    "bimodal:256:c1",
    "bimodal:1",  # degenerate: one entry (entry_bits = 0, zero sort passes)
    "gshare:256:h4",
    "gshare:256:h8",  # history == index bits (pure XOR)
    "gshare:64:h10",  # history > index bits (XOR folding)
    "gshare:256:h0",  # degenerate: PC-indexed
    "gshare:1:h4",  # degenerate: one entry
    "gshare:256:h4:c1",
    "gselect:256:h4",
    "gselect:1:h4",
    "gskew:1x256:h6:partial",  # single bank: PARTIAL == always-update
    "gskew:1x256:h6:total",
    "gskew:1x256:h6:lazy",  # single-bank LAZY: train-on-miss walk
    "gskew:3x256:h6:total",
    "gskew:3x256:h6:total:c1",
    "gskew:5x128:h6:total",
    "egskew:3x256:h6:total",
    "gskew:3x256:h6:partial",  # the paper's flagship policy
    "gskew:5x128:h5:partial",  # 5-bank majority
    "egskew:3x256:h6:partial",
]

#: Specs with no native path: multi-bank LAZY (its frozen-counter
#: coupling has no scan decomposition at all), agree's bias expansion,
#: and schemes with no closed-form index streams.
NO_NATIVE_SPECS = [
    "agree:256:h5",
    "gskew:3x256:h6:lazy",
    "fa:64:h4",
    "unaliased:h6",
]


def _full_state(predictor):
    """Snapshot all mutable predictor state (counters, history)."""
    if hasattr(predictor, "banks"):
        counters = [list(bank.counters.values) for bank in predictor.banks]
    else:
        counters = [list(predictor.bank.counters.values)]
    history = getattr(predictor, "history", None)
    return counters, None if history is None else history.value


@requires_native
class TestEquivalence:
    @pytest.mark.parametrize("spec", NATIVE_SPECS)
    def test_identical_to_generic_engine(self, spec, small_trace):
        reference = make_predictor(spec)
        candidate = make_predictor(spec)
        assert native_supports(candidate, small_trace), spec

        expected = simulate(reference, small_trace, label=spec)
        actual = simulate_native(candidate, small_trace, label=spec)

        assert actual == expected
        assert actual.engine == "native"
        assert _full_state(candidate) == _full_state(reference)

    @pytest.mark.parametrize(
        "spec", ["gshare:128:h6", "gskew:3x128:h5:total", "bimodal:128"]
    )
    @pytest.mark.parametrize("warmup", [1, 137, 10**9])
    def test_warmup_equivalence(self, spec, warmup, tiny_trace):
        reference = make_predictor(spec)
        candidate = make_predictor(spec)
        expected = simulate(reference, tiny_trace, warmup=warmup)
        actual = simulate_native(candidate, tiny_trace, warmup=warmup)
        assert actual == expected
        assert _full_state(candidate) == _full_state(reference)

    def test_warm_tables_are_honored(self, tiny_trace):
        # Counter state is read from the live predictor, so a second
        # run continues exactly where the generic engine would.  Like
        # every index-stream engine, history is assumed fresh, so the
        # history-free bimodal is the family member that can go twice.
        reference = make_predictor("bimodal:128")
        candidate = make_predictor("bimodal:128")
        simulate(reference, tiny_trace)
        simulate_native(candidate, tiny_trace)
        expected = simulate(reference, tiny_trace)
        actual = simulate_native(candidate, tiny_trace)
        assert actual == expected
        assert _full_state(candidate) == _full_state(reference)


#: Hand-built corner traces: empty, single event, a run of two, pure
#: bias, strict alternation, and an unconditional-only stream.
DEGENERATE_TRACES = {
    "empty": ([], []),
    "one-taken": ([0x40], [1]),
    "one-not-taken": ([0x40], [0]),
    "two-same-slot": ([0x40, 0x40], [1, 0]),
    "all-taken": ([0x40, 0x44, 0x40, 0x44, 0x40], [1, 1, 1, 1, 1]),
    "alternating": ([0x40] * 8, [1, 0, 1, 0, 1, 0, 1, 0]),
}


@requires_native
class TestDegenerateTraces:
    @pytest.mark.parametrize("name", sorted(DEGENERATE_TRACES))
    @pytest.mark.parametrize(
        "spec",
        [
            "bimodal:4",
            "gshare:8:h3",
            "gskew:3x8:h3:total",
            "gskew:1x8:h3:lazy",
            "gskew:3x8:h3:partial",
        ],
    )
    def test_matches_generic_engine(self, name, spec):
        pcs, takens = DEGENERATE_TRACES[name]
        trace = Trace.from_columns(
            pcs, takens, [1] * len(pcs), name=f"degenerate-{name}"
        )
        expected = simulate(make_predictor(spec), trace)
        actual = simulate_native(make_predictor(spec), trace)
        assert actual == expected

    def test_unconditionals_only(self):
        trace = Trace.from_columns([0x40, 0x44], [1, 1], [0, 0])
        spec = "gshare:8:h3"
        expected = simulate(make_predictor(spec), trace)
        actual = simulate_native(make_predictor(spec), trace)
        assert actual == expected
        assert actual.conditional_branches == 0


class TestDispatch:
    @pytest.mark.parametrize("spec", NO_NATIVE_SPECS)
    def test_coupled_predictors_are_rejected(self, spec, tiny_trace):
        predictor = make_predictor(spec)
        assert not native_supports(predictor, tiny_trace)
        if native_available():
            with pytest.raises(ValueError, match="no native path"):
                simulate_native(predictor, tiny_trace)

    @requires_native
    def test_negative_warmup_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="warmup"):
            simulate_native(
                make_predictor("bimodal:64"), tiny_trace, warmup=-1
            )

    def test_word_width_gate(self):
        # 50 entry bits + 3-bank tag + a 4k-event position field cannot
        # pack into 64 bits; 20 entry bits can.
        assert word_width_ok(20, 3, 4000)
        assert not word_width_ok(50, 3, 4000)

    def test_partial_density_gate(self):
        # PARTIAL cells are gated on events-per-entry: a 1-entry bank
        # (entry_bits=0) takes at most 1024 events per the native
        # density ceiling; add cells have no such gate.
        assert native_cell_ok("partial", 0, 3, 1024)
        assert not native_cell_ok("partial", 0, 3, 1025)
        assert native_cell_ok("add", 0, 3, 1025)

    def test_sort_strategy_names(self):
        # Tiny tables bucket directly; huge key spaces fall back to the
        # LSD radix, whose label reflects the thread resolution.
        assert sort_strategy(8, 3, 100_000, 1) == "direct-bucket"
        assert sort_strategy(30, 3, 1000, 1) == "lsd"
        assert sort_strategy(30, 3, 1000, 4) == "threaded-lsd"

    def test_native_threads_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        assert native_threads() == 3
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "99")  # clamped
        assert native_threads() == 16
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "-2")  # clamped
        assert native_threads() == 1
        monkeypatch.delenv("REPRO_NATIVE_THREADS")
        assert 1 <= native_threads() <= 16

    @requires_native
    def test_simulate_fast_routes_always_update_to_native(
        self, tiny_trace, monkeypatch
    ):
        import repro.sim.native as native_module

        calls = []
        inner = native_module.simulate_native

        def spy(predictor, trace, **kwargs):
            calls.append(type(predictor).__name__)
            return inner(predictor, trace, **kwargs)

        monkeypatch.setattr(native_module, "simulate_native", spy)
        spec = "gskew:3x128:h5:total"
        expected = simulate(make_predictor(spec), tiny_trace)
        actual = simulate_fast(make_predictor(spec), tiny_trace)
        assert actual == expected
        assert actual.engine == "native"
        assert calls == ["SkewedPredictor"]

    def test_compiler_info_shape(self, monkeypatch):
        # With a working toolchain: a dict with the compiler version
        # line, the thread backend (via repro_thread_backend) and the
        # REPRO_NATIVE_THREADS resolution.  With the compiler masked
        # (the no-compiler CI lane): None, never an exception — the
        # bench header must stay writable either way.
        info = compiler_info()
        if info is not None:
            assert isinstance(info, dict)
            assert isinstance(info["compiler"], str) and info["compiler"]
            assert info["thread_backend"] in ("pthreads", "serial", None)
            assert 1 <= info["threads"] <= 16
        monkeypatch.setenv("CC", "/nonexistent/compiler")
        masked = compiler_info()
        if native_available():  # cached build: backend facts remain
            assert masked["compiler"] is None
        else:  # nothing to report at all
            assert masked is None

    def test_kernel_wrappers_fail_cleanly_without_backend(self, monkeypatch):
        # With the backend disabled, every kernel wrapper — add, lazy1
        # and partial — must raise the explicit RuntimeError rather
        # than crash or silently compute; the no-compiler CI lane runs
        # this with the toolchain genuinely absent.
        monkeypatch.setenv("REPRO_NATIVE", "0")
        stream = np.zeros(4, dtype=np.uint64)
        outcomes = np.ones(4, dtype=bool)
        values = np.zeros(2, dtype=np.int64)
        for call in (
            lambda: run_table_kernel(
                [stream], outcomes, values, 1, 1, 3, 0, NULL_STAGE_TIMER
            ),
            lambda: run_lazy1_kernel(
                stream, outcomes, values, 1, 1, 3, 0, NULL_STAGE_TIMER
            ),
            lambda: run_partial_kernel(
                [stream] * 3,
                outcomes,
                np.zeros(6, dtype=np.int64),
                1,
                1,
                3,
                0,
                NULL_STAGE_TIMER,
            ),
        ):
            with pytest.raises(RuntimeError, match="native backend"):
                call()

    def test_repro_native_0_disables_the_tier(self, tiny_trace, monkeypatch):
        import repro.sim.native as native_module

        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert not native_available()

        def forbidden(*args, **kwargs):  # pragma: no cover — would fail
            raise AssertionError("native engine dispatched while disabled")

        monkeypatch.setattr(native_module, "simulate_native", forbidden)
        spec = "gshare:128:h6"
        expected = simulate(make_predictor(spec), tiny_trace)
        actual = simulate_fast(make_predictor(spec), tiny_trace)
        assert actual == expected
        assert actual.engine == "scan"  # fell through to the next tier


class TestForcedEngine:
    def test_unset_means_no_force(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert forced_engine() is None

    def test_unknown_value_fails_loudly(self, monkeypatch, tiny_trace):
        for value in ("frobnicate", "grid"):
            monkeypatch.setenv("REPRO_ENGINE", value)
            with pytest.raises(ValueError, match="not a known engine"):
                forced_engine()
            with pytest.raises(ValueError, match="not a known engine"):
                simulate_fast(make_predictor("bimodal:64"), tiny_trace)

    @pytest.mark.parametrize(
        "engine", ["generic", "vectorized", "scan", "native"]
    )
    def test_forced_tier_is_recorded(self, engine, tiny_trace, monkeypatch):
        if engine == "native" and not native_available():
            pytest.skip("native backend unavailable; cannot force it")
        monkeypatch.setenv("REPRO_ENGINE", engine)
        spec = "gshare:128:h6"
        actual = simulate_fast(make_predictor(spec), tiny_trace)
        monkeypatch.delenv("REPRO_ENGINE")
        expected = simulate(make_predictor(spec), tiny_trace)
        assert actual == expected
        assert actual.engine == engine

    def test_forced_engine_failure_is_loud(self, tiny_trace, monkeypatch):
        # agree has no native path; a forced native run must raise, not
        # silently measure another tier.
        monkeypatch.setenv("REPRO_ENGINE", "native")
        with pytest.raises(ValueError, match="no native path"):
            simulate_fast(make_predictor("agree:128:h5"), tiny_trace)

    def test_engine_name_is_provenance_not_content(self, tiny_trace):
        # compare=False: results from different tiers stay equal.
        a = simulate(make_predictor("bimodal:64"), tiny_trace)
        b = simulate_fast(make_predictor("bimodal:64"), tiny_trace)
        assert a == b
        assert a.engine == "generic"
        assert b.engine in ("native", "scan")


def _reference_table_loop(
    bank_keys, outcomes, bank_values, threshold, vmax, warmup
):
    """Scalar oracle for one whole kernel pass: per-event majority vote
    over per-bank saturating counters (TOTAL update), miss counting
    gated on ``warmup``.  The loop ``repro_pack_sort`` +
    ``repro_scan_sorted`` replace."""
    banks = len(bank_keys)
    need = banks // 2 + 1
    misses = 0
    for event, taken in enumerate(outcomes):
        votes = 0
        for b in range(banks):
            key = bank_keys[b][event]
            if bank_values[b][key] >= threshold:
                votes += 1
        if ((votes >= need) != taken) and event >= warmup:
            misses += 1
        for b in range(banks):
            key = bank_keys[b][event]
            v = bank_values[b][key]
            if taken:
                if v < vmax:
                    bank_values[b][key] = v + 1
            elif v > 0:
                bank_values[b][key] = v - 1
    return misses


@requires_native
class TestKernelEntryPoints:
    def test_repro_thread_backend_reports_a_real_backend(self):
        _, lib = _backend()
        assert lib.repro_thread_backend() in (0, 1)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_repro_pack_sort_is_a_stable_grouping(self, threads):
        # Grouped-by-key with positions ascending inside each group is
        # exactly the full-word sorted order (position bits break ties),
        # so a plain Python sort of the packed words is the oracle.
        # The per-bank LSD only sorts entry bytes, but bank blocks are
        # laid out tag-ascending, so the global order still falls out —
        # at any thread count.
        ffi, lib = _backend()
        entry_bits, banks = 2, 3
        local = [[3, 1, 3, 0, 3, 1], [0, 0, 2, 2, 1, 1], [1, 3, 1, 3, 1, 3]]
        outcomes = [1, 0, 1, 1, 0, 0]
        n = len(outcomes)
        shift = max(1, (n - 1).bit_length()) + 1
        keys = np.array(
            [k | (b << entry_bits) for b in range(banks) for k in local[b]],
            dtype=np.uint64,
        )
        out = np.empty(banks * n, dtype=np.uint64)
        scratch = np.empty(banks * n, dtype=np.uint64)
        lib.repro_pack_sort(
            ffi.from_buffer("uint64_t[]", keys),
            ffi.from_buffer(
                "uint8_t[]", np.array(outcomes, dtype=np.uint8)
            ),
            n,
            banks,
            shift,
            entry_bits,
            ffi.from_buffer("uint64_t[]", out),
            ffi.from_buffer("uint64_t[]", scratch),
            threads,
        )
        words = [
            (int(keys[b * n + i]) << shift) | (i << 1) | outcomes[i]
            for b in range(banks)
            for i in range(n)
        ]
        assert out.tolist() == sorted(words)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_repro_pack_bucket_matches_the_sorted_order(self, threads):
        # The direct-bucket scatter must produce byte-for-byte the same
        # grouped words as the radix path: the stable grouped order is
        # unique, so sorted packed words are again the oracle.
        ffi, lib = _backend()
        entry_bits, banks = 2, 3
        local = [[3, 1, 3, 0, 3, 1], [0, 0, 2, 2, 1, 1], [1, 3, 1, 3, 1, 3]]
        outcomes = [1, 0, 1, 1, 0, 0]
        n = len(outcomes)
        shift = max(1, (n - 1).bit_length()) + 1
        keys = np.array(
            [k | (b << entry_bits) for b in range(banks) for k in local[b]],
            dtype=np.uint64,
        )
        entries = banks << entry_bits
        counts = np.empty(threads * entries, dtype=np.int64)
        out = np.empty(banks * n, dtype=np.uint64)
        lib.repro_pack_bucket(
            ffi.from_buffer("uint64_t[]", keys),
            ffi.from_buffer(
                "uint8_t[]", np.array(outcomes, dtype=np.uint8)
            ),
            n,
            banks,
            shift,
            entries,
            ffi.from_buffer("int64_t[]", counts),
            ffi.from_buffer("uint64_t[]", out),
            threads,
        )
        words = [
            (int(keys[b * n + i]) << shift) | (i << 1) | outcomes[i]
            for b in range(banks)
            for i in range(n)
        ]
        assert out.tolist() == sorted(words)

    def test_repro_scan_sorted_empty_input(self):
        ffi, lib = _backend()
        values = np.array([0, 3], dtype=np.int64)
        misses = lib.repro_scan_sorted(
            ffi.from_buffer("uint64_t[]", np.empty(0, dtype=np.uint64)),
            0,
            2,
            2,
            3,
            ffi.from_buffer("int64_t[]", values),
            0,
            1,
            1,
            ffi.NULL,
            0,
        )
        assert misses == 0
        assert values.tolist() == [0, 3]

    # Differential fuzz of the full repro_pack_sort + repro_scan_sorted
    # pipeline (via run_table_kernel's marshalling) against the scalar
    # voted-table oracle: small tables force heavy aliasing, odd bank
    # counts exercise the complement-trick majority, warmup draws
    # straddle the trace, and 1-bit counters hit both saturation rails.
    @given(
        data=st.data(),
        banks=st.sampled_from([1, 3, 5]),
        entry_bits=st.integers(0, 3),
        max_value=st.sampled_from([1, 3, 7]),
        length=st.integers(1, 120),
    )
    @settings(max_examples=120, deadline=None)
    def test_kernel_matches_scalar_oracle(
        self, data, banks, entry_bits, max_value, length
    ):
        table = 1 << entry_bits
        threshold = data.draw(st.integers(1, max_value), label="threshold")
        warmup = data.draw(st.integers(0, length + 1), label="warmup")
        bank_keys = [
            data.draw(
                st.lists(
                    st.integers(0, table - 1),
                    min_size=length,
                    max_size=length,
                ),
                label=f"keys{b}",
            )
            for b in range(banks)
        ]
        outcomes = data.draw(
            st.lists(st.booleans(), min_size=length, max_size=length),
            label="outcomes",
        )
        init = [
            data.draw(
                st.lists(
                    st.integers(0, max_value),
                    min_size=table,
                    max_size=table,
                ),
                label=f"init{b}",
            )
            for b in range(banks)
        ]

        values = np.concatenate(
            [np.asarray(bank, dtype=np.int64) for bank in init]
        )
        misses = run_table_kernel(
            [np.asarray(keys, dtype=np.uint64) for keys in bank_keys],
            np.asarray(outcomes, dtype=bool),
            values,
            entry_bits,
            threshold,
            max_value,
            warmup,
            NULL_STAGE_TIMER,
        )

        oracle_values = [list(bank) for bank in init]
        expected = _reference_table_loop(
            bank_keys, outcomes, oracle_values, threshold, max_value, warmup
        )
        assert misses == expected
        assert values.tolist() == [v for bank in oracle_values for v in bank]

    @given(
        spec=st.sampled_from(
            [
                "bimodal:8",
                "gshare:16:h4",
                "gselect:16:h3",
                "gskew:3x16:h3:total",
                "egskew:3x16:h3:total",
                "gskew:1x16:h3:lazy",
                "gskew:3x16:h3:partial",
                "gskew:5x8:h3:partial",
            ]
        ),
        trace=trace_strategy(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_traces_match_generic_engine(self, spec, trace):
        reference = make_predictor(spec)
        candidate = make_predictor(spec)
        expected = simulate(reference, trace)
        actual = simulate_native(candidate, trace)
        assert actual == expected
        assert _full_state(candidate) == _full_state(reference)


def _reference_lazy1_loop(keys, outcomes, values, threshold, vmax, warmup):
    """Scalar oracle for ``repro_scan_lazy1``: single bank, train only
    when the bank's own prediction is wrong (LAZY)."""
    misses = 0
    for event, taken in enumerate(outcomes):
        key = keys[event]
        wrong = (values[key] >= threshold) != taken
        if wrong and event >= warmup:
            misses += 1
        if wrong:
            v = values[key]
            if taken:
                if v < vmax:
                    values[key] = v + 1
            elif v > 0:
                values[key] = v - 1
    return misses


def _reference_partial_loop(
    bank_keys, outcomes, bank_values, threshold, vmax, warmup
):
    """Scalar oracle for the PARTIAL fixpoint: majority vote; on a
    wrong vote every bank trains, on a correct vote only the banks
    whose own prediction matched the outcome."""
    banks = len(bank_keys)
    need = banks // 2 + 1
    misses = 0
    for event, taken in enumerate(outcomes):
        preds = [
            bank_values[b][bank_keys[b][event]] >= threshold
            for b in range(banks)
        ]
        vote_wrong = (sum(preds) >= need) != taken
        if vote_wrong and event >= warmup:
            misses += 1
        for b in range(banks):
            if vote_wrong or preds[b] == taken:
                key = bank_keys[b][event]
                v = bank_values[b][key]
                if taken:
                    if v < vmax:
                        bank_values[b][key] = v + 1
                elif v > 0:
                    bank_values[b][key] = v - 1
    return misses


@requires_native
class TestMapCodeKernels:
    """Fuzz ``repro_scan_lazy1`` and ``repro_scan_partial_round``
    (through their driver wrappers) against scalar oracles."""

    @given(
        data=st.data(),
        entry_bits=st.integers(0, 3),
        max_value=st.sampled_from([1, 3, 7]),
        length=st.integers(1, 120),
    )
    @settings(max_examples=120, deadline=None)
    def test_lazy1_matches_scalar_oracle(
        self, data, entry_bits, max_value, length
    ):
        table = 1 << entry_bits
        threshold = data.draw(st.integers(1, max_value), label="threshold")
        warmup = data.draw(st.integers(0, length + 1), label="warmup")
        keys = data.draw(
            st.lists(
                st.integers(0, table - 1), min_size=length, max_size=length
            ),
            label="keys",
        )
        outcomes = data.draw(
            st.lists(st.booleans(), min_size=length, max_size=length),
            label="outcomes",
        )
        init = data.draw(
            st.lists(
                st.integers(0, max_value), min_size=table, max_size=table
            ),
            label="init",
        )

        values = np.asarray(init, dtype=np.int64)
        misses = run_lazy1_kernel(
            np.asarray(keys, dtype=np.uint64),
            np.asarray(outcomes, dtype=bool),
            values,
            entry_bits,
            threshold,
            max_value,
            warmup,
            NULL_STAGE_TIMER,
        )

        oracle_values = list(init)
        expected = _reference_lazy1_loop(
            keys, outcomes, oracle_values, threshold, max_value, warmup
        )
        assert misses == expected
        assert values.tolist() == oracle_values

    @given(
        data=st.data(),
        banks=st.sampled_from([3, 5]),
        entry_bits=st.integers(0, 3),
        max_value=st.sampled_from([1, 3]),
        length=st.integers(1, 120),
    )
    @settings(max_examples=120, deadline=None)
    def test_partial_matches_scalar_oracle(
        self, data, banks, entry_bits, max_value, length
    ):
        table = 1 << entry_bits
        threshold = data.draw(st.integers(1, max_value), label="threshold")
        warmup = data.draw(st.integers(0, length + 1), label="warmup")
        bank_keys = [
            data.draw(
                st.lists(
                    st.integers(0, table - 1),
                    min_size=length,
                    max_size=length,
                ),
                label=f"keys{b}",
            )
            for b in range(banks)
        ]
        outcomes = data.draw(
            st.lists(st.booleans(), min_size=length, max_size=length),
            label="outcomes",
        )
        init = [
            data.draw(
                st.lists(
                    st.integers(0, max_value),
                    min_size=table,
                    max_size=table,
                ),
                label=f"init{b}",
            )
            for b in range(banks)
        ]

        values = np.concatenate(
            [np.asarray(bank, dtype=np.int64) for bank in init]
        )
        misses = run_partial_kernel(
            [np.asarray(keys, dtype=np.uint64) for keys in bank_keys],
            np.asarray(outcomes, dtype=bool),
            values,
            entry_bits,
            threshold,
            max_value,
            warmup,
            NULL_STAGE_TIMER,
        )

        # None = round cap (the driver's honest bail-out signal, taken
        # by the exact-loop fallback in real dispatch) — not a miss
        # count to compare.
        assume(misses is not None)
        oracle_values = [list(bank) for bank in init]
        expected = _reference_partial_loop(
            bank_keys, outcomes, oracle_values, threshold, max_value, warmup
        )
        assert misses == expected
        assert values.tolist() == [v for bank in oracle_values for v in bank]


@requires_native
class TestStrategyAndThreadInvariance:
    """Grouping strategy (direct-bucket vs LSD) and thread count are
    wall-clock knobs only: results must be byte-identical."""

    SPECS = [
        "gshare:256:h8",
        "gskew:3x256:h6:total",
        "gskew:1x256:h6:lazy",
        "gskew:3x256:h6:partial",
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_threads_1_vs_4_bit_identical(self, spec, small_trace, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "1")
        serial_pred = make_predictor(spec)
        serial = simulate_native(serial_pred, small_trace)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
        threaded_pred = make_predictor(spec)
        threaded = simulate_native(threaded_pred, small_trace)
        assert serial == threaded
        assert _full_state(serial_pred) == _full_state(threaded_pred)

    @pytest.mark.parametrize("spec", SPECS)
    def test_forced_lsd_matches_direct_bucket(
        self, spec, small_trace, monkeypatch
    ):
        import repro.sim.native as native_module

        bucket_pred = make_predictor(spec)
        bucket = simulate_native(bucket_pred, small_trace)
        # Shrink the bucket gate to nothing so every geometry takes the
        # LSD radix path.
        monkeypatch.setattr(native_module, "_BUCKET_MAX_KEYS", 0)
        lsd_pred = make_predictor(spec)
        lsd = simulate_native(lsd_pred, small_trace)
        assert bucket == lsd
        assert _full_state(bucket_pred) == _full_state(lsd_pred)

    def test_partial_round_cap_falls_back_to_exact_loop(
        self, tiny_trace, monkeypatch
    ):
        import repro.sim.native as native_module

        # A zero round budget can never converge: run_partial_kernel
        # reports None and simulate_native must fall back to the exact
        # sequential loop, still bit-identical to the generic engine.
        monkeypatch.setattr(native_module, "_PARTIAL_ROUND_LIMIT", 0)
        spec = "gskew:3x64:h4:partial"
        reference = make_predictor(spec)
        candidate = make_predictor(spec)
        expected = simulate(reference, tiny_trace)
        actual = simulate_native(candidate, tiny_trace)
        assert actual == expected
        assert _full_state(candidate) == _full_state(reference)
