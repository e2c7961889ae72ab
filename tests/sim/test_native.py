"""Equivalence tests: the native C engine vs the generic engine.

The native engine walks precomputed index streams through the counter
tables in one sequential C pass; its correctness argument is
bit-identity with ``repro.sim.engine.simulate`` — same SimulationResult,
same final counter, bias and history state — across every spec family
it claims, plus differential fuzz pinning the entry points
``repro_walk`` and ``repro_walk_agree`` of both counter-walk backends
(the cffi kernel and the Python loops) to scalar oracles (the R006 lint
rule requires every kernel entry point to be referenced here by name).

The whole module degrades cleanly when the backend cannot build: every
test that needs the compiled kernel skips with an explicit reason, while
the Python backend's entry-point fuzz and the dispatch tests that take
the kernel out of the ladder (by patching ``native_available`` or the
built backend) keep running, so the suite is green both with and
without a C compiler.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.native as native_module
from repro.core.update import UpdatePolicy
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.native import (
    NATIVE_BACKEND,
    _backend,
    native_available,
    native_supports,
    simulate_native,
)
from repro.sim.state import PredictorState
from repro.sim.vectorized import (
    _POLICY_CODES,
    PYTHON_BACKEND,
    simulate_fast,
    simulate_walk,
)
from repro.traces.trace import Trace

from tests.strategies import traces as trace_strategy

requires_native = pytest.mark.skipif(
    not native_available(),
    reason="native backend unavailable (no C compiler or no cffi); "
    "the vectorized tier covers these specs instead",
)

#: Every spec family the native engine claims, including degenerate
#: geometries (one-entry tables, h=0, history folding, 1-bit counters):
#: plain tables (bimodal/gshare/gselect), skewed and e-gskew banks under
#: every update policy, and agree.
NATIVE_SPECS = [
    "bimodal:256",
    "bimodal:256:c1",
    "bimodal:1",  # degenerate: one entry
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
    "gskew:1x256:h6:lazy",  # single-bank LAZY: train-on-miss
    "gskew:3x256:h6:total",
    "gskew:3x256:h6:total:c1",
    "gskew:5x128:h6:total",
    "egskew:3x256:h6:total",
    "gskew:3x256:h6:partial",  # the paper's flagship policy
    "gskew:5x128:h5:partial",  # 5-bank majority
    "egskew:3x256:h6:partial",
    "gskew:3x8:h4:partial",  # dense: thousands of events per entry
    "gskew:3x256:h6:lazy",  # coupled: banks freeze on correct votes
    "gskew:5x128:h5:lazy",
    "egskew:3x256:h6:lazy",
    "gskew:3x256:h6:lazy:c1",
    "agree:256:h5",
    "agree:256:h0",
    "agree:64:h10",  # history folding in the PHT index
    "agree:256:h5:c1",
    # Wide geometries: tables past 2**16 entries and histories past 32
    # bits, where a narrowed word in the index arithmetic would truncate.
    "gshare:256k:h16",
    "gshare:1k:h40",  # 40-bit register folded into a 10-bit index
    "gselect:256k:h20",
    "gskew:3x64k:h40:partial",  # 56-bit information vector
    "egskew:3x64k:h40:total",
    "agree:64k:h34",
]

#: Coupled specs an older native tier declined: agree's bias latches and
#: multi-bank LAZY.  The sequential walk takes both.
COUPLED_SPECS = ["agree:256:h5", "gskew:3x256:h6:lazy"]

#: Specs with no native path: schemes with no closed-form index streams.
NO_NATIVE_SPECS = [
    "fa:64:h4",
    "unaliased:h6",
]


def _full_state(predictor):
    """Digest of all mutable predictor state (counters, bias, history)."""
    return PredictorState.capture(predictor).digest()


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
        "spec",
        [
            "gshare:128:h6",
            "gskew:3x128:h5:total",
            "bimodal:128",
            "gskew:3x128:h5:lazy",
            "agree:128:h5",
        ],
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
            "gskew:3x8:h3:lazy",
            "gskew:5x8:h3:partial",
            "agree:8:h3",
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
    def test_non_index_predictors_are_rejected(self, spec, tiny_trace):
        predictor = make_predictor(spec)
        assert not native_supports(predictor, tiny_trace)
        if native_available():
            with pytest.raises(ValueError, match="no native path"):
                simulate_native(predictor, tiny_trace)

    @requires_native
    @pytest.mark.parametrize("spec", COUPLED_SPECS)
    def test_coupled_predictors_are_accepted(self, spec, tiny_trace):
        reference = make_predictor(spec)
        candidate = make_predictor(spec)
        assert native_supports(candidate, tiny_trace)
        assert simulate_native(candidate, tiny_trace) == simulate(
            reference, tiny_trace
        )
        assert _full_state(candidate) == _full_state(reference)

    @requires_native
    def test_negative_warmup_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="warmup"):
            simulate_native(
                make_predictor("bimodal:64"), tiny_trace, warmup=-1
            )

    @requires_native
    def test_simulate_fast_routes_always_update_to_native(
        self, tiny_trace, monkeypatch
    ):
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

    @requires_native
    @pytest.mark.parametrize(
        "spec",
        ["agree:4k:h12", "gskew:3x4k:h12:lazy", "gskew:3x8:h4:partial"],
    )
    @pytest.mark.parametrize("length", [1, 2_000, None])
    def test_simulate_fast_runs_coupled_specs_native(
        self, spec, length, small_trace
    ):
        # No geometry or trace-length gate: the tier runs native
        # whatever the aliasing density.
        trace = small_trace if length is None else small_trace.slice(0, length)
        actual = simulate_fast(make_predictor(spec), trace)
        assert actual.engine == "native"
        assert actual == simulate(make_predictor(spec), trace)

    def test_kernel_wrappers_fail_cleanly_without_backend(self, monkeypatch):
        # With the backend failed to build, both C walks must raise the
        # explicit RuntimeError rather than crash or silently compute;
        # the no-compiler CI lane runs this with the toolchain genuinely
        # absent.
        monkeypatch.setattr(native_module, "_BACKEND", "OSError: no compiler")
        monkeypatch.setattr(native_module, "_WARNED", True)
        none, byte = np.zeros(1, np.uint32), np.ones(1, np.uint8)
        with pytest.raises(RuntimeError, match="native backend"):
            NATIVE_BACKEND.walk(none, byte, 3, 0, 2, 3, [1, 1, 1], 1, 0)
        with pytest.raises(RuntimeError, match="native backend"):
            NATIVE_BACKEND.walk_agree(none, none, byte, 2, 3, [1], [-1], 0)

    @requires_native
    @pytest.mark.parametrize(
        "keys,values",
        [
            ([[0], [4], [0]], [1] * 12),  # an index past its bank
            ([[0], [1]], [1] * 12),  # a missing bank stream
            ([[0], [1], [2]], [1] * 11),  # a short table
        ],
    )
    def test_c_walk_refuses_out_of_bounds_inputs(self, keys, values):
        # The kernel trusts its buffers; the wrapper checks them first.
        with pytest.raises(ValueError, match="need"):
            NATIVE_BACKEND.walk(
                np.asarray(keys, dtype=np.uint32), np.ones(1, np.uint8),
                3, 0, 2, 3, values, 4, 0,
            )

    @requires_native
    @pytest.mark.parametrize(
        "keys,slots",
        [
            (np.zeros(1, np.uint32), np.full(1, 8, np.uint32)),  # slot 8 of 8
            (np.zeros(1, np.uint8), np.zeros(1, np.uint32)),  # byte indices
        ],
    )
    def test_c_agree_walk_refuses_out_of_bounds_inputs(self, keys, slots):
        with pytest.raises(ValueError, match="need"):
            NATIVE_BACKEND.walk_agree(
                keys, slots, np.ones(1, np.uint8), 2, 3, [1] * 4, [-1] * 8, 0
            )

    def test_repro_native_0_disables_the_tier(self, tiny_trace, monkeypatch):
        monkeypatch.setattr(native_module, "native_available", lambda: False)

        def forbidden(*args, **kwargs):  # pragma: no cover — would fail
            raise AssertionError("native engine dispatched while disabled")

        monkeypatch.setattr(native_module, "simulate_native", forbidden)
        spec = "gshare:128:h6"
        expected = simulate(make_predictor(spec), tiny_trace)
        actual = simulate_fast(make_predictor(spec), tiny_trace)
        assert actual == expected
        assert actual.engine == "vectorized"  # fell through to the next tier


class TestForcedEngine:
    def test_engine_name_is_provenance_not_content(self, tiny_trace):
        # compare=False: results from different tiers stay equal.
        a = simulate(make_predictor("bimodal:64"), tiny_trace)
        b = simulate_fast(make_predictor("bimodal:64"), tiny_trace)
        assert a == b
        assert a.engine == "generic"
        assert b.engine in ("native", "vectorized")


# -- the Python-C seam ----------------------------------------------------


def _walk_args(ffi):
    """The arguments of one valid single-bank ``repro_walk`` call, in
    cdef order (one taken event over a weakly not-taken counter)."""
    return [
        ffi.from_buffer("uint32_t[]", np.zeros(1, np.uint32)),  # indices
        ffi.from_buffer("uint8_t[]", np.ones(1, np.uint8)),  # outcomes
        1, 1, 0, 2, 3,  # n, banks, policy, threshold, max_value
        ffi.from_buffer("int64_t[]", np.ones(1, np.int64)),  # values
        1, 0,  # entries, warmup
    ]


@requires_native
class TestAbiChecks:
    """The compiler checks the kernel against the cdef when the backend
    builds and loads; cffi checks every call's arity and pointer types."""

    def _build(self, tmp_path, monkeypatch, kernel=None, cdef=None):
        monkeypatch.setenv(native_module.CACHE_ENV_VAR, str(tmp_path / "so"))
        if kernel is not None:
            path = tmp_path / "_native_kernel.c"
            path.write_text(kernel, encoding="utf-8")
            monkeypatch.setattr(native_module, "_KERNEL_PATH", path)
        if cdef is not None:
            monkeypatch.setattr(native_module, "_CDEF", cdef)
        return native_module._build_backend()

    def test_kernel_drifting_from_the_cdef_fails_to_build(
        self, tmp_path, monkeypatch, capfd
    ):
        import cffi

        shipped = native_module._KERNEL_PATH.read_text(encoding="utf-8")
        drifted = shipped.replace(
            "int64_t n, int32_t banks", "int64_t n, int64_t banks"
        )
        assert drifted.count("int64_t banks") == 1
        with pytest.raises(cffi.VerificationError):
            self._build(tmp_path, monkeypatch, kernel=drifted)
        assert re.search(
            r"conflicting types for .repro_walk.", capfd.readouterr().err
        )

    def test_cdef_entry_with_no_definition_fails_to_load(
        self, tmp_path, monkeypatch
    ):
        cdef = native_module._CDEF + (
            "int64_t repro_no_such_walk(int64_t *values, int64_t n);\n"
        )
        with pytest.raises(ImportError, match="repro_no_such_walk"):
            self._build(tmp_path, monkeypatch, cdef=cdef)

    def test_valid_call_runs(self):
        # The refusals below each break one argument of this call.
        ffi, lib = _backend()
        assert lib.repro_walk(*_walk_args(ffi)) == 1

    def test_wrongly_declared_buffer_is_refused(self):
        ffi, lib = _backend()
        args = _walk_args(ffi)
        args[0] = ffi.from_buffer("int64_t[]", np.zeros(1, np.int64))
        with pytest.raises(TypeError, match=r"uint32_t \*"):
            lib.repro_walk(*args)

    def test_swapped_buffers_are_refused(self):
        ffi, lib = _backend()
        args = _walk_args(ffi)
        args[0], args[1] = args[1], args[0]
        with pytest.raises(TypeError, match="uint8_t"):
            lib.repro_walk(*args)

    def test_wrong_arity_is_refused(self):
        ffi, lib = _backend()
        args = _walk_args(ffi)
        del args[2]  # n
        with pytest.raises(TypeError, match="expected 10 arguments, got 9"):
            lib.repro_walk(*args)

    def test_buffer_passed_for_a_scalar_is_refused(self):
        ffi, lib = _backend()
        args = _walk_args(ffi)
        args[2] = ffi.from_buffer("int64_t[]", np.ones(1, np.int64))
        with pytest.raises(TypeError):
            lib.repro_walk(*args)


class _PassThroughFFI:
    """Stands in for cffi's ``ffi``: hands the array through untouched."""

    def from_buffer(self, ctype, array):
        return array


class _NoOpKernel:
    """Stands in for the compiled ``lib``: walks nothing, misses nothing."""

    def repro_walk(self, *args):
        return 0

    def repro_walk_agree(self, *args):
        return 0


class TestBufferDtypes:
    """``from_buffer`` takes any array behind a ``T[]``; the wrapper's
    dtype check refuses the wrong one before cffi sees it, so these run
    without a compiler."""

    def test_int32_table_behind_int64_buffer_is_refused(self):
        # Counters gathered as int32 but handed over as int64_t[]: the
        # kernel would read pairs of them as one garbage counter.
        values = [1, 2, 3]
        table = np.fromiter(values, dtype=np.int32, count=len(values))
        with pytest.raises(ValueError, match="needs a int64 array, not int32"):
            native_module._buffer(_PassThroughFFI(), "int64_t[]", table)

    @pytest.mark.parametrize(
        "ctype,dtype",
        [
            ("uint8_t[]", np.uint8),
            ("int8_t[]", np.int8),
            ("uint32_t[]", np.uint32),
            ("int64_t[]", np.int64),
        ],
    )
    def test_only_the_declared_element_type_passes(self, ctype, dtype):
        ffi = _PassThroughFFI()
        array = np.zeros(2, dtype)
        assert native_module._buffer(ffi, ctype, array) is array
        for other in (np.uint8, np.int8, np.uint32, np.int32, np.int64):
            if other is not dtype:
                with pytest.raises(ValueError, match="needs"):
                    native_module._buffer(ffi, ctype, np.zeros(2, other))

    @pytest.mark.parametrize("wrong", ["indices", "outcomes"])
    def test_walk_checks_every_caller_buffer(self, wrong, monkeypatch):
        monkeypatch.setattr(
            native_module, "_BACKEND", (_PassThroughFFI(), _NoOpKernel())
        )
        arrays = {
            "indices": np.zeros(1, np.uint32),
            "outcomes": np.ones(1, np.uint8),
        }
        assert NATIVE_BACKEND.walk(
            arrays["indices"], arrays["outcomes"], 1, 0, 2, 3, [1], 1, 0
        ) == 0
        arrays[wrong] = arrays[wrong].astype(np.int64)
        with pytest.raises(ValueError, match="needs"):
            NATIVE_BACKEND.walk(
                arrays["indices"], arrays["outcomes"], 1, 0, 2, 3, [1], 1, 0
            )

    @pytest.mark.parametrize("wrong", ["indices", "slots", "outcomes"])
    def test_agree_walk_checks_every_caller_buffer(self, wrong, monkeypatch):
        monkeypatch.setattr(
            native_module, "_BACKEND", (_PassThroughFFI(), _NoOpKernel())
        )
        arrays = {
            "indices": np.zeros(1, np.uint32),
            "slots": np.zeros(1, np.uint32),
            "outcomes": np.ones(1, np.uint8),
        }

        def walk():
            return NATIVE_BACKEND.walk_agree(
                arrays["indices"], arrays["slots"], arrays["outcomes"],
                2, 3, [1], [-1], 0,
            )

        assert walk() == 0
        arrays[wrong] = arrays[wrong].astype(np.int64)
        with pytest.raises(ValueError, match="needs"):
            walk()


# -- entry points vs scalar oracles -----------------------------------------


def _train(values, key, up, vmax):
    v = values[key]
    if up:
        if v < vmax:
            values[key] = v + 1
    elif v > 0:
        values[key] = v - 1


def _reference_walk(
    bank_keys, outcomes, bank_values, policy, threshold, vmax, warmup
):
    """Scalar oracle for ``repro_walk``: the per-event majority vote and
    update rule of :class:`repro.core.gskew.SkewedPredictor` — TOTAL
    trains every bank, PARTIAL all banks on a wrong vote and only the
    banks that predicted the outcome on a right one, LAZY all banks on
    a wrong vote only."""
    banks = len(bank_keys)
    misses = 0
    for event, taken in enumerate(outcomes):
        keys = [bank_keys[b][event] for b in range(banks)]
        preds = [bank_values[b][keys[b]] >= threshold for b in range(banks)]
        wrong = (sum(preds) > banks // 2) != taken
        if wrong and event >= warmup:
            misses += 1
        for b in range(banks):
            if (
                policy is UpdatePolicy.TOTAL
                or wrong
                or (policy is UpdatePolicy.PARTIAL and preds[b] == taken)
            ):
                _train(bank_values[b], keys[b], taken, vmax)
    return misses


def _reference_agree_walk(
    keys, slots, outcomes, values, bias, threshold, vmax, warmup
):
    """Scalar oracle for ``repro_walk_agree``: predict with the slot's
    bias as it stands (default taken), latch an unlatched slot to the
    outcome, then train the PHT toward "agreed with the bias"."""
    misses = 0
    for event, taken in enumerate(outcomes):
        key, slot = keys[event], slots[event]
        effective = True if bias[slot] is None else bias[slot]
        agree = values[key] >= threshold
        prediction = effective if agree else not effective
        if prediction != taken and event >= warmup:
            misses += 1
        if bias[slot] is None:
            bias[slot] = taken
        _train(values, key, taken == bias[slot], vmax)
    return misses


def _split_points(data, length):
    """Zero or more resume points anywhere in ``[0, length]``."""
    return sorted(
        data.draw(
            st.lists(st.integers(0, length), max_size=3), label="cuts"
        )
    )


def _pieces(length, cuts):
    bounds = [0, *cuts, length]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _counter_draws(data, length):
    """Counter width, threshold, warmup and outcomes for one fuzz case."""
    max_value = data.draw(st.sampled_from([1, 3, 7]), label="max_value")
    threshold = data.draw(st.integers(1, max_value), label="threshold")
    warmup = data.draw(st.integers(0, length + 1), label="warmup")
    outcomes = data.draw(
        st.lists(st.booleans(), min_size=length, max_size=length),
        label="outcomes",
    )
    return max_value, threshold, warmup, outcomes


def _keys(data, length, table, label):
    return data.draw(
        st.lists(st.integers(0, table - 1), min_size=length, max_size=length),
        label=label,
    )


def _walk_entry_point_cases(backend):
    """Tests pinning one counter-walk backend's ``repro_walk`` and
    ``repro_walk_agree`` to the scalar oracles.  A fresh class per
    backend, so each hypothesis test runs under a single executor."""

    class Cases:
        def test_repro_walk_empty_input(self):
            values = [0, 3]
            misses = backend.walk(
                np.empty(0, dtype=np.uint32),
                np.empty(0, dtype=np.uint8),
                1,
                _POLICY_CODES[UpdatePolicy.TOTAL],
                2,
                3,
                values,
                2,
                0,
            )
            assert misses == 0
            assert values == [0, 3]

        @pytest.mark.parametrize("banks,policy", [(2, 0), (7, 0), (3, 3)])
        def test_repro_walk_rejects_unknown_geometry(self, banks, policy):
            # Even bank counts (ties), more than five banks and unknown
            # policy codes return -1 without touching the tables.
            values = [1] * banks
            misses = backend.walk(
                np.zeros(banks, dtype=np.uint32),
                np.ones(1, dtype=np.uint8),
                banks,
                policy,
                1,
                1,
                values,
                1,
                0,
            )
            assert misses == -1
            assert values == [1] * banks

        # Differential fuzz of repro_walk against the scalar oracle over
        # every policy and bank count: small tables force heavy aliasing,
        # warm tables start anywhere in the counter range, warmup draws
        # straddle the trace, 1-bit counters hit both saturation rails, and
        # the events arrive in pieces cut anywhere (the walk must resume
        # exactly from the tables a previous call left).
        @given(
            data=st.data(),
            banks=st.sampled_from([1, 3, 5]),
            policy=st.sampled_from(list(UpdatePolicy)),
            entry_bits=st.integers(0, 3),
            length=st.integers(1, 120),
        )
        @settings(max_examples=300, deadline=None)
        def test_kernel_matches_scalar_oracle(
            self, data, banks, policy, entry_bits, length
        ):
            table = 1 << entry_bits
            max_value, threshold, warmup, outcomes = _counter_draws(data, length)
            bank_keys = [_keys(data, length, table, f"keys{b}") for b in range(banks)]
            init = [
                data.draw(
                    st.lists(
                        st.integers(0, max_value), min_size=table, max_size=table
                    ),
                    label=f"init{b}",
                )
                for b in range(banks)
            ]

            indices = np.asarray(bank_keys, dtype=np.uint32)
            outcome_bytes = np.asarray(outcomes, dtype=np.uint8)
            values = [v for bank in init for v in bank]
            misses = 0
            for lo, hi in _pieces(length, _split_points(data, length)):
                misses += backend.walk(
                    np.ascontiguousarray(indices[:, lo:hi]),
                    outcome_bytes[lo:hi],
                    banks,
                    _POLICY_CODES[policy],
                    threshold,
                    max_value,
                    values,
                    table,
                    max(0, warmup - lo),
                )

            oracle_values = [list(bank) for bank in init]
            expected = _reference_walk(
                bank_keys, outcomes, oracle_values, policy, threshold,
                max_value, warmup,
            )
            assert misses == expected
            assert values == [v for bank in oracle_values for v in bank]

        @given(
            data=st.data(),
            entry_bits=st.integers(0, 3),
            bias_bits=st.integers(0, 3),
            length=st.integers(1, 120),
        )
        @settings(max_examples=200, deadline=None)
        def test_agree_kernel_matches_scalar_oracle(
            self, data, entry_bits, bias_bits, length
        ):
            # The same fuzz for repro_walk_agree, with biasing-bit tables
            # that start partly latched (either way) and partly unlatched.
            table, slots_n = 1 << entry_bits, 1 << bias_bits
            max_value, threshold, warmup, outcomes = _counter_draws(data, length)
            keys = _keys(data, length, table, "keys")
            slots = _keys(data, length, slots_n, "slots")
            init = data.draw(
                st.lists(st.integers(0, max_value), min_size=table, max_size=table),
                label="init",
            )
            init_bias = data.draw(
                st.lists(
                    st.sampled_from([None, False, True]),
                    min_size=slots_n,
                    max_size=slots_n,
                ),
                label="bias",
            )

            key_array = np.asarray(keys, dtype=np.uint32)
            slot_array = np.asarray(slots, dtype=np.uint32)
            outcome_bytes = np.asarray(outcomes, dtype=np.uint8)
            values = list(init)
            bias = [-1 if b is None else int(b) for b in init_bias]
            misses = 0
            for lo, hi in _pieces(length, _split_points(data, length)):
                misses += backend.walk_agree(
                    key_array[lo:hi],
                    slot_array[lo:hi],
                    outcome_bytes[lo:hi],
                    threshold,
                    max_value,
                    values,
                    bias,
                    max(0, warmup - lo),
                )

            oracle_values = list(init)
            oracle_bias = list(init_bias)
            expected = _reference_agree_walk(
                keys, slots, outcomes, oracle_values, oracle_bias, threshold,
                max_value, warmup,
            )
            assert misses == expected
            assert values == oracle_values
            assert bias == [-1 if b is None else int(b) for b in oracle_bias]

        @given(
            data=st.data(),
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
                    "gskew:3x16:h3:lazy",
                    "gskew:5x8:h3:lazy",
                    "egskew:3x16:h3:lazy",
                    "agree:16:h3",
                    "agree:8:h6",
                ]
            ),
            trace=trace_strategy(),
        )
        @settings(max_examples=80, deadline=None)
        def test_random_traces_match_generic_engine(self, data, spec, trace):
            # Whole-predictor fuzz, resumed at random cut points: each
            # piece starts from the warm tables, bias latches and history
            # register the previous piece left.
            reference = make_predictor(spec)
            expected = simulate(reference, trace)
            candidate = make_predictor(spec)
            misses = 0
            for lo, hi in _pieces(len(trace), _split_points(data, len(trace))):
                misses += simulate_walk(
                    backend, candidate, trace.slice(lo, hi)
                ).mispredictions
            assert misses == expected.mispredictions
            assert _full_state(candidate) == _full_state(reference)

    return Cases


@requires_native
class TestKernelEntryPoints(_walk_entry_point_cases(NATIVE_BACKEND)):
    """The C kernel's entry points."""


class TestPythonWalkEntryPoints(_walk_entry_point_cases(PYTHON_BACKEND)):
    """The Python loops behind the same two entry points, run in every
    CI lane (no compiler needed)."""


def _walk_once(bank_keys, outcomes, init, policy, threshold, vmax, warmup):
    """One ``repro_walk`` call over the whole event list; returns the
    miss count and the bank-major final tables."""
    ffi, lib = _backend()
    values = np.asarray(init, dtype=np.int64).ravel()
    misses = lib.repro_walk(
        ffi.from_buffer("uint32_t[]", np.asarray(bank_keys, dtype=np.uint32)),
        ffi.from_buffer("uint8_t[]", np.asarray(outcomes, dtype=np.uint8)),
        len(outcomes),
        len(bank_keys),
        _POLICY_CODES[policy],
        threshold,
        vmax,
        ffi.from_buffer("int64_t[]", values),
        len(init[0]),
        warmup,
    )
    return misses, values.tolist()


@requires_native
class TestMapCodeKernels:
    """The two policies that once had kernels of their own — single-bank
    LAZY (train on a miss only) and multi-bank PARTIAL — fuzzed through
    ``repro_walk`` against the scalar oracle."""

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
        keys = _keys(data, length, table, "keys")
        outcomes = data.draw(
            st.lists(st.booleans(), min_size=length, max_size=length),
            label="outcomes",
        )
        init = data.draw(
            st.lists(st.integers(0, max_value), min_size=table, max_size=table),
            label="init",
        )

        misses, values = _walk_once(
            [keys], outcomes, [init], UpdatePolicy.LAZY, threshold,
            max_value, warmup,
        )

        oracle_values = [list(init)]
        expected = _reference_walk(
            [keys], outcomes, oracle_values, UpdatePolicy.LAZY, threshold,
            max_value, warmup,
        )
        assert misses == expected
        assert values == oracle_values[0]

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
            _keys(data, length, table, f"keys{b}") for b in range(banks)
        ]
        outcomes = data.draw(
            st.lists(st.booleans(), min_size=length, max_size=length),
            label="outcomes",
        )
        init = [
            data.draw(
                st.lists(
                    st.integers(0, max_value), min_size=table, max_size=table
                ),
                label=f"init{b}",
            )
            for b in range(banks)
        ]

        misses, values = _walk_once(
            bank_keys, outcomes, init, UpdatePolicy.PARTIAL, threshold,
            max_value, warmup,
        )

        # The in-order walk is exact: no round cap, no bail-out.
        oracle_values = [list(bank) for bank in init]
        expected = _reference_walk(
            bank_keys, outcomes, oracle_values, UpdatePolicy.PARTIAL,
            threshold, max_value, warmup,
        )
        assert misses == expected
        assert values == [v for bank in oracle_values for v in bank]
