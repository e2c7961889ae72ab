"""Equivalence tests: the native C engine vs the generic engine.

The native engine walks the trace's code stream, read through its event
table, through the counter tables in one sequential C pass, computing every conditional event's
table indices from the predictor's index geometry as it goes; its
correctness argument is bit-identity with ``repro.sim.engine.simulate``
— same SimulationResult, same final counter, bias and history state —
across every spec family it claims, plus event-level differential fuzz
pinning the entry points ``repro_walk`` and ``repro_walk_agree`` of both
counter-walk backends (the cffi kernel and the Python loops) to scalar
oracles: the numpy index streams of ``_index_streams`` walked by a
per-event reference loop, and ``repro_walk_lru`` fuzzed against the
generic interpreter, its oracle (``tests/test_engine_parity.py`` requires
every kernel entry point to be referenced by name in some test).

The whole module degrades cleanly when the backend cannot build: every
test that needs the compiled kernel skips with an explicit reason, while
the Python backend's entry-point fuzz, the wrapper checks (run against
stand-in kernels) and the dispatch tests that take the kernel out of
the ladder (by patching ``native_available`` or the built backend) keep
running, so the suite is green both with and without a C compiler.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.native as native_module
from repro.serving.protocol import EventColumns
from repro.serving.shard import Shard, Tenant
from repro.core.update import UpdatePolicy
from repro.predictors.associative import FullyAssociativePredictor
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.native import (
    NATIVE_BACKEND,
    _backend,
    build_program_native,
    native_available,
    native_supports,
    random_block_native,
    run_program_native,
    simulate_native,
)
from repro.sim.state import PredictorState
from repro.sim.vectorized import (
    _AGREE,
    _BIMODAL,
    _EGSKEW,
    _GSELECT,
    _GSHARE,
    _POLICY_CODES,
    _SKEW,
    PYTHON_BACKEND,
    Geometry,
    _geometry,
    _index_streams,
    simulate_fast,
    simulate_walk,
)
from repro.traces.stats import bias_density
from repro.traces.synthetic.cfg import (
    Procedure,
    Program,
    ProgramConfig,
    _compile,
    _kernel_arguments,
)
from repro.traces.trace import Trace

from tests.strategies import traces as trace_strategy

requires_native = pytest.mark.skipif(
    not native_available(),
    reason="native backend unavailable (no C compiler or no cffi); "
    "the vectorized tier covers these specs instead",
)

#: Wide geometries: tables past 2**16 entries and histories past 32 bits,
#: where a narrowed word in the index arithmetic would truncate.
WIDE_SPECS = [
    "gshare:256k:h16",
    "gshare:1k:h40",  # 40-bit register folded into a 10-bit index
    "gselect:256k:h20",
    "gskew:3x64k:h40:partial",  # 56-bit information vector
    "egskew:3x64k:h40:total",
    "agree:64k:h34",
]

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
    *WIDE_SPECS,
    "fa:64:h4",  # the fully-associative LRU table (repro_walk_lru)
    "fa:1:h4",  # degenerate: one entry, every new pair evicts
    "fa:256:h0:c1",
    "fa:4k:h40",  # keys past 32 history bits
]

#: Coupled specs an older native tier declined: agree's bias latches and
#: multi-bank LAZY.  The sequential walk takes both.
COUPLED_SPECS = ["agree:256:h5", "gskew:3x256:h6:lazy"]

#: Specs with no native path: schemes with no closed-form index streams
#: and no walk of their own.
NO_NATIVE_SPECS = [
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


def _one_event():
    """The code stream and event table of one taken conditional event."""
    return (
        np.zeros(1, np.uint32),
        np.zeros(1, np.uint64),
        np.ones(1, np.uint8),
        np.ones(1, np.uint8),
    )


class _ForbiddenKernel:
    """Stands in for the compiled ``lib`` where no call may reach it."""

    def repro_walk(self, *args):  # pragma: no cover — would fail
        raise AssertionError("repro_walk called with refused inputs")

    def repro_walk_agree(self, *args):  # pragma: no cover — would fail
        raise AssertionError("repro_walk_agree called with refused inputs")

    def repro_walk_lru(self, *args):  # pragma: no cover — would fail
        raise AssertionError("repro_walk_lru called with refused inputs")


def _forbid_kernel(monkeypatch):
    """Install a backend whose kernel fails any call, so a test shows a
    refusal happens in the wrapper, before the call (no compiler
    needed)."""
    monkeypatch.setattr(
        native_module, "_BACKEND", (_PassThroughFFI(), _ForbiddenKernel())
    )


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
        with pytest.raises(RuntimeError, match="native backend"):
            NATIVE_BACKEND.walk(
                *_one_event(), Geometry(_BIMODAL, 0, 0, 0, 0, 1), 0, 2, 3,
                [1], 0,
            )
        with pytest.raises(RuntimeError, match="native backend"):
            NATIVE_BACKEND.walk_agree(
                *_one_event(), Geometry(_AGREE, 0, 0, 0, 0, 1), 2, 3, [1],
                [-1], 0,
            )

    def test_program_runner_fails_cleanly_without_backend(self, monkeypatch):
        # The generator's C entry points — repro_run_program,
        # repro_build_program and repro_random_block — fail the same
        # way; the generator never calls them then (native_available()
        # is False), and tests/traces/synthetic/test_cfg.py and
        # test_kernel.py pin them.
        monkeypatch.setattr(native_module, "_BACKEND", "OSError: no compiler")
        monkeypatch.setattr(native_module, "_WARNED", True)
        main = Procedure("main", base_address=0x100, return_pc=0x104)
        compiled = _compile(Program([main], main=main))
        state = random.Random(1).getstate()[1]
        with pytest.raises(RuntimeError, match="native backend"):
            run_program_native(compiled, state, 10)
        with pytest.raises(RuntimeError, match="native backend"):
            build_program_native(_kernel_arguments(ProgramConfig()), state)
        with pytest.raises(RuntimeError, match="native backend"):
            random_block_native(
                np.array(state[:-1], dtype=np.uint32),
                np.array(state[-1:], dtype=np.int32), 4,
            )

    @pytest.mark.parametrize(
        "keys,values",
        [
            ((3, 33), [4, 4, 4]),  # indices wider than 32 bits
            ((2, 2), [4, 4]),  # a bank count with no majority
            ((3, 2), [4, 4, 3]),  # a table one counter short
        ],
    )
    def test_c_walk_refuses_out_of_bounds_inputs(
        self, keys, values, monkeypatch
    ):
        # The kernel trusts its buffers: the wrapper checks the key
        # space (banks, index bits) against the tables before the call.
        _forbid_kernel(monkeypatch)
        banks, bits = keys
        tables = [np.ones(size, np.uint8) for size in values]
        with pytest.raises(ValueError):
            NATIVE_BACKEND.walk(
                *_one_event(), Geometry(_SKEW, bits, 0, 0, 0, banks), 0, 2,
                3, tables, 0,
            )
        assert all(table.tolist() == [1] * len(table) for table in tables)

    def test_c_walks_refuse_a_code_past_the_table(self, monkeypatch):
        # The kernel reads table rows through the codes unchecked: the
        # wrapper refuses a code naming no row before the call.
        _forbid_kernel(monkeypatch)
        codes, *table = _one_event()
        codes = np.array([0, 1], np.uint32)
        values, bias = np.array([1, 2], np.uint8), np.array([-1, 0], np.int8)
        with pytest.raises(ValueError, match="code 1 is past"):
            NATIVE_BACKEND.walk(
                codes, *table, Geometry(_BIMODAL, 1, 0, 0, 0, 1), 0, 2, 3,
                [values], 0,
            )
        with pytest.raises(ValueError, match="code 1 is past"):
            NATIVE_BACKEND.walk_agree(
                codes, *table, Geometry(_AGREE, 1, 0, 0, 1, 1), 2, 3, values,
                bias, 0,
            )
        assert values.tolist() == [1, 2] and bias.tolist() == [-1, 0]

    @pytest.mark.parametrize(
        "keys,slots",
        [
            ((2, 4), (3, 7)),  # a biasing-bit table one slot short
            ((33, 4), (3, 8)),  # PHT indices wider than 32 bits
        ],
    )
    def test_c_agree_walk_refuses_out_of_bounds_inputs(
        self, keys, slots, monkeypatch
    ):
        # (index bits, PHT entries) and (bias bits, biasing bits).
        _forbid_kernel(monkeypatch)
        (bits, entries), (bias_bits, latches) = keys, slots
        with pytest.raises(ValueError, match="need|bits"):
            NATIVE_BACKEND.walk_agree(
                *_one_event(), Geometry(_AGREE, bits, 0, 0, bias_bits, 1), 2,
                3, np.ones(entries, np.uint8), np.full(latches, -1, np.int8),
                0,
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
    cdef order (one taken conditional event over a weakly not-taken
    bimodal counter)."""
    return [
        ffi.from_buffer("uint32_t[]", np.zeros(1, np.uint32)),  # codes
        1,  # n
        ffi.from_buffer("uint64_t[]", np.zeros(1, np.uint64)),  # table pcs
        ffi.from_buffer("uint8_t[]", np.ones(1, np.uint8)),  # table takens
        ffi.from_buffer("uint8_t[]", np.ones(1, np.uint8)),  # table conditionals
        _BIMODAL, 0, 0, 0, 0,  # scheme, bits, history bits, seed, bank-0 bits
        1, 0, 2, 3,  # banks, policy, threshold, max_value
        [ffi.from_buffer("uint8_t[]", np.ones(1, np.uint8))],  # one bank
        0,  # warmup
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
        self, tmp_path, monkeypatch
    ):
        # The compile runs in a child process; its failure carries the
        # compiler's diagnostics.
        shipped = native_module._KERNEL_PATH.read_text(encoding="utf-8")
        drifted = shipped.replace(
            "int32_t banks, int32_t policy", "int64_t banks, int32_t policy"
        )
        assert drifted.count("int64_t banks") == 1
        with pytest.raises(RuntimeError, match="kernel build failed") as failure:
            self._build(tmp_path, monkeypatch, kernel=drifted)
        assert re.search(r"conflicting types for .repro_walk.", str(failure.value))

    def test_cdef_entry_with_no_definition_fails_to_load(
        self, tmp_path, monkeypatch
    ):
        cdef = native_module._CDEF + (
            "int64_t repro_no_such_walk(int64_t *values, int64_t n);\n"
        )
        with pytest.raises(ImportError, match="repro_no_such_walk"):
            self._build(tmp_path, monkeypatch, cdef=cdef)

    def test_fresh_build_leaves_setuptools_out_of_the_caller(self, tmp_path):
        # cffi's compile imports setuptools; the build runs it in a child
        # process, so the caller only dlopens the result.
        script = (
            "import sys; from repro.sim.native import native_available; "
            "assert native_available(); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('setuptools', 'distutils')))"
        )
        done = _fresh_process(script, tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        assert any(tmp_path.glob("so/_repro_native_*"))

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
        args[2], args[3] = args[3], args[2]
        with pytest.raises(TypeError, match="uint8_t"):
            lib.repro_walk(*args)

    def test_wrong_arity_is_refused(self):
        ffi, lib = _backend()
        args = _walk_args(ffi)
        del args[1]  # n
        with pytest.raises(TypeError, match="expected 16 arguments, got 15"):
            lib.repro_walk(*args)

    def test_buffer_passed_for_a_scalar_is_refused(self):
        ffi, lib = _backend()
        args = _walk_args(ffi)
        args[1] = ffi.from_buffer("int64_t[]", np.ones(1, np.int64))
        with pytest.raises(TypeError):
            lib.repro_walk(*args)


def _fresh_process(script, tmp_path, **env):
    """Run ``script`` in a new interpreter whose kernel cache is an
    empty directory under ``tmp_path``."""
    environment = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(sys.path),
        **{native_module.CACHE_ENV_VAR: str(tmp_path / "so")},
        **env,
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        env=environment,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _missing_build_prerequisite():
    """Why this host cannot build the kernel, or None when it can: cffi
    imports, the compiler ``$CC`` (else sysconfig's ``CC``) names is on
    the path, and ``Python.h`` is where sysconfig says."""
    try:
        import cffi  # noqa: F401
    except ImportError:
        return "cffi is not installed"
    compiler = os.environ.get("CC") or sysconfig.get_config_var("CC") or ""
    if not compiler.split() or shutil.which(compiler.split()[0]) is None:
        return f"no C compiler: {compiler!r} is not on the path"
    include = sysconfig.get_path("include")
    if not os.path.exists(os.path.join(include, "Python.h")):
        return f"no Python.h under {include}"
    return None


def test_kernel_loads_where_it_can_build():
    # Every native test skips when the kernel does not load, so a kernel
    # that fails to build or load (a cdef entry with no definition, say)
    # would otherwise pass silently on a host that has everything.
    missing = _missing_build_prerequisite()
    if missing is not None:
        pytest.skip(f"the kernel cannot build here: {missing}")
    assert native_available(), f"the kernel did not load: {native_module._BACKEND}"


def test_compiler_failure_warns_once_with_the_childs_error(tmp_path):
    # No compiler: the build fails in its child process, and the caller
    # is left unavailable with one RuntimeWarning quoting the child.
    pytest.importorskip("cffi")
    script = (
        "import warnings\n"
        "from repro.sim.native import native_available\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    assert not native_available()\n"
        "    assert not native_available()\n"
        "messages = [str(w.message) for w in caught]\n"
        "assert len(messages) == 1, messages\n"
        "print(messages[0])\n"
    )
    done = _fresh_process(script, tmp_path, CC="/nonexistent/no-such-compiler")
    assert done.returncode == 0, done.stderr
    assert "kernel build failed" in done.stdout
    assert "no-such-compiler" in done.stdout


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


#: The trace buffers every walk takes, in argument order.
_BUFFERS = ("codes", "pcs", "takens", "conditionals")


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
            ("uint64_t[]", np.uint64),
            ("int64_t[]", np.int64),
        ],
    )
    def test_only_the_declared_element_type_passes(self, ctype, dtype):
        ffi = _PassThroughFFI()
        array = np.zeros(2, dtype)
        assert native_module._buffer(ffi, ctype, array) is array
        for other in (np.uint8, np.int8, np.uint32, np.int32, np.uint64, np.int64):
            if other is not dtype:
                with pytest.raises(ValueError, match="needs"):
                    native_module._buffer(ffi, ctype, np.zeros(2, other))

    @pytest.mark.parametrize("wrong", _BUFFERS)
    def test_walk_checks_every_caller_buffer(self, wrong, monkeypatch):
        monkeypatch.setattr(
            native_module, "_BACKEND", (_PassThroughFFI(), _NoOpKernel())
        )
        arrays = dict(zip(_BUFFERS, _one_event()))

        def walk():
            return NATIVE_BACKEND.walk(
                *arrays.values(),
                Geometry(_BIMODAL, 0, 0, 0, 0, 1), 0, 2, 3,
                [np.ones(1, np.uint8)], 0,
            )

        assert walk() == 0
        arrays[wrong] = arrays[wrong].astype(np.int64)
        with pytest.raises(ValueError, match="needs"):
            walk()

    @pytest.mark.parametrize("wrong", _BUFFERS)
    def test_agree_walk_checks_every_caller_buffer(self, wrong, monkeypatch):
        monkeypatch.setattr(
            native_module, "_BACKEND", (_PassThroughFFI(), _NoOpKernel())
        )
        arrays = dict(zip(_BUFFERS, _one_event()))

        def walk():
            return NATIVE_BACKEND.walk_agree(
                *arrays.values(),
                Geometry(_AGREE, 0, 0, 0, 0, 1), 2, 3,
                np.ones(1, np.uint8), np.full(1, -1, np.int8), 0,
            )

        assert walk() == 0
        arrays[wrong] = arrays[wrong].astype(np.int64)
        with pytest.raises(ValueError, match="needs"):
            walk()

    @pytest.mark.parametrize(
        "entry,geometry",
        [
            ("walk", Geometry(_SKEW, 4, 64, 0, 0, 3)),  # register past 63 bits
            ("walk", Geometry(_SKEW, 4, 12, 1 << 12, 0, 3)),  # seed wider than it
            ("walk", Geometry(_EGSKEW, 4, 12, 0, 64, 3)),  # bank-0 history past 63
            ("walk", Geometry(9, 4, 12, 0, 0, 3)),  # an unknown scheme
            ("walk", Geometry(_GSHARE, 4, 12, 0, 0, 3)),  # gshare over 3 banks
            ("walk", Geometry(_SKEW, -1, 12, 0, 0, 3)),  # negative index bits
            ("walk", Geometry(_AGREE, 4, 12, 0, 0, 1)),  # agree's scheme
            ("walk_agree", Geometry(_SKEW, 4, 12, 0, 0, 1)),  # a voted scheme
            ("walk_agree", Geometry(_AGREE, 4, 12, 0, 33, 1)),  # slots past 32 bits
        ],
    )
    def test_malformed_geometry_is_refused_before_the_call(
        self, entry, geometry, monkeypatch
    ):
        _forbid_kernel(monkeypatch)
        tables = [np.ones(16, np.uint8) for _ in range(geometry.banks)]
        bias = np.full(16, -1, np.int8)
        with pytest.raises(ValueError):
            if entry == "walk":
                NATIVE_BACKEND.walk(*_one_event(), geometry, 0, 2, 3, tables, 0)
            else:
                NATIVE_BACKEND.walk_agree(
                    *_one_event(), geometry, 2, 3, tables[0], bias, 0
                )
        assert all(table.tolist() == [1] * 16 for table in tables)
        assert bias.tolist() == [-1] * 16


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


def _rng(data, label="rng"):
    """A numpy generator seeded by a draw: bulk inputs (trace columns,
    tables) come from it, their shape from hypothesis."""
    return np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label=label))


def _random_columns(rng, length, span, rate):
    """``pcs`` / ``takens`` / ``conditionals`` of ``length`` events: word
    addresses over ``span`` bits (narrow spans alias in small tables,
    wide ones fill the information vector), random low pc bits, and
    conditional events at ``rate`` among unconditional ones."""
    words = rng.integers(0, 1 << span, length, dtype=np.uint64)
    pcs = (words << np.uint64(2)) | rng.integers(0, 4, length, dtype=np.uint64)
    takens = rng.integers(0, 2, length, dtype=np.uint8)
    conditionals = (rng.random(length) < rate).astype(np.uint8)
    return pcs, takens, conditionals


def _draw_columns(data, length):
    span = data.draw(st.sampled_from([1, 6, 12, 62]), label="span")
    rate = data.draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]), label="rate")
    return _random_columns(_rng(data, "columns"), length, span, rate)


def _draw_geometry(data, scheme, max_bits=16):
    """A geometry of ``scheme``: index widths 1–``max_bits``, histories
    0–63 (often past the index width) with a seed of their width."""
    bits = data.draw(st.integers(1, max_bits), label="index bits")
    history_bits = 0
    if scheme != _BIMODAL:
        history_bits = data.draw(
            st.one_of(st.integers(0, bits), st.integers(0, 63)),
            label="history bits",
        )
    seed = data.draw(st.integers(0, (1 << history_bits) - 1), label="seed")
    banks, extra_bits = 1, 0
    if scheme == _SKEW:
        banks = data.draw(st.sampled_from([1, 3, 5]), label="banks")
    elif scheme == _EGSKEW:
        banks = 3
        extra_bits = data.draw(st.integers(0, history_bits), label="bank-0 bits")
    elif scheme == _AGREE:
        extra_bits = data.draw(st.integers(0, max_bits), label="bias bits")
    return Geometry(scheme, bits, history_bits, seed, extra_bits, banks)


def _counter_draws(data, conditional_count):
    """Counter width, threshold and warmup for one fuzz case."""
    max_value = data.draw(st.sampled_from([1, 3, 7]), label="max_value")
    threshold = data.draw(st.integers(1, max_value), label="threshold")
    warmup = data.draw(st.integers(0, conditional_count + 1), label="warmup")
    return max_value, threshold, warmup


def _register_after(takens, bits, seed):
    """The history register after ``takens`` shift through it."""
    mask = (1 << bits) - 1
    for taken in takens:
        seed = ((seed << 1) | int(taken)) & mask
    return seed


def _encode(columns):
    """Raw ``pcs`` / ``takens`` / ``conditionals`` columns as a walk
    takes them: the code stream and the event table's three columns,
    factorised as :class:`Trace` stores them."""
    trace = Trace(*columns)
    return (trace.codes, *trace.table[:3])


def _walk_in_pieces(call, columns, geometry, warmup, cuts):
    """Sum ``call(piece, geometry, warmup)`` over the pieces of the
    encoded trace cut at ``cuts`` (each piece a slice of the codes over
    the whole table): each piece starts from the history register and
    the warmup the previous pieces left."""
    codes, *table = _encode(columns)
    _, takens, conditionals = columns
    misses, seed, seen = 0, geometry.seed, 0
    for lo, hi in _pieces(len(codes), cuts):
        piece = (codes[lo:hi], *table)
        misses += call(piece, geometry._replace(seed=seed), max(0, warmup - seen))
        seed = _register_after(takens[lo:hi], geometry.history_bits, seed)
        seen += int(np.count_nonzero(conditionals[lo:hi]))
    return misses


def _check_walk_against_oracle(
    backend, columns, geometry, policy, max_value, threshold, warmup, init,
    cuts=(),
):
    """``backend.walk`` over ``columns`` (resumed at ``cuts``) against
    ``_reference_walk`` over the numpy index streams of the whole trace:
    the same misses and the same final tables.  ``init`` is the banks'
    counters, bank after bank; each bank walks its own ``uint8`` table."""
    entries = 1 << geometry.index_bits
    oracle = [init[b * entries : (b + 1) * entries] for b in range(geometry.banks)]
    tables = [np.array(bank, np.uint8) for bank in oracle]
    misses = _walk_in_pieces(
        lambda piece, g, w: backend.walk(
            *piece, g, _POLICY_CODES[policy], threshold, max_value, tables, w
        ),
        columns, geometry, warmup, cuts,
    )
    pcs, takens, conditionals = columns
    streams = [s.tolist() for s in _index_streams(geometry, *columns)]
    outcomes = takens[conditionals != 0].astype(bool).tolist()
    expected = _reference_walk(
        streams, outcomes, oracle, policy, threshold, max_value, warmup
    )
    assert misses == expected
    assert [table.tolist() for table in tables] == oracle


def _check_agree_against_oracle(
    backend, columns, geometry, max_value, threshold, warmup, init,
    init_bias, cuts=(),
):
    """The same for ``backend.walk_agree``, with a biasing-bit table
    that starts partly latched (either way) and partly unlatched."""
    values = np.array(init, np.uint8)
    bias = np.array(init_bias, np.int8)
    misses = _walk_in_pieces(
        lambda piece, g, w: backend.walk_agree(
            *piece, g, threshold, max_value, values, bias, w
        ),
        columns, geometry, warmup, cuts,
    )
    pcs, takens, conditionals = columns
    keys, slots = (s.tolist() for s in _index_streams(geometry, *columns))
    outcomes = takens[conditionals != 0].astype(bool).tolist()
    oracle_values = list(init)
    oracle_bias = [None if code < 0 else bool(code) for code in init_bias]
    expected = _reference_agree_walk(
        keys, slots, outcomes, oracle_values, oracle_bias, threshold,
        max_value, warmup,
    )
    assert misses == expected
    assert values.tolist() == oracle_values
    assert bias.tolist() == [-1 if b is None else int(b) for b in oracle_bias]


#: Trace lengths for the event-level fuzz: short traces, and traces that
#: cross the C kernel's 2048-event blocks.
_LENGTHS = st.one_of(st.integers(0, 200), st.integers(2000, 4500))


def _walk_entry_point_cases(backend):
    """Tests pinning one counter-walk backend's ``repro_walk`` and
    ``repro_walk_agree`` to the scalar oracles.  A fresh class per
    backend, so each hypothesis test runs under a single executor."""

    class Cases:
        def test_repro_walk_empty_input(self):
            values = np.array([0, 3], np.uint8)
            misses = backend.walk(
                np.empty(0, dtype=np.uint32),
                np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.uint8),
                np.empty(0, dtype=np.uint8),
                Geometry(_BIMODAL, 1, 0, 0, 0, 1),
                _POLICY_CODES[UpdatePolicy.TOTAL],
                2,
                3,
                [values],
                0,
            )
            assert misses == 0
            assert values.tolist() == [0, 3]

        @pytest.mark.parametrize("banks,policy", [(2, 0), (7, 0), (3, 3)])
        def test_repro_walk_rejects_unknown_geometry(self, banks, policy):
            # Even bank counts (ties), more than five banks and unknown
            # policy codes raise ValueError without touching the tables.
            tables = [np.ones(2, np.uint8) for _ in range(banks)]
            with pytest.raises(ValueError, match="bank|policy"):
                backend.walk(
                    *_one_event(),
                    Geometry(_SKEW, 1, 0, 0, 0, banks),
                    policy,
                    1,
                    1,
                    tables,
                    0,
                )
            assert [table.tolist() for table in tables] == [[1, 1]] * banks

        def test_code_past_the_table_is_refused(self):
            # A code naming no event-table row is refused before any
            # table is written, the counters and latches untouched.
            codes, *table = _one_event()
            codes = np.array([0, 0, 1, 0], np.uint32)
            values = np.array([1, 2, 3, 0], np.uint8)
            bias = np.array([-1, 1], np.int8)
            with pytest.raises(ValueError, match="code 1 is past"):
                backend.walk(
                    codes, *table, Geometry(_GSHARE, 2, 2, 0, 0, 1),
                    _POLICY_CODES[UpdatePolicy.TOTAL], 2, 3, [values], 0,
                )
            with pytest.raises(ValueError, match="code 1 is past"):
                backend.walk_agree(
                    codes, *table, Geometry(_AGREE, 2, 2, 0, 1, 1), 2, 3,
                    values, bias, 0,
                )
            assert values.tolist() == [1, 2, 3, 0] and bias.tolist() == [-1, 1]

        def test_read_only_tables_are_refused(self):
            # Both walks write the state tables in place: a read-only
            # array (or a list) is refused before the walk.
            values, bias = np.ones(4, np.uint8), np.full(2, -1, np.int8)
            for frozen in (values, bias):
                frozen.flags.writeable = False
                with pytest.raises(ValueError, match="writable arrays"):
                    backend.walk_agree(
                        *_one_event(), Geometry(_AGREE, 2, 2, 0, 1, 1), 2, 3,
                        values, bias, 0,
                    )
                frozen.flags.writeable = True
            with pytest.raises(ValueError, match="writable arrays"):
                backend.walk(
                    *_one_event(), Geometry(_GSHARE, 2, 2, 0, 0, 1),
                    _POLICY_CODES[UpdatePolicy.TOTAL], 2, 3, [[1] * 4], 0,
                )
            assert values.tolist() == [1] * 4 and bias.tolist() == [-1] * 2

        # Event-level differential fuzz of repro_walk against the scalar
        # oracle over every voted scheme, policy and bank count: random
        # columns with unconditional events mixed in, index widths 1-16
        # (small tables force heavy aliasing), histories 0-63 with
        # nonzero seeds, warm tables anywhere in the counter range,
        # warmup draws straddling the trace, 1-bit counters hitting both
        # saturation rails, and the events arriving in pieces cut
        # anywhere (the walk must resume exactly from the tables and the
        # register a previous call left).
        @given(
            data=st.data(),
            scheme=st.sampled_from([_BIMODAL, _GSHARE, _GSELECT, _SKEW, _EGSKEW]),
            policy=st.sampled_from(list(UpdatePolicy)),
            length=_LENGTHS,
        )
        @settings(max_examples=300, deadline=None)
        def test_kernel_matches_scalar_oracle(self, data, scheme, policy, length):
            geometry = _draw_geometry(data, scheme)
            columns = _draw_columns(data, length)
            max_value, threshold, warmup = _counter_draws(
                data, int(np.count_nonzero(columns[2]))
            )
            init = _rng(data, "init").integers(
                0, max_value + 1, geometry.banks << geometry.index_bits
            ).tolist()
            _check_walk_against_oracle(
                backend, columns, geometry, policy, max_value, threshold,
                warmup, init, _split_points(data, length),
            )

        @given(data=st.data(), length=_LENGTHS)
        @settings(max_examples=200, deadline=None)
        def test_agree_kernel_matches_scalar_oracle(self, data, length):
            # The same fuzz for repro_walk_agree.
            geometry = _draw_geometry(data, _AGREE)
            columns = _draw_columns(data, length)
            max_value, threshold, warmup = _counter_draws(
                data, int(np.count_nonzero(columns[2]))
            )
            rng = _rng(data, "init")
            init = rng.integers(0, max_value + 1, 1 << geometry.index_bits)
            init_bias = rng.integers(-1, 2, 1 << geometry.extra_bits)
            _check_agree_against_oracle(
                backend, columns, geometry, max_value, threshold, warmup,
                init.tolist(), init_bias.tolist(), _split_points(data, length),
            )

        @pytest.mark.parametrize("spec", WIDE_SPECS)
        def test_wide_geometry_matches_scalar_oracle(self, spec):
            # The wide equivalence specs as fixed cases: a warm register
            # seeded across its whole width, addresses over 62 bits.
            predictor = make_predictor(spec)
            rng = np.random.default_rng(sum(map(ord, spec)))
            geometry = _geometry(predictor)
            geometry = geometry._replace(
                seed=int(rng.integers(0, 1 << geometry.history_bits))
            )
            columns = _random_columns(rng, 5_000, 62, 0.7)
            size = geometry.banks << geometry.index_bits
            init = rng.integers(0, 4, size).tolist()
            if geometry.scheme == _AGREE:
                bias = rng.integers(-1, 2, 1 << geometry.extra_bits).tolist()
                _check_agree_against_oracle(
                    backend, columns, geometry, 3, 2, 100, init, bias,
                    cuts=[2_500],
                )
            else:
                _check_walk_against_oracle(
                    backend, columns, geometry,
                    getattr(predictor, "update_policy", UpdatePolicy.TOTAL),
                    3, 2, 100, init, cuts=[2_500],
                )

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

        @given(
            data=st.data(),
            spec=st.sampled_from(
                [
                    "gshare:64:h6",
                    "gskew:3x32:h5:partial",
                    "gskew:3x32:h5:lazy",
                    "gskew:5x16:h4:total",
                    "egskew:3x32:h5:partial",
                    "agree:64:h6",
                ]
            ),
            trace=trace_strategy(max_length=400),
        )
        @settings(max_examples=60, deadline=None)
        def test_many_small_warm_batches_match_generic_engine(
            self, data, spec, trace
        ):
            # As serving flushes run: the events arrive in many small
            # batches, each its own trace whose codes are one row per
            # event, walked in place over the same warm tables, bias
            # latches and history register.
            reference = make_predictor(spec)
            expected = simulate(reference, trace)
            candidate = make_predictor(spec)
            sizes = st.lists(st.integers(1, 24), min_size=1, max_size=40)
            bounds = np.cumsum([0, *data.draw(sizes, label="batch sizes")])
            bounds = [*bounds[bounds < len(trace)].tolist(), len(trace)]
            misses = 0
            for lo, hi in zip(bounds, bounds[1:]):
                batch = Trace.from_table(
                    np.arange(hi - lo, dtype=np.uint32),
                    trace.pcs[lo:hi], trace.takens[lo:hi],
                    trace.conditionals[lo:hi], np.zeros(hi - lo, np.uint64),
                )
                misses += simulate_walk(backend, candidate, batch).mispredictions
            assert misses == expected.mispredictions
            assert _full_state(candidate) == _full_state(reference)

    return Cases


@requires_native
class TestKernelEntryPoints(_walk_entry_point_cases(NATIVE_BACKEND)):
    """The C kernel's entry points."""


class TestPythonWalkEntryPoints(_walk_entry_point_cases(PYTHON_BACKEND)):
    """The Python loops behind the same two entry points, run in every
    CI lane (no compiler needed)."""


def _walk_once_against_oracle(data, geometry, policy, length):
    """One uncut ``repro_walk`` over drawn columns against the oracle."""
    columns = _draw_columns(data, length)
    max_value, threshold, warmup = _counter_draws(
        data, int(np.count_nonzero(columns[2]))
    )
    init = _rng(data, "init").integers(
        0, max_value + 1, geometry.banks << geometry.index_bits
    ).tolist()
    # The in-order walk is exact: no round cap, no bail-out.
    _check_walk_against_oracle(
        NATIVE_BACKEND, columns, geometry, policy, max_value, threshold,
        warmup, init,
    )


@requires_native
class TestMapCodeKernels:
    """The two policies that once had kernels of their own — single-bank
    LAZY (train on a miss only) and multi-bank PARTIAL — fuzzed through
    ``repro_walk`` against the scalar oracle, on small tables (index
    widths up to 3) where every entry sees long runs."""

    @given(
        data=st.data(),
        bits=st.integers(0, 3),
        history_bits=st.integers(0, 8),
        length=st.integers(1, 120),
    )
    @settings(max_examples=120, deadline=None)
    def test_lazy1_matches_scalar_oracle(
        self, data, bits, history_bits, length
    ):
        seed = data.draw(st.integers(0, (1 << history_bits) - 1), label="seed")
        geometry = Geometry(_SKEW, bits, history_bits, seed, 0, 1)
        _walk_once_against_oracle(data, geometry, UpdatePolicy.LAZY, length)

    @given(
        data=st.data(),
        banks=st.sampled_from([3, 5]),
        bits=st.integers(1, 3),
        history_bits=st.integers(0, 8),
        length=st.integers(1, 120),
    )
    @settings(max_examples=120, deadline=None)
    def test_partial_matches_scalar_oracle(
        self, data, banks, bits, history_bits, length
    ):
        seed = data.draw(st.integers(0, (1 << history_bits) - 1), label="seed")
        geometry = Geometry(_SKEW, bits, history_bits, seed, 0, banks)
        _walk_once_against_oracle(data, geometry, UpdatePolicy.PARTIAL, length)


# -- the fully-associative LRU walk -----------------------------------------


def _lru_check(spec, reference, candidate, expected, misses):
    """The candidate's walk scored ``misses`` and left the reference's
    state: the table in LRU order, the lookup counters and the history."""
    assert misses == expected.mispredictions, spec
    assert list(candidate.table.items()) == list(reference.table.items())
    assert (candidate.hits, candidate.misses) == (reference.hits, reference.misses)
    assert _full_state(candidate) == _full_state(reference)


@requires_native
class TestLruWalk:
    """``repro_walk_lru`` against the generic interpreter, which is its
    oracle: the fully-associative table has no Python walk."""

    # Cold and warm tables (a prefix walked generically seeds the
    # candidate's OrderedDict), warmups straddling the rest, one-entry
    # tables, 1-bit counters, no history and histories past 32 bits, and
    # the rest arriving in pieces, each seeded from what the last one
    # wrote back.
    @given(
        data=st.data(),
        entries=st.sampled_from([1, 2, 5, 64]),
        history_bits=st.sampled_from([0, 3, 12, 33, 63]),
        counter_bits=st.sampled_from([1, 2, 3]),
        trace=trace_strategy(max_length=300),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_traces_match_generic_engine(
        self, data, entries, history_bits, counter_bits, trace
    ):
        # Built directly: a spec's size is a power of two, the
        # predictor's need not be.
        spec = (entries, history_bits, counter_bits)
        reference = FullyAssociativePredictor(*spec)
        candidate = FullyAssociativePredictor(*spec)
        cut = data.draw(st.integers(0, len(trace)), label="warm prefix")
        simulate(reference, trace.slice(0, cut))
        simulate(candidate, trace.slice(0, cut))
        rest = trace.slice(cut, len(trace))
        warmup = data.draw(
            st.integers(0, rest.conditional_count + 1), label="warmup"
        )
        expected = simulate(reference, rest, warmup=warmup)
        misses, seen = 0, 0
        for lo, hi in _pieces(len(rest), _split_points(data, len(rest))):
            piece = rest.slice(lo, hi)
            result = simulate_native(candidate, piece, warmup=max(0, warmup - seen))
            assert result.engine == "native"
            misses += result.mispredictions
            seen += piece.conditional_count
        _lru_check(spec, reference, candidate, expected, misses)

    @given(
        data=st.data(),
        spec=st.sampled_from(["fa:8:h5", "fa:1:h0", "fa:64:h33:c1"]),
        trace=trace_strategy(max_length=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_served_session_matches_generic_engine(self, data, spec, trace):
        # A served session: requests of a few events, flushed in batches
        # through simulate_fast, each batch its own trace.
        shard = Shard(batch_size=data.draw(st.integers(1, 32), label="batch"))
        tenant = shard.open("s", spec)
        sizes = st.lists(st.integers(1, 24), min_size=1, max_size=40)
        bounds = np.cumsum([0, *data.draw(sizes, label="request sizes")])
        bounds = [*bounds[bounds < len(trace)].tolist(), len(trace)]
        for lo, hi in zip(bounds, bounds[1:]):
            events = EventColumns(
                trace.pcs[lo:hi], trace.takens[lo:hi], trace.conditionals[lo:hi]
            )
            if shard.append("s", events):
                shard.flush("s")
        shard.flush("s")
        reference = make_predictor(spec)
        expected = simulate(reference, trace)
        _lru_check(spec, reference, tenant.predictor, expected, tenant.mispredictions)

    def test_simulate_fast_runs_the_lru_table_native(self, small_trace):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            actual = simulate_fast(make_predictor("fa:256:h4"), small_trace)
        assert actual.engine == "native"
        assert actual == simulate(make_predictor("fa:256:h4"), small_trace)

    def test_short_batch_on_a_warm_table_runs_generic(self, small_trace):
        # The walk copies every resident pair in and out, so a batch with
        # fewer conditional events than the table holds pairs runs on
        # the generic interpreter, bit-identical to a native run.
        warm, batch = small_trace.head(20_000), small_trace.slice(20_000, 20_200)
        served, native_run = make_predictor("fa:256:h8"), make_predictor("fa:256:h8")
        simulate(served, warm)
        simulate(native_run, warm)
        assert len(served.table) > batch.conditional_count > 0
        result = simulate_fast(served, batch)
        assert result.engine == "generic"
        expected = simulate_native(native_run, batch)
        assert expected.engine == "native"
        _lru_check("fa:256:h8", native_run, served, expected, result.mispredictions)
        # A fresh table holds no pairs: the same batch runs native.
        fresh = simulate_fast(make_predictor("fa:256:h8"), batch)
        assert fresh.engine == "native"

    @pytest.mark.parametrize("spec", ["fa:16:h64", "fa:16:h4:c9"])
    def test_tables_past_the_kernel_run_generic(self, spec, tiny_trace):
        # A register past 63 bits or counters past a byte.
        assert not native_supports(make_predictor(spec), tiny_trace)
        assert simulate_fast(make_predictor(spec), tiny_trace).engine == "generic"

    def test_kernel_refuses_a_table_that_outgrows_its_slots(self):
        # Two pairs into one slot of a four-entry table: the kernel stops
        # at the second install and writes nothing back.
        codes = np.array([0, 1], np.uint32)
        pcs, takens, conditionals = (
            np.array([0x40, 0x80], np.uint64), np.ones(2, np.uint8),
            np.ones(2, np.uint8),
        )
        keys, values = np.full((1, 2), 7, np.uint64), np.full(1, 1, np.uint8)
        counts = np.array([0, 5], np.int64)
        with pytest.raises(ValueError, match="repro_walk_lru refused"):
            native_module._walk_lru(
                codes, pcs, takens, conditionals, 0, 0, 4, 2, 3, keys,
                values, counts, 0,
            )
        assert keys.tolist() == [[7, 7]]
        assert values.tolist() == [1] and counts.tolist() == [0, 5]

    @pytest.mark.parametrize(
        "history_bits,entries,max_value,capacity,resident",
        [
            (64, 4, 3, 4, 0),  # a register past 63 bits
            (4, 0, 3, 4, 0),  # an empty table
            (4, 4, 0, 4, 0),  # no counter values to install
            (4, 4, 256, 4, 0),  # counters past a byte
            (4, 4, 3, 4, 5),  # more resident pairs than slots
        ],
    )
    def test_kernel_refuses_malformed_arguments(
        self, history_bits, entries, max_value, capacity, resident
    ):
        ffi, lib = _backend()
        codes, pcs, takens, conditionals = _one_event()
        keys = np.zeros((capacity, 2), np.uint64)
        values = np.zeros(capacity, np.uint8)
        counts = np.array([resident, 0], np.int64)
        misses = lib.repro_walk_lru(
            ffi.from_buffer("uint32_t[]", codes), 1,
            ffi.from_buffer("uint64_t[]", pcs),
            ffi.from_buffer("uint8_t[]", takens),
            ffi.from_buffer("uint8_t[]", conditionals),
            history_bits, 0, entries, 2, max_value,
            ffi.from_buffer("uint64_t[]", keys),
            ffi.from_buffer("uint8_t[]", values), capacity,
            ffi.from_buffer("int64_t[]", counts), 0,
        )
        assert misses == -1
        assert counts.tolist() == [resident, 0]

    def test_lru_walk_memory_is_the_table_not_the_trace(self):
        # The slots are the table's (or the resident pairs plus one per
        # conditional event, when fewer): no per-event array.
        trace = _long_trace()

        def peak(events):
            predictor, piece = make_predictor("fa:1k:h8"), trace.head(events)
            simulate_fast(predictor, trace.head(10))
            tracemalloc.start()
            try:
                result = simulate_fast(predictor, piece)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                assert result.engine == "native"

        short, long = peak(6_000), peak(len(trace))
        assert long - short < 64 << 10, (short, long)


class TestLruWalkChecks:
    """``_walk_lru``'s refusals before the call (no compiler needed)."""

    def test_code_past_the_table_is_refused(self, monkeypatch):
        _forbid_kernel(monkeypatch)
        codes, *table = _one_event()
        with pytest.raises(ValueError, match="code 1 is past"):
            native_module._walk_lru(
                np.array([0, 1], np.uint32), *table, 4, 0, 2, 2, 3,
                np.zeros((2, 2), np.uint64), np.zeros(2, np.uint8),
                np.zeros(2, np.int64), 0,
            )

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (2, 3)])
    def test_keys_not_a_pair_per_slot_are_refused(self, shape, monkeypatch):
        _forbid_kernel(monkeypatch)
        with pytest.raises(ValueError, match="key per LRU slot"):
            native_module._walk_lru(
                *_one_event(), 4, 0, 2, 2, 3, np.zeros(shape, np.uint64),
                np.zeros(2, np.uint8), np.zeros(2, np.int64), 0,
            )

    def test_wrongly_typed_slots_are_refused(self, monkeypatch):
        monkeypatch.setattr(
            native_module, "_BACKEND", (_PassThroughFFI(), _ForbiddenKernel())
        )
        with pytest.raises(ValueError, match="needs"):
            native_module._walk_lru(
                *_one_event(), 4, 0, 2, 2, 3, np.zeros((2, 2), np.uint64),
                np.zeros(2, np.int64), np.zeros(2, np.int64), 0,
            )


# -- memory and views ---------------------------------------------------------


def _long_trace(length=600_000):
    """A trace of ``length`` events over a few thousand branch sites."""
    pcs, takens, conditionals = _random_columns(
        np.random.default_rng(11), length, 12, 0.85
    )
    return Trace(pcs, takens, conditionals, name="long")


def _encoded_trace(length=600_000, rows=4_096):
    """A trace of ``length`` events built from its code stream over a
    table of ``rows`` static events, as the generator builds one."""
    rng = np.random.default_rng(12)
    pcs, takens, conditionals = _random_columns(rng, rows, 12, 0.85)
    codes = rng.integers(0, rows, length, dtype=np.uint32)
    return Trace.from_table(
        codes, pcs, takens, conditionals, np.zeros(rows, np.uint64),
        name="encoded",
    )


def _banks(predictor):
    """The counter banks a fast walk copies, in the frame's order."""
    if hasattr(predictor, "pht"):
        return [predictor.pht]
    return getattr(predictor, "banks", None) or [predictor.bank]


@requires_native
class TestMemoryAndViews:
    """The walk derives nothing per event outside its stack blocks, keeps
    nothing on the trace, and takes strided column views as they are."""

    @staticmethod
    def _native_peak(spec, trace):
        """Peak traced bytes of one native ``simulate_fast`` call above
        the predictor it runs, and the bytes of the predictor's counters
        (one per counter).

        The predictor is built under tracing, so a table the call freed
        and replaced would show (a free counts only against a block
        allocated while tracing).
        """
        simulate_fast(make_predictor(spec), trace.head(10))  # warm imports
        tracemalloc.start()
        try:
            predictor = make_predictor(spec)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = simulate_fast(predictor, trace)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert result.engine == "native"
        return peak, sum(bank.counters.size for bank in _banks(predictor))

    @pytest.mark.parametrize("spec", ["gshare:64k:h16", "egskew:3x16k:h16:partial"])
    def test_native_call_copies_no_table(self, spec):
        # The walk updates the banks' own byte buffers through zero-copy
        # views: no int64 copy, no list, no writeback — the call's peak
        # is a few small objects, far below one table.
        peak, table_bytes = self._native_peak(spec, _long_trace())
        assert peak < 16 << 10 < table_bytes, (peak, table_bytes)

    def test_native_call_keeps_the_banks_buffers(self):
        # The counters stay in the same buffer objects across a walk.
        predictor = make_predictor("gskew:3x1k:h12:partial")
        buffers = [bank.counters.values for bank in predictor.banks]
        before = [bytes(buffer) for buffer in buffers]
        simulate_fast(predictor, _long_trace(20_000))
        assert all(
            bank.counters.values is buffer
            for bank, buffer in zip(predictor.banks, buffers)
        )
        assert all(bytes(buffer) != old for buffer, old in zip(buffers, before))

    @pytest.mark.parametrize("spec", ["gshare:64k:h16", "agree:64k:h16"])
    def test_small_flush_allocates_per_batch_not_per_table(self, spec):
        # A serving flush: 256 events, each its own table row, over a
        # warm 64K-entry table.  The call allocates for the batch, not
        # the table: its peak matches that over a 256-entry table.
        tenant = Tenant("s", spec)
        rng = np.random.default_rng(5)
        tenant.append(
            EventColumns(
                4 * rng.integers(0, 1 << 20, 256).astype(np.uint64),
                rng.integers(0, 2, 256).astype(np.uint8),
                np.ones(256, dtype=np.uint8),
            )
        )
        batch = tenant.drain()
        peak, table_bytes = self._native_peak(spec, batch)
        small, _ = self._native_peak(spec.replace("64k", "256"), batch)
        assert peak < 16 << 10 < table_bytes, (peak, table_bytes)
        assert abs(peak - small) < 1 << 10, (peak, small)

    @pytest.mark.parametrize(
        "spec", ["gskew:3x4k:h12:partial", "gskew:1x4k:h12:lazy", "agree:4k:h12"]
    )
    def test_native_peak_is_the_tables_not_the_trace(self, spec):
        peak, table_bytes = self._native_peak(spec, _long_trace())
        assert peak < table_bytes + (1 << 20), (peak, table_bytes)

    @pytest.mark.parametrize("spec", ["gshare:64k:h16", "egskew:3x4k:h12:partial"])
    def test_native_peak_does_not_grow_with_the_trace(self, spec):
        trace = _long_trace()
        short, _ = self._native_peak(spec, trace.head(6_000))
        long, _ = self._native_peak(spec, trace)
        assert long - short < (64 << 10), (short, long)

    @pytest.mark.parametrize(
        "spec", ["bimodal:16", "gskew:3x4k:h12:partial", "agree:4k:h12"]
    )
    def test_encoded_walk_allocates_nothing_per_event(self, spec):
        # The walk reads the codes and the table in place: no column,
        # code copy or index array — a per-event byte would be 600 KB.
        trace = _encoded_trace()
        assert trace.codes.nbytes == 4 * len(trace)
        short, _ = self._native_peak(spec, trace.head(6_000))
        long, _ = self._native_peak(spec, trace)
        assert long - short < len(trace) // 8, (short, long)

    def test_trace_holds_no_derived_state(self):
        # Neither tier nor the per-event statistics leave anything on
        # the trace: no derived column, no per-event list.
        trace = _long_trace(50_000)
        before = {name: id(value) for name, value in vars(trace).items()}
        for spec in ("gskew:3x4k:h12:lazy", "agree:4k:h12", "gshare:4k:h12"):
            assert simulate_fast(make_predictor(spec), trace).engine == "native"
        assert simulate(make_predictor("gshare:4k:h12"), trace).engine == "generic"
        bias_density(trace, 8)
        assert {name: id(value) for name, value in vars(trace).items()} == before
        assert not hasattr(trace, "_derived")
        assert not hasattr(trace, "_column_lists")

    @pytest.mark.parametrize(
        "view",
        [
            lambda t: t.stride_split(4)[1],
            lambda t: t.stride_split(3)[2].slice(1_000, 9_000),
            lambda t: t.stride_split(2)[0].head(7_000),
        ],
        ids=["stride_split", "slice", "head"],
    )
    @pytest.mark.parametrize(
        "spec", ["gskew:3x1k:h12:partial", "egskew:3x1k:h12:lazy", "agree:1k:h10"]
    )
    def test_strided_views_run_native(self, view, spec, small_trace):
        strided = view(small_trace)
        assert not strided.codes.flags.c_contiguous
        copy = Trace(
            strided.pcs, strided.takens, strided.conditionals,
            name=strided.name,
        )
        reference = make_predictor(spec)
        candidate = make_predictor(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no silent drop to the loop
            actual = simulate_fast(candidate, strided, warmup=50)
        expected = simulate_fast(reference, copy, warmup=50)
        assert actual.engine == expected.engine == "native"
        assert actual == expected
        assert _full_state(candidate) == _full_state(reference)
