"""Tests for the structured program model and its two runners.

``run_program`` runs a compiled program in C (``repro_run_program``, in
the native kernel) when the backend built and every behaviour has a C
form, and in Python otherwise.  Both are pinned here to
``_reference_events``, an independent generator-chain executor, and to
each other; the C runner's differential tests skip when the backend
cannot build, while the Python runner's and the ``_check_program``
refusals (run against a stand-in kernel) need no compiler.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.native as native_module
from repro.sim.native import (
    _buffer,
    _checked_backend,
    build_program_native,
    native_available,
    run_program_native,
)
from repro.traces.synthetic.behavior import (
    BehaviorMix,
    BiasedBehavior,
    CorrelatedBehavior,
    LoopBehavior,
    MarkovBehavior,
    PatternBehavior,
)
from repro.traces.synthetic.cfg import (
    _CUSTOM,
    _MAX_NESTING,
    BranchNode,
    CallNode,
    LoopNode,
    Procedure,
    Program,
    ProgramConfig,
    _Builder,
    _check_program,
    _compile,
    _kernel_arguments,
    _run_python,
    build_program,
    compile_program,
    run_program,
)

requires_native = pytest.mark.skipif(
    not native_available(),
    reason="native backend unavailable (no C compiler or no cffi); "
    "the Python runner generates traces instead",
)


def _config(**overrides):
    defaults = dict(
        static_branches=120,
        procedures=10,
        base_address=0x0040_0000,
        mix=BehaviorMix(),
        name="prog",
    )
    defaults.update(overrides)
    return ProgramConfig(**defaults)


class TestBuilder:
    def test_deterministic(self):
        a = build_program(_config(), seed=5)
        b = build_program(_config(), seed=5)
        assert a.static_branch_count == b.static_branch_count
        assert [p.base_address for p in a.procedures] == [
            p.base_address for p in b.procedures
        ]

    def test_seed_changes_program(self):
        a = build_program(_config(), seed=5)
        b = build_program(_config(), seed=6)
        assert [p.base_address for p in a.procedures] != [
            p.base_address for p in b.procedures
        ]

    def test_static_branch_count_near_target(self):
        program = build_program(_config(static_branches=200), seed=1)
        # The cost cap may leave some budget unused, but the program must
        # be in the right ballpark.
        assert 60 <= program.static_branch_count <= 260

    def test_main_is_first_procedure(self):
        program = build_program(_config(), seed=2)
        assert program.main is program.procedures[0]
        assert program.main.name.endswith(".main")

    def test_addresses_word_aligned_and_in_segment(self):
        base = 0x0100_0000
        program = build_program(_config(base_address=base), seed=3)
        for procedure in program.procedures:
            assert procedure.base_address % 4 == 0
            assert procedure.base_address >= base
            stack = list(procedure.body)
            while stack:
                node = stack.pop()
                if isinstance(node, BranchNode):
                    assert node.pc % 4 == 0
                    stack.extend(node.then_body)
                    stack.extend(node.else_body)
                elif isinstance(node, LoopNode):
                    assert node.pc % 4 == 0
                    stack.extend(node.body)

    def test_unique_branch_pcs(self):
        program = build_program(_config(), seed=4)
        pcs = []
        for procedure in program.procedures:
            stack = list(procedure.body)
            while stack:
                node = stack.pop()
                if isinstance(node, BranchNode):
                    pcs.append(node.pc)
                    stack.extend(node.then_body)
                    stack.extend(node.else_body)
                elif isinstance(node, LoopNode):
                    pcs.append(node.pc)
                    stack.extend(node.body)
        assert len(pcs) == len(set(pcs))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"block_instructions": (-1, -1)},
            {"block_instructions": (-3, -1)},
            {"block_instructions": (4, 2)},
            {"block_instructions": (1.5, 3)},
            {"procedures": 0},
            {"procedures": -2},
            {"max_nesting": -1},
            {"base_address": 2**64 - 100},
            {"base_address": 2**63},
            {"base_address": 0x0040_0002},
            {"base_address": -4},
        ],
        ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()),
    )
    def test_refuses_shapes_that_build_corrupt_programs(self, overrides):
        # Negative blocks gave branches duplicate PCs, no procedures an
        # empty program, and a high base PCs past 64 bits.
        with pytest.raises(ValueError):
            _config(**overrides)

    def test_expected_cost_positive_and_bounded(self):
        program = build_program(_config(), seed=7)
        for procedure in program.procedures[1:]:  # main excluded
            assert 0 < procedure.expected_cost < 5_000


def _events(program, seed, count):
    """The first ``count`` events ``run_program`` emits, as rows."""
    table, codes = run_program(program, seed, count)
    return [table[code] for code in codes.tolist()]


class TestExecutor:
    """The event stream of a program run from its start."""

    def test_deterministic_stream(self):
        program = build_program(_config(), seed=8)
        assert _events(program, 1, 2000) == _events(program, 1, 2000)

    def test_executor_seed_changes_stream(self):
        program = build_program(_config(), seed=8)
        assert _events(program, 1, 2000) != _events(program, 2, 2000)

    def test_events_well_formed(self):
        program = build_program(_config(), seed=9)
        events = _events(program, 3, 3000)
        assert len(events) == 3000
        for pc, taken, conditional, target in events:
            assert pc % 4 == 0
            assert isinstance(taken, bool)
            assert isinstance(conditional, bool)
            assert target >= 0

    def test_mixes_conditional_and_unconditional(self):
        program = build_program(_config(), seed=10)
        events = _events(program, 4, 3000)
        conditionals = sum(1 for e in events if e[2])
        assert 0.3 < conditionals / len(events) < 0.95

    def test_main_iterations_complete(self):
        """Cost bounding must keep one main iteration well under a
        typical per-process trace share."""
        program = build_program(_config(), seed=11)
        events = _events(program, 5, 60_000)
        returns = sum(
            1 for e in events if e[0] == program.main.return_pc
        )
        assert returns >= 2

    def test_covers_most_static_branches(self):
        program = build_program(_config(), seed=12)
        events = _events(program, 6, 60_000)
        executed = {e[0] for e in events if e[2]}
        assert len(executed) >= program.static_branch_count * 0.4

    def test_infinite_stream(self):
        program = build_program(_config(static_branches=20, procedures=3), seed=13)
        # Far more events than one main iteration: must not exhaust.
        assert len(_events(program, 7, 30_000)) == 30_000

    def test_shorter_demand_is_a_prefix(self):
        # The generator cuts one run's stream into segments, so a run
        # for less must be the start of a run for more.
        program = build_program(_config(), seed=14)
        whole = _events(program, 8, 12_000)
        for count in (0, 1, 7, 300, 5_000, 11_999):
            assert _events(program, 8, count) == whole[:count]


def _reference_events(program, seed, count):
    """The first ``count`` events of ``program``, run as a chain of
    generators: the executor as it was before it was compiled."""
    rng = random.Random(seed)
    history = 0
    behaviors = {}

    def behavior(node):
        if id(node) not in behaviors:
            behaviors[id(node)] = node.behavior.clone()
        return behaviors[id(node)]

    def outcome(node):
        nonlocal history
        taken = behavior(node).next_outcome(rng, history)
        history = ((history << 1) | taken) & 0xFFFF
        return taken

    def procedure(proc, depth):
        yield from body(proc.body, depth)
        yield (proc.return_pc, True, False, 0)

    def body(nodes, depth):
        for node in nodes:
            if isinstance(node, BranchNode):
                taken = outcome(node)
                yield (node.pc, taken, True, 0)
                if taken:
                    yield from body(node.then_body, depth + 1)
                    yield (node.join_pc, True, False, 0)
                else:
                    yield from body(node.else_body, depth + 1)
            elif isinstance(node, LoopNode):
                while True:
                    yield from body(node.body, depth + 1)
                    taken = outcome(node)
                    yield (node.pc, taken, True, 0)
                    if not taken:
                        break
            elif depth < 24:
                yield (node.pc, True, False, node.callee.base_address)
                yield from procedure(node.callee, depth + 1)

    def forever():
        while True:
            yield from procedure(program.main, 0)

    return list(itertools.islice(forever(), count))


class TestRunProgram:
    @given(
        shape_seed=st.integers(min_value=0, max_value=10_000),
        run_seed=st.integers(min_value=0, max_value=10_000),
        static_branches=st.integers(min_value=1, max_value=150),
        procedures=st.integers(min_value=1, max_value=12),
        demand=st.integers(min_value=0, max_value=6_000),
        noiseless=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_generator_reference(
        self, shape_seed, run_seed, static_branches, procedures, demand, noiseless
    ):
        # Runs in C where the native kernel built.  ``noiseless`` mixes
        # in more patterns and noise-free correlated branches, which
        # draw no random number.
        mix = BehaviorMix(
            pattern_weight=0.2, correlated_weight=0.2, correlated_noise=0.0
        ) if noiseless else BehaviorMix()
        program = build_program(
            _config(static_branches=static_branches, procedures=procedures, mix=mix),
            seed=shape_seed,
        )
        table, codes = run_program(program, seed=run_seed, demand=demand)
        assert [table[code] for code in codes] == _reference_events(
            program, run_seed, demand
        )

    def test_matches_python_runner(self):
        program = build_program(_config(), seed=16)
        _, codes = run_program(program, seed=4, demand=5_000)
        assert np.array_equal(codes, _run_python(_compile(program), 4, 5_000))

    def test_recursive_program_stops_at_call_depth_guard(self):
        """A hand-built self-recursive procedure compiles (its call site
        points back at its own entry) and calls stop at depth 24."""
        leaf = Procedure("rec", base_address=0x1000, return_pc=0x1040)
        leaf.body = [
            BranchNode(pc=0x1004, behavior=BiasedBehavior(1.0), join_pc=0x1008),
            CallNode(pc=0x100C, callee=leaf),
        ]
        main = Procedure(
            "main",
            base_address=0x2000,
            body=[
                LoopNode(
                    pc=0x2010,
                    behavior=LoopBehavior(2),
                    body=[CallNode(pc=0x2004, callee=leaf)],
                )
            ],
            return_pc=0x2020,
        )
        program = Program([main, leaf], main=main)
        table, codes = run_program(program, seed=1, demand=500)
        events = [table[code] for code in codes]
        # The loop body runs at depth 1 and each activation one deeper, so
        # the first trip enters 23 activations (depths 2..24) of four
        # events each (call, branch, join, return) before the back-edge.
        first_back_edge = [event[0] for event in events].index(0x2010)
        assert first_back_edge == 23 * 4
        assert events == _reference_events(program, 1, 500)
        assert np.array_equal(codes, _run_python(_compile(program), 1, 500))


# -- the C runner -------------------------------------------------------------


def _random_behavior(rng):
    """A behaviour of any of the five kinds, edge parameters included:
    certain and impossible branches, one-trip and widely jittered loops
    (``randint``'s path), one-bit patterns, noiseless and wide (past the
    16-bit history) correlated tables, and Markov chains starting either
    way."""
    kind = rng.randrange(5)
    if kind == 0:
        return BiasedBehavior(rng.choice([0.0, 1.0, rng.random()]))
    if kind == 1:
        trips = rng.choice([1, 2, rng.randint(1, 40)])
        return LoopBehavior(trips, jitter=rng.choice([0, 1, 3, rng.randint(0, 60)]))
    if kind == 2:
        return PatternBehavior([rng.random() < 0.5 for _ in range(rng.randint(1, 7))])
    if kind == 3:
        bits = rng.choice([1, 2, 5, 8, 16, 17] if rng.random() < 0.1 else [1, 2, 5, 8])
        noise = rng.choice([0.0, 0.0, 0.06, 0.5, 1.0])
        return CorrelatedBehavior(bits, seed=rng.getrandbits(32), noise=noise)
    return MarkovBehavior(rng.random(), rng.random(), start_taken=rng.random() < 0.5)


def _random_program(rng, procedures, recursive=False):
    """A hand-built program over every behaviour kind.

    Procedure ``i`` calls only procedures past it, and also itself when
    ``recursive``, which the depth-24 call guard stops.  A loop's
    back-edge takes any behaviour, mostly a loop's.
    """
    address = itertools.count(0x1000, 4)
    procs = [Procedure(f"p{i}", base_address=next(address)) for i in range(procedures)]

    def body(depth, callees):
        nodes = []
        for _ in range(rng.randint(0, 3) if depth < 4 else 0):
            roll = rng.random()
            if roll < 0.2 and callees:
                nodes.append(CallNode(pc=next(address), callee=rng.choice(callees)))
            elif roll < 0.45:
                if rng.random() < 0.8:
                    behavior = LoopBehavior(rng.randint(1, 12), jitter=rng.choice([0, 2]))
                else:
                    behavior = _random_behavior(rng)
                nodes.append(LoopNode(
                    pc=next(address), behavior=behavior, body=body(depth + 1, callees)
                ))
            else:
                nodes.append(BranchNode(
                    pc=next(address),
                    behavior=_random_behavior(rng),
                    then_body=body(depth + 1, callees),
                    else_body=body(depth + 1, callees),
                    join_pc=next(address),
                ))
        return nodes

    for index, procedure in enumerate(procs):
        procedure.body = body(0, procs[index + 1:] + [procedure] * recursive)
        procedure.return_pc = next(address)
    return Program(procs, main=procs[0])


def _state(seed):
    """The twister state both runners start from."""
    return random.Random(seed).getstate()[1]


def _native_codes(program, seed, demand):
    return run_program_native(_compile(program), _state(seed), demand)


class TestNativeRunner:
    @requires_native
    @given(
        shape_seed=st.integers(min_value=0, max_value=2**32),
        run_seed=st.integers(min_value=-(2**70), max_value=2**70),
        procedures=st.integers(min_value=1, max_value=6),
        recursive=st.booleans(),
        demand=st.one_of(st.just(0), st.integers(min_value=1, max_value=4_000)),
    )
    @settings(max_examples=150, deadline=None)
    def test_repro_run_program_matches_both_oracles(
        self, shape_seed, run_seed, procedures, recursive, demand
    ):
        program = _random_program(random.Random(shape_seed), procedures, recursive)
        compiled = _compile(program)
        codes = run_program_native(compiled, _state(run_seed), demand)
        assert codes.dtype == np.int32 and len(codes) == demand
        assert np.array_equal(codes, _run_python(compiled, run_seed, demand))
        assert [compiled.table[code] for code in codes.tolist()] == _reference_events(
            program, run_seed, demand
        )

    @requires_native
    def test_every_behaviour_kind_matches(self):
        rng = random.Random(3)
        for kind in range(5):
            for _ in range(20):
                behavior = _random_behavior(rng)
                while type(behavior) is not (
                    BiasedBehavior, LoopBehavior, PatternBehavior,
                    CorrelatedBehavior, MarkovBehavior,
                )[kind]:
                    behavior = _random_behavior(rng)
                main = Procedure("main", base_address=0x100, return_pc=0x200)
                main.body = [
                    LoopNode(pc=0x104, behavior=LoopBehavior(7, jitter=5), body=[
                        BranchNode(pc=0x108, behavior=behavior, join_pc=0x10C),
                    ]),
                    LoopNode(pc=0x110, behavior=behavior.clone()),
                ]
                program = Program([main], main=main)
                assert np.array_equal(
                    _native_codes(program, 9, 3_000),
                    _run_python(_compile(program), 9, 3_000),
                ), behavior

    @requires_native
    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 17])
    def test_random_matches_cpython_to_the_last_bit(self, seed):
        # Each biased branch draws once per main iteration, in order.  Set
        # its probability to its first draw, or one ulp above it, and the
        # first iteration's outcomes flip on any error in the draw's
        # last bit.
        draws = random.Random(seed)
        main = Procedure("main", base_address=0x100)
        for index in range(64):
            draw = draws.random()
            p_taken = np.nextafter(draw, 2.0) if index % 2 else draw
            main.body.append(BranchNode(
                pc=0x200 + 8 * index, behavior=BiasedBehavior(float(p_taken)),
                join_pc=0x204 + 8 * index,
            ))
        main.return_pc = 0x1000
        program = Program([main], main=main)
        compiled = _compile(program)
        codes = run_program_native(compiled, _state(seed), 128)
        events = [compiled.table[code] for code in codes.tolist()]
        outcomes = [taken for _, taken, conditional, _ in events if conditional]
        assert outcomes[:64] == [index % 2 == 1 for index in range(64)]
        assert np.array_equal(codes, _run_python(compiled, seed, 128))

    @requires_native
    def test_wide_randint_consumes_two_words(self):
        # A jitter past 2**32 makes randint draw getrandbits(k) with k > 32,
        # two twister words per try; the biased branch drawing after it
        # shows where the stream stands.
        main = Procedure("main", base_address=0x100, return_pc=0x200)
        main.body = [
            BranchNode(pc=0x104, behavior=LoopBehavior(2, jitter=2**40), join_pc=0x108),
            BranchNode(pc=0x10C, behavior=BiasedBehavior(0.5), join_pc=0x110),
        ]
        program = Program([main], main=main)
        for seed in range(20):
            assert np.array_equal(
                _native_codes(program, seed, 400),
                _run_python(_compile(program), seed, 400),
            )

    @requires_native
    def test_never_writes_past_the_demand(self):
        """Every demand, including those that end a run inside a body,
        writes exactly its prefix of the stream and nothing after it."""
        program = _random_program(random.Random(11), 4, recursive=True)
        compiled = _compile(program)
        state = _state(5)
        whole = _run_python(compiled, 5, 600)
        ffi, lib = _checked_backend()
        for demand in range(0, 600, 7):
            codes = np.full(demand + 16, -7, dtype=np.int32)
            written = lib.repro_run_program(
                _buffer(ffi, "int32_t[]", compiled.nodes),
                _buffer(ffi, "int32_t[]", compiled.procedures),
                _buffer(ffi, "int32_t[]", compiled.kinds),
                _buffer(ffi, "int64_t[]", compiled.ints),
                _buffer(ffi, "double[]", compiled.floats),
                len(compiled.kinds),
                _buffer(ffi, "uint8_t[]", compiled.blob),
                _buffer(ffi, "uint32_t[]", np.array(state[:-1], dtype=np.uint32)),
                state[-1],
                _buffer(ffi, "int64_t[]", np.zeros(len(compiled.kinds), np.int64)),
                _buffer(ffi, "int32_t[]", codes),
                demand,
            )
            assert written == demand
            assert np.array_equal(codes[:demand], whole[:demand])
            assert (codes[demand:] == -7).all()

    @requires_native
    def test_run_program_dispatches_to_the_c_runner(self, monkeypatch):
        calls = []
        inner = native_module.run_program_native

        def spy(compiled, state, demand):
            calls.append(demand)
            return inner(compiled, state, demand)

        monkeypatch.setattr(native_module, "run_program_native", spy)
        program = build_program(_config(), seed=21)
        table, codes = run_program(program, seed=2, demand=3_000)
        assert calls == [3_000]
        assert [table[code] for code in codes.tolist()] == _reference_events(
            program, 2, 3_000
        )

    def test_custom_behaviour_runs_in_python(self, monkeypatch):
        class Inverted(BiasedBehavior):
            """A subclass: its exact type has no C form."""

            def next_outcome(self, rng, global_history):
                return not super().next_outcome(rng, global_history)

        def forbidden(*args):  # pragma: no cover — would fail
            raise AssertionError("a custom behaviour reached the C runner")

        monkeypatch.setattr(native_module, "run_program_native", forbidden)
        program = _random_program(random.Random(4), 3)
        main = program.main
        main.body = [
            LoopNode(pc=0x10, behavior=LoopBehavior(5, jitter=2), body=[
                BranchNode(pc=0x14, behavior=Inverted(0.2), join_pc=0x18),
            ]),
            *main.body,
        ]
        compiled = _compile(program)
        assert not compiled.native
        assert compiled.kinds.tolist().count(_CUSTOM) == 1
        table, codes = run_program(program, seed=6, demand=2_500)
        assert [table[code] for code in codes.tolist()] == _reference_events(
            program, 6, 2_500
        )


# -- _check_program -----------------------------------------------------------


class _PassThroughFFI:
    """Stands in for cffi's ``ffi``: hands the array through untouched."""

    def from_buffer(self, ctype, array):
        return array


class _ForbiddenKernel:
    """Stands in for the compiled ``lib`` where no call may reach it."""

    def repro_run_program(self, *args):  # pragma: no cover — would fail
        raise AssertionError("repro_run_program called with refused arrays")


def _every_kind_program():
    """A small program with a call and one behaviour of each kind, in
    slots 0-4: biased, loop, pattern, correlated, Markov."""
    leaf = Procedure("leaf", base_address=0x400, return_pc=0x440)
    leaf.body = [BranchNode(pc=0x404, behavior=BiasedBehavior(0.3), join_pc=0x408)]
    main = Procedure("main", base_address=0x100, return_pc=0x200)
    main.body = [
        LoopNode(pc=0x104, behavior=LoopBehavior(4, jitter=1), body=[
            BranchNode(pc=0x108, behavior=PatternBehavior([True, False]),
                       join_pc=0x10C),
            CallNode(pc=0x110, callee=leaf),
        ]),
        BranchNode(pc=0x114, behavior=CorrelatedBehavior(3, seed=1), join_pc=0x118),
        BranchNode(pc=0x11C, behavior=MarkovBehavior(0.9, 0.8), join_pc=0x120),
    ]
    return Program([main, leaf], main=main)


def _deep_program(levels):
    """``levels`` nested branches in one procedure."""
    main = Procedure("main", base_address=0x100, return_pc=0x104)
    body = main.body
    for level in range(levels):
        node = BranchNode(pc=0x200 + 8 * level, behavior=BiasedBehavior(1.0),
                          join_pc=0x204 + 8 * level)
        body.append(node)
        body = node.then_body
    return Program([main], main=main)


def _edit(name, edit):
    """``_every_kind_program``'s compiled arrays, with the one named
    ``name`` replaced by ``edit`` of a copy of it."""
    compiled = _compile(_every_kind_program())
    return compiled._replace(**{name: edit(getattr(compiled, name).copy())})


def _set(index, value):
    def edit(array):
        array[index] = value
        return array
    return edit


def _slots(compiled):
    """Behaviour slot of each kind, by the kind's class name."""
    return {type(b).__name__: slot for slot, b in enumerate(compiled.behaviors)}


SLOTS = _slots(_compile(_every_kind_program()))
NODES = _compile(_every_kind_program()).nodes
CALL = int(np.flatnonzero(NODES[:, 0] == 2)[0])
LOOP = int(np.flatnonzero(NODES[:, 0] == 1)[0])

#: (label, compiled arrays) the check refuses.
MALFORMED = [
    ("node kind", _edit("nodes", _set((0, 0), 7))),
    ("behaviour slot", _edit("nodes", _set((0, 1), len(SLOTS)))),
    ("negative slot", _edit("nodes", _set((0, 1), -1))),
    ("procedure number", _edit("nodes", _set((CALL, 1), 2))),
    ("code past the table", _edit("nodes", _set((0, 2), 10_000))),
    ("negative code", _edit("nodes", _set((0, 3), -1))),
    ("body past the records", _edit("nodes", _set((LOOP, 6), len(NODES) + 1))),
    ("reversed body", _edit("nodes", _set((LOOP, 5), len(NODES)))),
    ("body around itself", _edit("nodes", _set((LOOP, 5), LOOP))),
    ("procedure body", _edit("procedures", _set((1, 1), len(NODES) + 1))),
    ("return code", _edit("procedures", _set((0, 2), -1))),
    ("record width", _edit("nodes", lambda a: a[:, :8].copy())),
    ("no procedures", _edit("procedures", lambda a: a[:0])),
    ("behaviour arrays", _edit("ints", lambda a: a[:-1])),
    ("event table columns", _edit("targets", lambda a: a[:-1])),
    ("custom kind", _edit("kinds", _set(0, _CUSTOM))),
    ("unknown kind", _edit("kinds", _set(0, 9))),
    ("zero trips", _edit("ints", _set((SLOTS["LoopBehavior"], 0), 0))),
    ("negative jitter", _edit("ints", _set((SLOTS["LoopBehavior"], 1), -1))),
    ("trip range", _edit("ints", _set((SLOTS["LoopBehavior"], 1), 1 << 62))),
    ("empty pattern", _edit("ints", _set((SLOTS["PatternBehavior"], 1), 0))),
    ("pattern past the blob", _edit("ints", _set((SLOTS["PatternBehavior"], 0), 10))),
    ("truth table past the blob",
     _edit("ints", _set((SLOTS["CorrelatedBehavior"], 0), 5))),
    ("negative blob offset",
     _edit("ints", _set((SLOTS["CorrelatedBehavior"], 0), -1))),
    ("truth table mask", _edit("ints", _set((SLOTS["CorrelatedBehavior"], 1), 1 << 16))),
    ("Markov start", _edit("ints", _set((SLOTS["MarkovBehavior"], 0), 2))),
]


class TestCheckProgram:
    """``_check_program`` refuses malformed arrays before the C call; a
    stand-in kernel that fails if called shows it (no compiler needed)."""

    @pytest.fixture(autouse=True)
    def forbid_kernel(self, monkeypatch):
        monkeypatch.setattr(
            native_module, "_BACKEND", (_PassThroughFFI(), _ForbiddenKernel())
        )

    def test_the_unedited_arrays_pass(self):
        compiled = _compile(_every_kind_program())
        assert sorted(SLOTS.values()) == list(range(5))
        _check_program(compiled, _state(1))
        # 233 nested branches: their bodies nest 232 levels.
        _check_program(_compile(_deep_program(_MAX_NESTING - 23)), _state(1))

    @pytest.mark.parametrize(
        "compiled", [c for _, c in MALFORMED], ids=[label for label, _ in MALFORMED]
    )
    def test_malformed_arrays_are_refused_before_the_call(self, compiled):
        with pytest.raises(ValueError):
            run_program_native(compiled, _state(1), 100)

    @pytest.mark.parametrize(
        "state",
        [
            _state(1)[:-1],  # no position
            (*_state(1)[:-1], 625),  # position past the words
            (1 << 32, *_state(1)[1:]),  # a word past 32 bits
        ],
        ids=["length", "position", "word"],
    )
    def test_malformed_twister_state_is_refused(self, state):
        with pytest.raises(ValueError, match="twister"):
            run_program_native(_compile(_every_kind_program()), state, 100)

    def test_nesting_past_the_c_stack_is_refused(self):
        # A procedure's body may start up to 24 levels deep (the call
        # guard), so its own bodies may nest 24 levels fewer than the C
        # runner's limit.
        program = _deep_program(_MAX_NESTING - 22)
        with pytest.raises(ValueError, match="nest"):
            run_program_native(_compile(program), _state(1), 100)
        # The Python runner takes it (nothing else guards its recursion).
        assert len(_run_python(_compile(program), 1, 100)) == 100


# -- the C builder ------------------------------------------------------------

#: ``_Compiled``'s arrays, which the C builder must make element for
#: element as ``_compile(build_program(...))`` does.
ARRAYS = (
    "pcs", "takens", "conditionals", "targets", "nodes", "procedures",
    "kinds", "ints", "floats", "blob",
)


def _python_build(config, state):
    """The Python builder's compiled arrays, its rng set to ``state``."""
    rng = random.Random()
    rng.setstate((3, tuple(state), None))
    return _compile(_Builder(config, rng).build())


def _assert_same_arrays(kernel, python):
    assert kernel is not None, "the C builder refused the config"
    assert kernel.behaviors is None
    for name in ARRAYS:
        made, expected = getattr(kernel, name), getattr(python, name)
        assert made.dtype == expected.dtype, name
        assert made.shape == expected.shape, name
        assert np.array_equal(made, expected), name


def _assert_builders_agree(config, seed):
    state = _state(seed)
    kernel = build_program_native(_kernel_arguments(config), state)
    _assert_same_arrays(kernel, _python_build(config, state))
    return kernel


def _mix(**values):
    """A mix drawing only the kinds whose weights ``values`` names."""
    weights = dict.fromkeys((
        "biased_weight", "loop_weight", "pattern_weight", "correlated_weight",
        "markov_weight",
    ), 0)
    return BehaviorMix(**{**weights, **values})


def _long_loop_mix(trip_mean):
    """A loops-only mix with a mean trip count past the 2**50 a
    ``BehaviorMix`` accepts (its draws could fail the runner), set after
    construction: the builders themselves must still agree there."""
    mix = _mix(loop_weight=1)
    mix.loop_trip_mean = trip_mean
    return mix


_weights = st.one_of(
    st.sampled_from([0, 0.0, 1, 2, 7]),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
_fraction = st.one_of(st.sampled_from([0, 0.0, 1, 1.0, 0.5]), st.floats(0.0, 1.0))


@st.composite
def _program_configs(draw):
    weights = draw(st.lists(_weights, min_size=5, max_size=5).filter(lambda w: sum(w) > 0))
    bits = draw(st.sampled_from([2, 2, 3, 5, 8, 16]))
    mix = BehaviorMix(
        *weights,
        bias_strength=draw(_fraction),
        loop_trip_mean=draw(st.one_of(
            st.integers(min_value=1, max_value=60),
            st.floats(min_value=0.01, max_value=200.0),
        )),
        correlated_bits=bits,
        correlated_noise=draw(_fraction),
        hard_fraction=draw(_fraction),
    )
    low = draw(st.integers(min_value=0, max_value=6))
    return ProgramConfig(
        static_branches=draw(st.integers(min_value=0, max_value=60 if bits == 16 else 250)),
        procedures=draw(st.integers(min_value=1, max_value=40)),
        base_address=4 * draw(st.integers(min_value=0, max_value=(1 << 61) - (1 << 32))),
        mix=mix,
        max_nesting=draw(st.integers(min_value=0, max_value=5)),
        call_fanout=draw(st.integers(min_value=-1, max_value=9)),
        block_instructions=(low, low + draw(st.integers(min_value=0, max_value=9))),
    )


def _shipped_configs():
    """Every program config the clones generate from, with its seed."""
    from repro.traces.synthetic.workloads import (
        IBS_BENCHMARKS,
        IBS_EXTRA_BENCHMARKS,
        SPEC_BENCHMARKS,
        ibs_workload,
    )

    for name in IBS_BENCHMARKS + IBS_EXTRA_BENCHMARKS + SPEC_BENCHMARKS:
        workload = ibs_workload(name)
        for index in range(workload.processes):
            yield (f"{name}.proc{index}", workload.program_config(index),
                   workload.seed * 1009 + index)
        yield f"{name}.kernel", workload.kernel_config(), workload.seed * 5407 + 101


class TestNativeBuilder:
    """``repro_build_program`` makes ``_compile(build_program(...))``'s
    arrays, element for element, from the same twister state."""

    @requires_native
    @given(
        config=_program_configs(),
        seed=st.one_of(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=-(2**80), max_value=2**80),
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_repro_build_program_matches_the_python_builder(self, config, seed):
        _assert_builders_agree(config, seed)

    @requires_native
    def test_every_shipped_config_matches(self):
        configs = list(_shipped_configs())
        assert len(configs) == 39
        for label, config, seed in configs:
            kernel = _assert_builders_agree(config, seed)
            assert len(kernel.kinds) > 0, label

    @requires_native
    @pytest.mark.parametrize(
        "config",
        [
            # uniform(): Markov stay probabilities and biased p_taken.
            _config(mix=_mix(markov_weight=1)),
            _config(mix=_mix(biased_weight=1, hard_fraction=1)),
            _config(mix=_mix(biased_weight=1, bias_strength=0.3, hard_fraction=0)),
            # expovariate(): with the rate 2**-56 a trip count holds all
            # 53 bits of -log(1 - random()).
            _config(mix=_long_loop_mix(2**56)),
            # choices() over integer weights, a zero weight among them.
            _config(mix=BehaviorMix(3, 1, 0, 2, 1)),
            # getrandbits(32) and init_by_array: 16-bit truth tables.
            _config(mix=_mix(correlated_weight=1, correlated_bits=16), static_branches=40),
            # sample(): its pool branch with k > 5, its set branch
            # (past 21 callees) with k <= 5 and with k > 5.
            _config(procedures=30, call_fanout=8, static_branches=300),
            _config(procedures=40, call_fanout=3, static_branches=400),
            _config(procedures=120, call_fanout=7, static_branches=600),
            # randint() with an empty block range and shuffle() of one.
            _config(procedures=2, block_instructions=(0, 0)),
        ],
        ids=[
            "uniform-markov", "uniform-hard", "uniform-biased", "expovariate",
            "choices-integer-weights", "getrandbits-init_by_array",
            "sample-pool", "sample-set", "sample-set-wide", "randint-shuffle",
        ],
    )
    def test_each_ported_rng_method_matches_cpython(self, config):
        for seed in (0, 1, 2**40 + 5):
            kernel = _assert_builders_agree(config, seed)
        if config.mix.loop_trip_mean == 2**56:
            assert (kernel.ints[kernel.kinds == 1, 0] >= 2**53).any()

    def test_sample_configs_reach_both_branches(self):
        # The set branch takes populations past its set size: 21, plus
        # 4 ** ceil(log(3k, 4)) when k > 5.
        def setsize(k):
            return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)

        assert 29 <= setsize(8)  # 30 procedures, fanout 8: the pool
        assert 39 > setsize(3)  # 40 procedures, fanout 3: the set
        assert 119 > setsize(7)  # 120 procedures, fanout 7: the set

    @requires_native
    def test_init_by_array_with_key_zero(self):
        # An all-zero twister draws 0 forever: every branch is
        # correlated, with 2 history bits and truth-table seed 0.
        state = (0,) * 624 + (624,)
        config = _config(mix=_mix(correlated_weight=1), max_nesting=0)
        kernel = build_program_native(_kernel_arguments(config), state)
        _assert_same_arrays(kernel, _python_build(config, state))
        table = random.Random(0)
        assert kernel.blob[:4].tolist() == [table.random() < 0.5 for _ in range(4)]
        # Every branch is correlated (main's phase loops aside) with mask 3.
        correlated = kernel.kinds == 3
        assert correlated.sum() > 10
        assert (kernel.ints[correlated, 1] == 3).all()

    @requires_native
    def test_too_small_outputs_are_refused_never_overrun(self):
        config = _config(mix=BehaviorMix(correlated_weight=0.5, pattern_weight=0.3))
        arguments = _kernel_arguments(config)
        state = _state(3)
        ffi, lib = _checked_backend()
        expected = _python_build(config, state)
        needed = [len(expected.nodes), len(expected.procedures), len(expected.pcs),
                  len(expected.kinds), len(expected.blob)]

        def call(capacities):
            # Each output is its capacity plus a sentinel tail of 16
            # units the kernel must never touch.
            outputs = {
                name: np.full((capacity + 16) * width, 77, dtype=native_module._DTYPES[ctype[:-2]])
                for capacity, group in zip(capacities, native_module._PROGRAM_OUTPUTS)
                for name, ctype, width in group
            }
            sizes = np.array(capacities, dtype=np.int64)
            scalars = [
                _buffer(ffi, "double[]", np.array(value, dtype=np.float64))
                if isinstance(value, tuple) else value for value in arguments
            ]
            status = lib.repro_build_program(
                _buffer(ffi, "uint32_t[]", np.array(state[:-1], dtype=np.uint32)),
                state[-1], *scalars,
                *(_buffer(ffi, ctype, outputs[name])
                  for group in native_module._PROGRAM_OUTPUTS for name, ctype, _ in group),
                _buffer(ffi, "int64_t[]", sizes),
            )
            for capacity, group in zip(capacities, native_module._PROGRAM_OUTPUTS):
                for name, _, width in group:
                    assert (outputs[name][capacity * width:] == 77).all(), name
            return status, sizes.tolist(), outputs

        assert call([0] * 5)[:2] == (1, needed)
        for short in range(5):
            capacities = list(needed)
            capacities[short] -= 1
            assert call(capacities)[:2] == (1, needed)
        status, sizes, outputs = call(needed)
        assert (status, sizes) == (0, needed)
        assert np.array_equal(outputs["blob"][:needed[4]], expected.blob)
        assert np.array_equal(
            outputs["nodes"][:9 * needed[0]].reshape(-1, 9), expected.nodes
        )

    @requires_native
    def test_outside_the_kernels_domain_the_python_builder_builds(self):
        # Trip counts past 2**61 leave the C builder's domain (this
        # seed draws one; an int64 still holds them).
        config = _config(mix=_long_loop_mix(2**59))
        assert build_program_native(_kernel_arguments(config), _state(1)) is None
        compiled = compile_program(config, 1)
        assert compiled.behaviors is not None
        _assert_same_arrays(compiled._replace(behaviors=None), _python_build(config, _state(1)))
        assert _kernel_arguments(_config(block_instructions=(0, 2**32))) is None
        assert _kernel_arguments(_config(mix=BehaviorMix(biased_weight=2**60 + 1))) is None

    @requires_native
    def test_compile_program_dispatches_to_the_c_builder(self, monkeypatch):
        calls = []
        inner = native_module.build_program_native

        def spy(arguments, state):
            calls.append(arguments)
            return inner(arguments, state)

        monkeypatch.setattr(native_module, "build_program_native", spy)
        config = _config()
        compiled = compile_program(config, 4)
        assert len(calls) == 1 and compiled.behaviors is None
        _assert_same_arrays(compiled, _compile(build_program(config, 4)))

    def test_custom_mixes_and_no_compiler_build_in_python(self, monkeypatch):
        class Mix(BehaviorMix):
            """A subclass may draw differently: Python builds it."""

        def forbidden(*args):  # pragma: no cover — would fail
            raise AssertionError("reached the C builder")

        monkeypatch.setattr(native_module, "build_program_native", forbidden)
        custom = compile_program(_config(mix=Mix()), 5)
        assert custom.behaviors is not None
        monkeypatch.setattr(native_module, "native_available", lambda: False)
        plain = compile_program(_config(), 5)
        python = _compile(build_program(_config(), 5))
        for name in ARRAYS:
            assert np.array_equal(getattr(plain, name), getattr(python, name))
            assert np.array_equal(getattr(custom, name), getattr(python, name))

    @requires_native
    def test_check_program_runs_on_the_kernels_arrays(self, monkeypatch):
        from repro.traces.synthetic.generator import WorkloadConfig, generate_trace

        checked = []
        inner = native_module._check_program

        def spy(compiled, state):
            checked.append(compiled.behaviors)
            inner(compiled, state)

        monkeypatch.setattr(native_module, "_check_program", spy)
        generate_trace(WorkloadConfig(length=3_000, processes=2,
                                      static_branches_per_process=50))
        assert checked == [None, None, None]
