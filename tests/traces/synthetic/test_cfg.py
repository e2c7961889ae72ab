"""Tests for the structured program model and executor."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.synthetic.behavior import (
    BehaviorMix,
    BiasedBehavior,
    LoopBehavior,
)
from repro.traces.synthetic.cfg import (
    BranchNode,
    CallNode,
    LoopNode,
    Procedure,
    Program,
    ProgramConfig,
    ProgramExecutor,
    build_program,
    run_program,
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

    def test_expected_cost_positive_and_bounded(self):
        program = build_program(_config(), seed=7)
        for procedure in program.procedures[1:]:  # main excluded
            assert 0 < procedure.expected_cost < 5_000


class TestExecutor:
    def test_deterministic_stream(self):
        program = build_program(_config(), seed=8)
        a = ProgramExecutor(program, seed=1).take(2000)
        b = ProgramExecutor(program, seed=1).take(2000)
        assert a == b

    def test_executor_seed_changes_stream(self):
        program = build_program(_config(), seed=8)
        a = ProgramExecutor(program, seed=1).take(2000)
        b = ProgramExecutor(program, seed=2).take(2000)
        assert a != b

    def test_events_well_formed(self):
        program = build_program(_config(), seed=9)
        events = ProgramExecutor(program, seed=3).take(3000)
        assert len(events) == 3000
        for pc, taken, conditional, target in events:
            assert pc % 4 == 0
            assert isinstance(taken, bool)
            assert isinstance(conditional, bool)
            assert target >= 0

    def test_mixes_conditional_and_unconditional(self):
        program = build_program(_config(), seed=10)
        events = ProgramExecutor(program, seed=4).take(3000)
        conditionals = sum(1 for e in events if e[2])
        assert 0.3 < conditionals / len(events) < 0.95

    def test_main_iterations_complete(self):
        """Cost bounding must keep one main iteration well under a
        typical per-process trace share."""
        program = build_program(_config(), seed=11)
        events = ProgramExecutor(program, seed=5).take(60_000)
        returns = sum(
            1 for e in events if e[0] == program.main.return_pc
        )
        assert returns >= 2

    def test_covers_most_static_branches(self):
        program = build_program(_config(), seed=12)
        events = ProgramExecutor(program, seed=6).take(60_000)
        executed = {e[0] for e in events if e[2]}
        assert len(executed) >= program.static_branch_count * 0.4

    def test_infinite_stream(self):
        program = build_program(_config(static_branches=20, procedures=3), seed=13)
        executor = ProgramExecutor(program, seed=7)
        # Far more events than one main iteration: must not exhaust.
        assert len(executor.take(30_000)) == 30_000

    def test_piecewise_takes_equal_one_take(self):
        program = build_program(_config(), seed=14)
        whole = ProgramExecutor(program, seed=8).take(12_000)
        executor = ProgramExecutor(program, seed=8)
        pieces = []
        for count in (1, 0, 7, 300, 2, 5_000, 1, 6_689):
            pieces.extend(executor.take(count))
        assert pieces == whole


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
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_generator_reference(
        self, shape_seed, run_seed, static_branches, procedures, demand
    ):
        program = build_program(
            _config(static_branches=static_branches, procedures=procedures),
            seed=shape_seed,
        )
        table, codes = run_program(program, seed=run_seed, demand=demand)
        assert [table[code] for code in codes] == _reference_events(
            program, run_seed, demand
        )

    def test_matches_executor_events(self):
        program = build_program(_config(), seed=16)
        table, codes = run_program(program, seed=4, demand=5_000)
        assert [table[code] for code in codes] == ProgramExecutor(
            program, seed=4
        ).take(5_000)

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
        assert events == ProgramExecutor(program, seed=1).take(500)
