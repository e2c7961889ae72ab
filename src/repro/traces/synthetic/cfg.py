"""Structured synthetic-program model.

A synthetic program is a set of procedures, each a tree of structured
control constructs (if/else regions, counted loops, calls).  Executing
the program walks these trees, asking each conditional branch's behaviour
model for its next outcome, and emits a stream of control-transfer
events — exactly what a hardware monitor tracing a real binary would see,
minus the non-branch instructions that neither predictors nor aliasing
instruments consume.

Structured (rather than arbitrary-graph) control flow guarantees
termination of every procedure activation: loops have bounded trip
counts and the call graph is a DAG.  The top-level procedure is re-run
forever, so a program is an unbounded event source that the multi-process
scheduler (:mod:`repro.traces.synthetic.kernel`) slices into quanta.

Programs are built and run compiled.  :func:`compile_program` returns
a source's compiled form: a static table of the events the program can
emit plus flat arrays — one record per static node, each body a run of
consecutive records, and each branch's behaviour parameters.  Where the
native C kernel built and the mix is a plain :class:`BehaviorMix`,
``repro_build_program`` builds the program and writes those arrays
straight out; otherwise :func:`build_program` builds :class:`Program`
objects and ``_compile`` flattens them.  Both make the same arrays, and
the Python builder is the C builder's test oracle.

:func:`run_compiled` walks the arrays until the caller's demand is met,
emitting one table index per event.  Two runners read them:
``repro_run_program`` in the native C kernel, and a Python runner for
hosts without the kernel and for custom behaviour classes.  Both emit
the same events.  The scheduler knows each source's total demand
before any source runs, so every program runs once, in one piece.

The C builder and runner draw from a port of CPython's Mersenne
Twister, so every draw is the one ``random.Random`` would make.
Caveat: CPython guarantees the ``random()`` stream across versions,
and ``random.Random(n)``'s seeding for an int ``n``, but not the
algorithms of ``randint``, ``choice``, ``choices``, ``sample``,
``shuffle``, ``uniform`` or ``expovariate``, which the C kernel ports
from CPython 3.11.  The trace pins and the builders' and runners'
differential tests are what would catch a drift.

Event conventions (matching the paper's trace methodology):

- conditional branches are predicted and shift global history;
- unconditional transfers (calls, returns, else-joins) are *not*
  predicted but do shift global history;
- all PCs are 4-byte aligned within a per-program text segment.
"""

from __future__ import annotations

import itertools
import numbers
import random
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.traces.synthetic.behavior import (
    BehaviorMix,
    BiasedBehavior,
    BranchBehavior,
    CorrelatedBehavior,
    LoopBehavior,
    MarkovBehavior,
    PatternBehavior,
)

__all__ = [
    "BranchNode",
    "LoopNode",
    "CallNode",
    "Procedure",
    "Program",
    "ProgramConfig",
    "build_program",
    "compile_program",
    "run_compiled",
    "run_program",
]

# An emitted event: (pc, taken, conditional, target)
Event = Tuple[int, bool, bool, int]


@dataclass
class BranchNode:
    """An if/else region guarded by one static conditional branch."""

    pc: int
    behavior: BranchBehavior
    then_body: List[object] = field(default_factory=list)
    else_body: List[object] = field(default_factory=list)
    join_pc: int = 0  # unconditional jump at the end of the taken path


@dataclass
class LoopNode:
    """A counted loop closed by a back-edge conditional branch at ``pc``."""

    pc: int
    behavior: LoopBehavior
    body: List[object] = field(default_factory=list)


@dataclass
class CallNode:
    """A call site; ``callee`` is a :class:`Procedure` in the same program."""

    pc: int
    callee: "Procedure"


@dataclass
class Procedure:
    """One procedure: an entry address, a body tree, a return instruction.

    ``expected_cost`` is the builder's estimate of the number of events
    one activation emits; callers use it to keep whole-program activation
    costs bounded (nested long loops and deep call chains would otherwise
    explode multiplicatively).
    """

    name: str
    base_address: int
    body: List[object] = field(default_factory=list)
    return_pc: int = 0
    expected_cost: float = 1.0


class Program:
    """A complete synthetic program (procedures + entry point)."""

    def __init__(self, procedures: List[Procedure], main: Procedure,
                 name: str = "program"):
        if main not in procedures:
            raise ValueError("main must be one of the program's procedures")
        self.procedures = procedures
        self.main = main
        self.name = name

    @property
    def static_branch_count(self) -> int:
        """Number of static conditional branches across all procedures."""
        count = 0
        for procedure in self.procedures:
            stack = list(procedure.body)
            while stack:
                node = stack.pop()
                if isinstance(node, BranchNode):
                    count += 1
                    stack.extend(node.then_body)
                    stack.extend(node.else_body)
                elif isinstance(node, LoopNode):
                    count += 1
                    stack.extend(node.body)
        return count


@dataclass
class ProgramConfig:
    """Shape parameters for :func:`build_program`.

    ``static_branches`` is a target, met within one procedure's worth of
    slack.  ``call_fanout`` controls how bushy the (acyclic) call graph
    is; deeper call chains spread dynamic branches over more static
    addresses, raising working-set pressure.
    """

    static_branches: int = 500
    procedures: int = 24
    base_address: int = 0x0040_0000
    mix: BehaviorMix = field(default_factory=BehaviorMix)
    max_nesting: int = 3
    call_fanout: int = 3
    block_instructions: Tuple[int, int] = (2, 10)
    name: str = "program"

    def __post_init__(self):
        """Refuse shapes that build corrupt or empty programs.

        Raises:
            ValueError: on ``block_instructions`` other than two integers
                ``0 <= low <= high`` (a negative step moves the builder's
                address backwards, so branches share PCs); ``procedures``
                below 1 or ``max_nesting`` below 0; or a ``base_address``
                that is not 4-aligned in ``[0, 2**63)``.
        """
        block = self.block_instructions
        if not (
            len(block) == 2
            and all(isinstance(value, numbers.Integral) for value in block)
            and 0 <= block[0] <= block[1]
        ):
            raise ValueError(
                f"block_instructions must be integers 0 <= low <= high, got {block}"
            )
        if self.procedures < 1:
            raise ValueError(f"procedures must be >= 1, got {self.procedures}")
        if self.max_nesting < 0:
            raise ValueError(f"max_nesting must be >= 0, got {self.max_nesting}")
        if not (
            isinstance(self.base_address, numbers.Integral)
            and 0 <= self.base_address < 1 << 63
            and self.base_address % 4 == 0
        ):
            raise ValueError(
                "base_address must be 4-aligned in [0, 2**63), "
                f"got {self.base_address:#x}"
            )


def _count_branches(body: List[object]) -> int:
    """Static conditional branches in a body tree."""
    count = 0
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, BranchNode):
            count += 1
            stack.extend(node.then_body)
            stack.extend(node.else_body)
        elif isinstance(node, LoopNode):
            count += 1
            stack.extend(node.body)
    return count


class _Builder:
    """Random structured-program construction (seeded, deterministic)."""

    def __init__(self, config: ProgramConfig, rng: random.Random):
        self.config = config
        self.rng = rng
        self._address = config.base_address
        self._branches_left = config.static_branches

    def _advance(self) -> int:
        """Consume address space for a few straight-line instructions and
        return the PC of the instruction placed at the end of them."""
        low, high = self.config.block_instructions
        self._address += 4 * self.rng.randint(low, high)
        pc = self._address
        self._address += 4
        return pc

    def build(self) -> Program:
        config = self.config
        count = config.procedures
        # Leaf procedures are built first so call targets already exist;
        # procedure i may call procedures j > i (DAG by construction).
        procedures: List[Procedure] = []
        per_procedure = max(1, config.static_branches // count)
        for i in reversed(range(1, count)):
            callees = procedures[:]  # everything built so far is callable
            procedure = self._build_procedure(
                f"{config.name}.p{i}", per_procedure, callees
            )
            procedures.append(procedure)
        procedures.reverse()
        main = self._build_main(procedures, per_procedure)
        procedures.insert(0, main)
        return Program(procedures, main=main, name=config.name)

    def _build_main(
        self, procedures: List[Procedure], branch_budget: int
    ) -> Procedure:
        """The program's driver: phases of loops over procedure calls.

        Every procedure is called at least once per main iteration, so
        the dynamic footprint covers the whole static program — the
        property that gives synthetic traces realistic working-set
        pressure.  Grouping calls under small loops creates temporal
        phases: procedures in the same phase are hot together.
        """
        rng = self.rng
        base = self._advance()
        body: List[object] = []
        targets = procedures[:]
        rng.shuffle(targets)
        index = 0
        while index < len(targets):
            phase_size = rng.randint(1, 3)
            phase = targets[index : index + phase_size]
            index += phase_size
            phase_body: List[object] = [
                CallNode(pc=self._advance(), callee=callee) for callee in phase
            ]
            # Phase loops run long enough that their (inherently
            # unpredictable) exit branch is rare relative to the work
            # inside the phase — like an outer driver loop in real code.
            body.append(
                LoopNode(
                    pc=self._advance(),
                    behavior=LoopBehavior(rng.randint(8, 24), jitter=1),
                    body=phase_body,
                )
            )
            # An occasional top-level branch between phases.
            if rng.random() < 0.4 and branch_budget > 0:
                node = BranchNode(
                    pc=self._advance(), behavior=self.config.mix.draw(rng)
                )
                node.join_pc = self._advance()
                body.append(node)
        return Procedure(
            name=f"{self.config.name}.main",
            base_address=base,
            body=body,
            return_pc=self._advance(),
        )

    def _build_procedure(
        self, name: str, branch_budget: int, callees: List[Procedure]
    ) -> Procedure:
        rng = self.rng
        base = self._advance()
        # How many events one activation of this procedure may cost, in
        # expectation.  The cap keeps whole-program activation costs
        # bounded: without it, nested loops and call chains compose
        # multiplicatively and a single main iteration can exceed the
        # entire trace length.
        cost_cap = rng.uniform(80.0, 600.0)
        body, cost = self._build_body(
            branch_budget, callees, depth=0, weight=1.0, cost_cap=cost_cap
        )
        return_pc = self._advance()
        return Procedure(
            name=name,
            base_address=base,
            body=body,
            return_pc=return_pc,
            expected_cost=cost + 2.0,  # call + return transfers
        )

    def _build_body(
        self,
        branch_budget: int,
        callees: List[Procedure],
        depth: int,
        weight: float,
        cost_cap: float,
    ) -> Tuple[List[object], float]:
        """Build a body tree; returns (nodes, expected event cost).

        ``weight`` is the expected number of times this body runs per
        procedure activation (the product of enclosing loop trip counts);
        every cost contribution is weight-scaled so ``cost_cap`` bounds
        the activation cost of the whole procedure.
        """
        rng = self.rng
        config = self.config
        body: List[object] = []
        cost = 0.0
        while branch_budget > 0 and cost < cost_cap:
            remaining = cost_cap - cost
            roll = rng.random()
            if roll < 0.22 and callees and depth < config.max_nesting:
                # Prefer a small per-site fanout set, but draw it from the
                # whole program so every procedure is reachable and the
                # dynamic footprint covers most static branches.
                fanout = max(1, config.call_fanout)
                site_targets = rng.sample(callees, k=min(fanout, len(callees)))
                affordable = [
                    callee
                    for callee in site_targets
                    if weight * callee.expected_cost <= remaining
                ]
                if affordable:
                    callee = rng.choice(affordable)
                    body.append(CallNode(pc=self._advance(), callee=callee))
                    cost += weight * callee.expected_cost
                continue
            if roll < 0.38 and depth < config.max_nesting:
                # A loop: its back-edge is one static branch; its body
                # gets a small share of the remaining budget (possibly
                # none — a pure counting loop whose trip pattern sits
                # entirely in its own history bits).
                behavior = config.mix.draw_loop(rng)
                if weight * behavior.trip_count > remaining:
                    behavior = LoopBehavior(rng.randint(2, 4), jitter=0)
                if weight * behavior.trip_count > remaining:
                    continue  # not even a short loop fits; try other nodes
                trips = behavior.trip_count
                if trips <= 5:
                    # Short counting loops keep (near-)empty bodies so the
                    # trip pattern stays within a short history window,
                    # like real scan/copy loops.
                    inner_budget = min(branch_budget - 1, rng.choice([0, 0, 1]))
                else:
                    inner_budget = min(branch_budget - 1, rng.randint(0, 3))
                back_edge_cost = weight * trips
                inner, inner_cost = self._build_body(
                    inner_budget,
                    callees,
                    depth + 1,
                    weight * trips,
                    cost_cap=max(0.0, (remaining - back_edge_cost) * 0.5),
                )
                body.append(
                    LoopNode(pc=self._advance(), behavior=behavior, body=inner)
                )
                branch_budget -= 1 + _count_branches(inner)
                cost += back_edge_cost + inner_cost
                continue
            # An if/else region.
            behavior = config.mix.draw(rng)
            then_budget = 0
            else_budget = 0
            if depth < config.max_nesting and branch_budget > 1:
                then_budget = rng.randint(0, min(2, branch_budget - 1))
                else_budget = rng.randint(
                    0, min(2, branch_budget - 1 - then_budget)
                )
            node = BranchNode(pc=self._advance(), behavior=behavior)
            arm_cap = remaining * 0.5
            node.then_body, then_cost = self._build_body(
                then_budget, callees, depth + 1, weight * 0.5, arm_cap
            )
            node.else_body, else_cost = self._build_body(
                else_budget, callees, depth + 1, weight * 0.5, arm_cap
            )
            node.join_pc = self._advance()
            body.append(node)
            branch_budget -= (
                1 + _count_branches(node.then_body) + _count_branches(node.else_body)
            )
            cost += weight + then_cost + else_cost
        return body, cost


def build_program(config: ProgramConfig, seed: int) -> Program:
    """Build a deterministic random program from ``config`` and ``seed``.

    The Python builder: :func:`compile_program` runs its C port where it
    can, and this is that port's oracle.
    """
    return _Builder(config, random.Random(seed)).build()


def _double(value) -> Optional[float]:
    """``value`` as the double it equals exactly, or None (not an int or
    float, or not representable)."""
    if isinstance(value, (int, float)):
        try:
            as_double = float(value)
        except OverflowError:
            return None
        if as_double == value:
            return as_double
    return None


def _kernel_arguments(config: ProgramConfig) -> Optional[tuple]:
    """``repro_build_program``'s scalars for ``config``, or None when the
    config is outside the C builder's domain.

    The integer arithmetic the builder does once per program is done
    here, in Python: the per-procedure budget, the clamped fanout, the
    cumulative weights ``random.choices`` accumulates (in the weights'
    own types) and ``draw_loop``'s rate ``1.0 / loop_trip_mean``.  The
    domain: every mix value is an int or float that a double holds
    exactly, every shape value an int, and blocks below ``2**32``
    instructions.  Budgets past ``2**62`` are clamped, which changes no
    draw: a budget only ever meets small numbers.
    """
    mix = config.mix
    integers = (config.static_branches, config.procedures, config.max_nesting,
                config.call_fanout, *config.block_instructions)
    cum_weights = tuple(map(_double, itertools.accumulate(mix._weights)))
    reals = tuple(map(_double, (
        mix.bias_strength, mix.hard_fraction, mix.loop_trip_mean,
        mix.correlated_noise,
    )))
    if (
        not all(isinstance(value, int) for value in integers)
        or None in cum_weights + reals
        or config.procedures >= 1 << 31
        or config.block_instructions[1] >= 1 << 32
    ):
        return None
    bias_strength, hard_fraction, _, correlated_noise = reals
    per_procedure = max(1, config.static_branches // config.procedures)
    return (
        config.procedures,
        min(per_procedure, 1 << 62),
        config.base_address,
        min(config.max_nesting, 1 << 62),
        min(max(1, config.call_fanout), config.procedures),
        *config.block_instructions,
        cum_weights,
        bias_strength,
        hard_fraction,
        1.0 / mix.loop_trip_mean,
        int(mix.correlated_bits),
        correlated_noise,
    )


# Node kinds of a compiled program (see ``_compile``).
_BRANCH, _LOOP, _CALL = 0, 1, 2

#: int32 fields per node record: kind, slot, three codes, two body ranges.
_NODE_FIELDS = 9

# Behaviour kinds with a C form, one per class in ``behavior.py``; any
# other class, a subclass included, is custom and runs in Python only.
_BIASED, _LOOPING, _PATTERN, _CORRELATED, _MARKOV, _CUSTOM = 0, 1, 2, 3, 4, -1
_BEHAVIOR_KINDS = {
    BiasedBehavior: _BIASED,
    LoopBehavior: _LOOPING,
    PatternBehavior: _PATTERN,
    CorrelatedBehavior: _CORRELATED,
    MarkovBehavior: _MARKOV,
}

#: Calls nested this deep are skipped (the builder's call graph is a DAG,
#: so this only guards hand-built recursive programs).
_MAX_CALL_DEPTH = 24

#: Deepest body either runner may enter; the C runner recurses once per
#: level (``REPRO_MAX_NESTING`` in ``sim/_native_kernel.c``).
_MAX_NESTING = 256

#: The runners' local path history: the last 16 outcomes.
_HISTORY_MASK = 0xFFFF

#: Trip counts and jitters stay below this, so ``randint``'s range fits
#: the C runner's int64 arithmetic.
_MAX_TRIPS = 1 << 62


class _DemandMet(Exception):
    """Unwinds the Python runner once the source has emitted its demand."""


class _Compiled(NamedTuple):
    """A program as flat arrays, the one form both runners read.

    Every event the program can emit is one row of the event table —
    ``pcs`` and ``targets`` (``uint64``), ``takens`` and
    ``conditionals`` (``uint8`` flags) — and the runners emit row
    indices ("codes").

    ``nodes`` holds one int32 record per static node, ``_NODE_FIELDS``
    wide: ``(kind, slot, code, not_taken_code, join_code, first, last,
    else_first, else_last)``.  A branch's or loop's ``slot`` is its
    behaviour slot and a call's is its callee's procedure number; a
    call's ``code`` is the call event, a branch's or loop's the taken
    one.  ``[first, last)`` is the node range of the then-body (a
    loop's body), ``[else_first, else_last)`` the else-body's.  Each body
    occupies consecutive records.  ``procedures`` holds ``(first, last,
    return_code)`` per procedure; procedure 0 is ``main``.

    Slot ``s`` is one static branch: ``behaviors[s]`` is its behaviour
    as built, which the Python runner clones, and ``kinds[s]``,
    ``ints[s]``, ``floats[s]`` and ``blob`` its parameters for the C
    runner (see ``REPRO_BIASED`` .. ``REPRO_MARKOV`` in
    ``sim/_native_kernel.c``): biased ``p_taken``; loop trip count and
    jitter; pattern bits; a correlated truth table, history mask and
    noise; Markov stay probabilities and start state.  A custom
    behaviour's kind is ``_CUSTOM``, with no parameters.  The C builder
    makes no behaviour objects: its ``behaviors`` is None.
    """

    pcs: np.ndarray
    takens: np.ndarray
    conditionals: np.ndarray
    targets: np.ndarray
    nodes: np.ndarray
    procedures: np.ndarray
    behaviors: Optional[List[BranchBehavior]]
    kinds: np.ndarray
    ints: np.ndarray
    floats: np.ndarray
    blob: np.ndarray

    @property
    def native(self) -> bool:
        """True when the C runner implements every behaviour."""
        return not (self.kinds == _CUSTOM).any()

    @property
    def table(self) -> List[Event]:
        """The event table as ``(pc, taken, conditional, target)`` rows."""
        return list(zip(
            self.pcs.tolist(),
            self.takens.astype(bool).tolist(),
            self.conditionals.astype(bool).tolist(),
            self.targets.tolist(),
        ))


def _compile(program: Program) -> _Compiled:
    """Compile ``program`` into its flat arrays (see :class:`_Compiled`).

    One pass: a body reserves its consecutive records, then fills them,
    compiling nested bodies after its own.  Each procedure is compiled
    once, on first reference, and shared by its call sites (a recursive
    call points at its own number before its body is done), so each
    static node gets one record and one behaviour slot — one behaviour
    state per branch, however many sites reach it.
    """
    table: List[Event] = []
    fields: List[int] = []  # the node records, flat
    procedures: List[list] = []
    behaviors: List[BranchBehavior] = []
    numbering: dict = {}

    def body(children: List[object]) -> Tuple[int, int]:
        if not children:
            return 0, 0
        first = len(fields) // _NODE_FIELDS
        fields.extend([0] * (_NODE_FIELDS * len(children)))
        for index, node in enumerate(children, first):
            code = len(table)
            if isinstance(node, BranchNode):
                behaviors.append(node.behavior)
                table.extend((
                    (node.pc, True, True, 0),
                    (node.pc, False, True, 0),
                    (node.join_pc, True, False, 0),
                ))
                record = (
                    _BRANCH, len(behaviors) - 1, code, code + 1, code + 2,
                    *body(node.then_body), *body(node.else_body),
                )
            elif isinstance(node, LoopNode):
                behaviors.append(node.behavior)
                table.extend(((node.pc, True, True, 0), (node.pc, False, True, 0)))
                record = (
                    _LOOP, len(behaviors) - 1, code, code + 1, 0, *body(node.body), 0, 0,
                )
            elif isinstance(node, CallNode):
                table.append((node.pc, True, False, node.callee.base_address))
                record = (_CALL, procedure(node.callee), code, 0, 0, 0, 0, 0, 0)
            else:
                raise TypeError(f"unknown CFG node {node!r}")
            fields[_NODE_FIELDS * index:_NODE_FIELDS * (index + 1)] = record
        return first, first + len(children)

    def procedure(callee: Procedure) -> int:
        number = numbering.get(id(callee))
        if number is None:
            number = numbering[id(callee)] = len(procedures)
            procedures.append(None)
            first, last = body(callee.body)
            table.append((callee.return_pc, True, False, 0))
            procedures[number] = [first, last, len(table) - 1]
        return number

    procedure(program.main)
    pcs, takens, conditionals, targets = zip(*table)
    return _Compiled(
        np.array(pcs, dtype=np.uint64),
        np.array(takens, dtype=np.uint8),
        np.array(conditionals, dtype=np.uint8),
        np.array(targets, dtype=np.uint64),
        np.array(fields, dtype=np.int32).reshape(-1, _NODE_FIELDS),
        np.array(procedures, dtype=np.int32),
        behaviors,
        *_parameters(behaviors),
    )


def _parameters(behaviors: List[BranchBehavior]) -> tuple:
    """The C runner's ``(kinds, ints, floats, blob)`` for ``behaviors``."""
    kinds: List[int] = []
    ints: List[int] = []  # two per slot, flat
    floats: List[float] = []  # two per slot, flat
    blob = bytearray()
    for behavior in behaviors:
        kind = _BEHAVIOR_KINDS.get(type(behavior), _CUSTOM)
        kinds.append(kind)
        if kind == _BIASED:
            ints += (0, 0)
            floats += (behavior.p_taken, 0.0)
        elif kind == _LOOPING:
            ints += (behavior.trip_count, behavior.jitter)
            floats += (0.0, 0.0)
        elif kind == _PATTERN:
            ints += (len(blob), len(behavior.pattern))
            floats += (0.0, 0.0)
            blob += bytes(behavior.pattern)
        elif kind == _CORRELATED:
            # The history is 16 bits, so wider tables are never read
            # past their first 1 << 16 outcomes.
            mask = (1 << behavior.history_bits) - 1 & _HISTORY_MASK
            ints += (len(blob), mask)
            floats += (behavior.noise, 0.0)
            blob += bytes(behavior.truth_table[: mask + 1])
        elif kind == _MARKOV:
            ints += (behavior.start_taken, 0)
            floats += (behavior.p_stay_taken, behavior.p_stay_not_taken)
        else:
            ints += (0, 0)
            floats += (0.0, 0.0)
    return (
        np.array(kinds, dtype=np.int32),
        np.array(ints, dtype=np.int64).reshape(-1, 2),
        np.array(floats, dtype=np.float64).reshape(-1, 2),
        np.frombuffer(bytes(blob), dtype=np.uint8),
    )


def _nesting(nodes: np.ndarray, procedures: np.ndarray) -> int:
    """Levels of bodies nested inside the deepest procedure body.

    A node's level is 0, or 1 + the deepest level in its then- or
    else-body (a call's callee does not count: it runs at most
    ``_MAX_CALL_DEPTH`` deep).  The passes below raise every node to its
    level one step at a time, so they settle after as many passes as the
    nesting is deep; ranges that contain their own node never settle,
    and are refused with any nesting past ``_MAX_NESTING``.  Takes
    ranges already checked to lie in ``[0, len(nodes)]``.
    """
    bodies = (nodes[:, 0] != _CALL)[:, None] & (nodes[:, [5, 7]] < nodes[:, [6, 8]])
    owners, arms = np.nonzero(bodies)
    bounds = np.stack([nodes[owners, 5 + 2 * arms], nodes[owners, 6 + 2 * arms]], 1)
    # One spare entry, so every range's end is an index reduceat takes.
    levels = np.zeros(len(nodes) + 1, dtype=np.int64)
    for _ in range(_MAX_NESTING + 1):
        raised = np.zeros_like(levels)
        if len(owners):
            np.maximum.at(raised, owners, _range_max(levels, bounds) + 1)
        if np.array_equal(raised, levels):
            break
        levels = raised
    else:
        raise ValueError(f"bodies nest deeper than {_MAX_NESTING} levels")
    called = procedures[procedures[:, 0] < procedures[:, 1], :2]
    return int(_range_max(levels, called).max(initial=0))


def _range_max(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The maximum of ``values[first:last]`` for each non-empty
    ``(first, last)`` row of ``bounds``; ``last < len(values)``."""
    if not len(bounds):
        return np.zeros(0, dtype=values.dtype)
    # Over the interleaved bounds, reduceat's even entries are the ranges.
    return np.maximum.reduceat(values, bounds.ravel())[::2]


def _check_program(compiled: _Compiled, mt_state: Sequence[int]) -> None:
    """Refuse arrays the C runner would read past or recurse too deep on.

    ``mt_state`` is ``random.Random(seed).getstate()[1]``: the twister's
    624 words and its position.  Made before the call, as
    :func:`repro.sim.vectorized._check_walk` is for the walks; past it,
    every id, range and offset the runner follows is in bounds.

    Raises:
        ValueError: on arrays of the wrong shape or event table columns
            of unequal length; a node kind, behaviour
            slot, procedure number, code or body range out of range; a
            behaviour with no C form; a trip count below 1, a negative
            jitter or a trip range past ``_MAX_TRIPS``; an empty
            pattern or a pattern or truth table past the end of the
            blob; a Markov start state other than 0 or 1; a malformed
            twister state; or bodies that can nest more than
            ``_MAX_NESTING`` levels deep.
    """
    nodes, procedures = compiled.nodes, compiled.procedures
    kinds, ints, blob = compiled.kinds, compiled.ints, compiled.blob
    slots, rows = len(kinds), len(compiled.pcs)
    columns = (compiled.takens, compiled.conditionals, compiled.targets)
    if any(len(column) != rows for column in columns):
        raise ValueError("event table columns differ in length")
    if nodes.ndim != 2 or nodes.shape[1] != _NODE_FIELDS:
        raise ValueError(f"node records must be {_NODE_FIELDS} fields wide")
    if procedures.ndim != 2 or procedures.shape[1] != 3 or not len(procedures):
        raise ValueError("procedures must be (first, last, return code) rows")
    if kinds.ndim != 1 or ints.shape != (slots, 2) or compiled.floats.shape != (slots, 2):
        raise ValueError("behaviour arrays differ in length")
    if len(mt_state) != 625 or not 0 <= mt_state[-1] <= 624:
        raise ValueError("twister state must be 624 words and a position")
    if min(mt_state[:-1]) < 0 or max(mt_state[:-1]) >= 1 << 32:
        raise ValueError("twister words must fit 32 bits")

    node_kinds, slot = nodes[:, 0], nodes[:, 1]
    outcome = node_kinds != _CALL  # a branch or loop: draws an outcome
    if ((node_kinds < _BRANCH) | (node_kinds > _CALL)).any():
        raise ValueError("unknown node kind")
    if ((slot < 0) | (slot >= np.where(outcome, slots, len(procedures)))).any():
        raise ValueError("behaviour slot or procedure number out of range")
    codes = np.concatenate([
        nodes[:, 2], nodes[outcome, 3], nodes[node_kinds == _BRANCH, 4],
        procedures[:, 2],
    ])
    if ((codes < 0) | (codes >= rows)).any():
        raise ValueError("event code out of range")
    ranges = np.concatenate([nodes[:, 5:7], nodes[:, 7:9], procedures[:, :2]])
    if ((ranges[:, 0] < 0) | (ranges[:, 0] > ranges[:, 1])
            | (ranges[:, 1] > len(nodes))).any():
        raise ValueError("body range out of range")

    if ((kinds < _BIASED) | (kinds > _MARKOV)).any():
        raise ValueError("behaviour with no C form")
    first, second = ints[:, 0], ints[:, 1]
    loop = kinds == _LOOPING
    if ((first[loop] < 1) | (second[loop] < 0)
            | (second[loop] >= _MAX_TRIPS - first[loop])).any():
        raise ValueError("loop trip count or jitter out of range")
    pattern = kinds == _PATTERN
    correlated = kinds == _CORRELATED
    if (second[pattern] < 1).any():
        raise ValueError("empty pattern")
    if ((second[correlated] < 0) | (second[correlated] > _HISTORY_MASK)).any():
        raise ValueError("truth table mask out of range")
    span = np.where(pattern, second, second + 1)
    read = pattern | correlated
    if ((first[read] < 0) | (first[read] > len(blob) - span[read])).any():
        raise ValueError("pattern or truth table past the end of the blob")
    if ((first[kinds == _MARKOV] < 0) | (first[kinds == _MARKOV] > 1)).any():
        raise ValueError("Markov start state must be 0 or 1")

    if _MAX_CALL_DEPTH + _nesting(nodes, procedures) > _MAX_NESTING:
        raise ValueError(f"bodies nest deeper than {_MAX_NESTING} levels")


def _run_python(compiled: _Compiled, seed: int, demand: int) -> np.ndarray:
    """The Python runner: the first ``demand`` codes of the program.

    Each slot's behaviour is cloned, so its state starts fresh and runs
    over one :class:`Program` stay independent; a custom behaviour runs
    here as well as the five the C runner implements.
    """
    outcomes = [behavior.clone().next_outcome for behavior in compiled.behaviors]
    fields = compiled.nodes.tolist()
    procedures = compiled.procedures.tolist()
    # Link the records once: each holds its behaviour's bound
    # ``next_outcome`` and its bodies as tuples of records, a call its
    # callee's body and return code, so a visit follows references
    # instead of indexing the arrays.
    records: List[list] = [[] for _ in fields]

    def body(first: int, last: int) -> tuple:
        return tuple(records[first:last])

    for record, (kind, slot, code, not_taken, join, first, last, else_first,
                 else_last) in zip(records, fields):
        if kind == _CALL:
            callee_first, callee_last, return_code = procedures[slot]
            record += [kind, None, code, 0, return_code,
                       body(callee_first, callee_last), ()]
        else:
            record += [kind, outcomes[slot], code, not_taken, join,
                       body(first, last), body(else_first, else_last)]
    codes: List[int] = []
    append = codes.append
    rng = random.Random(seed)

    def run(body_records: tuple, depth: int, history: int) -> int:
        for kind, next_outcome, code, not_taken, join, then, orelse in body_records:
            if kind == _BRANCH:
                taken = next_outcome(rng, history)
                history = ((history << 1) | taken) & _HISTORY_MASK
                if taken:
                    append(code)
                    if then:
                        history = run(then, depth + 1, history)
                    append(join)  # jump over the else path
                else:
                    append(not_taken)
                    if orelse:
                        history = run(orelse, depth + 1, history)
            elif kind == _LOOP:
                while True:
                    if then:
                        history = run(then, depth + 1, history)
                    taken = next_outcome(rng, history)
                    history = ((history << 1) | taken) & _HISTORY_MASK
                    if not taken:
                        append(not_taken)
                        break
                    append(code)
                    if len(codes) >= demand:
                        raise _DemandMet
            elif depth < _MAX_CALL_DEPTH:
                append(code)
                history = run(then, depth + 1, history)
                append(join)  # the return
                if len(codes) >= demand:
                    raise _DemandMet
        return history

    first, last, return_code = procedures[0]
    main = body(first, last)
    history = 0
    try:
        while len(codes) < demand:
            history = run(main, 0, history)
            append(return_code)
    except _DemandMet:
        pass
    del codes[demand:]
    return np.array(codes, dtype=np.int32)


def compile_program(config: ProgramConfig, seed: int) -> _Compiled:
    """The compiled form of the program ``config`` and ``seed`` build:
    ``_compile(build_program(config, seed))``, element for element.

    The C builder (``repro_build_program``) makes it when the native
    backend built, the mix is exactly a :class:`BehaviorMix` (a
    subclass may draw differently) and the config is in the kernel's
    domain (:func:`_kernel_arguments`); the Python builder does
    otherwise.
    """
    from repro.sim import native

    if type(config.mix) is BehaviorMix and native.native_available():
        arguments = _kernel_arguments(config)
        if arguments is not None:
            state = random.Random(seed).getstate()[1]
            compiled = native.build_program_native(arguments, state)
            if compiled is not None:
                return compiled
    return _compile(build_program(config, seed))


def run_compiled(compiled: _Compiled, seed: int, demand: int) -> np.ndarray:
    """The first ``demand`` codes of a compiled program, run from its
    start with the behaviours drawing from ``random.Random(seed)``; an
    int32 array.

    The top-level procedure re-runs forever, so any demand is met.  The
    run keeps a *local* path history (outcomes of this program's own
    recent conditional branches, 16 bits) that feeds the
    history-correlated behaviour models: data correlation is a program
    property and must not see other processes' branches, even though the
    *predictor's* global register does.  A (program, seed) pair always
    emits the same stream, and a shorter demand emits a prefix of a
    longer one.

    The C runner (``repro_run_program``) runs the program when the
    native backend built and every behaviour is one of the five classes
    in :mod:`~repro.traces.synthetic.behavior`; otherwise the Python
    runner does.  Both emit the same codes.
    """
    from repro.sim import native

    if demand <= 0:
        return np.zeros(0, dtype=np.int32)
    if compiled.native and native.native_available():
        state = random.Random(seed).getstate()[1]
        return native.run_program_native(compiled, state, demand)
    return _run_python(compiled, seed, demand)


def run_program(
    program: Program, seed: int, demand: int
) -> Tuple[List[Event], np.ndarray]:
    """Execute ``program`` from its start until it has emitted ``demand``
    events.

    Returns ``(table, codes)``: ``codes`` is :func:`run_compiled`'s
    int32 array and ``codes[i]`` the row of ``table`` that holds event
    ``i``, ``(pc, taken, conditional, target)``.
    """
    compiled = _compile(program)
    return compiled.table, run_compiled(compiled, seed, demand)
