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

Execution is compiled: :func:`run_program` turns the program into a
static table of the events it can emit plus tuple trees over it, then
walks the trees by plain recursion, appending one table index per event
until the caller's demand is met.  The scheduler knows each source's
total demand before any source runs, so every program runs once, in one
piece.

Event conventions (matching the paper's trace methodology):

- conditional branches are predicted and shift global history;
- unconditional transfers (calls, returns, else-joins) are *not*
  predicted but do shift global history;
- all PCs are 4-byte aligned within a per-program text segment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.traces.synthetic.behavior import BehaviorMix, BranchBehavior, LoopBehavior

__all__ = [
    "BranchNode",
    "LoopNode",
    "CallNode",
    "Procedure",
    "Program",
    "ProgramConfig",
    "build_program",
    "ProgramExecutor",
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
        count = max(1, config.procedures)
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
    """Build a deterministic random program from ``config`` and ``seed``."""
    return _Builder(config, random.Random(seed)).build()


# Node kinds of a compiled body tree (see ``_compile``).
_BRANCH, _LOOP, _CALL = 0, 1, 2

#: Calls nested this deep are skipped (the builder's call graph is a DAG,
#: so this only guards hand-built recursive programs).
_MAX_CALL_DEPTH = 24


class _DemandMet(Exception):
    """Unwinds :func:`run_program` once the source has emitted its demand."""


def _compile(program: Program) -> Tuple[List[Event], list]:
    """Compile ``program`` into a static event table and tuple trees.

    Every event the program can emit is one row of the table, and the
    runner emits row indices ("codes").  A compiled body is a tuple of
    nodes:

    - ``(_BRANCH, outcome, taken_code, not_taken_code, then, else, join_code)``
    - ``(_LOOP, outcome, taken_code, not_taken_code, body)``
    - ``(_CALL, call_code, callee)``, ``callee`` being a procedure entry

    A procedure entry is ``[body, return_code]``, compiled once per
    procedure and shared by its call sites (a list, so a recursive call
    can point at its own, still-compiling entry).  So each static node is
    compiled once, and ``outcome``, the bound ``next_outcome`` of a fresh
    clone of its behaviour, gives stateful behaviours (loops, patterns,
    Markov chains) one state per branch, however many sites reach it,
    while runs over one :class:`Program` stay independent.  Returns
    ``(table, main entry)``.
    """
    table: List[Event] = []
    entries: dict = {}

    def row(event: Event) -> int:
        table.append(event)
        return len(table) - 1

    def body(nodes: List[object]) -> tuple:
        compiled = []
        for node in nodes:
            if isinstance(node, BranchNode):
                compiled.append((
                    _BRANCH,
                    node.behavior.clone().next_outcome,
                    row((node.pc, True, True, 0)),
                    row((node.pc, False, True, 0)),
                    body(node.then_body),
                    body(node.else_body),
                    row((node.join_pc, True, False, 0)),
                ))
            elif isinstance(node, LoopNode):
                compiled.append((
                    _LOOP,
                    node.behavior.clone().next_outcome,
                    row((node.pc, True, True, 0)),
                    row((node.pc, False, True, 0)),
                    body(node.body),
                ))
            elif isinstance(node, CallNode):
                compiled.append((
                    _CALL,
                    row((node.pc, True, False, node.callee.base_address)),
                    entry(node.callee),
                ))
            else:
                raise TypeError(f"unknown CFG node {node!r}")
        return tuple(compiled)

    def entry(procedure: Procedure) -> list:
        compiled = entries.get(id(procedure))
        if compiled is None:
            compiled = entries[id(procedure)] = [(), 0]
            compiled[0] = body(procedure.body)
            compiled[1] = row((procedure.return_pc, True, False, 0))
        return compiled

    main = entry(program.main)
    return table, main


def run_program(
    program: Program, seed: int, demand: int
) -> Tuple[List[Event], List[int]]:
    """Execute ``program`` from its start until it has emitted ``demand``
    events.

    The top-level procedure re-runs forever, so any demand is met.
    Returns ``(table, codes)``: ``codes[i]`` is the row of ``table`` that
    holds event ``i``, ``(pc, taken, conditional, target)``.

    The run keeps a *local* path history (outcomes of this program's own
    recent conditional branches, 16 bits) that feeds the
    history-correlated behaviour models: data correlation is a program
    property and must not see other processes' branches, even though the
    *predictor's* global register does.  ``seed`` seeds the one RNG the
    behaviours draw from, so a (program, seed) pair always emits the same
    stream, and a shorter demand emits a prefix of a longer one.
    """
    table, main = _compile(program)
    codes: List[int] = []
    if demand <= 0:
        return table, codes
    append = codes.append
    rng = random.Random(seed)

    def run(nodes: tuple, depth: int, history: int) -> int:
        for node in nodes:
            kind = node[0]
            if kind == _BRANCH:
                taken = node[1](rng, history)
                history = ((history << 1) | taken) & 0xFFFF
                if taken:
                    append(node[2])
                    if node[4]:
                        history = run(node[4], depth + 1, history)
                    append(node[6])  # jump over the else path
                else:
                    append(node[3])
                    if node[5]:
                        history = run(node[5], depth + 1, history)
            elif kind == _LOOP:
                next_outcome, taken_code, inner = node[1], node[2], node[4]
                while True:
                    if inner:
                        history = run(inner, depth + 1, history)
                    taken = next_outcome(rng, history)
                    history = ((history << 1) | taken) & 0xFFFF
                    if not taken:
                        append(node[3])
                        break
                    append(taken_code)
                    if len(codes) >= demand:
                        raise _DemandMet
            elif depth < _MAX_CALL_DEPTH:
                callee = node[2]
                append(node[1])
                history = run(callee[0], depth + 1, history)
                append(callee[1])
                if len(codes) >= demand:
                    raise _DemandMet
        return history

    history = 0
    try:
        while len(codes) < demand:
            history = run(main[0], 0, history)
            append(main[1])
    except _DemandMet:
        pass
    del codes[demand:]
    return table, codes


class ProgramExecutor:
    """A program's unbounded event stream, consumed in order.

    A thin wrapper over :func:`run_program` for callers that pull the
    stream piecemeal: each :meth:`take` that outruns what has been
    produced re-runs the program from its start to at least twice the
    old length, so the total cost stays linear in the events taken.
    """

    def __init__(self, program: Program, seed: int):
        self.program = program
        self.seed = seed
        self._table: List[Event] = []
        self._codes: List[int] = []
        self._position = 0

    def take(self, count: int) -> List[Event]:
        """Next ``count`` events (the scheduler's quantum primitive)."""
        end = self._position + count
        if end > len(self._codes):
            self._table, self._codes = run_program(
                self.program, self.seed, max(end, 2 * len(self._codes))
            )
        table = self._table
        events = [table[code] for code in self._codes[self._position:end]]
        self._position = end
        return events
