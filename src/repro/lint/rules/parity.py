"""R004 — engine parity: fast-path entry points carry equivalence tests.

``sim/vectorized.py``, ``sim/native.py`` and ``aliasing/vectorized.py``
re-implement the reference engines in closed form; their correctness
argument *is* the equivalence suite (bit-identical results on shared
inputs).  A public function added to any of them without a test
referencing it is an unverified fast path — precisely the hole this
rule closes.

"Referenced" is a whole-word textual match anywhere under ``tests/``:
coarse, but exactly the bar the equivalence suites already clear, and
immune to how the test imports the symbol.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.engine import FileContext, ProjectContext, Rule, Violation

__all__ = ["EngineParityRule", "public_functions"]

_TARGETS = (
    "sim/vectorized.py",
    "sim/native.py",
    "aliasing/vectorized.py",
)


def public_functions(tree: ast.Module) -> List[ast.FunctionDef]:
    """Module-level public functions (``__all__``-aware)."""
    exported = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                exported = {
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                }
    functions = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    if exported is not None:
        functions = [fn for fn in functions if fn.name in exported]
    return functions


class EngineParityRule(Rule):
    """R004: vectorized entry points need equivalence-test references."""

    rule_id = "R004"
    name = "engine-parity"
    description = (
        "public functions of the fast engines must be referenced "
        "by an equivalence test under tests/"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.rel_path.endswith(_TARGETS)

    def check_file(
        self, ctx: FileContext, project: ProjectContext
    ) -> Iterator[Violation]:
        for fn in public_functions(ctx.tree):
            if not project.tests_reference(fn.name):
                yield self.violation(
                    ctx,
                    fn,
                    fn.name,
                    f"fast-path entry point '{fn.name}' has no test "
                    "referencing it; add an equivalence test against the "
                    "reference engine",
                )
