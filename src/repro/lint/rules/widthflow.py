"""R007 — width flow: packed words must provably fit their dtype.

Fast engines are tempted by one trick: several logical fields (bank
id, table key, event position, outcome bit) packed into a single
unsigned machine word so sorting the words groups the events.  The two
width bugs this project has actually shipped were both of the shape
"symbolic field arithmetic flows into a fixed-width container and
nothing proves it fits": the gshare ``index_bits=0`` collapse folded a
full-width history into an index, and the unmasked-history fold shifted
a history register past its container.  Whenever such a word's fields
scale with the predictor geometry, the geometry decides whether it
fits, and some comparison has to say so.

This rule runs the dtype/bit-width dataflow
(:mod:`repro.lint.dataflow`) over every function and inspects each
**narrowing site** — a scalar cast (``np.uint64(e)``), ``astype`` /
``view``, or a ufunc with ``out=`` into a typed array.  A site is
suspicious when its value involves a shift by a *symbolic* amount (a
variable, not a literal): that is field packing, and its width is a
geometry decision.  Then:

- if the inferred width bound **provably fits** the target's value
  bits, the site is fine;
- if the constant part alone **exceeds** the target, that is a
  definite overflow and always flagged;
- otherwise the width is parameter-dependent and the site needs a
  **runtime width guard**: a comparison against the target capacity
  (``... <= 64`` for uint64, ``<= 32``/``< 32`` for uint32, …)
  somewhere in the same function or within three call-graph hops
  (:meth:`repro.lint.index.ProjectIndex.neighborhood` — this is how
  a ``supports``-style gate comparing ``index_bits + shift <= 64`` in
  the dispatcher can cover a packing helper three calls away).

Mask-construction idioms (``(1 << k) - 1``, ``& mask``, ``~x``,
``% size``) are exempt: a mask is bounded by intent, and truncating
through one is how hashing is *supposed* to work.

Suppress a deliberate exception with ``# repro-lint: disable=R007``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from repro.lint.engine import FileContext, ProjectContext, Rule, Violation
from repro.lint.dataflow import (
    DTYPE_VALUE_BITS,
    CastSite,
    FunctionDataflow,
    numpy_aliases,
)
from repro.lint.rules._ast_util import dotted_name, import_aliases, walk_functions

__all__ = ["WidthFlowRule"]

#: ufunc leaves that combine operands into a packed word
_PACKING_UFUNCS = {"left_shift", "bitwise_or", "bitwise_xor", "add",
                   "subtract", "multiply"}


def _is_int_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, int)


def _strip_casts(node: ast.expr) -> ast.expr:
    """Peel ``np.uint32(x)``-style wrappers off a shift amount."""
    while isinstance(node, ast.Call) and len(node.args) == 1:
        node = node.args[0]
    return node


def _symbolic_shift_in(node: Optional[ast.expr]) -> bool:
    """Does the expression shift by an amount that is not a literal?"""
    if node is None:
        return False
    for sub in ast.walk(node):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.LShift):
            if not _is_int_constant(_strip_casts(sub.right)):
                return True
        if isinstance(sub, ast.Call):
            name = dotted_name(sub.func) or ""
            if name.split(".")[-1] == "left_shift" and len(sub.args) >= 2:
                if not _is_int_constant(_strip_casts(sub.args[1])):
                    return True
    return False


def _is_mask_shape(node: Optional[ast.expr]) -> bool:
    """Mask-construction / truncation idioms, bounded by intent.

    ``(1 << k) - c``, ``x & y``, ``x % y``, ``~x`` and bare constants
    all describe masks or masked values — narrowing them is the point.
    """
    if node is None:
        return False
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
        return True
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, (ast.BitAnd, ast.Mod)):
            return True
        if isinstance(node.op, ast.Sub):
            left = node.left
            if (
                isinstance(left, ast.BinOp)
                and isinstance(left.op, ast.LShift)
                and _is_int_constant(left.left)
            ):
                return True
    return False


def _guard_constants(capacity: int) -> Set[int]:
    """Literals whose appearance in a comparison counts as a guard."""
    return {capacity, capacity - 1, capacity + 1}


def _has_width_guard(fn: ast.AST, capacity: int) -> bool:
    """A comparison against the capacity anywhere in the function."""
    accepted = _guard_constants(capacity)
    for node in ast.walk(fn):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if any(
            _is_int_constant(op) and op.value in accepted for op in operands
        ):
            return True
    return False


class WidthFlowRule(Rule):
    """R007: symbolic packed-width expressions need a proof or a guard."""

    rule_id = "R007"
    name = "width-flow"
    description = (
        "an expression packing fields with symbolic shifts must provably "
        "fit its target dtype, carry a runtime width guard (a comparison "
        "against the capacity within three call-graph hops), or mask its "
        "inputs"
    )
    #: call-graph radius searched for a width guard
    GUARD_DEPTH = 3

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.rel_path.startswith("tests/")

    def check_file(
        self, ctx: FileContext, project: ProjectContext
    ) -> Iterator[Violation]:
        index = project.index()
        info = index.module_for_path(ctx.rel_path)
        imports = info.imports if info else import_aliases(ctx.tree)
        module = info.name if info else None
        for qualname, fn in walk_functions(ctx.tree):
            flow = FunctionDataflow(fn, imports=imports)
            for site in flow.cast_sites:
                yield from self._check_site(
                    ctx, index, module, qualname, fn, site
                )

    # -- per-site logic -------------------------------------------------

    def _check_site(
        self,
        ctx: FileContext,
        index,
        module: Optional[str],
        qualname: str,
        fn: ast.FunctionDef,
        site: CastSite,
    ) -> Iterator[Violation]:
        capacity = DTYPE_VALUE_BITS.get(site.dtype)
        if capacity is None:
            return
        if site.kind == "ufunc":
            name = (dotted_name(site.node.func) or "").split(".")[-1]
            if name not in _PACKING_UFUNCS:
                return
            if not _symbolic_shift_in(site.source):
                return
        else:
            if not _symbolic_shift_in(site.source):
                return
            if _is_mask_shape(site.source):
                return
        verdict = site.pre_width.fits(capacity)
        if verdict is True:
            return
        if verdict is False:
            yield self.violation(
                ctx,
                site.node,
                qualname,
                f"packed expression needs {site.pre_width.describe()} bits "
                f"but flows into {site.dtype} ({capacity} value bits): "
                "definite overflow",
            )
            return
        if self._guarded(index, module, qualname, fn, capacity):
            return
        yield self.violation(
            ctx,
            site.node,
            qualname,
            f"packed expression may need {site.pre_width.describe()} bits "
            f"but flows into {site.dtype} ({capacity} value bits) with no "
            f"width guard in reach; compare the field widths against "
            f"{capacity} before taking this path (in the function or a "
            "supports()-style gate within three calls) or mask the inputs",
        )

    def _guarded(
        self,
        index,
        module: Optional[str],
        qualname: str,
        fn: ast.FunctionDef,
        capacity: int,
    ) -> bool:
        if _has_width_guard(fn, capacity):
            return True
        if index is None or module is None:
            return False
        for mod, name in index.neighborhood(
            module, qualname, depth=self.GUARD_DEPTH
        ):
            info = index.module(mod)
            if info is None or not name:
                continue
            neighbor = info.functions.get(name)
            if neighbor is not None and _has_width_guard(neighbor, capacity):
                return True
        return False
