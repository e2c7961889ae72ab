"""Intraprocedural numpy-dtype inference over one function body.

R008 checks that every ``ffi.from_buffer("T[]", arr)`` hands the C
kernel an array whose element type matches ``T``.  That needs one
abstract fact per expression: its **numpy dtype** (``uint8`` …
``uint64``, ``int*``, ``pyint`` for Python's unbounded ints, ``bool``,
``float``, or ``unknown``).

:class:`FunctionDataflow` runs a forward pass over one function body:
assignments update an environment, ``if`` joins both branches, and loop
bodies run twice so a dtype bound late in the body reaches reads near
its top.  Every expression visited is memoised (:meth:`value_of`), so
a rule can ask for the dtype at an arbitrary AST node after one run,
and :attr:`FunctionDataflow.definitions` records every expression ever
assigned to each name.

The transfer functions understand the numpy idioms this codebase builds
buffers with: scalar constructors (``np.uint64(e)``), ``astype``/
``view``, ufunc calls with ``out=`` (``np.left_shift(a, s,
out=dst)``), array constructors with ``dtype=``, and ``concatenate``
over typed parts.  Anything else becomes ``unknown``, which R008 treats
as "no claim to check", never as a mismatch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.lint.rules._ast_util import dotted_name

__all__ = [
    "AbstractValue",
    "FunctionDataflow",
    "dtype_from_name",
    "numpy_aliases",
]

#: numpy dtype names the lattice tracks (``pyint``/``unknown`` are not
#: numpy dtypes and never come from a ``np.<name>`` spelling).
_NUMPY_DTYPES = frozenset(
    {
        "bool",
        "uint8",
        "uint16",
        "uint32",
        "uint64",
        "int8",
        "int16",
        "int32",
        "int64",
        "intp",
        "uintp",
        "float",
    }
)
_UNSIGNED_ORDER = ("bool", "uint8", "uint16", "uint32", "uint64")
_SIGNED_ORDER = ("int8", "int16", "int32", "int64")

#: ufuncs whose ``out=`` keyword fixes the result dtype.
_UFUNCS = {
    "left_shift",
    "right_shift",
    "bitwise_or",
    "bitwise_and",
    "bitwise_xor",
    "add",
    "subtract",
    "multiply",
}

_ARRAY_CTORS = {
    "empty", "zeros", "ones", "full", "arange", "asarray", "array",
    "frombuffer", "fromiter", "empty_like", "zeros_like", "ones_like",
}

_CONCAT_FNS = {"concatenate", "stack", "hstack", "vstack"}


def numpy_aliases(imports: Mapping[str, str]) -> Set[str]:
    """Local names bound to the numpy module (``np``, ``numpy`` …)."""
    return {alias for alias, target in imports.items() if target == "numpy"}


@dataclass(frozen=True)
class AbstractValue:
    """One lattice element: the numpy dtype an expression evaluates to."""

    dtype: str = "unknown"

    @staticmethod
    def top() -> "AbstractValue":
        return AbstractValue()

    def join(self, other: "AbstractValue") -> "AbstractValue":
        """Least upper bound of the two dtypes."""
        return AbstractValue(_join_dtype(self.dtype, other.dtype))


def _join_dtype(a: str, b: str) -> str:
    if a == b:
        return a
    if "unknown" in (a, b):
        return "unknown"
    if "pyint" in (a, b):
        other = b if a == "pyint" else a
        return other if other in _NUMPY_DTYPES else "unknown"
    if a in _UNSIGNED_ORDER and b in _UNSIGNED_ORDER:
        return max(a, b, key=_UNSIGNED_ORDER.index)
    if a in _SIGNED_ORDER and b in _SIGNED_ORDER:
        return max(a, b, key=_SIGNED_ORDER.index)
    return "unknown"


def _join_all(values: Sequence[AbstractValue]) -> AbstractValue:
    if not values:
        return AbstractValue.top()
    joined = values[0]
    for value in values[1:]:
        joined = joined.join(value)
    return joined


def dtype_from_name(
    name: Optional[str], np_aliases: Set[str], imports: Mapping[str, str]
) -> Optional[str]:
    """``np.uint64`` / bare imported ``uint64`` -> canonical dtype name."""
    if not name:
        return None
    head, _, rest = name.partition(".")
    if head in np_aliases and rest in _NUMPY_DTYPES:
        return rest
    target = imports.get(name)
    if target and target.startswith("numpy."):
        leaf = target.split(".")[-1]
        if leaf in _NUMPY_DTYPES:
            return leaf
    if name in ("float", "float32", "float64"):
        return "float"
    return None


class FunctionDataflow:
    """Forward abstract interpretation of one function body."""

    def __init__(
        self,
        fn: ast.FunctionDef,
        imports: Optional[Mapping[str, str]] = None,
        param_dtypes: Optional[Mapping[str, str]] = None,
    ):
        self.fn = fn
        self.imports: Mapping[str, str] = imports or {}
        self.np_aliases = numpy_aliases(self.imports)
        self._values: Dict[int, AbstractValue] = {}
        #: name -> every expression node ever assigned to it
        self.definitions: Dict[str, List[ast.expr]] = {}
        env: Dict[str, AbstractValue] = {}
        for arg in list(fn.args.posonlyargs) + list(fn.args.args) + list(
            fn.args.kwonlyargs
        ):
            env[arg.arg] = AbstractValue((param_dtypes or {}).get(arg.arg, "unknown"))
        self.env = self._run_block(fn.body, env)

    # -- public API ----------------------------------------------------

    def value_of(self, node: ast.expr) -> AbstractValue:
        """Abstract value memoised for ``node`` (TOP if never visited)."""
        return self._values.get(id(node), AbstractValue.top())

    # -- statement transfer --------------------------------------------

    def _run_block(
        self, body: Sequence[ast.stmt], env: Dict[str, AbstractValue]
    ) -> Dict[str, AbstractValue]:
        for stmt in body:
            env = self._run_stmt(stmt, env)
        return env

    def _run_stmt(
        self, stmt: ast.stmt, env: Dict[str, AbstractValue]
    ) -> Dict[str, AbstractValue]:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                env = self._bind(target, stmt.value, value, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value = self._eval(stmt.value, env)
            env = self._bind(stmt.target, stmt.value, value, env)
        elif isinstance(stmt, ast.AugAssign):
            synthetic = ast.BinOp(
                left=stmt.target, op=stmt.op, right=stmt.value
            )
            ast.copy_location(synthetic, stmt)
            value = self._eval(synthetic, env)
            env = self._bind(stmt.target, stmt.value, value, env)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            then_env = self._run_block(stmt.body, dict(env))
            else_env = self._run_block(stmt.orelse, dict(env))
            env = self._join_env(then_env, else_env)
        elif isinstance(stmt, (ast.For, ast.While)):
            if isinstance(stmt, ast.For):
                iterable = self._eval(stmt.iter, env)
                env = self._bind(stmt.target, stmt.iter, iterable, env)
            else:
                self._eval(stmt.test, env)
            once = self._run_block(stmt.body, dict(env))
            twice = self._run_block(stmt.body, dict(once))
            env = self._join_env(self._run_block(stmt.orelse, dict(env)), twice)
        elif isinstance(stmt, (ast.With,)):
            for item in stmt.items:
                self._eval(item.context_expr, env)
            env = self._run_block(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            body_env = self._run_block(stmt.body, dict(env))
            env = body_env
            for handler in stmt.handlers:
                env = self._join_env(
                    env, self._run_block(handler.body, dict(body_env))
                )
            env = self._run_block(stmt.orelse, env)
            env = self._run_block(stmt.finalbody, env)
        elif isinstance(stmt, (ast.Assert,)):
            self._eval(stmt.test, env)
        return env

    def _bind(
        self,
        target: ast.expr,
        source: ast.expr,
        value: AbstractValue,
        env: Dict[str, AbstractValue],
    ) -> Dict[str, AbstractValue]:
        if isinstance(target, ast.Name):
            self.definitions.setdefault(target.id, []).append(source)
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                env = self._bind(element, source, AbstractValue.top(), env)
        # subscript/attribute targets mutate containers in place: the
        # container keeps its dtype, nothing to rebind.
        return env

    @staticmethod
    def _join_env(
        a: Dict[str, AbstractValue], b: Dict[str, AbstractValue]
    ) -> Dict[str, AbstractValue]:
        joined: Dict[str, AbstractValue] = {}
        for name in set(a) | set(b):
            left, right = a.get(name), b.get(name)
            if left is None or right is None:
                joined[name] = (left or right).join(AbstractValue.top())
            else:
                joined[name] = left.join(right)
        return joined

    # -- expression transfer -------------------------------------------

    def _eval(
        self, node: ast.expr, env: Dict[str, AbstractValue]
    ) -> AbstractValue:
        value = self._eval_inner(node, env)
        self._values[id(node)] = value
        return value

    def _eval_inner(
        self, node: ast.expr, env: Dict[str, AbstractValue]
    ) -> AbstractValue:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return AbstractValue("bool")
            if isinstance(node.value, int):
                return AbstractValue("pyint")
            if isinstance(node.value, float):
                return AbstractValue("float")
            return AbstractValue.top()
        if isinstance(node, ast.Name):
            return env.get(node.id, AbstractValue.top())
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            return left.join(self._eval(node.right, env))
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Attribute):
            self._eval(node.value, env)
            return AbstractValue.top()
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value, env)
            self._eval(node.slice, env)
            # indexing/slicing a typed array preserves its dtype
            return base
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            return self._eval(node.body, env).join(self._eval(node.orelse, env))
        if isinstance(node, ast.Compare):
            self._eval(node.left, env)
            for comparator in node.comparators:
                self._eval(comparator, env)
            return AbstractValue("bool")
        if isinstance(node, ast.BoolOp):
            for inner in node.values:
                self._eval(inner, env)
            return AbstractValue.top()
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self._eval(element, env)
            return AbstractValue.top()
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            inner = dict(env)
            for generator in node.generators:
                self._eval(generator.iter, inner)
                for target in ast.walk(generator.target):
                    if isinstance(target, ast.Name):
                        inner[target.id] = AbstractValue.top()
                for condition in generator.ifs:
                    self._eval(condition, inner)
            self._eval(node.elt, inner)
            return AbstractValue.top()
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child, env)
        return AbstractValue.top()

    # -- calls ----------------------------------------------------------

    def _cast_target(self, node: ast.Call) -> Optional[str]:
        """Dtype a call casts to, if it is a scalar/array cast form."""
        name = dotted_name(node.func)
        dtype = dtype_from_name(name, self.np_aliases, self.imports)
        if dtype is not None:
            return dtype
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "astype",
            "view",
        ):
            target = None
            if node.args:
                target = dtype_from_name(
                    dotted_name(node.args[0]), self.np_aliases, self.imports
                )
            elif node.keywords:
                for kw in node.keywords:
                    if kw.arg == "dtype":
                        target = dtype_from_name(
                            dotted_name(kw.value), self.np_aliases, self.imports
                        )
            return target or "unknown"
        return None

    def _dtype_keyword(self, node: ast.Call) -> Optional[str]:
        for kw in node.keywords:
            if kw.arg == "dtype":
                return dtype_from_name(
                    dotted_name(kw.value), self.np_aliases, self.imports
                )
        return None

    def _eval_call(
        self, node: ast.Call, env: Dict[str, AbstractValue]
    ) -> AbstractValue:
        for arg in node.args:
            self._eval(arg, env)
        for kw in node.keywords:
            self._eval(kw.value, env)

        # scalar cast / astype / view
        cast = self._cast_target(node)
        if cast is not None:
            return AbstractValue(cast)

        name = dotted_name(node.func)
        head, _, leaf = (name or "").rpartition(".")
        is_np = name is not None and (
            head in self.np_aliases
            or self.imports.get(name, "").startswith("numpy.")
        )
        if is_np and not head:
            leaf = name

        if is_np and leaf in _UFUNCS:
            for kw in node.keywords:
                if kw.arg == "out" and self.value_of(kw.value).dtype != "unknown":
                    return self.value_of(kw.value)
            return _join_all([self.value_of(arg) for arg in node.args[:2]])

        if is_np and leaf in _ARRAY_CTORS:
            dtype = self._dtype_keyword(node)
            if dtype is None and len(node.args) >= 2:
                dtype = dtype_from_name(
                    dotted_name(node.args[1]), self.np_aliases, self.imports
                )
            if dtype is None and leaf in ("asarray", "array") and node.args:
                dtype = self.value_of(node.args[0]).dtype
            return AbstractValue(dtype or "unknown")

        if is_np and leaf in _CONCAT_FNS and node.args:
            parts = node.args[0]
            if isinstance(parts, (ast.List, ast.Tuple)) and parts.elts:
                return _join_all([self.value_of(e) for e in parts.elts])
            if isinstance(parts, (ast.ListComp, ast.GeneratorExp)):
                return self.value_of(parts.elt)
            return AbstractValue.top()

        if name in ("min", "max") and node.args:
            return _join_all([self.value_of(arg) for arg in node.args])
        if name in ("len", "min", "max", "abs", "sum", "int"):
            return AbstractValue("pyint")

        return AbstractValue.top()
