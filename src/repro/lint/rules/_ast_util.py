"""Small shared AST helpers for the rule implementations."""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

__all__ = [
    "dotted_name",
    "import_aliases",
    "function_params",
    "int_constant",
    "walk_functions",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; ``None`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> imported dotted path, for imports anywhere in the file.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
    import default_rng as rng`` maps ``rng -> numpy.random.default_rng``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def resolve_call_target(
    call: ast.Call, aliases: Dict[str, str]
) -> Optional[str]:
    """The fully-qualified dotted target of a call, alias-expanded."""
    name = dotted_name(call.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    expanded = aliases.get(head, head)
    return f"{expanded}.{rest}" if rest else expanded


def function_params(node: ast.FunctionDef) -> List[str]:
    """All parameter names of a function, in declaration order."""
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        params.append(args.vararg.arg)
    if args.kwarg:
        params.append(args.kwarg.arg)
    return params


def int_constant(node: ast.AST) -> Optional[int]:
    """The value of an integer-literal node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    return None


def walk_functions(
    tree: ast.Module,
) -> List[Tuple[str, ast.FunctionDef]]:
    """Every (qualified name, function) in the module, methods included."""
    found: List[Tuple[str, ast.FunctionDef]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
                if isinstance(child, ast.FunctionDef):
                    found.append((name, child))
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}.{child.name}" if prefix else child.name
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, "")
    return found

