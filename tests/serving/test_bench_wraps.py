"""Every serving name the benchmark's traced server wraps must exist.

``bench/server_main.py`` times the serving layers by replacing
attributes through ``harness.Tracer.wrap``, which skips a name that is
not there.  A renamed serving function would therefore not fail the
benchmark: its ``serving.*`` row would just read 0.  This guard reads
the file's syntax tree, resolves every owner and attribute it wraps or
reads where the file looks them up, and checks that the server modules
call each wrapped module-level function by the bare name the wrap
replaces (a call through another module's name would bypass it).
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path
from typing import Any, Dict, List, Tuple

SERVER_MAIN = Path(__file__).resolve().parents[2] / "bench" / "server_main.py"


def _tree() -> ast.Module:
    return ast.parse(SERVER_MAIN.read_text(), filename=str(SERVER_MAIN))


def _module_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> module, for every ``repro`` module the file imports."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro") and alias.asname:
                    aliases[alias.asname] = alias.name
    return aliases


def _resolve(node: ast.expr, aliases: Dict[str, str]) -> Any:
    """The object an owner expression of the file names."""
    if isinstance(node, ast.Name):
        return importlib.import_module(aliases[node.id])
    assert isinstance(node, ast.Attribute), ast.dump(node)
    owner = _resolve(node.value, aliases)
    assert hasattr(owner, node.attr), f"{ast.unparse(node)} does not exist"
    return getattr(owner, node.attr)


def _wraps(tree: ast.Module) -> List[Tuple[ast.expr, str]]:
    """``(owner expression, attribute)`` of every ``tracer.wrap`` call."""
    wraps = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
        ):
            owner, attr = node.args[:2]
            assert isinstance(attr, ast.Constant), ast.dump(attr)
            wraps.append((owner, attr.value))
    return wraps


def test_every_wrapped_name_resolves():
    tree = _tree()
    aliases = _module_aliases(tree)
    wraps = _wraps(tree)
    assert len(wraps) >= 8
    for owner, attr in wraps:
        target = _resolve(owner, aliases)
        assert callable(getattr(target, attr, None)), (
            f"bench/server_main.py wraps {ast.unparse(owner)}.{attr}, "
            "which does not exist"
        )


def test_every_name_read_from_a_serving_module_resolves():
    tree = _tree()
    aliases = _module_aliases(tree)
    names = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    ]
    assert names
    for node in names:
        _resolve(node, aliases)


def _called_names(module: Any) -> set:
    return {
        node.func.id
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_wrapped_functions_are_called_through_the_wrapped_module():
    tree = _tree()
    aliases = _module_aliases(tree)
    functions = {}
    for owner, attr in _wraps(tree):
        target = _resolve(owner, aliases)
        if inspect.ismodule(target):
            functions[attr] = target
    assert {name: module.__name__ for name, module in functions.items()} == {
        "decode_request": "repro.serving.server",
        "encode_message": "repro.serving.server",
        "simulate_fast": "repro.serving.shard",
    }
    for name, module in functions.items():
        assert name in _called_names(module), (
            f"{module.__name__} does not call {name} by that name, so the "
            "benchmark's wrap of it times nothing"
        )
