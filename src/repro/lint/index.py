"""Whole-project index: one parse of ``src/``, symbols and imports.

Per-file AST matchers cannot see facts that span modules, such as an
env var read under a constant imported from elsewhere.  This module
builds those facts once per lint run:

- a **module table** (:class:`ModuleInfo`): every ``.py`` under the
  project's ``src/`` parsed once, keyed by dotted module name, with its
  top-level symbols, import-alias map and simple constants;
- an **import graph**: local alias → fully-qualified dotted target,
  resolved through ``import``/``from ... import`` (one re-export hop).

Resolution is deliberately best-effort: anything outside the project
or behind dynamic dispatch stays unresolved, which is the right failure
mode for lint — an unresolved name can only *suppress* a cross-module
finding, never invent one.

The index is cached on :class:`~repro.lint.engine.ProjectContext` via
:meth:`~repro.lint.engine.ProjectContext.index`; R009 reads it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.lint.engine import ProjectContext
from repro.lint.rules._ast_util import import_aliases

__all__ = ["ModuleInfo", "ProjectIndex"]


class ModuleInfo:
    """One parsed project module and its per-module tables."""

    def __init__(self, name: str, path: Path, rel_path: str, tree: ast.Module):
        self.name = name
        self.path = path
        self.rel_path = rel_path
        self.tree = tree
        #: local alias -> fully dotted import target
        self.imports: Dict[str, str] = import_aliases(tree)
        #: top-level name -> defining node (def / class / assignment)
        self.symbols: Dict[str, ast.AST] = {}
        #: top-level name -> literal value (str/int/float/bool constants)
        self.constants: Dict[str, object] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.symbols[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.symbols[target.id] = node
                        if isinstance(node.value, ast.Constant):
                            self.constants[target.id] = node.value.value
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                self.symbols[node.target.id] = node
                if isinstance(node.value, ast.Constant):
                    self.constants[node.target.id] = node.value.value


class ProjectIndex:
    """Cross-module symbol and import index of one project."""

    def __init__(self, project: ProjectContext):
        self.project = project
        self.modules: Dict[str, ModuleInfo] = {}
        self._by_rel_path: Dict[str, ModuleInfo] = {}
        self._build()

    # -- construction --------------------------------------------------

    def _module_name(self, path: Path) -> Optional[str]:
        try:
            rel = path.resolve().relative_to(self.project.src_root.resolve())
        except ValueError:
            return None
        parts = list(rel.with_suffix("").parts)
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts) if parts else None

    def _build(self) -> None:
        src_root = self.project.src_root
        if not src_root.is_dir():
            return
        for path in sorted(src_root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            name = self._module_name(path)
            if name is None:
                continue
            tree = self.project.parse(path)
            if tree is None:
                continue
            info = ModuleInfo(name, path, self.project.rel_path(path), tree)
            self.modules[name] = info
            self._by_rel_path[info.rel_path] = info

    # -- resolution ----------------------------------------------------

    def module(self, name: str) -> Optional[ModuleInfo]:
        """The indexed module with this dotted name, if any."""
        return self.modules.get(name)

    def module_for_path(self, rel_path: str) -> Optional[ModuleInfo]:
        """The indexed module at this project-relative path, if any."""
        return self._by_rel_path.get(rel_path)

    def split_dotted(self, dotted: str) -> Optional[Tuple[str, str]]:
        """Split a fully-qualified path into ``(module, symbol-path)``.

        Chooses the *longest* module prefix known to the index, so
        ``repro.sim.native.simulate_native`` resolves to the module
        ``repro.sim.native`` with symbol ``simulate_native`` even
        though ``repro.sim`` is also a module.
        """
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, ".".join(parts[cut:])
        return None

    def resolve(
        self, module: str, name: Optional[str]
    ) -> Optional[Tuple[str, str]]:
        """Resolve a (possibly dotted) local name to ``(module, symbol)``.

        Follows the module's import aliases, then one re-export hop
        (``from repro.a import b`` where ``repro.a``'s ``b`` is itself
        imported).  Returns ``None`` for anything outside the project.
        """
        if not name:
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = name.partition(".")
        if head in info.imports:
            expanded = info.imports[head] + (f".{rest}" if rest else "")
        elif head in info.symbols:
            return module, name
        else:
            return None
        located = self.split_dotted(expanded)
        if located is None:
            return None
        target_module, symbol = located
        if not symbol:
            return None
        target = self.modules[target_module]
        first = symbol.split(".")[0]
        if first in target.symbols:
            return target_module, symbol
        if first in target.imports:  # one re-export hop
            return self.resolve(target_module, symbol)
        return None

    def resolve_constant(self, module: str, name: str) -> Optional[object]:
        """The literal value bound to ``name`` in ``module``, if any.

        Follows import aliases so a constant defined in one module and
        read through ``from x import NAME`` in another still resolves.
        """
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.constants:
            return info.constants[name]
        resolved = self.resolve(module, name)
        if resolved is None or resolved == (module, name):
            return None
        target_module, symbol = resolved
        return self.modules[target_module].constants.get(symbol)
