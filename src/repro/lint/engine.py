"""Rule-engine core: violations, pragmas, contexts, and the driver.

A *rule* inspects one parsed file at a time (plus a shared
:class:`ProjectContext` for cross-file facts such as the experiment
registry or the tests corpus) and yields :class:`Violation` records.
The driver handles everything rules should not care about: collecting
``.py`` files, parsing, ``# repro-lint: disable=...`` pragmas and rule
selection.

Pragma syntax (see ``docs/linting.md``):

- ``# repro-lint: disable=R001`` on the line a violation is reported on
  suppresses that rule there (``disable=R001,R002`` and ``disable=all``
  also work);
- ``# repro-lint: disable-file=R003`` anywhere in a file suppresses the
  rule for the whole file.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Violation",
    "Rule",
    "FileContext",
    "ProjectContext",
    "LintReport",
    "collect_files",
    "lint_paths",
]

#: Directories never descended into when collecting files.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis"}

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True)
class Violation:
    """One rule finding, anchored to a file location.

    ``symbol`` names the enclosing function/class (or the offending
    top-level name) so the fingerprint survives line drift.
    """

    rule_id: str
    path: str  # project-root-relative, POSIX separators
    line: int
    symbol: str
    message: str

    @property
    def fingerprint(self) -> str:
        """Line-independent identity (SARIF ``partialFingerprints``)."""
        return f"{self.rule_id}::{self.path}::{self.symbol}::{self.message}"

    def render(self) -> str:
        """Human-readable one-liner: ``path:line: RULE [symbol]: msg``."""
        location = f"{self.path}:{self.line}"
        where = f" [{self.symbol}]" if self.symbol else ""
        return f"{location}: {self.rule_id}{where}: {self.message}"


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id``/``name``/``description`` and implement
    :meth:`check_file`.  ``applies_to`` lets project-shaped rules skip
    irrelevant files cheaply (the default applies everywhere).
    """

    rule_id: str = ""
    name: str = ""
    description: str = ""

    def applies_to(self, ctx: "FileContext") -> bool:
        """Whether this rule inspects ``ctx`` at all (default: yes)."""
        return True

    def check_file(
        self, ctx: "FileContext", project: "ProjectContext"
    ) -> Iterator[Violation]:
        """Yield every violation this rule finds in one parsed file."""
        raise NotImplementedError

    def violation(
        self, ctx: "FileContext", node: ast.AST, symbol: str, message: str
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node``'s line."""
        return Violation(
            rule_id=self.rule_id,
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            symbol=symbol,
            message=message,
        )


class FileContext:
    """One parsed source file plus its pragma map."""

    def __init__(self, path: Path, rel_path: str, source: str):
        self.path = path
        self.rel_path = rel_path
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self._line_disables: Dict[int, Set[str]] = {}
        self._file_disables: Set[str] = set()
        self._scan_pragmas()

    def _scan_pragmas(self) -> None:
        for lineno, line in enumerate(self.source.splitlines(), start=1):
            match = _PRAGMA.search(line)
            if match is None:
                continue
            rules = {
                token.strip().upper()
                for token in match.group("rules").split(",")
                if token.strip()
            }
            if match.group("kind") == "disable-file":
                self._file_disables |= rules
            else:
                self._line_disables.setdefault(lineno, set()).update(rules)

    def is_disabled(self, rule_id: str, line: int) -> bool:
        """Whether a pragma suppresses ``rule_id`` at ``line``."""
        rule_id = rule_id.upper()
        if {"ALL", rule_id} & self._file_disables:
            return True
        at_line = self._line_disables.get(line, ())
        return "ALL" in at_line or rule_id in at_line


class ProjectContext:
    """Cross-file facts shared by all rules, computed lazily and cached.

    ``root`` is the repository root (the directory holding ``setup.cfg``
    / ``pytest.ini``); ``src_root`` is where the ``repro`` package
    lives.  Rules that need a sibling file (``runner.py``, the tests
    tree, ``generator.py``) go through this object so each is parsed at
    most once per run.
    """

    def __init__(self, root: Path):
        self.root = root.resolve()
        self.src_root = self.root / "src"
        self.tests_root = self.root / "tests"
        self._parsed: Dict[Path, Optional[ast.Module]] = {}
        self._tests_corpus: Optional[str] = None
        self._index = None
        #: rel path -> "rel path: error" for project files the rules
        #: read but could not decode or parse
        self.parse_errors: Dict[str, str] = {}

    @classmethod
    def discover(cls, start: Path) -> "ProjectContext":
        """Locate the project root by walking up from ``start``."""
        probe = start.resolve()
        if probe.is_file():
            probe = probe.parent
        for candidate in (probe, *probe.parents):
            if (candidate / "setup.cfg").exists() or (candidate / ".git").exists():
                return cls(candidate)
        return cls(probe)

    def _note_parse_error(self, path: Path, exc: Exception) -> None:
        rel = self.rel_path(path)
        self.parse_errors.setdefault(rel, f"{rel}: {exc}")

    def parse(self, path: Path) -> Optional[ast.Module]:
        """Parse a project file, returning ``None`` when unavailable.

        A missing file is silent (rules probe optional siblings); one
        that cannot be decoded or parsed lands in :attr:`parse_errors`.
        """
        path = path.resolve()
        if path not in self._parsed:
            self._parsed[path] = None
            try:
                source = path.read_text(encoding="utf-8")
                self._parsed[path] = ast.parse(source, filename=str(path))
            except OSError:
                pass
            # UnicodeDecodeError and null bytes both raise ValueError
            except (SyntaxError, ValueError) as exc:
                self._note_parse_error(path, exc)
        return self._parsed[path]

    def index(self):
        """The whole-project :class:`repro.lint.index.ProjectIndex`.

        Built on first use and shared by every rule in the run (the
        import is local to keep ``engine`` free of a dependency cycle
        with :mod:`repro.lint.index`).
        """
        if self._index is None:
            from repro.lint.index import ProjectIndex

            self._index = ProjectIndex(self)
        return self._index

    def tests_corpus(self) -> str:
        """Concatenated text of every test file (for reference search)."""
        if self._tests_corpus is None:
            chunks: List[str] = []
            if self.tests_root.is_dir():
                for path in sorted(self.tests_root.rglob("*.py")):
                    try:
                        chunks.append(path.read_text(encoding="utf-8"))
                    except OSError:
                        continue
                    except UnicodeDecodeError as exc:
                        self._note_parse_error(path, exc)
            self._tests_corpus = "\n".join(chunks)
        return self._tests_corpus

    def tests_reference(self, name: str) -> bool:
        """Whether any test file mentions ``name`` as a whole word."""
        return re.search(rf"\b{re.escape(name)}\b", self.tests_corpus()) is not None

    def rel_path(self, path: Path) -> str:
        """``path`` relative to the project root, POSIX separators."""
        resolved = path.resolve()
        try:
            return resolved.relative_to(self.root).as_posix()
        except ValueError:
            return resolved.as_posix()


@dataclass
class LintReport:
    """The outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    checked_files: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations and not self.parse_errors


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: Set[Path] = set()
    ordered: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            parts = set(resolved.parts)
            if parts & _SKIP_DIRS or any(
                part.endswith(".egg-info") for part in resolved.parts
            ):
                continue
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(resolved)
    return ordered


def lint_paths(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    project: Optional[ProjectContext] = None,
) -> LintReport:
    """Run ``rules`` over every ``.py`` file reachable from ``paths``.

    Violations matching a pragma are dropped silently.  Unparseable
    files — linted ones, and project files the rules read (the ``src/``
    index, the tests corpus) — are reported in ``parse_errors`` and
    count as failures: a file the linter cannot see is a file the
    invariants cannot be checked on.
    """
    files = collect_files(paths)
    if project is None:
        start = files[0] if files else Path.cwd()
        project = ProjectContext.discover(start)
    report = LintReport()
    unparsed: Set[str] = set()
    for path in files:
        rel = project.rel_path(path)
        try:
            source = path.read_text(encoding="utf-8")
            ctx = FileContext(path, rel, source)
        # UnicodeDecodeError and null bytes both raise ValueError
        except (OSError, SyntaxError, ValueError, tokenize.TokenError) as exc:
            report.parse_errors.append(f"{rel}: {exc}")
            unparsed.add(rel)
            continue
        report.checked_files += 1
        for rule in rules:
            if not rule.applies_to(ctx):
                continue
            for violation in rule.check_file(ctx, project):
                if not ctx.is_disabled(violation.rule_id, violation.line):
                    report.violations.append(violation)
    report.parse_errors.extend(
        error
        for rel, error in sorted(project.parse_errors.items())
        if rel not in unparsed
    )
    report.violations.sort(key=lambda v: (v.path, v.line, v.rule_id))
    return report


def enclosing_symbols(tree: ast.Module) -> Dict[int, str]:
    """Map every AST line to its innermost function/class name.

    Utility for rules that want a good ``symbol`` for arbitrary nodes;
    top-level lines map to ``""``.
    """
    spans: List[Tuple[int, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = f"{prefix}.{child.name}" if prefix else child.name
                end = getattr(child, "end_lineno", child.lineno)
                spans.append((child.lineno, end, name))
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, "")
    mapping: Dict[int, str] = {}
    # Later (inner) spans overwrite outer ones only where they nest.
    for start, end, name in sorted(spans):
        for line in range(start, end + 1):
            mapping[line] = name
    return mapping
