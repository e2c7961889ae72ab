"""repro-lint: AST-based reproducibility checks for this repository.

The repository's headline claims are *bit-identical reproducibility*
claims — the vectorized engines match the reference interpreters, cached
traces match regenerated ones, parallel sweeps match serial ones.  Those
claims rest on invariants no generic linter knows about: all randomness
is explicitly seeded, index arithmetic is masked to table width and safe
at degenerate widths, experiments share one CLI contract, vectorized
entry points carry equivalence tests, and the trace-cache fingerprint
covers every config field the generator reads.  The Python↔C kernel
ABI is not linted: the C compiler and cffi check it exactly when the
native backend builds and at every call (see :mod:`repro.sim.native`).

This package enforces those invariants statically:

- :mod:`repro.lint.engine` — the rule-engine core (AST visiting, pragma
  suppression, violation model);
- :mod:`repro.lint.rules` — the rule set (R001-R006, R009);
- :mod:`repro.lint.cli` — the ``repro-lint`` command-line front end
  (also ``python -m repro.lint``).

See ``docs/linting.md`` for the rule catalogue and pragma syntax.
"""

from __future__ import annotations

from repro.lint.engine import (
    FileContext,
    LintReport,
    ProjectContext,
    Rule,
    Violation,
    lint_paths,
)
from repro.lint.rules import all_rules

__all__ = [
    "FileContext",
    "LintReport",
    "ProjectContext",
    "Rule",
    "Violation",
    "all_rules",
    "lint_paths",
]
