"""The repro-lint rule registry.

Rules register here by id; the CLI's ``--rule`` filter and the test
suite both go through :func:`all_rules` / :func:`rules_by_id`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.lint.engine import Rule
from repro.lint.rules.bitwidth import BitWidthRule
from repro.lint.rules.cachekey import CacheKeyRule
from repro.lint.rules.contract import ExperimentContractRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.envcontract import EnvContractRule
from repro.lint.rules.nativetest import NativeKernelTestRule
from repro.lint.rules.parity import EngineParityRule

__all__ = ["all_rules", "rules_by_id", "select_rules"]

_RULE_CLASSES = (
    DeterminismRule,
    BitWidthRule,
    ExperimentContractRule,
    EngineParityRule,
    CacheKeyRule,
    NativeKernelTestRule,
    EnvContractRule,
)


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    return sorted((cls() for cls in _RULE_CLASSES), key=lambda r: r.rule_id)


def rules_by_id() -> Dict[str, Rule]:
    """Registered rules keyed by id (``R001``, ``R002``, ...)."""
    return {rule.rule_id: rule for rule in all_rules()}


def select_rules(rule_ids: Sequence[str]) -> List[Rule]:
    """Resolve ``--rule`` arguments; unknown ids raise ``KeyError``."""
    if not rule_ids:
        return all_rules()
    registry = rules_by_id()
    selected = {}
    for rule_id in rule_ids:
        key = rule_id.upper()
        if key not in registry:
            known = ", ".join(sorted(registry))
            raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}")
        selected[key] = registry[key]
    return [selected[key] for key in sorted(selected)]
