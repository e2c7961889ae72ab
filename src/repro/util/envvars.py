"""Central registry of every ``REPRO_*`` environment variable.

Every environment variable this library reads is declared here — name,
type, documented default and a one-line docstring — and every *read*
routes through this module (``tests/util/test_envvars.py`` holds both
halves: no ``os.environ`` access to a ``REPRO_*`` name anywhere else in
``src/``, and every registry entry fully documented).  Centralising the
reads buys three things:

1. the env-var surface is enumerable: ``docs/api.md``'s table is
   generated from :data:`REGISTRY` (``python -m repro.util.envvars``
   prints it; a test keeps the checked-in copy in sync);
2. a variable cannot be consulted under two different spellings or
   silently gain a second semantics in another module;
3. parse conventions (integer fallbacks, the ``0/off/none/disabled``
   kill values) live next to the declaration instead of being
   re-invented per call site.

The registry deliberately does *not* parse every value itself: several
variables have module-specific semantics that must stay bit-identical
to their pre-registry behaviour (``REPRO_JOBS``'s invalid-means-serial
fallback, ``REPRO_TRACE_CACHE``'s unstripped path handling).  Those
modules call :meth:`EnvVar.raw` / :meth:`EnvVar.text` and keep their
own parsing; the common cases use the typed helpers below.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "EnvVar",
    "REGISTRY",
    "FAULTS",
    "JOBS",
    "NATIVE_CACHE",
    "SERVING_BATCH",
    "SERVING_LINGER_MS",
    "TRACE_CACHE",
    "by_name",
    "markdown_table",
]

#: Values (case-insensitive, stripped) that mean "turn the feature off"
#: wherever a variable documents the off-switch convention.
OFF_VALUES = frozenset({"0", "off", "none", "disabled"})

#: The declared ``type`` vocabulary (kept small so the generated docs
#: table stays scannable; ``tests/util/test_envvars.py`` rejects
#: anything else).
TYPES = frozenset({"str", "int", "float", "flag", "path", "choice", "plan"})


@dataclass(frozen=True)
class EnvVar:
    """One declared environment variable.

    ``type`` is documentation-grade (see :data:`TYPES`): ``flag`` means
    the off-switch convention (:data:`OFF_VALUES`), ``plan`` means the
    fault-plan grammar, ``choice`` an enumerated string.  ``default``
    is the *documented* behaviour when unset, not necessarily a value
    the parser produces verbatim.
    """

    name: str
    type: str
    default: str
    doc: str

    def raw(self) -> Optional[str]:
        """The raw environment value, or ``None`` when unset."""
        return os.environ.get(self.name)

    def text(self) -> str:
        """The stripped environment value; ``""`` when unset."""
        return os.environ.get(self.name, "").strip()

    def is_set(self) -> bool:
        """Whether the variable is present in the environment at all."""
        return self.name in os.environ

    def int_value(self, fallback: Optional[int] = None) -> Optional[int]:
        """The value as an int; ``fallback`` when unset or malformed."""
        raw = self.text()
        if not raw:
            return fallback
        try:
            return int(raw)
        except ValueError:
            return fallback

    def float_value(self, fallback: Optional[float] = None) -> Optional[float]:
        """The value as a float; ``fallback`` when unset or malformed."""
        raw = self.text()
        if not raw:
            return fallback
        try:
            return float(raw)
        except ValueError:
            return fallback

    def disabled(self) -> bool:
        """Whether the value is one of the documented off-switch values."""
        return self.text().lower() in OFF_VALUES


FAULTS = EnvVar(
    "REPRO_FAULTS",
    "plan",
    "(no faults)",
    "Deterministic fault-injection plan, `site@window` clauses "
    "comma-separated (see `repro.resilience.faults`).",
)

JOBS = EnvVar(
    "REPRO_JOBS",
    "int",
    "1",
    "Default thread count for sweeps when `jobs` is not passed; "
    "`0` or negative means one thread per CPU, invalid means serial.",
)

NATIVE_CACHE = EnvVar(
    "REPRO_NATIVE_CACHE",
    "path",
    "~/.cache/repro-native",
    "Directory for the fingerprinted native-kernel build cache.",
)

SERVING_BATCH = EnvVar(
    "REPRO_SERVING_BATCH",
    "int",
    "256",
    "Serving-layer micro-batch size: the server flushes a tenant's pending "
    "events through the fast engines once this many accumulate.  Results "
    "are identical at every setting (flush boundaries don't change "
    "predictions); only latency/throughput move.",
)

SERVING_LINGER_MS = EnvVar(
    "REPRO_SERVING_LINGER_MS",
    "float",
    "5",
    "How long (milliseconds) the serving layer lets a partial batch "
    "linger before flushing it anyway; `0`/`off`/`none`/`disabled` "
    "flushes only on full batches and explicit syncs.",
)

TRACE_CACHE = EnvVar(
    "REPRO_TRACE_CACHE",
    "path",
    "~/.cache/repro/traces",
    "Trace-cache directory, or `0`/`off`/`none`/`disabled` to disable "
    "caching (`$XDG_CACHE_HOME/repro/traces` when XDG is set).",
)

#: Every declared variable, name-sorted — the source of truth for the
#: generated docs table and the registry tests.
REGISTRY: Tuple[EnvVar, ...] = tuple(
    sorted(
        (
            FAULTS,
            JOBS,
            NATIVE_CACHE,
            SERVING_BATCH,
            SERVING_LINGER_MS,
            TRACE_CACHE,
        ),
        key=lambda var: var.name,
    )
)


def by_name() -> Dict[str, EnvVar]:
    """The registry keyed by variable name."""
    return {var.name: var for var in REGISTRY}


#: Markers bounding the generated block in ``docs/api.md``.
TABLE_BEGIN = "<!-- envvars:begin (generated by python -m repro.util.envvars) -->"
TABLE_END = "<!-- envvars:end -->"


def markdown_table() -> str:
    """The env-var reference table, as embedded in ``docs/api.md``.

    Regenerate the checked-in copy with::

        PYTHONPATH=src python -m repro.util.envvars

    and paste the output between the ``envvars:begin``/``envvars:end``
    markers; ``tests/util/test_envvars.py`` fails when they drift.
    """
    lines = [
        TABLE_BEGIN,
        "| variable | type | default | meaning |",
        "|---|---|---|---|",
    ]
    for var in REGISTRY:
        lines.append(
            f"| `{var.name}` | {var.type} | `{var.default}` | {var.doc} |"
        )
    lines.append(TABLE_END)
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover — doc regeneration helper
    print(markdown_table())
