"""Predictor factory from compact specification strings.

Experiments, benchmarks and examples describe predictor configurations
with short spec strings modelled on the paper's own notation:

- ``"gshare:16k:h12"`` — 16K-entry gshare, 12-bit history
- ``"gselect:4k:h4:c1"`` — 4K-entry gselect, 4-bit history, 1-bit counters
- ``"gskew:3x4k:h12:partial"`` — 3 banks of 4K entries, partial update
- ``"egskew:3x4k:h12"`` — enhanced gskew (bank count must be 3)
- ``"bimodal:2k"``
- ``"fa:1k:h4"`` — 1K-entry fully-associative LRU tagged predictor
- ``"unaliased:h12:c1"`` — the infinite table
- ``"hybrid:4k:h10"`` — combining predictor (all component tables 4k)
- ``"agree:4k:h10"`` — agree predictor (PHT size; bias table same size)
- ``"bimode:1k:h8"`` — bi-mode (two 1k direction tables + 1k choice)
- ``"2bcgskew:1k:h10"`` — the EV8-style 2Bc-gskew hybrid (4 tables of 1k)
- ``"pas:1k/h6:16k"`` — PAs: 1k history registers of 6 bits, 16k counters
- ``"taken"`` / ``"nottaken"`` — static baselines

Sizes accept ``k``/``K`` (x1024) and ``m``/``M`` (x1048576) suffixes and
must be powers of two.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.bcgskew import BcGskewPredictor
from repro.core.egskew import EnhancedSkewedPredictor
from repro.core.gskew import SkewedPredictor
from repro.predictors.agree import AgreePredictor
from repro.predictors.associative import FullyAssociativePredictor
from repro.predictors.bimode import BiModePredictor
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gselect import GselectPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.hybrid import HybridPredictor
from repro.predictors.static import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
)
from repro.predictors.two_level import PAsPredictor
from repro.predictors.unaliased import UnaliasedPredictor

__all__ = ["parse_size", "make_predictor", "format_entries"]


def parse_size(token: str) -> int:
    """Parse ``"16k"``-style size tokens into an entry count."""
    token = token.strip().lower()
    if not token:
        raise ValueError("empty size token")
    multiplier = 1
    if token.endswith("k"):
        multiplier = 1024
        token = token[:-1]
    elif token.endswith("m"):
        multiplier = 1024 * 1024
        token = token[:-1]
    try:
        value = int(token) * multiplier
    except ValueError:
        raise ValueError(f"malformed size token {token!r}") from None
    if value < 1 or value & (value - 1):
        raise ValueError(f"size must be a positive power of two, got {value}")
    return value


def format_entries(entries: int) -> str:
    """Render an entry count the way the paper writes it (``16k``)."""
    if entries >= 1024 * 1024 and entries % (1024 * 1024) == 0:
        return f"{entries // (1024 * 1024)}m"
    if entries >= 1024 and entries % 1024 == 0:
        return f"{entries // 1024}k"
    return str(entries)


def _index_bits(entries: int) -> int:
    bits = entries.bit_length() - 1
    if 1 << bits != entries:
        raise ValueError(f"entry count must be a power of two, got {entries}")
    return bits


def _split_fields(spec: str) -> List[str]:
    return [field for field in spec.strip().split(":") if field]


def _parse_common(fields: List[str]) -> Dict[str, object]:
    """Extract ``hN`` history, ``cN`` counter-bits and policy fields."""
    options: Dict[str, object] = {"history": None, "counter_bits": 2,
                                  "policy": None}
    for field in fields:
        lowered = field.lower()
        if lowered.startswith("h") and lowered[1:].isdigit():
            options["history"] = int(lowered[1:])
        elif lowered.startswith("c") and lowered[1:].isdigit():
            options["counter_bits"] = int(lowered[1:])
        elif lowered in ("partial", "total", "lazy"):
            options["policy"] = lowered
        else:
            raise ValueError(f"unrecognised spec field {field!r}")
    return options


def make_predictor(spec: str) -> BranchPredictor:
    """Build a predictor from a spec string (see module docstring).

    The predictor records ``spec`` (:attr:`BranchPredictor.spec`), so
    its state snapshots restore only into the same spec.
    """
    predictor = _build_predictor(spec)
    predictor.spec = spec
    return predictor


def _build_predictor(spec: str) -> BranchPredictor:
    fields = _split_fields(spec)
    if not fields:
        raise ValueError("empty predictor spec")
    kind = fields[0].lower()
    rest = fields[1:]

    if kind in ("taken", "always-taken"):
        _require_no_fields(kind, rest)
        return AlwaysTakenPredictor()
    if kind in ("nottaken", "always-not-taken"):
        _require_no_fields(kind, rest)
        return AlwaysNotTakenPredictor()

    if kind == "unaliased":
        options = _parse_common(rest)
        history = _require_history(kind, options)
        return UnaliasedPredictor(history, counter_bits=options["counter_bits"])

    if kind in ("gshare", "gselect", "bimodal", "fa", "hybrid", "agree",
                "bimode", "2bcgskew"):
        if not rest:
            raise ValueError(f"{kind} spec needs a size, e.g. '{kind}:4k'")
        entries = parse_size(rest[0])
        options = _parse_common(rest[1:])
        counter_bits = options["counter_bits"]
        if kind == "bimodal":
            return BimodalPredictor(_index_bits(entries), counter_bits)
        history = _require_history(kind, options)
        if kind == "gshare":
            return GsharePredictor(_index_bits(entries), history, counter_bits)
        if kind == "gselect":
            return GselectPredictor(_index_bits(entries), history, counter_bits)
        if kind == "fa":
            return FullyAssociativePredictor(entries, history, counter_bits)
        if kind == "agree":
            return AgreePredictor(
                _index_bits(entries), history, counter_bits=counter_bits
            )
        if kind == "bimode":
            return BiModePredictor(
                _index_bits(entries), history, counter_bits=counter_bits
            )
        if kind == "2bcgskew":
            return BcGskewPredictor(
                _index_bits(entries), history, counter_bits=counter_bits
            )
        bits = _index_bits(entries)
        return HybridPredictor(bits, bits, bits, history, counter_bits)

    if kind in ("gskew", "egskew"):
        if not rest or "x" not in rest[0].lower():
            raise ValueError(
                f"{kind} spec needs a geometry, e.g. '{kind}:3x4k'"
            )
        banks_token, _, size_token = rest[0].lower().partition("x")
        banks = int(banks_token)
        bank_entries = parse_size(size_token)
        options = _parse_common(rest[1:])
        history = _require_history(kind, options)
        policy = options["policy"] or "partial"
        if kind == "gskew":
            return SkewedPredictor(
                bank_index_bits=_index_bits(bank_entries),
                history_bits=history,
                banks=banks,
                counter_bits=options["counter_bits"],
                update_policy=policy,
            )
        if banks != 3:
            raise ValueError("enhanced gskew is a 3-bank design")
        return EnhancedSkewedPredictor(
            bank_index_bits=_index_bits(bank_entries),
            history_bits=history,
            counter_bits=options["counter_bits"],
            update_policy=policy,
        )

    if kind == "pas":
        # "pas:<histtable>/h<bits>:<counters>[...]"
        if not rest or "/" not in rest[0]:
            raise ValueError(
                "pas spec needs '<history-table>/h<bits>:<counter-table>'"
            )
        table_token, _, width_token = rest[0].partition("/")
        if not width_token.lower().startswith("h"):
            raise ValueError(f"malformed PAs history width {width_token!r}")
        history_entries = parse_size(table_token)
        history_width = int(width_token[1:])
        if len(rest) < 2:
            raise ValueError("pas spec needs a counter-table size")
        counter_entries = parse_size(rest[1])
        options = _parse_common(rest[2:])
        return PAsPredictor(
            history_table_bits=_index_bits(history_entries),
            history_bits=history_width,
            index_bits=_index_bits(counter_entries),
            counter_bits=options["counter_bits"],
        )

    raise ValueError(f"unknown predictor kind {kind!r}")


def _require_history(kind: str, options: Dict[str, object]) -> int:
    history = options["history"]
    if history is None:
        raise ValueError(f"{kind} spec needs a history length, e.g. 'h12'")
    return history


def _require_no_fields(kind: str, rest: List[str]) -> None:
    if rest:
        raise ValueError(f"{kind} takes no parameters, got {rest}")
