"""Content-addressed on-disk cache of generated synthetic traces.

Synthetic workload generation is deterministic — a
:class:`~repro.traces.synthetic.generator.WorkloadConfig` fully
determines its trace — but it runs every program's branch behaviours in
Python, event by event, which is most of a cold process's set-up time
(the ``traces.generate_s`` row of ``bench/run.py --trace 1``).  This
module caches generated traces on disk, keyed by a SHA-256 fingerprint
of the *complete* config (name, seed, length/scale, behaviour mix,
scheduler — every shape parameter) plus the generator's
:data:`~repro.traces.synthetic.generator.GENERATOR_VERSION`, so any
config change, and any change to the bytes the generator emits (which
bumps that version), produces a new cache entry.

Entries are stored in the existing ``.npz`` trace format
(:mod:`repro.traces.io`), written atomically (temp file + ``os.replace``
via :mod:`repro.util.atomic`) so concurrent workers never observe
half-written files.  A corrupt entry — truncated, bit-flipped (the zip
CRC catches payload damage) or otherwise unreadable — is detected at
load, counted under ``errors``, dropped, and regenerated, so a damaged
cache can never poison results.  The ``cache-read`` / ``cache-write``
fault sites (:mod:`repro.resilience.faults`) exercise exactly those
paths on demand.

The cache directory resolves, in order:

1. the ``REPRO_TRACE_CACHE`` environment variable — a directory path,
   or one of ``0`` / ``off`` / ``none`` / ``disabled`` to disable
   caching entirely;
2. ``$XDG_CACHE_HOME/repro/traces`` when ``XDG_CACHE_HOME`` is set;
3. ``~/.cache/repro/traces``.

Per-process counters (:func:`cache_stats`) let harnesses such as
``tools/run_full_experiments.py`` report how many traces were served
from disk versus regenerated.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional

from repro.resilience.faults import InjectedFault, fault_active
from repro.traces.io import load_trace, save_trace
from repro.traces.synthetic.generator import (
    GENERATOR_VERSION,
    WorkloadConfig,
    generate_trace,
)
from repro.traces.trace import Trace
from repro.util import envvars
from repro.util.atomic import atomic_path

__all__ = [
    "CACHE_ENV_VAR",
    "cache_dir",
    "cache_stats",
    "config_fingerprint",
    "generate_trace_cached",
    "reset_cache_stats",
    "trace_cache_path",
]

#: Environment variable selecting (or disabling) the cache directory
#: (declared in :mod:`repro.util.envvars`).
CACHE_ENV_VAR = envvars.TRACE_CACHE.name

#: Env-var values (case-insensitive) that turn the cache off.
_DISABLED_VALUES = envvars.OFF_VALUES

#: Per-process counters; see :func:`cache_stats`.
_STATS: Dict[str, int] = {"hits": 0, "misses": 0, "stores": 0, "errors": 0}


def cache_dir() -> Optional[Path]:
    """The active cache directory, or ``None`` when caching is disabled.

    Resolution order: ``REPRO_TRACE_CACHE`` (path, or a disabling value —
    see the module docstring), then ``$XDG_CACHE_HOME/repro/traces``,
    then ``~/.cache/repro/traces``.  The directory is not created here;
    :func:`generate_trace_cached` creates it lazily on first store.
    """
    override = envvars.TRACE_CACHE.raw()
    if override is not None:
        if override.strip().lower() in _DISABLED_VALUES:
            return None
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "traces"


def _fingerprint_default(value: object) -> object:
    """JSON fallback encoder: serialise plain objects via their attributes.

    ``dataclasses.asdict`` recurses through dataclass fields but leaves
    plain classes (notably ``BehaviorMix``) untouched; those are encoded
    as their class name plus instance ``__dict__`` so every behaviour
    parameter lands in the fingerprint.
    """
    if hasattr(value, "__dict__"):
        return {"__class__": type(value).__name__, **vars(value)}
    raise TypeError(
        f"cannot fingerprint {type(value).__name__!r}"
    )  # pragma: no cover - no such config field today


def config_fingerprint(config: WorkloadConfig) -> str:
    """Hex SHA-256 over the canonical JSON form of ``config``.

    Two configs share a fingerprint iff every generation-relevant
    parameter and the generator version match, so the fingerprint is a
    sound content address for the deterministic generator's output.
    """
    payload = json.dumps(
        {
            "generator": GENERATOR_VERSION,
            "config": dataclasses.asdict(config),
        },
        sort_keys=True,
        default=_fingerprint_default,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _safe_name(name: str) -> str:
    """A filesystem-safe rendering of a workload name (debugging aid)."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


def trace_cache_path(config: WorkloadConfig) -> Optional[Path]:
    """The on-disk entry path for ``config``, or ``None`` when disabled.

    The filename carries the workload name and length for humans plus
    the fingerprint prefix for addressing; the fingerprint alone decides
    identity.
    """
    directory = cache_dir()
    if directory is None:
        return None
    digest = config_fingerprint(config)
    stem = f"{_safe_name(config.name)}-L{config.length}-{digest[:20]}"
    return directory / f"{stem}.npz"


def generate_trace_cached(config: WorkloadConfig) -> Trace:
    """Return the trace for ``config``, serving from the disk cache.

    A hit loads the stored ``.npz``; a miss generates the trace and
    stores it atomically.  Unreadable entries count as ``errors``, are
    unlinked best-effort and fall back to regeneration, so a corrupt
    cache can never poison results.  With caching disabled this is
    exactly :func:`~repro.traces.synthetic.generator.generate_trace`.
    """
    path = trace_cache_path(config)
    if path is None:
        return generate_trace(config)

    if path.exists():
        try:
            if fault_active("cache-read"):
                raise InjectedFault("cache-read")
            trace = load_trace(path)
        except Exception:
            _STATS["errors"] += 1
            try:
                path.unlink()
            except OSError:
                pass
        else:
            _STATS["hits"] += 1
            return trace

    _STATS["misses"] += 1
    trace = generate_trace(config)
    try:
        # save_trace appends ".npz" when the target lacks it (as numpy
        # does), so keep the temp suffix; atomic_path makes the publish
        # atomic.
        with atomic_path(path, suffix=".npz") as temp:
            save_trace(trace, temp)
            if fault_active("cache-write"):
                # Injected write corruption: publish a truncated entry so
                # the *next* load exercises detect-and-regenerate.
                temp.write_bytes(temp.read_bytes()[:32])
        _STATS["stores"] += 1
    except OSError:
        _STATS["errors"] += 1
    return trace


def cache_stats() -> Dict[str, int]:
    """A copy of this process's cache counters.

    ``hits``: traces loaded from disk; ``misses``: traces generated
    because no entry existed; ``stores``: entries written; ``errors``:
    unreadable entries dropped plus failed writes.
    """
    return dict(_STATS)


def reset_cache_stats() -> None:
    """Zero the per-process counters (tests and harnesses)."""
    for key in _STATS:
        _STATS[key] = 0
