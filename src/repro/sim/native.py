"""Native simulation engine: one sequential C walk per predictor.

Every index-expressible predictor's table indices are a pure function
of the trace (:func:`repro.sim.vectorized._index_streams` precomputes
them in numpy, memoised per trace).  What remains is the counter walk,
whose reads feed later predictions.  This module hands that walk to a
small C kernel (``_native_kernel.c``) compiled on demand with **cffi**:

- ``repro_walk`` steps 1, 3 or 5 majority-voted banks through the
  events in trace order under TOTAL, PARTIAL or LAZY update.  A plain
  table (bimodal / gshare / gselect) is one bank under TOTAL.
- ``repro_walk_agree`` does the same for the agree predictor: a
  gshare-indexed PHT plus a biasing-bit table that latches on each
  slot's first execution.

Walking in order is exact for every update policy by construction: the
banks of a PARTIAL or LAZY skewed predictor train from the overall
majority vote, and the walk simply reads that vote as it goes.  No
grouping, fixpoint iteration or geometry gate is needed, so
:func:`native_supports` is one check — the spec is index-expressible
and the backend built.

The backend is optional.  cffi + a C compiler are probed lazily on
first use; the shared object is cached under a version-fingerprinted
directory (source + cdef + cffi/Python versions + platform) so rebuilds
happen only when any of those change, and later processes just dlopen
the cached module.  When the build fails — no compiler or no cffi —
:func:`native_available` reports False (with a one-time
``RuntimeWarning``) and ``simulate_fast``
falls back to the Python loop tier; nothing else in the library requires
the backend.

Results are bit-identical to :func:`repro.sim.engine.simulate`
including final counter, bias and history state (asserted by
``tests/sim/test_native.py``, which also pins every kernel entry point
to scalar oracles by name — the R006 lint rule keeps that true for any
future entry point).
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import sys
import sysconfig
import tempfile
import threading
import warnings
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.core.update import UpdatePolicy
from repro.predictors.agree import AgreePredictor
from repro.predictors.base import BranchPredictor
from repro.sim.metrics import SimulationResult
from repro.sim.profile import NULL_STAGE_TIMER, StageTimer
from repro.sim.vectorized import (
    _agree_streams,
    _cond_takens,
    _final_history,
    _index_streams,
)
from repro.sim.vectorized import supports as _vector_supports
from repro.traces.trace import Trace
from repro.util import envvars

__all__ = [
    "native_available",
    "native_supports",
    "simulate_native",
]

#: Overrides the build-cache directory (defaults to
#: ``~/.cache/repro-native``, falling back to the system temp dir).
CACHE_ENV_VAR = envvars.NATIVE_CACHE.name

_KERNEL_PATH = Path(__file__).with_name("_native_kernel.c")

#: ``repro_walk``'s policy codes (``REPRO_POLICY_*`` in the kernel).
_POLICY_CODES = {
    UpdatePolicy.TOTAL: 0,
    UpdatePolicy.PARTIAL: 1,
    UpdatePolicy.LAZY: 2,
}

#: Biasing bits as ``repro_walk_agree`` stores them: the predictor's
#: None / False / True latches become int8 -1 / 0 / 1, and index -1 of
#: ``_LATCHES`` maps the unlatched code back to None.
_LATCH_CODES = {None: -1, False: 0, True: 1}
_LATCHES = (False, True, None)

#: The backend ABI, verbatim for cffi.  Every function named here is a
#: kernel entry point; the R006 lint rule requires each to be pinned by
#: a test referencing it by name.
_CDEF = """
int64_t repro_walk(const uint32_t *indices, const uint8_t *outcomes,
                   int64_t n, int32_t banks, int32_t policy,
                   int64_t threshold, int64_t max_value, int64_t *values,
                   int64_t entries, int64_t warmup);
int64_t repro_walk_agree(const uint32_t *indices, const uint32_t *slots,
                         const uint8_t *outcomes, int64_t n,
                         int64_t threshold, int64_t max_value,
                         int64_t *values, int8_t *bias, int64_t warmup);
"""

#: (ffi, lib) once built, or an error string once the build failed;
#: None until the first probe.  Guarded by ``_BUILD_LOCK``.
_BACKEND: "Optional[object]" = None
_BUILD_LOCK = threading.Lock()
_WARNED = False


def _fingerprint(source: str) -> str:
    """Version fingerprint of everything the shared object depends on."""
    import cffi

    payload = "\x00".join(
        [
            source,
            _CDEF,
            cffi.__version__,
            sys.version.split()[0],
            sysconfig.get_platform(),
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _cache_dir() -> Path:
    override = envvars.NATIVE_CACHE.text()
    if override:
        return Path(override)
    try:
        base = Path.home() / ".cache"
    except (RuntimeError, OSError):  # pragma: no cover — no home dir
        base = Path(tempfile.gettempdir())
    return base / "repro-native"


def _find_cached(build_dir: Path, module_name: str) -> Optional[Path]:
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        candidate = build_dir / (module_name + suffix)
        if candidate.exists():
            return candidate
    return None


def _load(so_path: Path, module_name: str):
    spec = importlib.util.spec_from_file_location(module_name, so_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


def _build_backend():
    """Compile (or dlopen the cached) kernel; returns ``(ffi, lib)``.

    Raises on any failure — missing cffi, missing compiler, bad cache
    directory — and the caller converts that into the unavailable
    state.  The fingerprinted module name makes the cache self-keying:
    a stale shared object simply never matches the current name.
    """
    source = _KERNEL_PATH.read_text(encoding="utf-8")
    module_name = f"_repro_native_{_fingerprint(source)}"
    build_dir = _cache_dir()
    cached = _find_cached(build_dir, module_name)
    if cached is not None:
        return _load(cached, module_name)

    import cffi

    builder = cffi.FFI()
    builder.cdef(_CDEF)
    builder.set_source(module_name, source, extra_compile_args=["-O3"])
    build_dir.mkdir(parents=True, exist_ok=True)
    so_path = builder.compile(tmpdir=str(build_dir))
    return _load(Path(so_path), module_name)


def _backend():
    """The built backend, or an error string; builds at most once."""
    global _BACKEND, _WARNED
    if _BACKEND is None:
        with _BUILD_LOCK:
            if _BACKEND is None:
                try:
                    _BACKEND = _build_backend()
                except Exception as exc:  # noqa: BLE001 — any build error
                    _BACKEND = f"{type(exc).__name__}: {exc}"
    if isinstance(_BACKEND, str) and not _WARNED:
        _WARNED = True
        warnings.warn(
            "native backend unavailable, falling back to the Python "
            f"loop tier ({_BACKEND})",
            RuntimeWarning,
            stacklevel=3,
        )
    return _BACKEND


def native_available() -> bool:
    """True when the compiled backend can be (or was) built and loaded.

    The first call triggers the lazy build; a failure warns once
    (``RuntimeWarning``) and sticks for the process.
    """
    return not isinstance(_backend(), str)


# -- dispatch ----------------------------------------------------------------


def native_supports(predictor: BranchPredictor, trace: Trace) -> bool:
    """True if ``predictor`` has a native fast path over ``trace``.

    Every index-expressible spec — whatever :func:`repro.sim.vectorized.
    supports` takes — once the backend built.
    """
    return _vector_supports(predictor, trace) and native_available()


def _checked_backend():
    backend = _backend()
    if isinstance(backend, str):
        raise RuntimeError(f"native backend unavailable ({backend})")
    return backend


def _bank_major(streams: List[np.ndarray]) -> np.ndarray:
    """The per-bank index streams as one bank-major uint32 array.

    Table entries are Python list slots, so every index fits 32 bits.
    """
    indices = np.empty((len(streams), len(streams[0])), dtype=np.uint32)
    for b, stream in enumerate(streams):
        indices[b] = stream
    return indices


def _walk_tables(
    predictor: BranchPredictor,
    trace: Trace,
    outcomes: np.ndarray,
    warmup: int,
    timer: StageTimer,
) -> int:
    """``repro_walk`` over a table or skewed predictor; returns the
    miss count and leaves the counters in their final state."""
    ffi, lib = _checked_backend()
    if hasattr(predictor, "banks"):
        counters = [bank.counters for bank in predictor.banks]
        policy = predictor.update_policy
    else:
        counters = [predictor.bank.counters]
        policy = UpdatePolicy.TOTAL
    entries = counters[0].size
    with timer.stage("precompute"):
        indices = _bank_major(_index_streams(predictor, trace))
        values = np.concatenate(
            [np.asarray(c.values, dtype=np.int64) for c in counters]
        )
    with timer.stage("scan"):
        misses = lib.repro_walk(
            ffi.from_buffer("uint32_t[]", indices),
            ffi.from_buffer("uint8_t[]", outcomes),
            len(outcomes),
            len(counters),
            _POLICY_CODES[policy],
            counters[0].threshold,
            counters[0].max_value,
            ffi.from_buffer("int64_t[]", values),
            entries,
            warmup,
        )
    if misses < 0:
        raise ValueError(f"repro_walk cannot run {len(counters)} banks")
    with timer.stage("reduce"):
        for b, c in enumerate(counters):
            c.values[:] = values[b * entries : (b + 1) * entries].tolist()
    return int(misses)


def _walk_agree(
    predictor: AgreePredictor,
    trace: Trace,
    outcomes: np.ndarray,
    warmup: int,
    timer: StageTimer,
) -> int:
    """``repro_walk_agree`` over an agree predictor; returns the miss
    count and leaves the PHT and biasing bits in their final state."""
    ffi, lib = _checked_backend()
    counters = predictor.pht.counters
    with timer.stage("precompute"):
        indices, slots = _agree_streams(predictor, trace)
        values = np.asarray(counters.values, dtype=np.int64)
        bias = np.fromiter(
            map(_LATCH_CODES.__getitem__, predictor._bias),
            dtype=np.int8,
            count=len(predictor._bias),
        )
    with timer.stage("scan"):
        misses = lib.repro_walk_agree(
            ffi.from_buffer("uint32_t[]", indices),
            ffi.from_buffer("uint32_t[]", slots),
            ffi.from_buffer("uint8_t[]", outcomes),
            len(outcomes),
            counters.threshold,
            counters.max_value,
            ffi.from_buffer("int64_t[]", values),
            ffi.from_buffer("int8_t[]", bias),
            warmup,
        )
    with timer.stage("reduce"):
        counters.values[:] = values.tolist()
        predictor._bias[:] = [_LATCHES[code] for code in bias.tolist()]
    return int(misses)


def simulate_native(
    predictor: BranchPredictor,
    trace: Trace,
    warmup: int = 0,
    label: Optional[str] = None,
    stage_timer: Optional[StageTimer] = None,
) -> SimulationResult:
    """Native-kernel counterpart of :func:`repro.sim.engine.simulate`.

    Identical arguments and result; also leaves the predictor's
    counters, agree-bias bits and history register in the same final
    state the generic engine would.  ``stage_timer`` (optional)
    accumulates per-stage wall-clock under ``"precompute"`` (history,
    index streams and table conversion), ``"scan"`` (the C walk) and
    ``"reduce"`` (state writeback).

    Raises:
        ValueError: if the predictor has no native path or the backend
            did not build (callers wanting automatic fallback use
            :func:`repro.sim.vectorized.simulate_fast`).
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if not native_supports(predictor, trace):
        raise ValueError(
            f"no native path for {type(predictor).__name__}; "
            "use simulate_fast() or the generic engine"
        )
    timer = NULL_STAGE_TIMER if stage_timer is None else stage_timer
    history = getattr(predictor, "history", None)
    seed = history.value if history is not None else 0

    with timer.stage("precompute"):
        outcomes = _cond_takens(trace).view(np.uint8)
    n = len(outcomes)
    if n == 0:
        mispredictions = 0
    elif type(predictor) is AgreePredictor:
        mispredictions = _walk_agree(predictor, trace, outcomes, warmup, timer)
    else:
        mispredictions = _walk_tables(predictor, trace, outcomes, warmup, timer)

    if history is not None and history.bits:
        with timer.stage("reduce"):
            history.value = _final_history(trace.takens, history.bits, seed)

    return SimulationResult(
        predictor=label or predictor.name,
        trace=trace.name,
        conditional_branches=max(0, n - warmup),
        mispredictions=mispredictions,
        storage_bits=predictor.storage_bits,
        history_bits=getattr(predictor, "history_bits", None),
        engine="native",
    )
