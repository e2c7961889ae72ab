"""Native simulation engine: scan kernels as compiled C passes.

PR 6's stage profile (``docs/performance.md`` §9-10) showed the numpy
scan tier is *throughput*-bound: pack+sort, run encoding and the level
scan are all linear-in-work array stages, so no Python-side fusion buys
more.  This module moves the scan-expressible pipelines — packed-word
grouping, run handling and the per-entry counter walks — into one C
kernel file (``_native_kernel.c``) compiled on demand with **cffi**:

1. the per-bank index streams still come from the memoised numpy
   precompute (:func:`repro.sim.vectorized._index_streams` — they are
   pure trace functions and already fast);
2. a grouping pass packs ``tag | key | position | outcome`` uint64
   words and groups them per table entry.  Two strategies produce the
   same unique stable order (see :func:`sort_strategy`):
   ``direct-bucket`` counting-sorts over the *real* key range in one
   histogram + prefix + scatter whenever the table is cache-resident
   (every paper geometry), and the LSD radix fallback sorts each bank
   independently over its ``ceil(entry_bits / 8)`` entry bytes.  Both
   thread through a small pthreads pool sized by
   ``REPRO_NATIVE_THREADS`` (:func:`native_threads`), with per-chunk
   histograms folded serially so the output is byte-identical at every
   worker count;
3. a fused walk steps the grouped words sequentially: within a group
   the saturating counter lives in a register, a group change is one
   store + one load, and miss counting (direct for single tables,
   complement-trick majority for odd voted banks) fuses into the same
   loop — no run encoding, no Hillis-Steele, no sparse re-expansion.

Coverage spans the always-update (``add``) family — bimodal / gshare /
gselect, single-bank non-LAZY skewed, multi-bank TOTAL skewed /
e-gskew — plus the map-code families the scan tier reaches through run
codes: single-bank LAZY (``repro_scan_lazy1``, train-on-miss) and
multi-bank PARTIAL (``repro_scan_partial_round``, one exact Jacobi
round of the vote-wrongness fixpoint per call; the Python driver
re-seeds the counters from a block snapshot each round and iterates to
convergence exactly like :func:`repro.sim.scan._scan_coupled`, minus
the per-round run re-encoding — the block is grouped once).  Multi-bank
LAZY keeps the sequential loop (its frozen counters make fixpoint
guesses unrecoverable; see :mod:`repro.sim.scan`), and agree keeps its
scan tier (per-event bias expansion).

The backend is optional.  cffi + a C compiler are probed lazily on
first use; the shared object is cached under a version-fingerprinted
directory (source + cdef + cffi/Python versions + platform) so rebuilds
happen only when any of those change, and later processes just dlopen
the cached module.  When the build fails — no compiler, no cffi, or
``REPRO_NATIVE=0`` — :func:`native_available` reports False (with a
one-time ``RuntimeWarning`` for real failures) and ``simulate_fast``
falls back to the scan tier; nothing else in the library requires the
backend.

Results are bit-identical to :func:`repro.sim.engine.simulate`
including final counter and history state (asserted by
``tests/sim/test_native.py``, which also pins every kernel entry point
to scalar oracles by name — the R006 lint rule keeps that true for any
future entry point).
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import sysconfig
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.egskew import EnhancedSkewedPredictor
from repro.core.gskew import SkewedPredictor
from repro.core.update import UpdatePolicy
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gselect import GselectPredictor
from repro.predictors.gshare import GsharePredictor
from repro.sim.metrics import SimulationResult
from repro.sim.profile import NULL_STAGE_TIMER, StageTimer
from repro.sim.scan import _COUPLED_BLOCK, _COUPLED_ROUND_LIMIT
from repro.sim.vectorized import (
    _cond_takens,
    _final_history,
    _index_streams,
    _run_plan,
)
from repro.sim.vectorized import supports as _vector_supports
from repro.traces.trace import Trace
from repro.util import envvars

__all__ = [
    "compiler_info",
    "native_available",
    "native_supports",
    "native_threads",
    "simulate_native",
    "sort_strategy",
]

#: Set to ``0`` to disable the backend without uninstalling anything —
#: the no-compiler CI lane and the forced-fallback tests use this.
#: Declared in the central registry (:mod:`repro.util.envvars`).
NATIVE_ENV_VAR = envvars.NATIVE.name

#: Overrides the build-cache directory (defaults to
#: ``~/.cache/repro-native``, falling back to the system temp dir).
CACHE_ENV_VAR = envvars.NATIVE_CACHE.name

#: Worker threads for the grouping pass (default: one per CPU).
#: Declared in the central registry; resolution in :func:`native_threads`.
THREADS_ENV_VAR = envvars.NATIVE_THREADS.name

_KERNEL_PATH = Path(__file__).with_name("_native_kernel.c")

#: Mirror of ``REPRO_KERNEL_MAX_THREADS`` in the C pool — the clamp both
#: sides apply, and the width of the per-worker histogram scratch.
_MAX_THREADS = 16

#: Hard cap on total key slots for the direct-bucket strategy: bounds
#: the per-worker histogram allocation (int64 slots) regardless of the
#: work-based crossover below.
_BUCKET_MAX_KEYS = 1 << 22

#: Work floor under which direct bucketing always wins (histogram
#: traffic is noise next to fixed per-call costs at this size).
_BUCKET_MIN_WORK = 1 << 16

#: Checkpoint geometry of the PARTIAL fixpoint — shared with the numpy
#: kernel so both drivers cut the trace identically.
_PARTIAL_BLOCK = _COUPLED_BLOCK
_PARTIAL_ROUND_LIMIT = _COUPLED_ROUND_LIMIT

#: Aliasing-density ceiling for the native PARTIAL path, in events per
#: table entry.  The numpy fixpoint declines past 64 (its per-round run
#: re-encoding costs what a whole vectorized pass does); the C round is
#: a single fused walk over an already-grouped block — roughly 50x
#: cheaper — so the crossover against the sequential loop moves out by
#: about that factor.  Past this ceiling dense cells keep the loop tier.
_NATIVE_MAX_PARTIAL_DENSITY = 1024

#: The backend ABI, verbatim for cffi.  Every function named here is a
#: kernel entry point; the R006 lint rule requires each to be pinned by
#: a test referencing it by name.
_CDEF = """
int32_t repro_thread_backend(void);
void repro_pack_bucket(const uint64_t *keys, const uint8_t *outcomes,
                       int64_t n, int32_t banks, int32_t shift,
                       int64_t entries, int64_t *counts, uint64_t *out,
                       int32_t threads);
void repro_pack_sort(const uint64_t *keys, const uint8_t *outcomes,
                     int64_t n, int32_t banks, int32_t shift,
                     int32_t entry_bits, uint64_t *out, uint64_t *scratch,
                     int32_t threads);
int64_t repro_scan_sorted(const uint64_t *sorted_words, int64_t m,
                          int32_t shift, int64_t threshold,
                          int64_t max_value, int64_t *values,
                          int64_t warmup, int32_t banks, int32_t majority,
                          int32_t *wrong_counts, int64_t n);
int64_t repro_scan_lazy1(const uint64_t *sorted_words, int64_t m,
                         int32_t shift, int64_t threshold,
                         int64_t max_value, int64_t *values, int64_t warmup);
int64_t repro_scan_partial_round(const uint64_t *sorted_words, int64_t m,
                                 int32_t shift, int64_t threshold,
                                 int64_t max_value, int64_t *values,
                                 const uint8_t *w, uint8_t *w_new,
                                 int32_t majority, int32_t *wrong_counts,
                                 int64_t n);
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
    # The kernel's worker pool is pthreads; -pthread covers both the
    # compile-time feature macros and the link-time library on every
    # ELF toolchain.  Windows builds take the kernel's serial fallback
    # (#ifndef _WIN32) and need no flag.
    thread_args = [] if sys.platform == "win32" else ["-pthread"]
    builder.set_source(
        module_name,
        source,
        extra_compile_args=["-O3"] + thread_args,
        extra_link_args=thread_args,
    )
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
            "native scan backend unavailable, falling back to the "
            f"numpy scan tier ({_BACKEND})",
            RuntimeWarning,
            stacklevel=3,
        )
    return _BACKEND


def native_available() -> bool:
    """True when the compiled backend can be (or was) built and loaded.

    The first call triggers the lazy build; a failure warns once
    (``RuntimeWarning``) and sticks for the process.  Setting
    ``REPRO_NATIVE=0`` reports False without probing the compiler at
    all — the documented kill switch for fallback testing.
    """
    if envvars.NATIVE.text() == "0":
        return False
    return not isinstance(_backend(), str)


def native_threads() -> int:
    """The resolved grouping-pass worker count, clamped to [1, 16].

    ``REPRO_NATIVE_THREADS`` when set (and parseable), else one worker
    per available CPU.  ``1`` is the fully serial path; every setting
    produces byte-identical results (the grouping passes are stable
    counting sorts, whose output is unique), so the knob trades only
    wall-clock.  Sweep workers pin this to ``1`` unless the variable is
    set explicitly — one process per CPU already saturates the machine
    (see :func:`repro.sim.parallel._init_worker`).
    """
    value = envvars.NATIVE_THREADS.int_value()
    if value is None:
        value = os.cpu_count() or 1
    return max(1, min(value, _MAX_THREADS))


def compiler_info() -> Optional[Dict[str, object]]:
    """Toolchain and threading facts behind the compiled backend.

    A dict with ``compiler`` (first line of the C compiler's
    ``--version``, or None when no compiler answers), ``thread_backend``
    (``"pthreads"`` or ``"serial"`` once the backend is built, None when
    it is unavailable) and ``threads`` (the :func:`native_threads`
    resolution in effect).  Recorded in ``BENCH_engine.json``'s native
    section header so throughput numbers carry the toolchain and the
    worker count that produced them.  None — never an exception — when
    there is nothing to report at all (no compiler answers *and* no
    built backend), so the no-compiler bench header stays writable.
    """
    compiler: Optional[str] = None
    cc = os.environ.get("CC") or "cc"
    try:
        probe = subprocess.run(
            [cc, "--version"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        probe = None
    if probe is not None and probe.returncode == 0 and probe.stdout:
        compiler = probe.stdout.splitlines()[0].strip()

    thread_backend: Optional[str] = None
    if native_available():
        _, lib = _backend()
        thread_backend = (
            "pthreads" if lib.repro_thread_backend() else "serial"
        )
    if compiler is None and thread_backend is None:
        return None
    return {
        "compiler": compiler,
        "thread_backend": thread_backend,
        "threads": native_threads(),
    }


# -- dispatch ----------------------------------------------------------------


def _native_plan(
    predictor: BranchPredictor, trace: Trace
) -> Optional[Tuple[str, int, list]]:
    """``(kind, entry_bits, per-bank counters)`` when ``predictor`` is a
    table family some C walk expresses, else None.

    ``kind`` is ``"add"`` (always-update), ``"lazy1"`` (single-bank
    train-on-miss) or ``"partial"`` (multi-bank vote-wrongness
    fixpoint).  Multi-bank LAZY and non-table schemes return None.
    """
    kind = type(predictor)
    if kind is BimodalPredictor:
        return "add", predictor.index_bits, [predictor.bank.counters]
    if kind in (GsharePredictor, GselectPredictor):
        if not _vector_supports(predictor, trace):
            return None
        return "add", predictor.index_bits, [predictor.bank.counters]
    if kind in (SkewedPredictor, EnhancedSkewedPredictor):
        if not _vector_supports(predictor, trace):
            return None
        banks = predictor.banks
        entry_bits = predictor.bank_index_bits
        counters = [bank.counters for bank in banks]
        if len(banks) == 1:
            if predictor.update_policy is UpdatePolicy.LAZY:
                return "lazy1", entry_bits, counters
            return "add", entry_bits, counters
        if predictor.update_policy is UpdatePolicy.TOTAL:
            return "add", entry_bits, counters
        if predictor.update_policy is UpdatePolicy.PARTIAL:
            # Fixpoint rounds scale with in-block aliasing density;
            # past the (C-kernel-sized) ceiling the sequential loop is
            # the better tier, exactly as for the numpy fixpoint.
            n = len(_cond_takens(trace))
            if n > _NATIVE_MAX_PARTIAL_DENSITY << entry_bits:
                return None
            return "partial", entry_bits, counters
        return None  # multi-bank LAZY: frozen counters, loop tier
    return None


def word_width_ok(entry_bits: int, banks: int, n: int) -> bool:
    """Whether ``tag | key | position | outcome`` fits a uint64 word."""
    shift = max(1, (n - 1).bit_length()) + 1
    tag_bits = (banks - 1).bit_length()
    return entry_bits + tag_bits + shift <= 64


def native_supports(predictor: BranchPredictor, trace: Trace) -> bool:
    """True if ``predictor`` has a native fast path over ``trace``.

    The always-update family (bimodal/gshare/gselect, single-bank
    non-LAZY skewed, multi-bank TOTAL skewed/e-gskew), single-bank LAZY
    and multi-bank PARTIAL (below the aliasing-density ceiling) within
    the packed uint64 word width, *and* the backend built.  Agree and
    multi-bank LAZY keep their scan or loop tiers.
    """
    plan = _native_plan(predictor, trace)
    if plan is None:
        return False
    kind, entry_bits, counters = plan
    n = len(_cond_takens(trace))
    if not native_cell_ok(kind, entry_bits, len(counters), n):
        return False
    return native_available()


def native_cell_ok(kind: str, entry_bits: int, banks: int, n: int) -> bool:
    """Geometry half of :func:`native_supports`, for a planned cell.

    Applies the word-width (block-relative for PARTIAL) and
    aliasing-density gates to a cell's ``add`` / ``lazy1`` / ``partial``
    kind without re-deriving the plan.  The caller still checks
    :func:`native_available` separately.
    """
    if kind == "partial":
        if n > _NATIVE_MAX_PARTIAL_DENSITY << entry_bits:
            return False
        span = min(n, _PARTIAL_BLOCK)
    else:
        span = n
    return word_width_ok(entry_bits, banks, span)


def sort_strategy(
    entry_bits: int, banks: int, n: int, threads: int
) -> str:
    """Which grouping pass a geometry takes: the bench-visible dispatch.

    ``"direct-bucket"`` — one counting sort over the real key range —
    whenever the histogram work is worth it: ``K = banks << entry_bits``
    key slots cost ``K * threads`` slot-traffic (per-worker histograms
    plus the fold) against the ``(passes - 1) * 2m`` word-traffic the
    LSD path would add beyond its own single pass, which nets out to
    bucketing iff ``K * threads <= max(2 ** 16, 2 * banks * n)`` (see
    ``docs/performance.md`` for the derivation), under a hard
    ``_BUCKET_MAX_KEYS`` allocation cap.  Otherwise ``"lsd"`` (serial)
    or ``"threaded-lsd"``.  Both orders are the same unique stable
    grouping — strategy choice never changes a result bit.
    """
    total_keys = banks << entry_bits
    m = banks * n
    if total_keys <= _BUCKET_MAX_KEYS and (
        total_keys * max(threads, 1) <= max(_BUCKET_MIN_WORK, 2 * m)
    ):
        return "direct-bucket"
    return "threaded-lsd" if threads > 1 else "lsd"


def _tagged_keys(
    streams: List[np.ndarray], entry_bits: int, n: int
) -> np.ndarray:
    """Bank-major global keys: ``bank << entry_bits | entry`` per event."""
    banks = len(streams)
    if entry_bits + (banks - 1).bit_length() > 64:
        # Dispatch gates on word_width_ok (a stricter bound: tag + key
        # + position|outcome), so this is defence in depth for direct
        # callers.
        raise ValueError("tagged key does not fit a uint64")
    keys = np.empty(banks * n, dtype=np.uint64)
    for b, stream in enumerate(streams):
        block = keys[b * n : (b + 1) * n]
        if b:
            np.add(
                stream,
                np.uint64(b << entry_bits),
                out=block,
                casting="unsafe",
            )
        else:
            block[:] = stream
    return keys


def _grouped_words(
    backend,
    keys: np.ndarray,
    outcomes_u8: np.ndarray,
    n: int,
    banks: int,
    shift: int,
    entry_bits: int,
    threads: int,
    timer: StageTimer,
) -> np.ndarray:
    """Group tagged keys into packed words via the strategy of
    :func:`sort_strategy`; stages accumulate under ``"bucket"`` or
    ``"sort"`` accordingly."""
    ffi, lib = backend
    m = banks * n
    grouped = np.empty(m, dtype=np.uint64)
    if sort_strategy(entry_bits, banks, n, threads) == "direct-bucket":
        total_keys = banks << entry_bits
        with timer.stage("bucket"):
            counts = np.empty(threads * total_keys, dtype=np.int64)
            lib.repro_pack_bucket(
                ffi.from_buffer("uint64_t[]", keys),
                ffi.from_buffer("uint8_t[]", outcomes_u8),
                n,
                banks,
                shift,
                total_keys,
                ffi.from_buffer("int64_t[]", counts),
                ffi.from_buffer("uint64_t[]", grouped),
                threads,
            )
    else:
        with timer.stage("sort"):
            scratch = np.empty(m, dtype=np.uint64)
            lib.repro_pack_sort(
                ffi.from_buffer("uint64_t[]", keys),
                ffi.from_buffer("uint8_t[]", outcomes_u8),
                n,
                banks,
                shift,
                entry_bits,
                ffi.from_buffer("uint64_t[]", grouped),
                ffi.from_buffer("uint64_t[]", scratch),
                threads,
            )
    return grouped


def _checked_backend():
    if envvars.NATIVE.text() == "0":
        raise RuntimeError("native backend unavailable (REPRO_NATIVE=0)")
    backend = _backend()
    if isinstance(backend, str):
        raise RuntimeError(f"native backend unavailable ({backend})")
    return backend


def run_table_kernel(
    streams: List[np.ndarray],
    outcomes: np.ndarray,
    values: np.ndarray,
    entry_bits: int,
    threshold: int,
    max_value: int,
    warmup: int,
    timer: StageTimer,
    threads: Optional[int] = None,
) -> int:
    """One C pass over one always-update predictor's tables; returns the
    miss count.

    ``values`` is the bank-concatenated int64 counter array, mutated in
    place to the final state (any contiguous view works).  ``outcomes`` is
    the bool conditional-outcome stream; stages accumulate under
    ``"bucket"`` or ``"sort"`` (the grouping pass, by strategy) and
    ``"scan"`` (the fused walk).  ``threads`` defaults to the
    :func:`native_threads` resolution.
    """
    backend = _checked_backend()
    ffi, lib = backend
    n = len(outcomes)
    if n == 0:
        return 0
    if threads is None:
        threads = native_threads()
    banks = len(streams)
    m = banks * n
    shift = max(1, (n - 1).bit_length()) + 1

    with timer.stage("precompute"):
        keys = _tagged_keys(streams, entry_bits, n)
    grouped = _grouped_words(
        backend,
        keys,
        outcomes.view(np.uint8),
        n,
        banks,
        shift,
        entry_bits,
        threads,
        timer,
    )

    with timer.stage("scan"):
        if banks > 1:
            wrong_counts = np.empty(n, dtype=np.int32)
            wrong_buffer = ffi.from_buffer("int32_t[]", wrong_counts)
        else:
            wrong_buffer = ffi.NULL
        misses = lib.repro_scan_sorted(
            ffi.from_buffer("uint64_t[]", grouped),
            m,
            shift,
            threshold,
            max_value,
            ffi.from_buffer("int64_t[]", values),
            warmup,
            banks,
            banks // 2 + 1,
            wrong_buffer,
            n,
        )
    return int(misses)


def run_lazy1_kernel(
    stream: np.ndarray,
    outcomes: np.ndarray,
    values: np.ndarray,
    entry_bits: int,
    threshold: int,
    max_value: int,
    warmup: int,
    timer: StageTimer,
    threads: Optional[int] = None,
) -> int:
    """One C pass over a single-bank LAZY predictor's table; returns the
    miss count.  Same conventions as :func:`run_table_kernel`, with the
    train-on-miss walk (``repro_scan_lazy1``) in place of the
    always-update one.
    """
    backend = _checked_backend()
    ffi, lib = backend
    n = len(outcomes)
    if n == 0:
        return 0
    if threads is None:
        threads = native_threads()
    shift = max(1, (n - 1).bit_length()) + 1

    with timer.stage("precompute"):
        keys = np.ascontiguousarray(stream, dtype=np.uint64)
    grouped = _grouped_words(
        backend,
        keys,
        outcomes.view(np.uint8),
        n,
        1,
        shift,
        entry_bits,
        threads,
        timer,
    )
    with timer.stage("scan"):
        misses = lib.repro_scan_lazy1(
            ffi.from_buffer("uint64_t[]", grouped),
            n,
            shift,
            threshold,
            max_value,
            ffi.from_buffer("int64_t[]", values),
            warmup,
        )
    return int(misses)


def run_partial_kernel(
    streams: List[np.ndarray],
    outcomes: np.ndarray,
    values: np.ndarray,
    entry_bits: int,
    threshold: int,
    max_value: int,
    warmup: int,
    timer: StageTimer,
    threads: Optional[int] = None,
) -> Optional[int]:
    """Multi-bank PARTIAL via the C per-round fixpoint walk.

    The driver mirrors :func:`repro.sim.scan._scan_coupled`: the trace
    is cut into ``_COUPLED_BLOCK``-event checkpoint blocks, each block
    is grouped *once* (``"bucket"``/``"sort"`` stage — the numpy kernel
    re-encodes runs every round; the C round walks the same grouped
    words), and ``repro_scan_partial_round`` iterates the per-event
    vote-wrongness vector from all-wrong to its unique fixpoint, the
    true trajectory.  Counters re-seed from the block-entry snapshot
    each round, so the converged round leaves ``values`` in the exact
    block-final state.

    Returns the miss count, or None when some block did not settle
    within ``_COUPLED_ROUND_LIMIT`` rounds (the caller falls back to
    the exact sequential loop; ``values`` is then half-written and must
    be discarded, which every caller does).
    """
    backend = _checked_backend()
    ffi, lib = backend
    n = len(outcomes)
    if n == 0:
        return 0
    if threads is None:
        threads = native_threads()
    banks = len(streams)
    majority = banks // 2 + 1
    outcomes_u8 = outcomes.view(np.uint8)

    w_full = np.empty(n, dtype=np.uint8)
    work = np.empty_like(values)
    snapshot = np.empty_like(values)
    work_buffer = ffi.from_buffer("int64_t[]", work)
    for lo in range(0, n, _PARTIAL_BLOCK):
        hi = min(lo + _PARTIAL_BLOCK, n)
        nb = hi - lo
        shift = max(1, (nb - 1).bit_length()) + 1
        with timer.stage("precompute"):
            keys = _tagged_keys(
                [s[lo:hi] for s in streams], entry_bits, nb
            )
        grouped = _grouped_words(
            backend,
            keys,
            outcomes_u8[lo:hi],
            nb,
            banks,
            shift,
            entry_bits,
            threads,
            timer,
        )
        grouped_buffer = ffi.from_buffer("uint64_t[]", grouped)

        np.copyto(snapshot, values)
        w = np.ones(nb, dtype=np.uint8)
        w_new = np.empty(nb, dtype=np.uint8)
        wrong_counts = np.empty(nb, dtype=np.int32)
        w_buffer = ffi.from_buffer("uint8_t[]", w)
        w_new_buffer = ffi.from_buffer("uint8_t[]", w_new)
        wrong_buffer = ffi.from_buffer("int32_t[]", wrong_counts)
        converged = False
        with timer.stage("scan"):
            for _ in range(_PARTIAL_ROUND_LIMIT):
                np.copyto(work, snapshot)
                changed = lib.repro_scan_partial_round(
                    grouped_buffer,
                    banks * nb,
                    shift,
                    threshold,
                    max_value,
                    work_buffer,
                    w_buffer,
                    w_new_buffer,
                    majority,
                    wrong_buffer,
                    nb,
                )
                if changed == 0:
                    converged = True
                    break
                w, w_new = w_new, w
                w_buffer, w_new_buffer = w_new_buffer, w_buffer
        if not converged:
            return None  # block hit the round cap; caller runs the loop
        w_full[lo:hi] = w
        np.copyto(values, work)  # exact state entering the next block

    return int(np.count_nonzero(w_full[warmup:]))


def simulate_native(
    predictor: BranchPredictor,
    trace: Trace,
    warmup: int = 0,
    label: Optional[str] = None,
    stage_timer: Optional[StageTimer] = None,
) -> SimulationResult:
    """Native-kernel counterpart of :func:`repro.sim.engine.simulate`.

    Identical arguments and result; also leaves the predictor's
    counters and history register in the same final state the generic
    engine would.  ``stage_timer`` (optional) accumulates per-stage
    wall-clock under ``"precompute"`` (history + index streams + key
    tagging), ``"bucket"`` or ``"sort"`` (the C grouping pass, by
    :func:`sort_strategy`), ``"scan"`` (the fused C counter walks) and
    ``"reduce"`` (state writeback) — plus ``"counter_loop"`` on the
    rare PARTIAL round-cap bailout to the exact sequential loop.

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
        outcomes = _cond_takens(trace)
    n = len(outcomes)

    if n == 0:
        mispredictions = 0
    else:
        kind, entry_bits, counters = _native_plan(predictor, trace)
        with timer.stage("precompute"):
            streams = _index_streams(predictor, trace)
            values = np.concatenate(
                [
                    np.asarray(bank.values, dtype=np.int64)
                    for bank in counters
                ]
            )
        threshold = counters[0].threshold
        max_value = counters[0].max_value
        if kind == "add":
            mispredictions = run_table_kernel(
                streams, outcomes, values, entry_bits, threshold,
                max_value, warmup, timer,
            )
        elif kind == "lazy1":
            mispredictions = run_lazy1_kernel(
                streams[0], outcomes, values, entry_bits, threshold,
                max_value, warmup, timer,
            )
        else:  # partial
            mispredictions = run_partial_kernel(
                streams, outcomes, values, entry_bits, threshold,
                max_value, warmup, timer,
            )
        if mispredictions is None:
            # The fixpoint hit its round cap (adversarial traces only);
            # the sequential loop is exact and mutates the predictor
            # directly — `values` is abandoned half-written.
            with timer.stage("counter_loop"):
                _, mispredictions = _run_plan(
                    predictor, streams, outcomes.tolist(), warmup
                )
        else:
            with timer.stage("reduce"):
                entries = 1 << entry_bits
                for b, bank in enumerate(counters):
                    bank.values[:] = values[
                        b * entries : (b + 1) * entries
                    ].tolist()

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
