"""Native engine: the counter walk and the trace generator's program
builder and runner as a small C kernel.

:func:`repro.sim.vectorized.simulate_walk` is the frame both fast tiers
share: it hands a backend the trace as it is stored — its ``uint32``
code stream and its event table (:class:`~repro.traces.trace.Trace`) —
the predictor's index :class:`~repro.sim.vectorized.Geometry` and
zero-copy views of the predictor's own state buffers — one-byte
counters, one pointer per bank, and agree's ``int8`` latch codes —
which the kernel updates in place.  This module is its C backend —
``_native_kernel.c``, compiled on demand with **cffi** — with the same
two walk entry points as the Python loops:

- ``repro_walk`` steps 1, 3 or 5 majority-voted banks through the
  conditional events in trace order under TOTAL, PARTIAL or LAZY
  update.  A plain table (bimodal / gshare / gselect) is one bank
  under TOTAL.
- ``repro_walk_agree`` does the same for the agree predictor: a
  gshare-indexed PHT plus a biasing-bit table that latches on each
  slot's first execution.

A third walk, ``repro_walk_lru``, runs the fully-associative LRU table
(``fa:<N>:h<k>``) outside that frame (:func:`_simulate_lru`).  It has no
Python twin: without a compiler the table runs on the generic
interpreter, which is also its oracle.

All three read each event's code, then its row of the event table (a
few thousand rows, which stay in cache), so a walk streams 4 bytes per
event from memory where four raw columns would stream 10.  They compute
every conditional event's table indices (or LRU keys) inside the walk,
2048 events at a time in stack buffers, so a call over a contiguous
code stream allocates nothing per event: its memory is the tables,
whatever the trace length.  A strided code stream (``Trace.slice`` /
``head`` / ``stride_split`` views) is copied contiguous first, at 4
bytes per event; no per-event column is ever built for the walk.

Walking in order is exact for every update policy by construction, so
:func:`native_supports` is one check — the spec is index-expressible or
the LRU table, and the backend built.

The same shared object holds the synthetic trace generator's three
entry points, each on a port of CPython's Mersenne Twister, so each
makes exactly what its Python counterpart in
:mod:`repro.traces.synthetic` does:

- ``repro_build_program`` (:func:`build_program_native`) builds a
  random program and writes it out as the flat arrays the runners read
  — :func:`~repro.traces.synthetic.cfg.build_program` and ``_compile``
  in one C pass;
- ``repro_run_program`` (:func:`run_program_native`) runs those arrays,
  as the Python runner in :mod:`repro.traces.synthetic.cfg` does;
- ``repro_random_block`` (:func:`random_block_native`) draws blocks of
  ``random.Random.random()`` for the scheduler's planner.

The backend is optional.  cffi + a C compiler are probed lazily on
first use; the shared object is compiled in a child process (cffi's
build imports setuptools, which would stay loaded here) and cached
under a version-fingerprinted directory (source + cdef + cffi/Python
versions + platform), so rebuilds happen only when any of those change,
and later processes just dlopen the cached module.  When the build
fails — no compiler or no cffi — :func:`native_available` reports False
(with a one-time ``RuntimeWarning`` quoting the child's error),
``simulate_fast`` runs the same frame with the Python walk and the
generator runs its Python runner; nothing in the library requires the
backend.

Results are bit-identical to :func:`repro.sim.engine.simulate`
including final counter, bias, LRU and history state (asserted by
``tests/sim/test_native.py``, which also pins every entry point to an
oracle by name; ``tests/test_engine_parity.py`` keeps that true for
any future entry point).

The Python↔C seam is checked where it can be checked exactly:

- the cdef is compiled as prototypes ahead of the kernel, so a
  definition that drifts from its declaration fails the build
  (``conflicting types``) and a declaration with no definition fails
  the load (``undefined symbol``);
- cffi refuses a call with the wrong arity, a wrongly declared buffer
  or a buffer in a scalar's place (``TypeError``);
- :func:`_buffer` refuses an array whose numpy dtype is not the
  element type its ``T[]`` declares, which ``ffi.from_buffer`` alone
  would reinterpret silently (``ValueError``);
- the kernel trusts its codes to name table rows and its tables to
  match the geometry, so :func:`repro.sim.vectorized._check_walk`
  checks both, and that the tables it writes are writable arrays of
  its element types, before the call (``ValueError``); past it, every
  read and index is in range by construction.  The LRU walk bounds its
  own slots and refuses (-1) a table that outgrows them;
- the program runner trusts every id, range and offset in its arrays,
  so :func:`repro.traces.synthetic.cfg._check_program` checks them, and
  the nesting depth against the runner's recursion limit, before the
  call (``ValueError``) — the C builder's arrays included;
- the program builder takes the room it may write as sizes, writes
  nothing past them, and reports what it needs (the caller counts,
  then fills).
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import json
import subprocess
import sys
import sysconfig
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.core.counters import MAX_ARRAY_COUNTER_BITS
from repro.predictors.associative import FullyAssociativePredictor
from repro.predictors.base import BranchPredictor
from repro.sim.metrics import SimulationResult
from repro.sim.profile import NULL_STAGE_TIMER, StageTimer
from repro.sim.vectorized import (
    Geometry,
    WalkBackend,
    WalkInterrupted,
    _check_events,
    _check_walk,
    _final_history,
    _walk_result,
    simulate_walk,
    supports,
)
from repro.traces.pairs import _MAX_HISTORY_BITS
from repro.traces.synthetic.cfg import _check_program, _Compiled
from repro.traces.trace import Trace
from repro.util import envvars

__all__ = [
    "build_program_native",
    "native_available",
    "native_supports",
    "random_block_native",
    "run_program_native",
    "simulate_native",
]

#: Overrides the build-cache directory (defaults to
#: ``~/.cache/repro-native``, falling back to the system temp dir).
CACHE_ENV_VAR = envvars.NATIVE_CACHE.name

_KERNEL_PATH = Path(__file__).with_name("_native_kernel.c")

#: The backend ABI, verbatim for cffi and compiled ahead of the kernel
#: as its prototypes.  Every function named here is a kernel entry
#: point; ``tests/test_engine_parity.py`` requires each to be pinned by a
#: test referencing it by name.
_CDEF = """
int64_t repro_walk(const uint32_t *codes, int64_t n, const uint64_t *pcs,
                   const uint8_t *takens, const uint8_t *conditionals,
                   int32_t scheme, int32_t bits, int32_t history_bits,
                   uint64_t history_seed, int32_t bank0_bits,
                   int32_t banks, int32_t policy, int64_t threshold,
                   int64_t max_value, uint8_t **tables, int64_t warmup);
int64_t repro_walk_agree(const uint32_t *codes, int64_t n,
                         const uint64_t *pcs, const uint8_t *takens,
                         const uint8_t *conditionals, int32_t bits,
                         int32_t history_bits, uint64_t history_seed,
                         int32_t bias_bits, int64_t threshold,
                         int64_t max_value, uint8_t *values, int8_t *bias,
                         int64_t warmup);
int64_t repro_walk_lru(const uint32_t *codes, int64_t n, const uint64_t *pcs,
                       const uint8_t *takens, const uint8_t *conditionals,
                       int32_t history_bits, uint64_t history_seed,
                       int64_t entries, int64_t threshold, int64_t max_value,
                       uint64_t *keys, uint8_t *values, int64_t capacity,
                       int64_t *counts, int64_t warmup);
int64_t repro_run_program(const int32_t *nodes, const int32_t *procedures,
                          const int32_t *kinds, const int64_t *ints,
                          const double *floats, int32_t behavior_count,
                          const uint8_t *blob, const uint32_t *mt_words,
                          int32_t mt_index, int64_t *state,
                          int32_t *codes, int64_t demand);
int64_t repro_random_block(uint32_t *mt_words, int32_t *mt_index,
                           double *out, int64_t n);
int64_t repro_build_program(const uint32_t *mt_words, int32_t mt_index,
                            int32_t procedures, int64_t per_procedure,
                            uint64_t base_address, int64_t max_nesting,
                            int32_t fanout, int64_t block_low,
                            int64_t block_high, const double *cum_weights,
                            double bias_strength, double hard_fraction,
                            double lambd, int32_t correlated_bits,
                            double correlated_noise, int32_t *nodes,
                            int32_t *procs, uint64_t *pcs, uint8_t *takens,
                            uint8_t *conditionals, uint64_t *targets,
                            int32_t *kinds, int64_t *ints, double *floats,
                            uint8_t *blob, int64_t *sizes);
"""

#: The kernel's compile flags.  ``-ffp-contract=off`` keeps a target
#: with FMA from fusing a multiply and an add into one rounding: the
#: program builder's doubles must round exactly as CPython's do.
_COMPILE_ARGS = ["-O3", "-ffp-contract=off"]

#: (ffi, lib) once built, or an error string once the build failed;
#: None until the first probe.  Guarded by ``_BUILD_LOCK``.
_BACKEND: "Optional[object]" = None
_BUILD_LOCK = threading.Lock()
_WARNED = False


def _fingerprint(source: str) -> str:
    """Version fingerprint of everything the shared object depends on:
    the compiled C text (cdef included) and the toolchain versions."""
    import cffi

    payload = "\x00".join(
        [
            source,
            " ".join(_COMPILE_ARGS),
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


#: The build, run by ``sys.executable`` in a child process: reads
#: ``[module name, source, cdef, build dir, compile args]`` as JSON on
#: stdin, compiles the shared object and prints its path, or exits with
#: the error.  cffi's compile imports setuptools, which would otherwise
#: stay loaded in the caller for the rest of its life.
_BUILD_SCRIPT = """
import json, sys
import cffi
module_name, source, cdef, build_dir, compile_args = json.load(sys.stdin)
builder = cffi.FFI()
builder.cdef(cdef)
builder.set_source(
    module_name, source, extra_compile_args=compile_args, libraries=["m"]
)
try:
    so_path = builder.compile(tmpdir=build_dir)
except Exception as exc:
    sys.exit(f"{type(exc).__name__}: {exc}")
print(so_path)
"""


def _compile_in_child(module_name: str, source: str, build_dir: Path) -> Path:
    """Build the shared object in a ``sys.executable`` child process.

    Raises:
        RuntimeError: if the child fails; the message carries its output
            (the compiler's diagnostics, then the error).
    """
    done = subprocess.run(
        [sys.executable, "-c", _BUILD_SCRIPT],
        input=json.dumps(
            [module_name, source, _CDEF, str(build_dir), _COMPILE_ARGS]
        ),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"kernel build failed (exit {done.returncode}): {done.stdout.strip()}"
        )
    return Path(done.stdout.strip().splitlines()[-1])


def _build_backend():
    """Compile (or dlopen the cached) kernel; returns ``(ffi, lib)``.

    Raises on any failure — missing cffi, missing compiler, bad cache
    directory, a kernel that does not match its cdef — and the caller
    converts that into the unavailable state.  The fingerprinted module
    name makes the cache self-keying: a stale shared object simply
    never matches the current name.  The compile runs in a child
    process (:func:`_compile_in_child`); this one only dlopens.
    """
    source = "#include <stdint.h>\n" + _CDEF + _KERNEL_PATH.read_text(
        encoding="utf-8"
    )
    module_name = f"_repro_native_{_fingerprint(source)}"
    build_dir = _cache_dir()
    cached = _find_cached(build_dir, module_name)
    if cached is not None:
        return _load(cached, module_name)
    build_dir.mkdir(parents=True, exist_ok=True)
    return _load(_compile_in_child(module_name, source, build_dir), module_name)


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
            "native backend unavailable, falling back to the Python walk, "
            f"program builder and runner ({_BACKEND})",
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


# -- the C backend ------------------------------------------------------------


def _lru_supports(predictor: BranchPredictor) -> bool:
    """True for an LRU table whose history and counters ``repro_walk_lru``
    holds (63 bits, a byte)."""
    return (
        type(predictor) is FullyAssociativePredictor
        and predictor.history_bits <= _MAX_HISTORY_BITS
        and 1 <= predictor.counter_bits <= MAX_ARRAY_COUNTER_BITS
    )


def native_supports(predictor: BranchPredictor, trace: Trace) -> bool:
    """True if ``predictor`` has a native fast path over ``trace``.

    Every index-expressible spec — whatever :func:`repro.sim.vectorized.
    supports` takes — and the fully-associative LRU table, once the
    backend built.
    """
    return (
        supports(predictor, trace) or _lru_supports(predictor)
    ) and native_available()


def _checked_backend():
    backend = _backend()
    if isinstance(backend, str):
        raise RuntimeError(f"native backend unavailable ({backend})")
    return backend


#: The numpy dtype behind each element type the kernel takes as ``T *``.
_DTYPES = {
    "uint8_t": np.dtype(np.uint8),
    "int8_t": np.dtype(np.int8),
    "int32_t": np.dtype(np.int32),
    "uint32_t": np.dtype(np.uint32),
    "uint64_t": np.dtype(np.uint64),
    "int64_t": np.dtype(np.int64),
    "double": np.dtype(np.float64),
}


def _buffer(ffi, ctype: str, array: np.ndarray):
    """``ffi.from_buffer(ctype, array)`` for an array of exactly the
    element type ``ctype`` (``"T[]"``) declares.

    cffi matches the declared ``T[]`` against the cdef at the call, but
    takes any buffer behind it: an int32 table passed as ``int64_t[]``
    would be read as half as many garbage counters.
    """
    dtype = _DTYPES[ctype[:-2]]
    if array.dtype != dtype:
        raise ValueError(f"{ctype} needs a {dtype} array, not {array.dtype}")
    return ffi.from_buffer(ctype, array)


def _trace_buffers(
    ffi, codes: np.ndarray, pcs: np.ndarray, takens: np.ndarray,
    conditionals: np.ndarray,
):
    """The kernel's ``codes`` buffer and event count, then the event
    table's ``pcs``, ``takens`` and ``conditionals`` buffers.

    ``ffi.from_buffer`` refuses a strided view (``Trace.slice``,
    ``head`` and ``stride_split`` make them), so the codes are made
    contiguous first — a 4-byte-per-event copy only for such views.
    The table is the trace's own, always contiguous.
    """
    return (
        _buffer(ffi, "uint32_t[]", np.ascontiguousarray(codes)),
        len(codes),
        _buffer(ffi, "uint64_t[]", pcs),
        _buffer(ffi, "uint8_t[]", takens),
        _buffer(ffi, "uint8_t[]", conditionals),
    )


def _call_walk(entry, *arguments) -> int:
    """Call a kernel walk over fully prepared arguments.

    Raises:
        WalkInterrupted: if the call raises: the kernel writes the
            tables in place, so they may be partly trained.
    """
    try:
        return entry(*arguments)
    except Exception as exc:
        raise WalkInterrupted(f"the C walk failed: {exc!r}") from exc


def _walk(
    codes: np.ndarray, pcs: np.ndarray, takens: np.ndarray,
    conditionals: np.ndarray, geometry: Geometry, policy: int,
    threshold: int, max_value: int, tables: Sequence[np.ndarray],
    warmup: int,
) -> int:
    """``repro_walk`` over the banks' ``uint8`` counter tables, in
    place: the kernel takes one pointer per bank."""
    ffi, lib = _checked_backend()
    _check_walk(
        codes, pcs, takens, conditionals, geometry, max_value, tables, policy
    )
    scheme, bits, history_bits, seed, bank0_bits, banks = geometry
    misses = _call_walk(
        lib.repro_walk,
        *_trace_buffers(ffi, codes, pcs, takens, conditionals),
        scheme,
        bits,
        history_bits,
        seed,
        bank0_bits,
        banks,
        policy,
        threshold,
        max_value,
        # cffi passes the list as a temporary ``uint8_t *[]``.
        [_buffer(ffi, "uint8_t[]", table) for table in tables],
        warmup,
    )
    if misses < 0:
        raise ValueError(f"repro_walk refused {geometry}")
    return misses


def _walk_agree(
    codes: np.ndarray, pcs: np.ndarray, takens: np.ndarray,
    conditionals: np.ndarray, geometry: Geometry, threshold: int,
    max_value: int, values: np.ndarray, bias: np.ndarray, warmup: int,
) -> int:
    """``repro_walk_agree`` over the ``uint8`` PHT ``values`` and the
    ``int8`` latch codes ``bias``, in place."""
    ffi, lib = _checked_backend()
    _check_walk(
        codes, pcs, takens, conditionals, geometry, max_value, [values],
        bias=bias,
    )
    _, bits, history_bits, seed, bias_bits, _ = geometry
    misses = _call_walk(
        lib.repro_walk_agree,
        *_trace_buffers(ffi, codes, pcs, takens, conditionals),
        bits,
        history_bits,
        seed,
        bias_bits,
        threshold,
        max_value,
        _buffer(ffi, "uint8_t[]", values),
        _buffer(ffi, "int8_t[]", bias),
        warmup,
    )
    if misses < 0:
        raise ValueError(f"repro_walk_agree refused {geometry}")
    return misses


#: The C kernel behind the ``native`` tier.
NATIVE_BACKEND = WalkBackend("native", native_supports, _walk, _walk_agree)


def _walk_lru(
    codes: np.ndarray, pcs: np.ndarray, takens: np.ndarray,
    conditionals: np.ndarray, history_bits: int, seed: int, entries: int,
    threshold: int, max_value: int, keys: np.ndarray, values: np.ndarray,
    counts: np.ndarray, warmup: int,
) -> int:
    """``repro_walk_lru`` over an LRU table's slots, in place: ``keys``
    (a (word, history) row per slot) and ``values``, the first
    ``counts[0]`` of them the resident pairs, least recent first, on
    entry and on return; ``counts[1]`` returns the lookups that missed.
    Returns the mispredictions past ``warmup``.

    No failure here is a :class:`WalkInterrupted`: the kernel writes the
    slots only once done, and the caller its predictor only after this.

    Raises:
        ValueError: on codes :func:`repro.sim.vectorized._check_events`
            refuses, slots of the wrong shape or dtype, or arguments the
            kernel refuses, a table that outgrows its slots included.
    """
    ffi, lib = _checked_backend()
    _check_events(codes, pcs, takens, conditionals)
    if keys.shape != (len(values), 2):
        raise ValueError("need one (word, history) key per LRU slot")
    misses = lib.repro_walk_lru(
        *_trace_buffers(ffi, codes, pcs, takens, conditionals),
        history_bits, seed, entries, threshold, max_value,
        _buffer(ffi, "uint64_t[]", keys), _buffer(ffi, "uint8_t[]", values),
        len(values), _buffer(ffi, "int64_t[]", counts), warmup,
    )
    if misses < 0:
        raise ValueError(f"repro_walk_lru refused {entries} entries over {len(values)} slots")
    return misses


def _simulate_lru(
    predictor: FullyAssociativePredictor,
    trace: Trace,
    warmup: int,
    label: Optional[str],
    stage_timer: Optional[StageTimer],
) -> SimulationResult:
    """:func:`_walk_lru` seeded from the predictor's ``OrderedDict`` and
    written back to it, with ``hits``/``misses`` and the history.  The
    slots are the resident pairs plus one per conditional event, up to
    the table's size: memory is the table, never the trace."""
    timer = NULL_STAGE_TIMER if stage_timer is None else stage_timer
    table, history = predictor.table, predictor.history
    size, conditionals = len(table), trace.conditional_count
    with timer.stage("precompute"):
        capacity = max(size, min(predictor.entries, size + conditionals))
        keys = np.zeros((capacity, 2), np.uint64)
        values = np.zeros(capacity, np.uint8)
        if size:
            keys[:size], values[:size] = list(table), list(table.values())
        counts = np.array([size, 0], np.int64)
    with timer.stage("scan"):
        misses = _walk_lru(
            trace.codes, *trace.table[:3], history.bits, history.value,
            predictor.entries, predictor._threshold, predictor._max, keys,
            values, counts, warmup,
        )
    with timer.stage("reduce"):
        size, lookups_missed = counts.tolist()
        table.clear()
        table.update(zip(map(tuple, keys[:size].tolist()), values[:size].tolist()))
        predictor.hits += conditionals - lookups_missed
        predictor.misses += lookups_missed
        history.value = _final_history(trace, history.bits, history.value)
    return _walk_result(predictor, trace, warmup, label, misses, "native")


def run_program_native(
    compiled: _Compiled, mt_state: Sequence[int], demand: int
) -> np.ndarray:
    """``repro_run_program``: the first ``demand`` codes of a compiled
    synthetic program, as :func:`repro.traces.synthetic.cfg.run_program`
    returns them.

    ``mt_state`` is ``random.Random(seed).getstate()[1]``, the state the
    Python runner's RNG starts from.

    Raises:
        RuntimeError: if the backend did not build.
        ValueError: on arrays :func:`repro.traces.synthetic.cfg.
            _check_program` refuses (checked before the call).
    """
    ffi, lib = _checked_backend()
    _check_program(compiled, mt_state)
    codes = np.empty(max(0, demand), dtype=np.int32)
    written = lib.repro_run_program(
        _buffer(ffi, "int32_t[]", compiled.nodes),
        _buffer(ffi, "int32_t[]", compiled.procedures),
        _buffer(ffi, "int32_t[]", compiled.kinds),
        _buffer(ffi, "int64_t[]", compiled.ints),
        _buffer(ffi, "double[]", compiled.floats),
        len(compiled.kinds),
        _buffer(ffi, "uint8_t[]", compiled.blob),
        _buffer(ffi, "uint32_t[]", np.array(mt_state[:-1], dtype=np.uint32)),
        mt_state[-1],
        _buffer(ffi, "int64_t[]", np.zeros(len(compiled.kinds), dtype=np.int64)),
        _buffer(ffi, "int32_t[]", codes),
        len(codes),
    )
    if written != len(codes):
        raise ValueError("repro_run_program refused the program")
    return codes


def random_block_native(
    words: np.ndarray, index: np.ndarray, count: int
) -> np.ndarray:
    """``repro_random_block``: the next ``count`` doubles of
    ``random.Random.random()`` from the twister state ``words`` (624
    ``uint32``) and ``index`` (one ``int32``, the position), which it
    advances in place.

    Raises:
        RuntimeError: if the backend did not build.
        ValueError: on a state of the wrong shape or a position past the
            words.
    """
    ffi, lib = _checked_backend()
    if words.shape != (624,) or index.shape != (1,):
        raise ValueError("twister state must be 624 words and a position")
    block = np.empty(count, dtype=np.float64)
    drawn = lib.repro_random_block(
        _buffer(ffi, "uint32_t[]", words),
        _buffer(ffi, "int32_t[]", index),
        _buffer(ffi, "double[]", block),
        count,
    )
    if drawn != count:
        raise ValueError("twister position must be in [0, 624]")
    return block


#: ``repro_build_program``'s outputs: ``(field, element type, items per
#: unit)`` for each of its five sizes, in the kernel's argument order.
_PROGRAM_OUTPUTS = (
    (("nodes", "int32_t[]", 9),),
    (("procedures", "int32_t[]", 3),),
    (
        ("pcs", "uint64_t[]", 1),
        ("takens", "uint8_t[]", 1),
        ("conditionals", "uint8_t[]", 1),
        ("targets", "uint64_t[]", 1),
    ),
    (("kinds", "int32_t[]", 1), ("ints", "int64_t[]", 2), ("floats", "double[]", 2)),
    (("blob", "uint8_t[]", 1),),
)


def build_program_native(
    arguments: tuple, mt_state: Sequence[int]
) -> Optional[_Compiled]:
    """``repro_build_program``: a synthetic program built and compiled
    in C, as :func:`repro.traces.synthetic.cfg.build_program` and
    ``_compile`` make it from the same twister state.

    ``arguments`` are the builder's scalars
    (:func:`repro.traces.synthetic.cfg._kernel_arguments`) and
    ``mt_state`` is ``random.Random(seed).getstate()[1]``.  A first
    call with no room counts the arrays the program needs, and a second
    fills them.  Returns None for a program outside the kernel's domain
    (the Python builder builds it instead).  The result holds no
    behaviour objects (``behaviors`` is None): it is for the C runner.

    Raises:
        RuntimeError: if the backend did not build, or if the kernel
            asks for more room after it was given what it counted.
    """
    ffi, lib = _checked_backend()
    words = _buffer(ffi, "uint32_t[]", np.array(mt_state[:-1], dtype=np.uint32))
    # The one sequence among the arguments is the cumulative weights.
    scalars = [
        _buffer(ffi, "double[]", np.array(value, dtype=np.float64))
        if isinstance(value, tuple) else value
        for value in arguments
    ]
    sizes = np.zeros(5, dtype=np.int64)
    for _ in range(2):
        outputs = {
            name: np.empty(size * width, dtype=_DTYPES[ctype[:-2]])
            for size, group in zip(sizes.tolist(), _PROGRAM_OUTPUTS)
            for name, ctype, width in group
        }
        status = lib.repro_build_program(
            words, mt_state[-1], *scalars,
            *(_buffer(ffi, ctype, outputs[name])
              for group in _PROGRAM_OUTPUTS for name, ctype, _ in group),
            _buffer(ffi, "int64_t[]", sizes),
        )
        if status != 1:
            break
    if status < 0:
        return None
    if status != 0:
        raise RuntimeError("repro_build_program outgrew the arrays it counted")
    return _Compiled(behaviors=None, **{
        name: outputs[name].reshape(-1, width) if width > 1 else outputs[name]
        for group in _PROGRAM_OUTPUTS for name, _, width in group
    })


def simulate_native(
    predictor: BranchPredictor,
    trace: Trace,
    warmup: int = 0,
    label: Optional[str] = None,
    stage_timer: Optional[StageTimer] = None,
) -> SimulationResult:
    """:func:`repro.sim.vectorized.simulate_walk` with the C kernel.

    Identical arguments and result to :func:`repro.sim.engine.simulate`,
    and the same final counter, agree-bias and history state; a
    fully-associative LRU table runs ``repro_walk_lru``
    (:func:`_simulate_lru`) instead, with the same final table.

    Raises:
        ValueError: if the predictor has no native path or the backend
            did not build (callers wanting automatic fallback use
            :func:`repro.sim.vectorized.simulate_fast`).
    """
    if warmup >= 0 and _lru_supports(predictor) and native_available():
        return _simulate_lru(predictor, trace, warmup, label, stage_timer)
    return simulate_walk(
        NATIVE_BACKEND, predictor, trace, warmup, label, stage_timer
    )
