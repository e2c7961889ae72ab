"""Every index function stays in range, and returns, at widths 0 and 1.

A table of one or two entries is where index arithmetic degenerates: a
mask of width 0 is 0, and a fold loop that shifts the history by
``index_bits`` never advances at width 0 (``gshare_index`` shipped that
hang once).  Every case here feeds a nonzero history of ``history_bits``
> 0 to the scalar index functions, to the predictors built on them and
to the fast tiers' whole-trace index streams.

Each Python call runs under a ``SIGALRM`` deadline, so a regression
fails its test instead of hanging the suite.  The compiled tier runs in
a child process with a timeout: neither a hang nor a crash in C returns
control to the interpreter.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from repro.aliasing.vectorized import scheme_indices
from repro.core.skew import pack_vector, skew_f0, skew_f1, skew_f2
from repro.predictors.gselect import gselect_index
from repro.predictors.gshare import gshare_index
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.native import native_available
from repro.sim.vectorized import simulate_vectorized, supports

#: seconds any one call may take; the widest case here takes milliseconds
DEADLINE = 5

ADDRESSES = (0, 4, 0x400104, 0xFFFFFFFC)
HISTORY_BITS = (1, 4, 13, 40)

#: one- and two-entry tables (index width 0 and 1) of every family built
#: on gshare_index, gselect_index or the skewing family f0-f2.  Multi-bank
#: skewed families need two entries a bank.
SPECS = [
    *(f"{kind}:{entries}:h{k}" for kind in ("gshare", "gselect", "agree")
      for entries in (1, 2) for k in (4, 13)),
    "gskew:1x1:h4",
    "gskew:1x2:h4",
    "gskew:3x2:h4:partial",
    "gskew:3x2:h13:lazy",
    "gskew:5x2:h4:total",
    "egskew:3x2:h4",
    "2bcgskew:2:h4",
    "bimode:1:h4",
    "hybrid:1:h4",
]

#: the tiny trace of tests/conftest.py, rebuilt in the child process
_CHILD = """
import json, sys
from repro.sim.config import make_predictor
from repro.sim.native import native_supports, simulate_native
from repro.traces.synthetic.generator import WorkloadConfig, generate_trace
from repro.traces.synthetic.kernel import SchedulerConfig
trace = generate_trace(WorkloadConfig(
    name="test-tiny", seed=7, length=4_000, processes=1,
    static_branches_per_process=80, procedures_per_process=8,
    kernel_static_branches=0, scheduler=SchedulerConfig(kernel_share=0.0)))
misses = {}
for spec in json.loads(sys.argv[1]):
    predictor = make_predictor(spec)
    if native_supports(predictor, trace):
        misses[spec] = simulate_native(predictor, trace).mispredictions
print(json.dumps(misses))
"""


@contextmanager
def deadline(seconds: int = DEADLINE):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _histories(history_bits: int):
    top = (1 << history_bits) - 1
    return (1, top, top & 0x5555555555, 1 << (history_bits - 1))


def _in_range(value: int, index_bits: int) -> bool:
    return 0 <= value < (1 << index_bits)


@pytest.mark.parametrize("index_bits", [0, 1])
@pytest.mark.parametrize("history_bits", HISTORY_BITS)
@pytest.mark.parametrize("function", [gshare_index, gselect_index])
def test_scalar_index_in_range(function, index_bits, history_bits):
    for address in ADDRESSES:
        for history in _histories(history_bits):
            with deadline():
                value = function(address, history, index_bits, history_bits)
            assert _in_range(value, index_bits), (address, history, value)


@pytest.mark.parametrize("history_bits", HISTORY_BITS)
def test_skew_family_in_range_at_width_one(history_bits):
    for address in ADDRESSES:
        for history in _histories(history_bits):
            with deadline():
                vector = pack_vector(address, history, history_bits)
                values = [f(vector, 1) for f in (skew_f0, skew_f1, skew_f2)]
            assert all(_in_range(value, 1) for value in values), values


def test_skew_family_refuses_width_zero():
    """The family shuffles n-bit halves; there is nothing to shuffle at
    n = 0, so it refuses rather than returning an out-of-range index."""
    vector = pack_vector(0x400104, 0b1011, 4)
    for f in (skew_f0, skew_f1, skew_f2):
        with deadline(), pytest.raises(ValueError):
            f(vector, 0)


@pytest.mark.parametrize("index_bits", [0, 1])
@pytest.mark.parametrize("history_bits", HISTORY_BITS)
@pytest.mark.parametrize("scheme", ["gshare", "gselect", "bimodal"])
def test_scheme_indices_in_range(scheme, index_bits, history_bits):
    words = np.array([a >> 2 for a in ADDRESSES], dtype=np.uint64)
    for history in _histories(history_bits):
        histories = np.full(len(words), history, dtype=np.uint64)
        with deadline():
            values = scheme_indices(
                scheme, words, histories, index_bits, history_bits
            )
        assert int(values.max()) < (1 << index_bits), values


def _bank_indices(predictor, address: int):
    """``(index, entries)`` of every bank ``address`` selects now."""
    if hasattr(predictor, "vector"):
        vector = predictor.vector(address)
        return [(bank.index(vector), bank.entries) for bank in predictor.banks]
    if hasattr(predictor, "index"):
        return [(predictor.index(address), predictor.entries)]
    return []


@pytest.fixture(scope="module")
def generic_misses(tiny_trace):
    misses = {}
    for spec in SPECS:
        with deadline():
            misses[spec] = simulate(make_predictor(spec), tiny_trace).mispredictions
    return misses


@pytest.mark.parametrize("spec", SPECS)
def test_predictor_indices_in_range(tiny_trace, spec):
    predictor = make_predictor(spec)
    addresses = np.unique(tiny_trace.pcs)[:64].tolist()
    conditional = tiny_trace.conditionals != 0
    pcs = tiny_trace.pcs[conditional][:500].tolist()
    takens = tiny_trace.takens[conditional][:500].tolist()
    with deadline():
        for pc, taken in zip(pcs, takens):
            predictor.predict_and_update(pc, bool(taken))
            for address in addresses:
                for index, entries in _bank_indices(predictor, address):
                    assert 0 <= index < entries, (address, index, entries)


@pytest.mark.parametrize("spec", SPECS)
def test_vectorized_matches_generic(tiny_trace, generic_misses, spec):
    predictor = make_predictor(spec)
    if not supports(predictor, tiny_trace):
        pytest.skip(f"{spec} has no vectorized path")
    with deadline():
        result = simulate_vectorized(predictor, tiny_trace)
    assert result.mispredictions == generic_misses[spec]


@pytest.mark.skipif(not native_available(), reason="native backend not built")
def test_native_matches_generic(generic_misses):
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(SPECS)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    native = json.loads(child.stdout)
    assert native, "no spec ran native"
    assert native == {spec: generic_misses[spec] for spec in native}
