"""Contract tests: every predictor obeys the BranchPredictor interface.

One battery of behavioural contracts run against every predictor the
spec factory can build.  These are the guarantees the simulation engine
and the experiments rely on, so a new predictor that violates one fails
loudly here rather than corrupting an experiment.
"""

import gc
import random
import weakref

import pytest

from repro.predictors.path import PathHistoryPredictor
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.state import PredictorState
from repro.sim.vectorized import simulate_fast, simulate_vectorized, supports

SPECS = [
    "taken",
    "nottaken",
    "bimodal:64",
    "gshare:64:h4",
    "gshare:64:h4:c1",
    "gselect:64:h3",
    "gskew:3x32:h4:partial",
    "gskew:3x32:h4:total",
    "gskew:3x32:h4:lazy",
    "gskew:5x32:h4:partial",
    "egskew:3x32:h4:partial",
    "fa:32:h4",
    "unaliased:h4",
    "hybrid:32:h4",
    "agree:64:h4",
    "bimode:32:h4",
    "2bcgskew:32:h4",
    "pas:32/h4:256",
]


def _drive(predictor, steps=300, seed=5):
    rng = random.Random(seed)
    outcomes = []
    for __ in range(steps):
        address = 0x400000 + rng.randrange(64) * 4
        taken = rng.random() < 0.7
        outcomes.append(predictor.predict_and_update(address, taken))
        if rng.random() < 0.2:
            predictor.notify_unconditional(0x500000 + rng.randrange(16) * 4)
    return outcomes


@pytest.mark.parametrize("spec", SPECS)
class TestPredictorContract:
    def test_predictions_are_booleans(self, spec):
        predictor = make_predictor(spec)
        for outcome in _drive(predictor, steps=100):
            assert isinstance(outcome, bool)

    def test_deterministic_replay(self, spec):
        """Identical input streams produce identical predictions."""
        a = _drive(make_predictor(spec))
        b = _drive(make_predictor(spec))
        assert a == b

    def test_predict_is_pure(self, spec):
        predictor = make_predictor(spec)
        _drive(predictor, steps=120)
        first = predictor.predict(0x400100)
        for __ in range(5):
            assert predictor.predict(0x400100) == first

    def test_reset_restores_power_on_behaviour(self, spec):
        fresh = make_predictor(spec)
        used = make_predictor(spec)
        _drive(used, steps=200)
        used.reset()
        assert _drive(fresh, seed=11) == _drive(used, seed=11)

    def test_storage_bits_nonnegative_and_stable(self, spec):
        predictor = make_predictor(spec)
        before = predictor.storage_bits
        assert before >= 0
        _drive(predictor, steps=50)
        # Finite-hardware designs must not grow; only the unaliased
        # (explicitly infinite) predictor may.
        if spec != "unaliased:h4":
            assert predictor.storage_bits == before

    def test_fused_step_matches_decomposed_step(self, spec):
        """predict_and_update == predict; train; notify_outcome."""
        if spec == "unaliased:h4":
            # The unaliased predictor deviates by design: on a first
            # encounter predict_and_update reports the actual outcome
            # (the paper does not score compulsory references), while
            # bare predict() has no outcome to report.
            pytest.skip("first-encounter accounting deviates by design")
        rng = random.Random(31)
        fused = make_predictor(spec)
        decomposed = make_predictor(spec)
        for __ in range(250):
            address = 0x400000 + rng.randrange(64) * 4
            taken = rng.random() < 0.6
            expected = decomposed.predict(address)
            decomposed.train(address, taken)
            decomposed.notify_outcome(address, taken)
            assert fused.predict_and_update(address, taken) == expected

    def test_unconditional_notifications_never_crash(self, spec):
        predictor = make_predictor(spec)
        for address in range(0x400000, 0x400100, 4):
            predictor.notify_unconditional(address)
        predictor.predict_and_update(0x400100, True)

    def test_handles_extreme_addresses(self, spec):
        predictor = make_predictor(spec)
        for address in (0x0, 0x3, 0xFFFF_FFFC, 0x7FFF_FFFF_FFFC):
            prediction = predictor.predict_and_update(address, True)
            assert isinstance(prediction, bool)


def _round_trip(predictor, trace):
    state = PredictorState.capture(predictor)
    state.restore(predictor)
    assert PredictorState.capture(predictor) == state


def _walk_python(predictor, trace):
    if supports(predictor, trace):  # the Python walk's specs only
        simulate_vectorized(predictor, trace)


#: What a predictor goes through before it is dropped.
_LIFETIMES = {
    "fresh": lambda predictor, trace: None,
    "simulate": simulate,
    "simulate_fast": simulate_fast,
    "simulate_vectorized": _walk_python,
    "state_round_trip": _round_trip,
}


@pytest.mark.parametrize("use", sorted(_LIFETIMES))
@pytest.mark.parametrize("spec", [*SPECS, "path"])
def test_dropped_predictor_is_freed_without_the_collector(spec, use, tiny_trace):
    """A predictor's tables die with its last reference: nothing it
    holds (a bank's index function above all) may refer back to it, or
    its tables stay resident until the cyclic collector happens to run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        if spec == "path":
            predictor = PathHistoryPredictor(index_bits=6, depth=3)
        else:
            predictor = make_predictor(spec)
        _LIFETIMES[use](predictor, tiny_trace.head(500))
        ref = weakref.ref(predictor)
        del predictor
        assert ref() is None, f"{spec} outlived its last reference after {use}"
    finally:
        if enabled:
            gc.enable()
