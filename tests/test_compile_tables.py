"""Compile-path physics tables and memos, held to the per-ring scalar
evaluation they replace.

* **Ring tables** — a :class:`VectorComputeCore` builds its transmission
  cache by selecting each ring's on/off row from memoised tables.  The
  property tests rebuild the cache, ``element_responses`` and
  ``full_scale_current`` with a per-ring scalar loop kept here and
  demand bitwise equality: ragged macros, 1-4 weight bits, and rings
  retuned from outside (thermal drift, heater shift, trim).
* **Ladder memo** — a fresh converter reuses a process-wide bisected
  ladder; it must equal a fresh bisection, and a trim change,
  ``invalidate_ladders`` or ``recalibrate`` must bisect again.
* **Work counters** — thru-transmission and conversion calls counted by
  wrapping the methods: a second fresh session compiles with zero ring
  evaluations and zero conversions, and a warm weight load evaluates no
  ring.  The counts are exact, so the gate is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import FlushPolicy, PhotonicSession
from repro.config import default_technology
from repro.core import compute_core, eoadc
from repro.core.compute_core import VectorComputeCore
from repro.core.eoadc import EoAdc
from repro.core.tensor_core import PhotonicTensorCore
from repro.health import TiaGainDrift
from repro.photonics.mrr import AddDropMRR

TECH = default_technology()


# --------------------------------------------------------------------------
# per-ring scalar reference
# --------------------------------------------------------------------------


def reference_cache(core: VectorComputeCore, voltage=None) -> np.ndarray:
    """Bus transmissions by evaluating every ring at every channel, in
    element order (``voltage=None`` reads each ring's live drive)."""
    wavelengths = core.plan.wavelengths
    cache = np.ones((core.macro_count, core.weight_bits, core.channels_per_macro))
    for element, planes in enumerate(core.multipliers):
        macro = element // core.channels_per_macro
        for plane, multiplier in enumerate(planes):
            cache[macro, plane, :] *= np.asarray(
                multiplier.ring.thru_transmission(wavelengths, voltage=voltage),
                dtype=float,
            )
    return cache


def reference_responses(core: VectorComputeCore, cache: np.ndarray) -> np.ndarray:
    fractions = np.asarray(core.splitter_tree.branch_fractions())
    power = core.technology.compute.channel_power
    responsivity = core.photodiode.spec.responsivity
    responses = np.empty(core.vector_length)
    for element in range(core.vector_length):
        macro = element // core.channels_per_macro
        channel = element % core.channels_per_macro
        responses[element] = (
            responsivity * power * float(fractions @ cache[macro, :, channel])
        )
    return responses


def reference_full_scale(core: VectorComputeCore) -> float:
    cache = reference_cache(core, voltage=core.technology.psram.vdd)
    fractions = np.asarray(core.splitter_tree.branch_fractions())
    power = core.technology.compute.channel_power
    responsivity = core.photodiode.spec.responsivity
    current = 0.0
    for macro in range(core.macro_count):
        start = macro * core.channels_per_macro
        stop = min(start + core.channels_per_macro, core.vector_length)
        inputs = np.zeros(core.channels_per_macro)
        inputs[: stop - start] = 1.0
        current += responsivity * float(fractions @ (cache[macro] @ (power * inputs)))
    return current


def assert_matches_reference(core: VectorComputeCore) -> None:
    cache = reference_cache(core)
    assert np.array_equal(core._transmission_cache, cache)
    assert np.array_equal(core.element_responses(), reference_responses(core, cache))
    assert core.full_scale_current() == reference_full_scale(core)


@st.composite
def core_cases(draw):
    length = draw(st.integers(min_value=1, max_value=10))
    bits = draw(st.integers(min_value=1, max_value=4))
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**bits - 1),
            min_size=length,
            max_size=length,
        )
    )
    # (element, plane, attribute, value) ring retunes applied from
    # outside the core, as thermal drift / heater lock / trim do.
    retunes = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=length - 1),
                st.integers(min_value=0, max_value=bits - 1),
                st.sampled_from(("delta_temperature", "heater_shift", "trim_error")),
                st.sampled_from((-2.0, -0.5, 0.25, 1.0)),
            ),
            max_size=4,
        )
    )
    return length, bits, weights, retunes


_RETUNE_SCALE = {"delta_temperature": 1.0, "heater_shift": 40e-12, "trim_error": 25e-12}


@given(case=core_cases())
@settings(max_examples=60, deadline=None)
def test_table_built_core_matches_per_ring_reference(case):
    length, bits, weights, retunes = case
    core = VectorComputeCore(length, bits, TECH)
    core.load_weights(weights)
    assert_matches_reference(core)
    for element, plane, attribute, value in retunes:
        ring = core.multipliers[element][plane].ring
        setattr(ring, attribute, getattr(ring, attribute) + value * _RETUNE_SCALE[attribute])
    # full_scale_current reads the rings live; the cache at the next load.
    assert core.full_scale_current() == reference_full_scale(core)
    core.load_weights(weights[::-1])
    assert_matches_reference(core)


def test_retuned_rings_reach_compute():
    """The thermal-lock ablation's pattern: heat every ring from
    outside, reload, and the outputs follow the hotter rings."""
    core = VectorComputeCore(4, 3, TECH)
    core.load_weights([7, 3, 5, 1])
    x = np.array([0.9, 0.4, 0.7, 0.2])
    nominal = core.compute(x)
    for planes in core.multipliers:
        for multiplier in planes:
            multiplier.ring.delta_temperature = 1.0
    core.load_weights(core.weights)
    assert core.compute(x) != nominal
    assert_matches_reference(core)
    for planes in core.multipliers:
        for multiplier in planes:
            multiplier.ring.delta_temperature = 0.0
    core.load_weights(core.weights)
    assert core.compute(x) == nominal


def test_ring_table_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(compute_core, "RING_TABLE_MEMO_SIZE", 3)
    core = VectorComputeCore(4, 1, TECH)
    for kelvin in (0.1, 0.2, 0.3):
        for planes in core.multipliers:
            planes[0].ring.delta_temperature = kelvin
        core.load_weights(core.weights)
        assert len(compute_core._RING_TABLE_MEMO) <= 3
        assert_matches_reference(core)


# --------------------------------------------------------------------------
# ladder memo
# --------------------------------------------------------------------------


@given(trims=st.lists(st.floats(min_value=-6e-12, max_value=6e-12), min_size=8, max_size=8))
@settings(max_examples=15, deadline=None)
def test_memoised_ladder_equals_fresh_bisection(trims):
    first = EoAdc(TECH, trim_errors=trims)
    memoised = first.code_boundaries()
    second = EoAdc(TECH, trim_errors=trims)
    assert second.code_boundaries() is memoised  # reused, not re-bisected
    assert np.array_equal(memoised, second._bisect_boundaries())


# --------------------------------------------------------------------------
# work counters
# --------------------------------------------------------------------------


@pytest.fixture
def work(monkeypatch):
    """Counts of AddDropMRR.thru_transmission and EoAdc.convert calls,
    starting from empty process-wide memos."""
    counts = {"ring_evals": 0, "converts": 0}
    ring_eval = AddDropMRR.thru_transmission
    convert = EoAdc.convert

    def counted_ring_eval(ring, *args, **kwargs):
        counts["ring_evals"] += 1
        return ring_eval(ring, *args, **kwargs)

    def counted_convert(adc, *args, **kwargs):
        counts["converts"] += 1
        return convert(adc, *args, **kwargs)

    monkeypatch.setattr(AddDropMRR, "thru_transmission", counted_ring_eval)
    monkeypatch.setattr(EoAdc, "convert", counted_convert)
    monkeypatch.setattr(compute_core, "_RING_TABLE_MEMO", type(compute_core._RING_TABLE_MEMO)())
    monkeypatch.setattr(eoadc, "_LADDER_MEMO", type(eoadc._LADDER_MEMO)())

    def take() -> dict:
        taken = dict(counts)
        counts.update(ring_evals=0, converts=0)
        return taken

    return take


def _compile_one(weights) -> PhotonicSession:
    session = PhotonicSession(grid=(8, 8))
    session.submit(weights, np.linspace(0.0, 1.0, 8))
    session.flush()
    return session


def test_second_fresh_session_compiles_without_physics(work):
    EoAdc(TECH)._bisect_boundaries()
    one_bisection = work()["converts"]
    rng = np.random.default_rng(2025)
    _compile_one(rng.integers(0, 8, (8, 8)))
    # Cold memos: one (off, on) pair per channel index, and one ladder
    # bisection for the eight row ADCs' shared trim.
    assert work() == {
        "ring_evals": 2 * TECH.compute.wavelengths_per_macro,
        "converts": one_bisection,
    }
    _compile_one(rng.integers(0, 8, (8, 8)))
    assert work() == {"ring_evals": 0, "converts": 0}


def test_warm_weight_load_evaluates_no_ring(work):
    rng = np.random.default_rng(4242)
    core = PhotonicTensorCore(rows=8, columns=8)
    work()
    for _ in range(3):
        core.load_weight_matrix(rng.integers(0, 8, (8, 8)))
    assert work() == {"ring_evals": 0, "converts": 0}


def test_trim_change_rebisects(work):
    adc = EoAdc(TECH)
    nominal = adc.code_boundaries()
    assert work()["converts"] > 0
    retrimmed = adc.trim_errors + 2e-12
    adc.trim_errors = retrimmed
    for ring, trim in zip(adc.rings, retrimmed):
        ring.trim_error = float(trim)
    adc.invalidate_boundaries()
    ladder = adc.code_boundaries()
    assert work()["converts"] > 0
    assert not np.array_equal(ladder, nominal)
    assert np.array_equal(ladder, EoAdc(TECH, trim_errors=retrimmed)._bisect_boundaries())


def test_invalidate_ladders_rebisects(work):
    core = PhotonicTensorCore(rows=2, columns=4)
    first = core.compile()
    assert work()["converts"] > 0
    core.compile()
    assert work()["converts"] == 0
    core.invalidate_ladders()
    again = core.compile()
    assert work()["converts"] > 0
    assert np.array_equal(again.boundaries, first.boundaries)


def test_recalibrate_rebisects(work):
    session = PhotonicSession(
        grid=(8, 8),
        flush_policy=FlushPolicy.max_batch(16),
        drift=(TiaGainDrift(drift_per_s=-8e-4),),
    )
    weights = np.full((8, 8), 3)
    session.submit(weights, np.linspace(0.0, 1.0, 8))
    session.flush()
    session.age(30.0)
    work()
    session.recalibrate()
    session.submit(weights, np.linspace(0.0, 1.0, 8))
    session.flush()
    assert work()["converts"] > 0
