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
  ring.  Device-object constructors and the multiplier ``bit`` setter
  are counted the same way: a second tiled build of a design constructs
  nothing, and a cache miss sets no ring drive.  The counts are exact,
  so the gate is deterministic.
* **Probe memo** — tiled grids compile on a memoised pristine probe; a
  grid must equal one compiled on a freshly constructed probe, the memo
  keeps its bound, holds no caller's drift state after a build, and an
  in-place technology edit gets a fresh probe.
"""

from __future__ import annotations

import copy
import gc
import weakref
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import FlushPolicy, PhotonicSession
from repro.config import Technology, default_technology
from repro.core import compute_core, eoadc
from repro.core.compute_core import VectorComputeCore, stacked_element_responses
from repro.core.eoadc import EoAdc
from repro.core.multiplier import OneBitPhotonicMultiplier
from repro.core.tensor_core import PhotonicTensorCore
from repro.health import ComparatorOffsetAging, DriftState, TiaGainDrift
from repro.photonics.mrr import AddDropMRR
from repro.runtime import tiling
from repro.runtime.tiling import TiledMatmul, probe_core

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


@given(
    length=st.integers(min_value=1, max_value=10),
    bits=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_element_responses_equal_the_per_element_dot(length, bits, seed):
    """The stacked response dot is bitwise the per-element strided dot
    for 1-8 bit planes, per core and over several cores at once, on
    loaded caches and on arbitrary ones."""
    rng = np.random.default_rng(seed)
    cores = [VectorComputeCore(length, bits, TECH) for _ in range(3)]
    for core in cores:
        core.load_weights(rng.integers(0, 2**bits, length))
    for _ in range(2):
        references = [reference_responses(c, c._transmission_cache) for c in cores]
        for core, reference in zip(cores, references):
            assert np.array_equal(core.element_responses(), reference)
        assert np.array_equal(stacked_element_responses(cores), np.stack(references))
        for core in cores:
            shape = core._transmission_cache.shape
            core._transmission_cache = rng.uniform(0.0, 1.0, shape) ** rng.uniform(0.5, 4.0)


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


# --------------------------------------------------------------------------
# compile without device objects
# --------------------------------------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Counts of PhotonicTensorCore, OneBitPhotonicMultiplier and EoAdc
    constructions and of multiplier ``bit`` sets."""
    counts = {"cores": 0, "multipliers": 0, "adcs": 0, "bit_sets": 0}
    for name, cls in (
        ("cores", PhotonicTensorCore),
        ("multipliers", OneBitPhotonicMultiplier),
        ("adcs", EoAdc),
    ):
        def counted_init(self, *args, _init=cls.__init__, _name=name, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted_init)
    bit = OneBitPhotonicMultiplier.bit

    def counted_set(multiplier, value):
        counts["bit_sets"] += 1
        bit.fset(multiplier, value)

    monkeypatch.setattr(OneBitPhotonicMultiplier, "bit", property(bit.fget, counted_set))

    def take() -> dict:
        taken = dict(counts)
        counts.update(cores=0, multipliers=0, adcs=0, bit_sets=0)
        return taken

    return take


NOTHING_BUILT = {"cores": 0, "multipliers": 0, "adcs": 0, "bit_sets": 0}


def test_second_tiled_build_constructs_no_device_object(builds):
    rng = np.random.default_rng(11)
    TiledMatmul(rng.integers(0, 8, (10, 13)), tile_rows=4, tile_columns=6)
    builds()
    grid = TiledMatmul(rng.integers(0, 8, (10, 13)), tile_rows=4, tile_columns=6)
    assert builds() == NOTHING_BUILT
    assert grid.tile_count == 9


def test_cache_miss_sets_no_bit_and_drives_follow_on_read(builds):
    rng = np.random.default_rng(12)
    session = PhotonicSession(grid=(8, 8))
    weights = rng.integers(0, 8, (8, 8))
    builds()
    session.submit(weights, rng.uniform(0.0, 1.0, 8))
    session.flush()
    assert session.report().cache_misses == 1
    assert builds() == NOTHING_BUILT

    vdd = session.technology.psram.vdd
    for row_core, row_weights in zip(session.core.row_cores, weights):
        bits = row_core.weight_memory.bit_matrix
        assert np.array_equal(bits @ 2 ** np.arange(row_core.weight_bits)[::-1], row_weights)
        for element, planes in enumerate(row_core.multipliers):
            for plane, multiplier in enumerate(planes):
                assert multiplier.bit == bits[element, plane]
                assert multiplier.ring.voltage == vdd * bits[element, plane]
    # One drive set per ring on the first read, none on the next.
    assert builds()["bit_sets"] == 8 * 8 * session.core.weight_bits
    for row_core in session.core.row_cores:
        row_core.multipliers
    assert builds()["bit_sets"] == 0


def test_hand_set_drive_holds_until_the_next_write():
    core = VectorComputeCore(4, 3, TECH)
    core.load_weights([7, 0, 5, 1])
    multiplier = core.multipliers[1][0]
    multiplier.bit = 1
    assert core.multipliers[1][0].bit == 1
    core.invalidate_drives()
    assert core.multipliers[1][0].bit == 0
    multiplier.bit = 1
    core.load_weights([7, 0, 5, 1])
    assert core.multipliers[1][0].bit == 0


def test_probe_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(tiling, "PROBE_MEMO_SIZE", 2)
    monkeypatch.setattr(tiling, "_PROBE_MEMO", OrderedDict())
    for columns in (2, 3, 4):
        TiledMatmul(np.ones((3, 5), dtype=int), tile_rows=2, tile_columns=columns)
        assert len(tiling._PROBE_MEMO) <= 2
    assert [key[2] for key in tiling._PROBE_MEMO] == [3, 4]


def test_probe_keeps_no_session_drift_state():
    rng = np.random.default_rng(13)
    session = PhotonicSession(grid=(4, 4), drift=(TiaGainDrift(drift_per_s=-8e-4),))
    state = weakref.ref(session.core.drift_state)
    future = session.submit(rng.integers(0, 8, (6, 9)), rng.uniform(0.0, 1.0, 9))
    session.flush()
    assert future.value.shape == (6,)
    core = session.core
    probe = probe_core(
        session.technology, 4, 4, core.weight_bits, core.row_adcs[0].bits
    )
    assert probe.drift_state is None
    del session, future, core
    gc.collect()
    assert state() is None


def test_technology_edited_in_place_gets_a_fresh_probe():
    tech = Technology()
    weights = np.random.default_rng(14).integers(0, 8, (5, 7))
    before = TiledMatmul(weights, tile_rows=4, tile_columns=4, technology=tech)
    probe = probe_core(tech, 4, 4, None, None)
    power = tech.compute.channel_power
    tech.compute.channel_power = 1.5 * power
    after = TiledMatmul(weights, tile_rows=4, tile_columns=4, technology=tech)
    assert probe_core(tech, 4, 4, None, None) is not probe
    assert probe.technology.compute.channel_power == power
    assert after.tiles[0][0].technology is tech
    assert not np.array_equal(
        after.state_dict()["arrays"]["tile_responses"],
        before.state_dict()["arrays"]["tile_responses"],
    )
    assert_same_grid(after, _fresh_probe_grid(weights, tile_rows=4, tile_columns=4,
                                              technology=copy.deepcopy(tech)))


def _fresh_probe_grid(weights, **kwargs) -> TiledMatmul:
    """A grid compiled on a freshly constructed probe (empty memo)."""
    saved = tiling._PROBE_MEMO.copy()
    tiling._PROBE_MEMO.clear()
    try:
        return TiledMatmul(weights, **kwargs)
    finally:
        tiling._PROBE_MEMO.clear()
        tiling._PROBE_MEMO.update(saved)


def assert_same_grid(grid: TiledMatmul, reference: TiledMatmul) -> None:
    state, expected = grid.state_dict(), reference.state_dict()
    assert state["meta"] == expected["meta"]
    assert state["arrays"].keys() == expected["arrays"].keys()
    for name, array in state["arrays"].items():
        assert array.dtype == expected["arrays"][name].dtype, name
        assert np.array_equal(array, expected["arrays"][name]), name
    assert grid.weight_update_energy == reference.weight_update_energy
    assert grid.weight_update_time == reference.weight_update_time


@st.composite
def grid_cases(draw):
    bits = draw(st.integers(min_value=1, max_value=4))
    out_features = draw(st.integers(min_value=1, max_value=9))
    in_features = draw(st.integers(min_value=1, max_value=9))
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**bits - 1),
            min_size=out_features * in_features,
            max_size=out_features * in_features,
        )
    )
    return (
        np.array(weights).reshape(out_features, in_features),
        bits,
        draw(st.integers(min_value=1, max_value=4)),
        draw(st.integers(min_value=1, max_value=5)),
        draw(st.sampled_from((0.0, 7.5, 30.0))),
        draw(st.booleans()),
    )


@given(case=grid_cases())
@settings(max_examples=25, deadline=None)
def test_memoised_probe_compiles_like_a_fresh_probe(case):
    weights, bits, tile_rows, tile_columns, age, recalibrated = case
    drift = DriftState(
        (
            TiaGainDrift(drift_per_s=-8e-4),
            ComparatorOffsetAging(volts_per_inference=2e-4, saturation_volts=0.45),
        )
    )
    drift.advance(seconds=age, inferences=int(age * 10))
    if recalibrated:
        drift.recalibrate()
    options = dict(
        tile_rows=tile_rows,
        tile_columns=tile_columns,
        weight_bits=bits,
        technology=TECH,
        drift_state=drift,
    )
    # Leave the memoised probe holding another program first.
    TiledMatmul(np.full((tile_rows, tile_columns), 2**bits - 1), **options)
    memoised = TiledMatmul(weights, **options)
    assert memoised.calibration_epoch == drift.epoch
    assert_same_grid(memoised, _fresh_probe_grid(weights, **options))
