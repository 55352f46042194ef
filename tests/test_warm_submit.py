"""The warm raw-dense submit path (repro.api.session).

A session validates and keys each weight matrix once: later submits of
equal content reuse the record.  ``pending`` is read from counters, not
from the queues.  A malformed request is refused before any deadline or
admission shed can count it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.api.session as session_module
import repro.runtime.scheduler as scheduler_module
from repro.api import Dense, Model, PhotonicCluster, PhotonicSession, RunReport
from repro.errors import ClusterSaturatedError, ConfigurationError
from repro.runtime.engine import weight_key
from repro.telemetry import MetricsRegistry, ModelClock, TraceRecorder

GRID = (4, 6)
MAX_WEIGHT = 7
#: Tile-exact, padded onto the tile, and two tiled shapes.
SHAPES = [(4, 6), (3, 5), (5, 6), (6, 9)]


def _session(tech, **kwargs):
    return PhotonicSession(technology=tech, grid=GRID, clock=ModelClock(), **kwargs)


def _weights(shape, seed=0):
    return np.random.default_rng(seed).integers(0, MAX_WEIGHT + 1, shape)


def _inputs(columns, seed=1):
    return np.random.default_rng(seed).uniform(0.0, 1.0, columns)


@st.composite
def matrices(draw):
    shape = draw(st.sampled_from(SHAPES))
    return draw(arrays(np.int64, shape, elements=st.integers(0, MAX_WEIGHT)))


# -- work counters -----------------------------------------------------------
@pytest.mark.parametrize("shape", SHAPES)
def test_equal_matrix_is_validated_and_keyed_once(tech, monkeypatch, shape):
    calls = {"integral_weights": 0, "weight_key": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for module in (session_module, scheduler_module):
        for name in calls:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    session = _session(tech)
    weights = _weights(shape)
    first = session.submit(weights, _inputs(shape[1]))
    assert calls == {"integral_weights": 1, "weight_key": 1}
    # Another array of equal content: no validation, no hash.
    second = session.submit(weights.copy(), _inputs(shape[1], seed=2))
    assert calls == {"integral_weights": 1, "weight_key": 1}
    session.flush()
    reference = _session(tech)
    expected = [
        reference.submit(weights, _inputs(shape[1], seed=seed)) for seed in (1, 2)
    ]
    reference.flush()
    for future, want in zip((first, second), expected):
        assert np.array_equal(future.value, want.value)


@pytest.mark.parametrize("shape", SHAPES)
def test_caller_buffers_are_snapshotted_at_submit(tech, shape):
    """Editing the caller's arrays between submit and flush changes
    neither the queued request nor the remembered matrix."""
    weights, x = _weights(shape), _inputs(shape[1])
    expected = _session(tech).submit(weights.copy(), x.copy()).result()
    session = _session(tech)
    future = session.submit(weights, x)
    weights[:] = 0
    x[:] = 1.0
    assert np.array_equal(future.result(), expected)
    again = session.submit(_weights(shape), _inputs(shape[1]))
    assert np.array_equal(again.result(), expected)


def test_memo_is_bounded(tech):
    session = _session(tech)
    x = _inputs(6)
    for value in range(session_module._WEIGHT_MEMO_LIMIT + 6):
        weights = np.zeros((4, 6), dtype=int)
        weights.flat[value % 24] = 1 + value // 24
        session.submit(weights, x)
    assert len(session._weight_memo) == session_module._WEIGHT_MEMO_LIMIT
    elements = session_module._WEIGHT_MEMO_MAX_BYTES // 8 + 1
    large = np.ones((1, elements), dtype=np.int64)
    session.submit(large, np.full(elements, 0.5))
    assert all(key[1] != large.shape for key in session._weight_memo)


class _Tripwire:
    """Stands in for a request queue; any use of it fails the test."""

    def _touched(self, *args):
        raise AssertionError("reading pending touched a request queue")

    __len__ = __iter__ = __bool__ = __contains__ = __getitem__ = _touched

    def __getattr__(self, name):
        self._touched()


def test_reading_pending_touches_no_queue(tech):
    session = _session(tech)
    rng = np.random.default_rng(3)
    endpoint = session.compile(Model.sequential(Dense(rng.normal(0.0, 1.0, (3, 5)))))
    session.submit(_weights((4, 6)), _inputs(6))
    session.submit(_weights((3, 5)), _inputs(5))
    session.submit(_weights((6, 9)), _inputs(9))
    session.submit_conv(rng.normal(0.0, 1.0, (2, 3, 3)), rng.uniform(0.0, 1.0, (5, 5)))
    endpoint.submit(rng.uniform(0.0, 1.0, (2, 5)))
    owners = [
        (session, "_native_pending"),
        (session, "_tiled_pending"),
        (session, "_conv_pending"),
        (session.scheduler, "_pending"),
        (endpoint, "_queue"),
    ]
    queues = [getattr(owner, name) for owner, name in owners]
    for owner, name in owners:
        setattr(owner, name, _Tripwire())
    try:
        assert session.pending == 5
        assert session.scheduler.pending == 2
    finally:
        for (owner, name), queue in zip(owners, queues):
            setattr(owner, name, queue)
    assert session.flush() == 5
    assert session.pending == 0 and session.scheduler.pending == 0


def test_pending_counters_reset_when_a_flush_fails(tech, monkeypatch):
    session = _session(tech)
    session.submit(_weights((4, 6)), _inputs(6))
    session.submit(_weights((6, 9)), _inputs(9))
    assert session.pending == 2

    def broken(*args, **kwargs):
        raise ConfigurationError("injected evaluation failure")

    monkeypatch.setattr(session_module.TiledMatmul, "matmul", broken)
    with pytest.raises(ConfigurationError, match="injected"):
        session.flush()
    assert session.pending == 0 and session.scheduler.pending == 0


# -- refuse before shed ------------------------------------------------------
def test_invalid_request_with_expired_deadline_is_refused_not_shed():
    session = PhotonicSession(grid=(8, 8), clock=ModelClock())
    with pytest.raises(ConfigurationError):
        session.submit([[99, 1], [0, 1]], [5.0, -3.0], deadline=0.0)
    assert session.report().deadline_misses == 0
    assert session.report().requests == 0
    assert session.pending == 0


@pytest.mark.parametrize(
    "weights, x",
    [
        (np.full((3, 5), MAX_WEIGHT + 1), np.full(5, 0.5)),   # range, native
        (np.full((3, 5), 2.5), np.full(5, 0.5)),              # non-integral
        (np.ones((3, 5), dtype=int), np.full(5, 1.5)),        # input range
        (np.ones((3, 5), dtype=int), np.full(4, 0.5)),        # input shape
        (np.full((6, 9), -1), np.full(9, 0.5)),               # range, tiled
        (np.ones((6, 9), dtype=int), np.full(9, -0.5)),       # input, tiled
    ],
)
def test_every_dense_route_validates_before_shedding(tech, weights, x):
    session = _session(tech)
    with pytest.raises(ConfigurationError):
        session.submit(weights, x, deadline=0.0)
    assert session.report().deadline_misses == 0
    assert session.pending == 0


def test_valid_request_with_expired_deadline_is_still_shed(tech):
    session = _session(tech)
    future = session.submit(_weights((6, 9)), _inputs(9), deadline=0.0)
    assert future.expired
    assert session.report().deadline_misses == 1
    assert session.pending == 0


def test_conv_route_validates_before_shedding(tech):
    session = _session(tech)
    kernels = np.random.default_rng(4).normal(0.0, 1.0, (2, 3, 3))
    with pytest.raises(ConfigurationError, match="non-negative"):
        session.submit_conv(kernels, np.full((5, 5), -1.0), deadline=0.0)
    assert session.report().deadline_misses == 0
    shed = session.submit_conv(kernels, np.full((5, 5), 0.5), deadline=0.0)
    assert shed.expired and session.pending == 0
    assert session.report().deadline_misses == 1
    assert session.flush() == 0


def test_cluster_submit_validates_before_any_shed(tech):
    cluster = PhotonicCluster(cores=2, technology=tech, grid=GRID, clock=ModelClock())
    with pytest.raises(ConfigurationError):
        cluster.submit(np.full((4, 6), MAX_WEIGHT + 1), _inputs(6), deadline=0.0)
    assert cluster.report().total.deadline_misses == 0

    saturated = PhotonicCluster(
        cores=2, technology=tech, grid=GRID, clock=ModelClock(), max_pending=1
    )
    saturated.submit(_weights((4, 6)), _inputs(6))
    for weights, x in [
        (np.full((4, 6), 0.5), _inputs(6)),
        (_weights((4, 6)), np.full(6, 2.0)),
        (_weights((4, 6)), _inputs(5)),
    ]:
        with pytest.raises(ConfigurationError):
            saturated.submit(weights, x)
    assert saturated.report().shed == 0
    with pytest.raises(ClusterSaturatedError):
        saturated.submit(_weights((4, 6)), _inputs(6))
    assert saturated.report().shed == 1


# -- the memo, property-checked ----------------------------------------------
@given(weights=matrices(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_in_place_edit_between_submits_gets_a_new_program(tech, weights, data):
    position = tuple(
        data.draw(st.integers(0, dim - 1), label=f"axis {axis}")
        for axis, dim in enumerate(weights.shape)
    )
    value = data.draw(st.integers(0, MAX_WEIGHT).filter(lambda v: v != weights[position]))
    x = _inputs(weights.shape[1])
    session = _session(tech)
    session.submit(weights, x)
    session.flush()
    weights[position] = value
    edited = session.submit(weights, x)
    session.flush()
    report = session.report()
    assert report.cache_misses == 2 and report.cache_hits == 0
    assert len(session._weight_memo) == 2
    assert np.array_equal(edited.value, _session(tech).submit(weights.copy(), x).result())


@given(weights=matrices())
@settings(max_examples=25, deadline=None)
def test_integer_and_integral_float_forms_share_one_cache_key(tech, weights):
    session = _session(tech)
    x = _inputs(weights.shape[1])
    forms = [weights.astype(np.int32), weights.astype(np.int64), weights.astype(float)]
    futures = [session.submit(form, x) for form in forms]
    session.flush()
    records = list(session._weight_memo.values())
    assert len(records) == 3
    assert len({record.key for record in records}) == 1
    native = weights.shape[0] <= GRID[0] and weights.shape[1] <= GRID[1]
    if native:
        padded = np.zeros(GRID, dtype=int)
        padded[: weights.shape[0], : weights.shape[1]] = weights
        assert records[0].key == weight_key(padded)
    else:
        assert records[0].key == weight_key(weights)
    report = session.report()
    assert report.cache_misses == 1 and report.batches == 1
    for future in futures[1:]:
        assert np.array_equal(future.value, futures[0].value)


@given(weights=matrices(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_refused_matrices_raise_every_time_and_are_never_remembered(tech, weights, data):
    position = tuple(
        data.draw(st.integers(0, dim - 1), label=f"axis {axis}")
        for axis, dim in enumerate(weights.shape)
    )
    value = data.draw(st.sampled_from([0.5, 2.25, np.nan, np.inf, -1.0, MAX_WEIGHT + 1.0]))
    bad = weights.astype(float)
    bad[position] = value
    if float(value).is_integer() and data.draw(st.booleans(), label="integer dtype"):
        bad = bad.astype(np.int64)
    deadline = data.draw(st.sampled_from([None, 0.0, 1.0]), label="deadline")
    session = _session(tech)
    for _ in range(3):
        with pytest.raises(ConfigurationError):
            session.submit(bad, _inputs(weights.shape[1]), deadline=deadline)
    assert len(session._weight_memo) == 0
    assert session.pending == 0
    assert session.report().deadline_misses == 0


@st.composite
def request_tapes(draw):
    pool = draw(st.lists(matrices(), min_size=1, max_size=3))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(pool) - 1),
                st.sampled_from([None, "auto", 1.5]),
                st.booleans(),  # edit the matrix in place before submitting
                st.booleans(),  # flush after submitting
            ),
            min_size=1,
            max_size=12,
        )
    )
    return pool, steps


def _replay(session, pool, steps):
    pool = [weights.copy() for weights in pool]
    rng = np.random.default_rng(7)
    futures = []
    for index, gain, edit, flush in steps:
        weights = pool[index]
        if edit:
            weights[0, 0] = (weights[0, 0] + 1) % (MAX_WEIGHT + 1)
        futures.append(
            session.submit(weights, rng.uniform(0.0, 1.0, weights.shape[1]), gain=gain)
        )
        if flush:
            session.flush()
    session.flush()
    return futures, session.report()


@given(tape=request_tapes())
@settings(max_examples=20, deadline=None)
def test_instrumented_and_bare_runs_stay_bit_for_bit(tech, tape):
    pool, steps = tape
    bare, bare_report = _replay(_session(tech, max_batch=4), pool, steps)
    traced, traced_report = _replay(
        _session(tech, max_batch=4, metrics=MetricsRegistry(), trace=TraceRecorder()),
        pool,
        steps,
    )
    for plain, instrumented in zip(bare, traced):
        assert np.array_equal(plain.value, instrumented.value)
        if plain.codes is None:
            assert instrumented.codes is None
        else:
            assert np.array_equal(plain.codes, instrumented.codes)
    for field in RunReport.__dataclass_fields__:
        if field in ("latency_quantiles", "tenant_quantiles"):
            continue
        assert getattr(bare_report, field) == getattr(traced_report, field), field
