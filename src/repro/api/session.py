"""The one front door: :class:`PhotonicSession` and deployed models.

A session owns everything the serving stack used to scatter across
three surfaces: the physical tensor core and its batching scheduler,
the shared LRU weight-program cache, the cross-engine ADC ladder memo,
the gain policy, and the flush policy.  Every request route hangs off
it and returns a :class:`~repro.api.futures.Future`:

* ``session.submit(weights, x)`` — raw dense W @ x (any shape; padded
  onto one tile or sharded onto a tiled grid automatically);
* ``session.submit_conv(kernels, image)`` — im2col convolution against
  a cached differential conv program;
* ``session.compile(model)`` — turn a declarative
  :class:`~repro.api.graph.Model` into a :class:`DeployedModel`
  endpoint whose ``submit(batch)`` serves whole network forwards.

A pluggable :class:`~repro.api.policy.FlushPolicy` replaces hand-called
``flush()``: requests queue until the policy trips (max_batch /
max_delay) or a blocking ``Future.result()`` forces the evaluation.
Each flush produces one unified :class:`~repro.api.futures.RunReport`
carried by every future it resolves.

The legacy :class:`repro.runtime.serving.InferenceServer` is a thin
deprecation shim over this class — the engine room moved here.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..config import Technology, default_technology
from ..core.quantization import integral_weights, quantize_weights_differential
from ..elastic import ProgramStore, core_fingerprint
from ..errors import ConfigurationError, DeadlineExceededError
from ..health.drift import DriftModel, DriftState
from ..health.monitor import HealthMonitor, HealthPolicy, HealthReport
from ..ml.convolution import (
    PhotonicConv2d,
    avg_pool2d,
    encode_patch_batch,
    im2col_channels,
    normalize_image,
    normalize_kernel_bank,
    output_shape,
)
from ..ml.layers import PhotonicDense, compile_differential_engines, relu
from ..runtime.engine import weight_key
from ..runtime.scheduler import BatchScheduler, WeightProgramCache
from ..runtime.tiling import DifferentialProgram, TiledMatmul, auto_range_gain
from ..telemetry import MetricsRegistry, ModelClock, Telemetry, TraceRecorder
from ..telemetry.profiling import wall_clock
from .futures import Future, RunReport
from .graph import AvgPool, Conv2d, Dense, Flatten, Model, ReLU
from .policy import FlushPolicy

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

    from ..core.performance import PerformanceModel
    from ..core.tensor_core import PhotonicTensorCore
    from ..obs import Observer
    from ..runtime.serving import ServerStats

#: Everything the ``drift`` knob accepts: a ready state, one model, an
#: iterable of models (wrapped into a fresh state), or None.
DriftLike = DriftState | DriftModel | Iterable[DriftModel] | None

#: Everything the ``clock`` knob accepts: a shared
#: :class:`~repro.telemetry.ModelClock`, any zero-argument callable
#: returning seconds, or None (host wall clock, the default).
ClockSource = ModelClock | Callable[[], float] | None


#: Validated weight matrices a session remembers (least recently used
#: first out), and the largest matrix [bytes] it remembers: a record
#: holds about three copies of its matrix, so the memo stays under
#: ~12 MiB.  Larger matrices are validated on every submit.
_WEIGHT_MEMO_LIMIT = 64
_WEIGHT_MEMO_MAX_BYTES = 1 << 16

#: Inputs up to this length are range-checked as a Python list (numpy's
#: per-call overhead dominates two reductions over a few elements).
_LIST_CHECK_LIMIT = 64


def _outside_unit_interval(x: np.ndarray) -> bool:
    """``x.min() < 0.0 or x.max() > 1.0`` for a non-empty 1-D ``x``.

    Short inputs are checked on a list first.  Without NaN the list's
    min/max are numpy's; with NaN numpy's comparisons are all False, so
    a list that passes passes numpy too, and only a list that fails is
    re-checked by numpy.
    """
    if x.size <= _LIST_CHECK_LIMIT:
        values = x.tolist()
        if not (min(values) < 0.0 or max(values) > 1.0):
            return False
    return bool(x.min() < 0.0 or x.max() > 1.0)


def _checked_weights(weights: ArrayLike, max_weight: int) -> np.ndarray:
    """A raw dense weight matrix as an integer array, refused unless it
    is integral, 2-D and within ``[0, max_weight]``."""
    weights = integral_weights(weights)
    if weights.ndim != 2:
        raise ConfigurationError(
            f"weight matrix must be 2-D, got shape {weights.shape}"
        )
    if np.any(weights < 0) or np.any(weights > max_weight):
        raise ConfigurationError(
            f"weights must lie in [0, {max_weight}], got range "
            f"[{weights.min()}, {weights.max()}]"
        )
    return weights


def _checked_input(x: ArrayLike, in_features: int) -> np.ndarray:
    """A raw dense input vector as a float array, refused unless it has
    ``in_features`` entries in ``[0, 1]``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (in_features,):
        raise ConfigurationError(
            f"input must have shape ({in_features},), got {x.shape}"
        )
    if x.size and _outside_unit_interval(x):
        raise ConfigurationError(
            f"analog inputs must lie in [0, 1], got range "
            f"[{x.min():.6g}, {x.max():.6g}]"
        )
    return x


class _WeightRecord:
    """One validated weight matrix of the raw dense route: its shape,
    the private read-only matrix the route serves (zero-padded onto the
    tile when it fits one, a copy otherwise), that matrix's program
    cache key and which route serves it."""

    __slots__ = ("out_features", "in_features", "matrix", "key", "native")

    def __init__(
        self, matrix: np.ndarray, out_features: int, in_features: int, native: bool
    ) -> None:
        matrix.flags.writeable = False
        self.out_features = out_features
        self.in_features = in_features
        self.matrix = matrix
        self.key = weight_key(matrix)
        self.native = native


@dataclass
class CompiledStage:
    """One model layer bound to the session core: the declarative
    ``spec`` plus, for compute layers, the photonic ``layer`` executing
    it (None for digital ReLU/AvgPool/Flatten glue)."""

    spec: object
    layer: PhotonicDense | PhotonicConv2d | None = None


class DeployedModel:
    """A compiled model graph serving as a session endpoint.

    ``submit(batch)`` queues a whole-network forward and returns a
    :class:`~repro.api.futures.Future`; pending batches coalesce at the
    next flush into one dense evaluation per input shape.  ``predict``
    (also ``__call__``) is the blocking convenience: submit + result.
    """

    def __init__(
        self,
        session: "PhotonicSession",
        model: Model,
        stages: list[CompiledStage],
        label: str,
    ) -> None:
        self._session = session
        self.model = model
        self.stages = stages
        self.label = label
        self._queue: list[tuple[np.ndarray, Future]] = []
        self._submitted = 0
        #: Set by a session recalibration: the compute layers must be
        #: re-attached to fresh cached programs before the next drain.
        self._needs_rebind = False

    @property
    def session(self) -> "PhotonicSession":
        return self._session

    @property
    def layers(self) -> list:
        """The compiled photonic layers (Dense/Conv2d stages), in order."""
        return [stage.layer for stage in self.stages if stage.layer is not None]

    # -- request path --------------------------------------------------------
    def _validated_batch(self, batch: ArrayLike) -> np.ndarray:
        batch = np.asarray(batch, dtype=float)
        if self.model.input_domain == "vector":
            if batch.ndim != 2 or len(batch) == 0:
                raise ConfigurationError(
                    f"model '{self.label}' expects a non-empty "
                    f"(samples, features) batch, got shape {batch.shape}"
                )
        elif batch.ndim not in (3, 4) or len(batch) == 0:
            raise ConfigurationError(
                f"model '{self.label}' expects a non-empty image batch "
                f"(batch, H, W) or (batch, channels, H, W), got shape {batch.shape}"
            )
        return batch

    def submit(
        self,
        batch: ArrayLike,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> Future:
        """Queue one forward pass over ``batch``; resolved at the next
        flush (or immediately if the session flush policy trips).
        ``deadline`` / ``tenant`` follow the
        :meth:`PhotonicSession.submit` semantics — an endpoint batch
        whose deadline expires before its drain begins is shed."""
        batch = self._validated_batch(batch)
        deadline_at = self._session._resolve_deadline(deadline)
        self._submitted += 1
        future = Future(
            self._session,
            f"model '{self.label}' batch #{self._submitted}",
            self._session.flushes + 1,
        )
        if deadline is not None and deadline <= 0.0:
            future._deadline = deadline_at
            future._tenant = tenant
            self._session._shed_future(future)
            return future
        self._queue.append((batch, future))
        self._session._model_requests += 1
        self._session._queued += 1
        self._session._note_submit(future, "model", tenant)
        self._session._note_deadline(future, deadline_at)
        self._session._after_submit()
        return future

    def predict(self, batch: ArrayLike) -> np.ndarray:
        """Blocking forward: submit + :meth:`Future.result`."""
        return self.submit(batch).result()

    __call__ = predict

    # -- evaluation (session flush internals) --------------------------------
    def _drain(
        self, resolved_futures: list[Future], now: float | None = None
    ) -> int:
        if not self._queue:
            return 0
        queue, self._queue = self._queue, []
        if now is not None:
            # Endpoint batches shed on the simple rule: a deadline
            # already past when the drain begins cannot be met (whole-
            # network forwards have no cheap completion estimate).
            live = []
            for batch, future in queue:
                if future._deadline is not None and future._deadline < now:
                    self._session._shed_future(future)
                else:
                    live.append((batch, future))
            queue = live
            if not queue:
                return 0
        groups: dict[tuple, list[tuple[np.ndarray, Future]]] = {}
        for batch, future in queue:
            groups.setdefault(batch.shape[1:], []).append((batch, future))
        resolved = 0
        for entries in groups.values():
            stack = np.concatenate([batch for batch, _ in entries], axis=0)
            outputs = self._forward(stack)
            self._session._model_batches += 1
            offset = 0
            for batch, future in entries:
                future._resolve(outputs[offset : offset + len(batch)])
                resolved_futures.append(future)
                offset += len(batch)
                resolved += 1
        return resolved

    def _forward(self, batch: np.ndarray) -> np.ndarray:
        """Run the stage chain, accounting analog time/energy into the
        session ledger as the compiled engines evaluate."""
        session = self._session
        current = batch
        for stage in self.stages:
            spec, layer = stage.spec, stage.layer
            if isinstance(spec, Dense):
                samples = len(current)
                current = layer.forward(current)
                session._account_model_stage(layer, samples)
            elif isinstance(spec, Conv2d):
                current = layer.forward_batch(current)
                patches = len(current) * current.shape[2] * current.shape[3]
                session._account_model_stage(layer, patches)
            elif isinstance(spec, ReLU):
                current = relu(current)
            elif isinstance(spec, AvgPool):
                current = avg_pool2d(current, spec.size)
            elif isinstance(spec, Flatten):
                current = current.reshape(len(current), -1)
            else:  # a spec added to graph.py but not wired up here
                raise ConfigurationError(
                    f"no forward rule for layer spec {type(spec).__name__}"
                )
        return current

    def __repr__(self) -> str:
        return (
            f"<DeployedModel '{self.label}': "
            f"{len(self.model.compute_layers)} compute layers, "
            f"{len(self._queue)} pending>"
        )


class PhotonicSession:
    """A serving session owning one tile-sized core and all its state.

    ``grid=(rows, columns)`` sets the physical tile; any (out, in)
    unsigned weight matrix is served — smaller shapes are zero-padded
    onto the tile and share the scheduler's batching/caching, larger
    shapes compile onto cached :class:`~repro.runtime.tiling.TiledMatmul`
    grids.  Declarative models deploy through :meth:`compile`.

    ``drift=[...DriftModel...]`` attaches a live
    :class:`~repro.health.DriftState` — the analog stack then ages
    with modelled serving time and conversions (and :meth:`age`) — and
    ``health_policy=HealthPolicy(...)`` closes the loop: probe checks
    on a flush cadence, automatic :meth:`recalibrate` past the
    code-error threshold (see :mod:`repro.health`).
    """

    def __init__(
        self,
        technology: Technology | None = None,
        grid: tuple[int, int] | None = None,
        rows: int | None = None,
        columns: int | None = None,
        weight_bits: int | None = None,
        adc_bits: int | None = None,
        cache_capacity: int = 8,
        tiled_cache_capacity: int = 4,
        max_batch: int = 256,
        flush_policy: FlushPolicy | None = None,
        drift: DriftLike = None,
        health_policy: HealthPolicy | None = None,
        trace: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
        telemetry: Telemetry | None = None,
        clock: ClockSource = None,
        program_store: ProgramStore | None = None,
        obs: Observer | None = None,
        label: str = "session",
    ) -> None:
        if grid is not None:
            if rows is not None or columns is not None:
                raise ConfigurationError(
                    "pass either grid=(rows, columns) or rows=/columns=, not both"
                )
            try:
                rows, columns = (int(dim) for dim in grid)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"grid must be a (rows, columns) pair, got {grid!r}"
                ) from None
        self.technology = technology if technology is not None else default_technology()
        self.flush_policy = (
            flush_policy if flush_policy is not None else FlushPolicy.explicit()
        )
        self.label = str(label)
        if clock is not None and not (
            isinstance(clock, ModelClock) or callable(clock)
        ):
            raise ConfigurationError(
                f"clock must be a repro.telemetry.ModelClock, a callable "
                f"returning seconds, or None (host wall clock), "
                f"got {type(clock).__name__}"
            )
        #: Injectable time source the flush policy and ``deadline=``
        #: stamps read (:data:`ClockSource`).  None = host wall clock
        #: via :func:`~repro.telemetry.profiling.wall_clock` (the
        #: pre-existing behaviour); the open-loop traffic engine
        #: injects a :class:`~repro.telemetry.ModelClock` it advances
        #: to each arrival so simulation results never depend on host
        #: timing (see :mod:`repro.traffic`).
        self.clock = clock
        # -- telemetry (repro.telemetry) --------------------------------
        #: Optional :class:`~repro.telemetry.Telemetry` binding: the
        #: modelled clock, trace recorder and metrics registry of this
        #: core's timeline.  None (the default) = the serving path
        #: makes zero telemetry calls.
        self.telemetry: Telemetry | None
        if telemetry is not None:
            if not isinstance(telemetry, Telemetry):
                raise ConfigurationError(
                    f"telemetry must be a repro.telemetry.Telemetry, "
                    f"got {type(telemetry).__name__}"
                )
            self.telemetry = telemetry
        elif trace is not None or metrics is not None:
            if trace is not None and not isinstance(trace, TraceRecorder):
                raise ConfigurationError(
                    f"trace must be a repro.telemetry.TraceRecorder, "
                    f"got {type(trace).__name__}"
                )
            self.telemetry = Telemetry(
                trace=trace, metrics=metrics, process=self.label
            )
        else:
            self.telemetry = None
        # -- active observability (repro.obs) ---------------------------
        #: Optional :class:`~repro.obs.Observer`: the alerting monitor
        #: this session feeds its flush/health/event stream.  None (the
        #: default) = the serving path makes zero obs calls.  An
        #: attached observer needs the modelled clock and per-flush
        #: latency windows, so it implies a metrics-only telemetry
        #: binding when none was passed.
        if obs is not None:
            from ..obs import Observer as _Observer

            if not isinstance(obs, _Observer):
                raise ConfigurationError(
                    f"obs must be a repro.obs.Observer, "
                    f"got {type(obs).__name__}"
                )
            if self.telemetry is None:
                self.telemetry = Telemetry(process=self.label)
        self.obs = obs
        self.scheduler = BatchScheduler(
            rows=rows,
            columns=columns,
            weight_bits=weight_bits,
            adc_bits=adc_bits,
            technology=self.technology,
            cache_capacity=cache_capacity,
            max_batch=max_batch,
            label="session",
        )
        self.scheduler.telemetry = self.telemetry
        #: Shared LRU of tiled/conv/model weight programs.
        self.tiled_cache = WeightProgramCache(tiled_cache_capacity)
        self._native_pending: list[tuple[Future, object, int]] = []
        #: Validated weight matrices of the raw dense route, keyed by
        #: content (dtype, shape, bytes): a matrix seen before skips
        #: validation and hashing (see :meth:`_weight_record`).
        self._weight_memo: OrderedDict[tuple, _WeightRecord] = OrderedDict()
        #: Requests queued on the tiled, conv and endpoint routes (the
        #: scheduler counts the native route's); :attr:`pending` sums
        #: the two counters instead of the queues.
        self._queued = 0
        self._tiled_pending: dict[tuple[bytes, float | str], dict] = {}
        self._conv_pending: dict[tuple[bytes, float], dict] = {}
        self._endpoints: list[DeployedModel] = []
        self._oldest_pending: float | None = None
        #: Most urgent absolute deadline among pending requests (None =
        #: no pending request carries one); feeds the SLO-aware policy.
        self._earliest_deadline: float | None = None
        #: Deadline misses the session shed itself (submit-time expiry
        #: plus tiled/conv/model flush sheds); the scheduler counts its
        #: own in :class:`~repro.runtime.scheduler.SchedulerStats`.
        self._deadline_misses = 0
        self._flushes = 0
        #: Modelled-clock timestamp the current flush started at
        #: (telemetry only; queue-wait = flush start - submit time).
        self._flush_started = 0.0
        self._submit_count = 0
        self._tiled_requests = 0
        self._tiled_batches = 0
        self._tiled_samples = 0
        self._tiled_analog_time = 0.0
        self._tiled_analog_energy = 0.0
        self._tiled_energy_spent = 0.0
        self._tiled_energy_saved = 0.0
        self._tiled_weight_time = 0.0
        self._conv_requests = 0
        self._conv_patches = 0
        self._model_requests = 0
        self._model_batches = 0
        self._model_samples = 0
        self._model_analog_time = 0.0
        self._model_analog_energy = 0.0

        # -- health loop (repro.health) ----------------------------------
        #: Live degradation state of the core (None = ageless hardware).
        self.drift = self._coerce_drift(drift)
        if self.drift is not None:
            self.core.drift_state = self.drift
        if health_policy is not None and not isinstance(health_policy, HealthPolicy):
            raise ConfigurationError(
                f"health_policy must be a repro.health.HealthPolicy, "
                f"got {type(health_policy).__name__}"
            )
        self.health_policy = health_policy
        #: Probe monitor (built at construction when a policy is set,
        #: lazily by :meth:`check_health` otherwise).
        self.health: HealthMonitor | None = None
        self._health_history: list[HealthReport] = []
        self._probe_runs = 0
        self._probe_vectors = 0
        self._recalibrations = 0
        self._calibration_time = 0.0
        self._calibration_energy = 0.0
        self._in_maintenance = False
        if self.health_policy is not None:
            self.ensure_monitor(self.health_policy)

        # -- persisted warm starts (repro.elastic) -----------------------
        #: Optional :class:`~repro.elastic.ProgramStore` both program
        #: caches write through to and read back from: compiled
        #: programs persist across sessions (and processes), so a fresh
        #: core warm-starts bit-for-bit instead of recompiling.
        if program_store is not None and not isinstance(program_store, ProgramStore):
            raise ConfigurationError(
                f"program_store must be a repro.elastic.ProgramStore, "
                f"got {type(program_store).__name__}"
            )
        self.program_store = program_store
        if program_store is not None:
            fingerprint = core_fingerprint(
                self.technology,
                self.rows,
                self.columns,
                self.core.weight_bits,
                self.core.row_adcs[0].bits,
            )

            def _current_epoch() -> int:
                drift_state = self.core.drift_state
                if drift_state is not None and drift_state.active:
                    return drift_state.epoch
                return 0

            def _current_drift():
                return self.core.drift_state

            for cache in (self.scheduler.cache, self.tiled_cache):
                cache.attach_store(
                    program_store,
                    fingerprint=fingerprint,
                    technology=self.technology,
                    epoch_source=_current_epoch,
                    drift_source=_current_drift,
                )
        self._last_totals = self._totals()

    # -- geometry ------------------------------------------------------------
    @property
    def core(self) -> PhotonicTensorCore:
        """The physical tensor core backing every route."""
        return self.scheduler.core

    @property
    def performance(self) -> PerformanceModel:
        return self.scheduler.performance

    @property
    def rows(self) -> int:
        return self.scheduler.rows

    @property
    def columns(self) -> int:
        return self.scheduler.columns

    @property
    def flushes(self) -> int:
        """Completed flush count (futures name flush ``flushes + 1``)."""
        return self._flushes

    @property
    def pending(self) -> int:
        """Requests submitted but not yet flushed, across all routes."""
        return self.scheduler.pending + self._queued

    @property
    def endpoints(self) -> tuple:
        """Deployed model endpoints, in compile order."""
        return tuple(self._endpoints)

    # -- gain policy ---------------------------------------------------------
    @staticmethod
    def _validated_gain(gain: float | str | None) -> float | str | None:
        """Normalize the shared gain semantics of every request path:
        None = native TIA gain 1.0, "auto" = calibrate the range from
        the weights, a positive float = explicit setting."""
        if gain is None or gain == "auto":
            return gain
        if not isinstance(gain, (int, float)):
            raise ConfigurationError(f"gain must be a number, 'auto' or None, got {gain!r}")
        if gain <= 0.0:
            raise ConfigurationError(f"TIA gain must be positive, got {gain}")
        return float(gain)

    def _auto_gain(self, weights: np.ndarray) -> float:
        """The shared range-calibration rule applied to one padded tile."""
        return auto_range_gain(weights, self.columns * self.core.max_weight)

    # -- raw dense route -----------------------------------------------------
    def submit(
        self,
        weights: ArrayLike,
        x: ArrayLike,
        gain: float | str | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> Future:
        """Queue one W @ x request; returns its :class:`Future`.

        ``gain`` sets the row-TIA range on every tile the request
        touches: None runs at the native gain 1.0, ``"auto"``
        calibrates the range from the weights (the same rule on both
        the single-tile and the tiled path), and a positive float is
        applied as-is.

        ``deadline`` (seconds from now on the session's clock, None =
        best effort) sheds the request with a
        :class:`~repro.errors.DeadlineExceededError` instead of serving
        it late: a non-positive deadline sheds at submit, and a flush
        whose batch cannot complete in time sheds at evaluation —
        either way the returned future's ``expired`` flag is set and
        the miss counts on :attr:`RunReport.deadline_misses`.
        ``tenant`` labels the request for per-tenant telemetry.
        """
        record = self._weight_record(weights)
        out_features, in_features = record.out_features, record.in_features
        x = _checked_input(x, in_features)
        gain = self._validated_gain(gain)
        deadline_at = self._resolve_deadline(deadline)
        self._submit_count += 1
        future = Future(
            self,
            f"dense {out_features}x{in_features} request #{self._submit_count}",
            self._flushes + 1,
        )
        if deadline is not None and deadline <= 0.0:
            # Already expired at submit: never enters a queue.
            future._deadline = deadline_at
            future._tenant = tenant
            self._shed_future(future)
            return future
        if record.native:
            if in_features == self.columns:
                padded_x = x.copy()
            else:
                padded_x = np.zeros(self.columns)
                padded_x[:in_features] = x
            if gain is None:
                gain = 1.0
            elif gain == "auto":
                gain = self._auto_gain(record.matrix)
            ticket = self.scheduler._enqueue(
                record.key, record.matrix, padded_x, gain, deadline_at
            )
            self._native_pending.append((future, ticket, out_features))
            self._note_submit(future, "native", tenant)
        else:
            # Requests batch per (program, gain): mixed gains against
            # the same weights must not share an evaluation.  None means
            # native gain 1.0 (matching the single-tile path); "auto"
            # defers to the grid's per-tile calibrated gains.
            gain = 1.0 if gain is None else gain
            group = self._tiled_pending.get((record.key, gain))
            if group is None:
                group = {"weights": record.matrix, "inputs": [], "futures": [], "gain": gain}
                self._tiled_pending[(record.key, gain)] = group
            group["inputs"].append(x.copy())
            group["futures"].append(future)
            self._tiled_requests += 1
            self._queued += 1
            self._note_submit(future, "tiled", tenant)
        self._note_deadline(future, deadline_at)
        self._after_submit()
        return future

    def _weight_record(self, weights: ArrayLike) -> _WeightRecord:
        """The validated record of a raw dense weight matrix.

        The first sight of a matrix runs every check (integral values,
        2-D, range ``[0, max_weight]``) and keys it; later submits of
        equal content — same dtype, shape and bytes, so an in-place
        edit of the caller's array is a new matrix — reuse the record.
        A refused matrix raises and is never remembered.  Object arrays
        (whose bytes are references, not content) and matrices over
        :data:`_WEIGHT_MEMO_MAX_BYTES` are validated every time.
        """
        array = np.asarray(weights)
        if array.dtype.hasobject or array.nbytes > _WEIGHT_MEMO_MAX_BYTES:
            return self._validated_record(array)
        memo = self._weight_memo
        content = (array.dtype, array.shape, array.tobytes())
        record = memo.get(content)
        if record is not None:
            memo.move_to_end(content)
            return record
        record = self._validated_record(array)
        memo[content] = record
        if len(memo) > _WEIGHT_MEMO_LIMIT:
            memo.popitem(last=False)
        return record

    def _validated_record(self, array: np.ndarray) -> _WeightRecord:
        weights = _checked_weights(array, self.core.max_weight)
        out_features, in_features = weights.shape
        native = out_features <= self.rows and in_features <= self.columns
        if native:
            matrix = np.zeros((self.rows, self.columns), dtype=int)
            matrix[:out_features, :in_features] = weights
        else:
            matrix = weights.copy()
        return _WeightRecord(matrix, out_features, in_features, native)

    # -- conv route ----------------------------------------------------------
    def submit_conv(
        self,
        kernels: ArrayLike,
        image: ArrayLike,
        stride: int = 1,
        gain: float | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> Future:
        """Queue one im2col convolution; returns its :class:`Future`.

        ``kernels`` is a float bank of shape (n, k, k) — or
        (n, channels, k, k) — quantized here into a differential conv
        program keyed on the quantized integers, so repeated banks hit
        the shared program cache; ``image`` is a non-negative (H, W) or
        (channels, H, W) intensity map.  ``gain`` is the row-TIA range
        setting applied to every tile (None = native 1.0); the per-tile
        ``"auto"`` calibration is not offered here because differential
        halves must digitize at one common gain to subtract exactly.
        ``deadline`` / ``tenant`` follow the :meth:`submit` semantics.
        """
        kernels = normalize_kernel_bank(kernels)
        gain = self._validated_gain(gain)
        deadline_at = self._resolve_deadline(deadline)
        if gain == "auto":
            raise ConfigurationError(
                "the conv route takes a numeric gain (or None for native 1.0)"
            )
        gain = 1.0 if gain is None else float(gain)
        kernel_size = kernels.shape[2]
        image = normalize_image(image, kernels.shape[1])

        flattened = kernels.reshape(kernels.shape[0], -1)
        q_positive, q_negative, weight_scale = quantize_weights_differential(
            flattened, self.core.weight_bits
        )
        patches = im2col_channels(image, kernel_size, stride)
        out_rows, out_cols = output_shape(image.shape[1:], kernel_size, stride)
        encoded, scales = encode_patch_batch(patches)

        self._submit_count += 1
        future = Future(
            self,
            f"conv {kernels.shape[0]}-kernel request #{self._submit_count}",
            self._flushes + 1,
            shape=(kernels.shape[0], out_rows, out_cols),
        )
        if deadline is not None and deadline <= 0.0:
            future._deadline = deadline_at
            future._tenant = tenant
            self._shed_future(future)
            return future
        # Conv programs share the tiled LRU; the prefix keeps a kernel
        # bank from colliding with a plain weight matrix of equal bytes.
        key = b"conv:" + weight_key(np.concatenate([q_positive, q_negative]))
        group = self._conv_pending.get((key, gain))
        if group is None:
            group = {
                "q_positive": q_positive,
                "q_negative": q_negative,
                "segments": [],
                "futures": [],
            }
            self._conv_pending[(key, gain)] = group
        group["segments"].append((encoded, scales, weight_scale))
        group["futures"].append(future)
        self._conv_requests += 1
        self._queued += 1
        self._note_submit(future, "conv", tenant)
        self._note_deadline(future, deadline_at)
        self._after_submit()
        return future

    def _differential_program(
        self, key: bytes, q_positive: np.ndarray, q_negative: np.ndarray
    ) -> DifferentialProgram:
        """Fetch-or-compile a differential program in the shared cache,
        charging the pSRAM streaming ledger on misses and crediting the
        avoided reload on hits."""
        tel = self.telemetry
        program = self.tiled_cache.get(key)
        if program is None:
            # Warm start: restore a persisted compile of this program
            # before paying the cold differential build.  The modelled
            # streaming ledger is charged identically either way; only
            # the host-side compile is skipped.
            restored = self.tiled_cache.read_back(key)
            if restored is not None:
                self._tiled_energy_spent += restored.weight_update_energy
                self._tiled_weight_time += restored.weight_update_time
                self.tiled_cache.put(key, restored)
                if tel is not None:
                    restore_start = tel.clock.now
                    tel.clock.advance(restored.weight_update_time)
                    tel.metrics.counter("warm_starts").inc()
                    tel.span(
                        "warm start differential",
                        "fleet",
                        restore_start,
                        restored.weight_update_time,
                        args={
                            "program": key[:12].hex(),
                            "tiles": restored.tile_count,
                        },
                    )
                return restored
            positive, negative = compile_differential_engines(
                q_positive, q_negative, self.core
            )
            program = DifferentialProgram(positive=positive, negative=negative)
            self._tiled_energy_spent += program.weight_update_energy
            self._tiled_weight_time += program.weight_update_time
            self.tiled_cache.put(key, program)
            if tel is not None:
                compile_start = tel.clock.now
                tel.clock.advance(program.weight_update_time)
                tel.metrics.counter("cache_misses").inc()
                tel.span(
                    "compile differential",
                    "compile",
                    compile_start,
                    program.weight_update_time,
                    args={"program": key[:12].hex(), "tiles": program.tile_count},
                )
        else:
            self._tiled_energy_saved += program.weight_update_energy
            if tel is not None:
                tel.metrics.counter("cache_hits").inc()
                tel.instant(
                    "cache_hit", "cache", args={"program": key[:12].hex()}
                )
        return program

    # -- model endpoints -----------------------------------------------------
    def compile(
        self,
        model: Model,
        calibration: np.ndarray | None = None,
        label: str | None = None,
    ) -> DeployedModel:
        """Deploy a declarative :class:`Model` onto this session's core.

        Compute layers quantize onto the core's pSRAM format and bind
        to compiled tile engines from the shared program cache (a model
        recompiled with the same quantized weights hits the cache and
        skips the pSRAM re-streaming).  ``calibration`` — a float batch
        of model inputs — range-calibrates every Dense layer whose spec
        leaves ``gain=None``, exactly as
        :class:`~repro.ml.network.PhotonicMLP` does per layer.
        """
        if not isinstance(model, Model):
            raise ConfigurationError(
                f"compile() takes a repro.api.Model, got {type(model).__name__}"
            )
        label = label if label is not None else f"model-{len(self._endpoints)}"
        stages: list[CompiledStage] = []
        for spec in model.layers:
            if isinstance(spec, Dense):
                layer = PhotonicDense(
                    spec.weights,
                    self.core,
                    bias=spec.bias,
                    signed=spec.signed,
                    runtime=True,
                )
                if spec.gain is not None:
                    layer.gain = float(spec.gain)
                self._bind_program(layer, prefix=b"dense:")
                stages.append(CompiledStage(spec=spec, layer=layer))
            elif isinstance(spec, Conv2d):
                layer = PhotonicConv2d(
                    spec.kernels,
                    self.core,
                    stride=spec.stride,
                    gain=spec.gain,
                    runtime=True,
                )
                self._bind_program(layer, prefix=b"conv:")
                stages.append(CompiledStage(spec=spec, layer=layer))
            else:
                stages.append(CompiledStage(spec=spec))
        if calibration is not None:
            self._calibrate(stages, calibration)
        endpoint = DeployedModel(self, model, stages, label)
        self._endpoints.append(endpoint)
        return endpoint

    def _bind_program(
        self, layer: PhotonicDense | PhotonicConv2d, prefix: bytes
    ) -> None:
        """Bind a quantized layer to cached compiled engines (the same
        key scheme as the conv route, so a served kernel bank and a
        compiled model layer share one program)."""
        key = prefix + weight_key(
            np.concatenate([layer.q_positive, layer.q_negative])
        )
        program = self._differential_program(key, layer.q_positive, layer.q_negative)
        layer.attach_engines(program.positive, program.negative)

    def _calibrate(self, stages: list[CompiledStage], batch: ArrayLike) -> None:
        """Propagate a float calibration batch through the stage chain,
        range-calibrating each uncommitted Dense layer on the float
        activations reaching it (the per-layer ADC range calibration
        standard in analog IMC deployments)."""
        current = np.asarray(batch, dtype=float)
        for stage in stages:
            spec, layer = stage.spec, stage.layer
            if isinstance(spec, Dense):
                if current.ndim != 2 or current.shape[1] != layer.in_features:
                    raise ConfigurationError(
                        f"dense layer expects {layer.in_features} features, "
                        f"but the calibration batch reaches it with shape "
                        f"{current.shape}"
                    )
                if spec.gain is None:
                    layer.calibrate_gain(current)
                current = layer.forward_float(current)
            elif isinstance(spec, Conv2d):
                current = np.stack([layer.forward_float(image) for image in current])
            elif isinstance(spec, ReLU):
                current = relu(current)
            elif isinstance(spec, AvgPool):
                current = avg_pool2d(current, spec.size)
            elif isinstance(spec, Flatten):
                current = current.reshape(len(current), -1)
            else:  # a spec added to graph.py but not wired up here
                raise ConfigurationError(
                    f"no calibration rule for layer spec {type(spec).__name__}"
                )

    def _account_model_stage(
        self, layer: PhotonicDense | PhotonicConv2d, samples: int
    ) -> None:
        """Charge one compute stage's analog passes to the ledger: one
        ADC sample period per analog pass per input column, the active
        grid burning tile_count times one tile's power (the same model
        as the conv serving route)."""
        positive, negative = layer.runtime_engines()
        passes = 2 if negative is not None else 1
        tiles = positive.tile_count + (negative.tile_count if negative else 0)
        period = 1.0 / self.performance.sample_rate
        self._model_samples += samples * passes
        self._model_analog_time += samples * period * passes
        self._model_analog_energy += samples * period * self.performance.total_power * tiles
        if self.telemetry is not None:
            self.telemetry.clock.advance(samples * period * passes)

    # -- health: drift, probes, recalibration --------------------------------
    @staticmethod
    def _coerce_drift(drift: DriftLike) -> DriftState | None:
        """Accept None, a ready DriftState, one DriftModel or an
        iterable of models (wrapped into a fresh state)."""
        if drift is None:
            return None
        if isinstance(drift, DriftState):
            return drift
        if isinstance(drift, DriftModel):
            return DriftState((drift,), label="session")
        try:
            models = tuple(drift)
        except TypeError:
            raise ConfigurationError(
                f"drift must be a DriftState, DriftModel(s) or None, "
                f"got {type(drift).__name__}"
            ) from None
        # An empty suite models nothing: same as no drift at all (and
        # keeps recalibration from ever chasing an inactive state).
        if not models:
            return None
        return DriftState(models, label="session")

    #: Bisection probes per ADC code boundary during a ladder re-trim
    #: (full-scale range down to ~uV resolution).
    _LADDER_BISECTION_STEPS = 40

    @property
    def health_history(self) -> tuple[HealthReport, ...]:
        """Every probe check this session ran, in order."""
        return tuple(self._health_history)

    def ensure_monitor(self, policy: HealthPolicy | None = None) -> HealthMonitor:
        """The session's probe monitor, built on first use (golden
        codes freeze at that point; they are pristine regardless of the
        core's age, so a late monitor still measures true drift)."""
        if self.health is None:
            policy = policy if policy is not None else (self.health_policy or HealthPolicy())
            self.health = HealthMonitor(
                self, probes=policy.probes, seed=policy.probe_seed
            )
        return self.health

    def check_health(self, recalibrated: bool = False) -> HealthReport:
        """Replay the probe vectors through the live core and report
        the code walk against the compile-time golden codes."""
        report = self.ensure_monitor().check(recalibrated=recalibrated)
        self._health_history.append(report)
        obs = self.obs
        tel = self.telemetry
        if obs is not None and tel is not None:
            obs.observe_health(tel.clock.now, self.label, report)
        return report

    def age(self, seconds: float) -> None:
        """Model idle wall-clock passing (traffic gaps age the analog
        stack too); a no-op on a session without drift."""
        if seconds < 0.0:
            raise ConfigurationError(f"age must be non-negative, got {seconds}")
        if self.drift is not None:
            self.drift.advance(seconds=seconds)
        if self.telemetry is not None:
            self.telemetry.clock.advance(seconds)

    def recalibrate(self) -> HealthReport | None:
        """Re-trim the core online and invalidate exactly the stale
        programs.

        The re-trim re-bisects every row ADC's code ladder
        (:meth:`~repro.core.eoadc.EoAdc.code_boundaries` probes charged
        to the calibration ledger, the core's cached ladder stack and
        ``runtime_ladder_cache`` dropped via
        :meth:`~repro.core.tensor_core.PhotonicTensorCore.
        invalidate_ladders`) and programs the measured drift into the
        TIA gain trims — :meth:`DriftState.recalibrate` bumps the
        calibration epoch.  Cached weight programs compiled under an
        older epoch are evicted so hot programs recompile lazily on
        their next request; deployed model endpoints rebind at their
        next flush.  Returns the post-trim verification probe check
        (bit-for-bit against golden on a healthy trim) when a monitor
        exists.
        """
        if self.drift is None or not self.drift.active:
            raise ConfigurationError(
                "this session models no drift; construct it with "
                "drift=[...DriftModel...] to enable recalibration"
            )
        if self.pending:
            self.flush()
        # Modelled re-trim cost: one bisection ladder per row ADC, each
        # boundary probed down the full-scale range, at the converter's
        # own sample rate and energy per conversion.
        adc = self.core.row_adcs[0]
        conversions = (
            self.core.rows * (adc.levels - 1) * self._LADDER_BISECTION_STEPS
        )
        retrim_time = conversions / adc.sample_rate
        self._calibration_time += retrim_time
        self._calibration_energy += conversions * adc.energy_per_conversion
        tel = self.telemetry
        if tel is not None:
            retrim_start = tel.clock.now
            tel.clock.advance(retrim_time)
            tel.metrics.counter("recalibrations").inc()
            tel.span(
                "recalibrate",
                "health",
                retrim_start,
                retrim_time,
                args={
                    "epoch": self.drift.epoch + 1,
                    "ladder_conversions": conversions,
                },
            )
            obs = self.obs
            if obs is not None:
                obs.note_event(
                    tel.clock.now,
                    "recalibrate",
                    {"source": self.label, "epoch": self.drift.epoch + 1},
                )
        self.drift.recalibrate()
        self.core.invalidate_ladders()
        epoch = self.drift.epoch
        self.scheduler.cache.evict_where(
            lambda program: program.engine.calibration_epoch != epoch
        )
        self.tiled_cache.evict_where(
            lambda program: program.calibration_epoch != epoch
        )
        for endpoint in self._endpoints:
            endpoint._needs_rebind = True
        self._recalibrations += 1
        if self.health is not None:
            self.health.recompile()
            return self.check_health(recalibrated=True)
        return None

    def _maybe_run_health(self) -> None:
        """The flush-time health hook: probe on the policy cadence and
        recalibrate past its threshold."""
        policy = self.health_policy
        if policy is None or self._in_maintenance:
            return
        if self._flushes % policy.probe_every:
            return
        self._in_maintenance = True
        try:
            report = self.check_health()
            if (
                policy.recalibrate_threshold is not None
                and report.code_error_rate > policy.recalibrate_threshold
            ):
                self.recalibrate()
        finally:
            self._in_maintenance = False

    def _rebind_endpoint(self, endpoint: DeployedModel) -> None:
        """Re-attach a recalibrated endpoint's compute layers to fresh
        cached programs (misses recompile and are charged as usual)."""
        for stage in endpoint.stages:
            if stage.layer is None:
                continue
            prefix = b"dense:" if isinstance(stage.spec, Dense) else b"conv:"
            self._bind_program(stage.layer, prefix=prefix)
        endpoint._needs_rebind = False

    # -- clocks & deadlines --------------------------------------------------
    def _now(self) -> float:
        """The flush policy's 'now' [s]: the injected clock source when
        one is set, the host wall clock otherwise."""
        clock = self.clock
        if clock is None:
            return wall_clock()
        if isinstance(clock, ModelClock):
            return clock.now
        return float(clock())

    def _stamp_now(self) -> float:
        """The timestamp base ``deadline=`` offsets add onto: the
        injected clock first, else the telemetry clock (so deadlines
        and latency stamps share one timeline), else wall clock."""
        if self.clock is not None:
            return self._now()
        tel = self.telemetry
        if tel is not None:
            return tel.clock.now
        return wall_clock()

    def _resolve_deadline(self, deadline: float | None) -> float | None:
        """Turn a relative ``deadline=`` [s] into an absolute timestamp
        on the session's clock; validates the type here so every submit
        route shares one error message."""
        if deadline is None:
            return None
        if not isinstance(deadline, (int, float)) or isinstance(deadline, bool):
            raise ConfigurationError(
                f"deadline must be seconds from now (a number) or None, "
                f"got {deadline!r}"
            )
        return self._stamp_now() + float(deadline)

    def _note_deadline(self, future: Future, deadline_at: float | None) -> None:
        """Track the most urgent pending deadline for the SLO-aware
        flush policy."""
        future._deadline = deadline_at
        if deadline_at is not None and (
            self._earliest_deadline is None
            or deadline_at < self._earliest_deadline
        ):
            self._earliest_deadline = deadline_at

    def _shed_future(self, future: Future) -> None:
        """Fail one request past its deadline: reads raise the typed
        error, the miss counts on this session's ledger."""
        future._fail(
            DeadlineExceededError(
                f"{future.label} shed: its deadline expired before its "
                f"batch could complete (deadline t={future._deadline:.3g} s "
                "on the session clock); re-submit with a later deadline "
                "or a deadline-aware flush policy"
            )
        )
        self._deadline_misses += 1
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("deadline_misses").inc()

    def _fail_expired_ticket(self, future: Future) -> None:
        """Mirror a scheduler-shed ticket onto its future (the
        scheduler already counted the miss in its own stats)."""
        future._fail(
            DeadlineExceededError(
                f"{future.label} shed: its deadline expired before its "
                f"batch could complete (deadline t={future._deadline:.3g} s "
                "on the session clock); re-submit with a later deadline "
                "or a deadline-aware flush policy"
            )
        )

    # -- telemetry -----------------------------------------------------------
    def _note_submit(
        self, future: Future, route: str, tenant: str | None = None
    ) -> None:
        """Stamp one queued request's modelled submit time (telemetry
        only; the uninstrumented path never calls into telemetry)."""
        future._tenant = tenant
        tel = self.telemetry
        if tel is not None:
            if self.clock is not None:
                future._submitted_at = self._now()
            else:
                future._submitted_at = tel.clock.now
            future._route = route
            tel.metrics.counter("requests").inc()

    def _note_resolved(self, future: Future, resolved_at: float | None) -> None:
        """Stamp one resolved request and add its modelled queue-wait
        and end-to-end latency to the open flush window."""
        tel = self.telemetry
        if tel is None:
            return
        future._resolved_at = (
            resolved_at if resolved_at is not None else tel.clock.now
        )
        if future._submitted_at is not None:
            tel.record_request(
                self._flush_started - future._submitted_at,
                future._resolved_at - future._submitted_at,
                label=future._tenant,
            )

    # -- flush ---------------------------------------------------------------
    def _deadline_slack(self, now: float) -> float | None:
        """Seconds until the most urgent pending deadline expires
        (None = no pending deadline, or the policy ignores them —
        skipping the arithmetic keeps the common path free)."""
        if (
            self.flush_policy.deadline_headroom is None
            or self._earliest_deadline is None
        ):
            return None
        return self._earliest_deadline - now

    def _after_submit(self) -> None:
        now = self._now()
        if self._oldest_pending is None:
            self._oldest_pending = now
        if self.flush_policy.should_flush(
            self.pending, now - self._oldest_pending, self._deadline_slack(now)
        ):
            self.flush()

    def poll(self) -> int:
        """Re-check the flush policy's deadline without submitting.

        ``max_delay`` / SLO deadlines are otherwise only evaluated
        inside submit/result calls, so a lone queued request could sit
        past its deadline until the next API call arrives.  Event loops
        call this periodically; it flushes if the policy has tripped
        and returns the resolved count (0 when nothing was due).  Ages
        are measured on the session's clock source — the host wall
        clock by default, the injected ``clock=`` in simulation.
        """
        if self._oldest_pending is None:
            return 0
        now = self._now()
        if self.flush_policy.should_flush(
            self.pending, now - self._oldest_pending, self._deadline_slack(now)
        ):
            return self.flush()
        return 0

    @property
    def next_deadline(self) -> float | None:
        """The most urgent pending absolute deadline (None = no pending
        request carries one); event loops read this to schedule their
        next :meth:`poll`."""
        return self._earliest_deadline

    @property
    def oldest_pending_at(self) -> float | None:
        """Session-clock timestamp the oldest pending request was
        submitted at (None = nothing pending); with ``delay_limit`` the
        flush policy trips at ``oldest_pending_at + delay_limit``, the
        other timestamp event loops schedule :meth:`poll` around."""
        return self._oldest_pending

    def flush(self) -> int:
        """Evaluate every pending request; returns resolved count.

        Requests carrying a ``deadline=`` are shed instead of evaluated
        when their batch's modelled completion time falls past the
        deadline (the estimate uses the *pre-shed* batch size, so a
        shed never resurrects a later request).  The service timeline
        is the telemetry clock when a binding is attached; otherwise it
        starts at the session clock's 'now' and accumulates modelled
        batch/compile times per route.
        """
        resolved_futures: list[Future] = []
        resolved = 0
        period = 1.0 / self.performance.sample_rate
        tel = self.telemetry
        if tel is not None:
            self._flush_started = tel.clock.now
            flush_now = self._flush_started
        else:
            flush_now = self._now()
        service_now = flush_now
        try:
            if tel is None:
                sched = self.scheduler._stats
                sched_before = sched.analog_time + sched.weight_time_spent
            resolved += self.scheduler.flush(now=flush_now)
            if tel is None:
                service_now += (
                    sched.analog_time + sched.weight_time_spent - sched_before
                )
            for future, ticket, out_features in self._native_pending:
                columns = ticket._batch
                if columns is not None:
                    # Straight from the batch columns: no per-request
                    # result object in between.
                    column = ticket._column
                    future._resolve(
                        columns.estimates[:out_features, column],
                        codes=columns.codes[:out_features, column],
                    )
                    resolved_futures.append(future)
                    if tel is not None:
                        self._note_resolved(future, ticket.resolved_at)
                elif ticket.expired:
                    self._fail_expired_ticket(future)
            for (key, _), group in self._tiled_pending.items():
                weight_before = self._tiled_weight_time
                engine = self.tiled_cache.get(key)
                if engine is None:
                    # Warm start before cold compile: a persisted grid
                    # restores in one read, still charging the modelled
                    # streaming ledger.
                    restored = self.tiled_cache.read_back(key)
                    if restored is not None:
                        engine = restored
                    else:
                        engine = TiledMatmul(
                            group["weights"],
                            tile_rows=self.rows,
                            tile_columns=self.columns,
                            weight_bits=self.core.weight_bits,
                            adc_bits=self.core.row_adcs[0].bits,
                            technology=self.technology,
                            drift_state=self.core.drift_state,
                        )
                    self._tiled_energy_spent += engine.weight_update_energy
                    self._tiled_weight_time += engine.weight_update_time
                    self.tiled_cache.put(key, engine)
                    if tel is not None:
                        compile_start = tel.clock.now
                        tel.clock.advance(engine.weight_update_time)
                        tel.metrics.counter("cache_misses").inc()
                        if restored is not None:
                            tel.metrics.counter("warm_starts").inc()
                        tel.span(
                            "warm start tiled" if restored is not None
                            else "compile tiled",
                            "fleet" if restored is not None else "compile",
                            compile_start,
                            engine.weight_update_time,
                            args={"tiles": engine.tile_count},
                        )
                else:
                    self._tiled_energy_saved += engine.weight_update_energy
                    if tel is not None:
                        tel.metrics.counter("cache_hits").inc()
                        tel.instant("cache_hit", "cache")
                if tel is not None:
                    service_now = tel.clock.now
                else:
                    service_now += self._tiled_weight_time - weight_before
                futures = group["futures"]
                if any(f._deadline is not None for f in futures):
                    # Completion estimated from the pre-shed batch size.
                    completion = service_now + len(group["inputs"]) * period
                    live = [
                        index
                        for index, future in enumerate(futures)
                        if future._deadline is None
                        or future._deadline >= completion
                    ]
                    if len(live) < len(futures):
                        survivors = set(live)
                        for index, future in enumerate(futures):
                            if index not in survivors:
                                self._shed_future(future)
                        group["inputs"] = [group["inputs"][i] for i in live]
                        group["futures"] = [futures[i] for i in live]
                        if not group["futures"]:
                            continue
                batch = np.stack(group["inputs"], axis=1)
                gain = None if group["gain"] == "auto" else group["gain"]
                if tel is not None:
                    batch_start = tel.clock.now
                estimates = engine.matmul(batch, gain=gain)
                for index, future in enumerate(group["futures"]):
                    future._resolve(estimates[:, index])
                    resolved_futures.append(future)
                resolved += len(group["futures"])
                # Tiles digitize concurrently: one ADC sample period per
                # input column, at tile_count times one tile's power.
                samples = batch.shape[1]
                power = self.performance.total_power * engine.tile_count
                self._tiled_batches += 1
                self._tiled_samples += samples
                self._tiled_analog_time += samples * period
                self._tiled_analog_energy += samples * period * power
                if tel is not None:
                    tel.clock.advance(samples * period)
                    for future in group["futures"]:
                        self._note_resolved(future, tel.clock.now)
                    tel.metrics.counter("batches").inc()
                    tel.span(
                        f"tiled batch x{samples}",
                        "batch",
                        batch_start,
                        tel.clock.now - batch_start,
                        args={"tiles": engine.tile_count, "columns": samples},
                    )
                else:
                    service_now += samples * period
            for (key, gain), group in self._conv_pending.items():
                weight_before = self._tiled_weight_time
                program = self._differential_program(
                    key, group["q_positive"], group["q_negative"]
                )
                if tel is not None:
                    service_now = tel.clock.now
                else:
                    service_now += self._tiled_weight_time - weight_before
                futures = group["futures"]
                if any(f._deadline is not None for f in futures):
                    patches_est = sum(
                        encoded.shape[1]
                        for encoded, _, _ in group["segments"]
                    )
                    completion = (
                        service_now + patches_est * period * program.passes
                    )
                    live = [
                        index
                        for index, future in enumerate(futures)
                        if future._deadline is None
                        or future._deadline >= completion
                    ]
                    if len(live) < len(futures):
                        survivors = set(live)
                        for index, future in enumerate(futures):
                            if index not in survivors:
                                self._shed_future(future)
                        group["segments"] = [
                            group["segments"][i] for i in live
                        ]
                        group["futures"] = [futures[i] for i in live]
                        if not group["futures"]:
                            continue
                batch = np.concatenate(
                    [encoded for encoded, _, _ in group["segments"]], axis=1
                )
                if tel is not None:
                    batch_start = tel.clock.now
                raw = program.matmul(batch, gain=gain)
                offset = 0
                for (encoded, scales, weight_scale), future in zip(
                    group["segments"], group["futures"]
                ):
                    count = encoded.shape[1]
                    maps = raw[:, offset : offset + count] * weight_scale * scales
                    future._resolve(maps)
                    resolved_futures.append(future)
                    offset += count
                resolved += len(group["futures"])
                # Each patch column costs one ADC sample period per
                # analog pass (two passes for differential banks); the
                # active grid burns tile_count times one tile's power.
                patches = batch.shape[1]
                power = self.performance.total_power
                self._conv_patches += patches
                self._tiled_batches += 1
                self._tiled_samples += patches * program.passes
                self._tiled_analog_time += patches * period * program.passes
                self._tiled_analog_energy += (
                    patches * period * power * program.tile_count
                )
                if tel is not None:
                    tel.clock.advance(patches * period * program.passes)
                    for future in group["futures"]:
                        self._note_resolved(future, tel.clock.now)
                    tel.metrics.counter("batches").inc()
                    tel.span(
                        f"conv batch x{patches}",
                        "batch",
                        batch_start,
                        tel.clock.now - batch_start,
                        args={"patches": patches, "passes": program.passes},
                    )
                else:
                    service_now += patches * period * program.passes
            for endpoint in self._endpoints:
                if endpoint._queue and endpoint._needs_rebind:
                    self._rebind_endpoint(endpoint)
                if tel is not None:
                    service_now = tel.clock.now
                    drained_from = len(resolved_futures)
                    resolved += endpoint._drain(
                        resolved_futures, now=service_now
                    )
                    for future in resolved_futures[drained_from:]:
                        self._note_resolved(future, tel.clock.now)
                else:
                    resolved += endpoint._drain(
                        resolved_futures, now=service_now
                    )
        finally:
            # Never leave a stale group behind: a failed evaluation must
            # not wedge every subsequent flush.  Futures the failure
            # left unresolved are marked abandoned so their reads say
            # "re-submit" instead of suggesting a futile re-flush.
            for future, _, _ in self._native_pending:
                if not future.done:
                    future._abandon()
            for pending in (self._tiled_pending, self._conv_pending):
                for group in pending.values():
                    for future in group["futures"]:
                        if not future.done:
                            future._abandon()
            for endpoint in self._endpoints:
                for _, future in endpoint._queue:
                    if not future.done:
                        future._abandon()
            self._native_pending.clear()
            self._tiled_pending.clear()
            self._conv_pending.clear()
            for endpoint in self._endpoints:
                endpoint._queue.clear()
            self._queued = 0
            self._oldest_pending = None
            self._earliest_deadline = None
            self._flushes += 1
            report = self._delta_report()
            for future in resolved_futures:
                future._attach_report(report)
        if tel is not None:
            self._emit_flush_telemetry(report, resolved_futures)
        # The flush's modelled serving time and conversions age the
        # core; the policy then probes (and maybe recalibrates) on its
        # cadence.  Skipped when the evaluation raised — a failed flush
        # serves nothing, so it ages nothing.
        if self.drift is not None and self.drift.active:
            self.drift.advance(
                seconds=report.total_latency, inferences=report.samples
            )
        self._maybe_run_health()
        obs = self.obs
        if obs is not None and tel is not None:
            obs.observe_flush(
                tel.clock.now, self.label, report, pending=self.pending
            )
        return resolved

    def _emit_flush_telemetry(
        self, report: RunReport, resolved_futures: list[Future]
    ) -> None:
        """Close the flush on the telemetry side: counters, the flush
        span on the core track, and one lifecycle span per resolved
        request on the requests track."""
        tel = self.telemetry
        if tel is None:
            return
        tel.metrics.counter("flushes").inc()
        tel.metrics.gauge("pending").set(self.pending)
        if tel.trace is None:
            return
        tel.span(
            f"flush #{self._flushes}",
            "flush",
            self._flush_started,
            tel.clock.now - self._flush_started,
            args={
                "requests": report.requests,
                "batches": report.batches,
                "cache_hits": report.cache_hits,
                "cache_misses": report.cache_misses,
                "latency_us": report.total_latency * 1e6,
                "pending": self.pending,
            },
        )
        for future in resolved_futures:
            if future._submitted_at is None or future._resolved_at is None:
                continue
            tel.request_span(
                future.label,
                future._submitted_at,
                future._resolved_at - future._submitted_at,
                args={"route": future._route, "flush": self._flushes},
            )

    # -- reporting -----------------------------------------------------------
    def _totals(self) -> dict:
        stats = self.scheduler.stats()
        return {
            "requests": stats.requests
            + self._tiled_requests
            + self._conv_requests
            + self._model_requests,
            "batches": stats.batches + self._tiled_batches + self._model_batches,
            "samples": stats.samples + self._tiled_samples + self._model_samples,
            "cache_hits": stats.cache_hits + self.tiled_cache.hits,
            "cache_misses": stats.cache_misses + self.tiled_cache.misses,
            "cache_evictions": stats.cache_evictions + self.tiled_cache.evictions,
            "weight_energy_spent": stats.weight_energy_spent + self._tiled_energy_spent,
            "weight_energy_saved": stats.weight_energy_saved + self._tiled_energy_saved,
            "weight_time_spent": stats.weight_time_spent + self._tiled_weight_time,
            "analog_time": stats.analog_time
            + self._tiled_analog_time
            + self._model_analog_time,
            "analog_energy": stats.analog_energy
            + self._tiled_analog_energy
            + self._model_analog_energy,
            "probe_runs": self._probe_runs,
            "probe_vectors": self._probe_vectors,
            "recalibrations": self._recalibrations,
            "calibration_time": self._calibration_time,
            "calibration_energy": self._calibration_energy,
            "deadline_misses": stats.deadline_misses + self._deadline_misses,
        }

    def _delta_report(self) -> RunReport:
        totals = self._totals()
        delta = {
            key: totals[key] - self._last_totals[key] for key in totals
        }
        self._last_totals = totals
        quantiles = (
            self.telemetry.drain_window() if self.telemetry is not None else None
        )
        return RunReport(
            flush_index=self._flushes, latency_quantiles=quantiles, **delta
        )

    def report(self) -> RunReport:
        """Cumulative session accounting as one unified RunReport.

        With a telemetry binding attached, ``latency_quantiles``
        carries the cumulative per-request queue-wait and end-to-end
        modelled latency distributions (histogram-derived quantiles)
        and ``tenant_quantiles`` the same split per request label;
        without one both are None and every other field is bit-for-bit
        what the uninstrumented session reports.
        """
        tel = self.telemetry
        quantiles = tel.latency_quantiles() if tel is not None else None
        tenants = tel.tenant_quantiles() if tel is not None else None
        return RunReport(
            flush_index=self._flushes,
            latency_quantiles=quantiles,
            tenant_quantiles=tenants,
            **self._totals(),
        )

    def server_stats(self) -> ServerStats:
        """The legacy :class:`~repro.runtime.serving.ServerStats` view
        (scheduler + tiled/conv route counters; model endpoint traffic
        is reported only by :meth:`report`)."""
        from ..runtime.serving import ServerStats

        return ServerStats(
            scheduler=self.scheduler.stats(),
            tiled_requests=self._tiled_requests,
            tiled_builds=self.tiled_cache.misses,
            tiled_hits=self.tiled_cache.hits,
            tiled_batches=self._tiled_batches,
            tiled_samples=self._tiled_samples,
            tiled_analog_time=self._tiled_analog_time,
            tiled_analog_energy=self._tiled_analog_energy,
            tiled_weight_energy_spent=self._tiled_energy_spent,
            tiled_weight_energy_saved=self._tiled_energy_saved,
            conv_requests=self._conv_requests,
            conv_patches=self._conv_patches,
        )
