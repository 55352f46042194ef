"""Request batching and weight-program caching for the serving path.

The physical core imposes two costs a naive caller pays on every
request: streaming the weight matrix through the pSRAM arrays (one
20 GHz cycle per column, plus 0.5 pJ per flipped bitcell) and one ADC
sample period per input vector.  Traffic amortizes both:

* :class:`WeightProgramCache` — an LRU of compiled weight programs
  keyed on the matrix bytes.  A hit skips the pSRAM re-streaming
  entirely (the weights are already latched and compiled); only misses
  pay load energy and compile time.
* :class:`BatchScheduler` — accepts many small matvec requests,
  coalesces them per (weight program, TIA gain) and evaluates each
  group as one batched :meth:`CompiledCore.matmul`, so the Python/ADC
  dispatch overhead is paid once per batch instead of once per vector.

Energy and latency accounting rides on the existing device models:
weight-load energy is the tensor core's own pSRAM ledger (measured
across each reload), analog compute time/energy come from
:class:`~repro.core.performance.PerformanceModel`, and every cache hit
is credited with the re-streaming cost it avoided — so
:meth:`BatchScheduler.stats` shows cache hits directly reducing the
reported weight-update energy.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..config import Technology, default_technology
from ..core.performance import PerformanceModel
from ..core.quantization import integral_weights
from ..core.tensor_core import MatvecResult, PhotonicTensorCore
from ..errors import ConfigurationError, ProgramStoreError
from .engine import BatchResult, CompiledCore, weight_key


@dataclass
class CachedProgram:
    """A compiled weight program plus the load costs a hit avoids."""

    engine: CompiledCore
    load_energy: float
    load_time: float


class WeightProgramCache:
    """Least-recently-used cache of weight programs.

    Generic over the cached value (the scheduler stores
    :class:`CachedProgram`, the server also stores tiled engines); the
    key is the canonical byte string of the weight matrix
    (:func:`repro.runtime.engine.weight_key`).
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ConfigurationError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._programs: OrderedDict[bytes, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Programs dropped by :meth:`evict_where` (recalibration),
        #: not by LRU capacity pressure.
        self.invalidations = 0
        #: Programs restored from the attached program store instead of
        #: recompiled (:meth:`read_back`).
        self.restores = 0
        #: Store entries rejected on read-back (stale epoch, corrupt
        #: payload) — each one fell back to a cold compile.
        self.store_rejects = 0
        self._store = None
        self._store_fingerprint: str | None = None
        self._store_technology = None
        self._store_epoch = None
        self._store_drift = None

    def __len__(self) -> int:
        return len(self._programs)

    def __contains__(self, key: bytes) -> bool:
        return key in self._programs

    def keys(self) -> list[bytes]:
        """Cached keys, least recently used first."""
        return list(self._programs)

    def get(self, key: bytes):
        """Look up a program, refreshing its recency.  Counts the
        hit/miss; returns None on miss."""
        program = self._programs.get(key)
        if program is None:
            self.misses += 1
            return None
        self._programs.move_to_end(key)
        self.hits += 1
        return program

    def evict_where(self, predicate) -> int:
        """Drop every cached program ``predicate(program)`` selects;
        returns the dropped count.

        This is the *invalidation* path (recalibration dropping
        programs compiled under stale trims), tallied separately from
        capacity ``evictions`` so the LRU pressure statistics stay
        meaningful.
        """
        stale = [
            key for key, program in self._programs.items() if predicate(program)
        ]
        for key in stale:
            del self._programs[key]
        self.invalidations += len(stale)
        return len(stale)

    def put(self, key: bytes, program) -> object | None:
        """Insert a program, evicting the least recently used entry
        beyond capacity.  Returns the evicted program (or None).

        With a program store attached (:meth:`attach_store`) the insert
        writes through: the compiled program is persisted so another
        core — or another process — can warm-start it.  Capacity
        evictions do *not* remove store entries (the store is the
        durable tier; the LRU is the hot tier).
        """
        self._programs[key] = program
        self._programs.move_to_end(key)
        if self._store is not None:
            try:
                self._store.save(
                    _store_key(key), program, fingerprint=self._store_fingerprint
                )
            except ConfigurationError:
                # A value kind the store does not persist (the cache is
                # generic); keep it hot-tier only.
                pass
        if len(self._programs) > self.capacity:
            _, evicted = self._programs.popitem(last=False)
            self.evictions += 1
            return evicted
        return None

    # -- persistence tier ----------------------------------------------------
    def attach_store(
        self,
        store,
        *,
        fingerprint: str,
        technology,
        epoch_source,
        drift_source=None,
    ) -> None:
        """Back this cache with a :class:`repro.elastic.ProgramStore`.

        ``fingerprint`` identifies the compiling core (:func:`repro.
        elastic.core_fingerprint`); ``epoch_source`` is a zero-argument
        callable yielding the core's *current* calibration epoch at
        read-back time (entries from other epochs are rejected and
        recompiled); ``drift_source`` likewise yields the live
        :class:`~repro.health.DriftState` restored engines rebind to.
        Once attached, :meth:`put` writes through and
        :meth:`read_back` restores misses.
        """
        self._store = store
        self._store_fingerprint = fingerprint
        self._store_technology = technology
        self._store_epoch = epoch_source
        self._store_drift = drift_source

    @property
    def store(self):
        """The attached :class:`repro.elastic.ProgramStore` (or None)."""
        return self._store

    def read_back(self, key):
        """Restore ``key`` from the attached store, or None.

        Counts ``restores`` / ``store_rejects`` (a reject — stale
        calibration epoch or corrupt entry — means the caller should
        compile cold; the fresh :meth:`put` overwrites the bad entry).
        Does *not* insert: callers insert via :meth:`put` after
        charging the load ledgers, exactly like a cold compile.
        """
        if self._store is None:
            return None
        drift = self._store_drift() if self._store_drift is not None else None
        try:
            program = self._store.load(
                _store_key(key),
                fingerprint=self._store_fingerprint,
                epoch=self._store_epoch() if self._store_epoch is not None else 0,
                technology=self._store_technology,
                drift_state=drift,
            )
        except ProgramStoreError:
            self.store_rejects += 1
            return None
        if program is not None:
            self.restores += 1
        return program

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _store_key(key) -> bytes:
    """Canonical byte form of a cache key for the program store (the
    tiled cache keys on ``(weight_key, gain)`` tuples; the store is
    content-addressed on bytes)."""
    if isinstance(key, bytes):
        return key
    if isinstance(key, tuple):
        return b"|".join(
            part if isinstance(part, bytes) else repr(part).encode()
            for part in key
        )
    return repr(key).encode()


class Ticket:
    """Handle for one submitted request; resolved by the next flush.

    A resolved ticket holds its batch's :class:`~repro.runtime.engine.
    BatchResult` and its column in it; :attr:`result` builds the
    single-vector view on read, so a flush never materializes a
    per-request result nobody asks for.
    """

    __slots__ = ("_batch", "_column", "resolved_at", "deadline", "expired")

    def __init__(self, deadline: float | None = None) -> None:
        self._batch: BatchResult | None = None
        self._column = 0
        #: Modelled-clock resolution timestamp [s]; stamped only when a
        #: telemetry binding is attached to the scheduler.
        self.resolved_at: float | None = None
        #: Absolute deadline [s] on the owning session's clock (None =
        #: best effort, never shed).
        self.deadline = deadline
        #: True when the flush shed this request: its batch's modelled
        #: completion time fell past the deadline.
        self.expired = False

    @property
    def result(self) -> MatvecResult | None:
        """The request's :class:`MatvecResult` (None until resolved)."""
        if self._batch is None:
            return None
        return self._batch.column(self._column)

    @property
    def done(self) -> bool:
        return self._batch is not None


@dataclass
class SchedulerStats:
    """Aggregate accounting of a scheduler's traffic so far."""

    requests: int = 0
    flushed: int = 0
    batches: int = 0
    max_batch: int = 0
    #: Requests queued but not yet flushed at snapshot time — the
    #: per-core load signal least-loaded cluster routing reads.
    pending: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: pSRAM streaming energy actually spent on cache misses [J].
    weight_energy_spent: float = 0.0
    #: pSRAM streaming energy avoided by cache hits [J].
    weight_energy_saved: float = 0.0
    #: Weight streaming time actually spent [s] / avoided [s].
    weight_time_spent: float = 0.0
    weight_time_saved: float = 0.0
    #: ADC sample slots consumed by batched evaluations.
    samples: int = 0
    #: Analog compute time [s] and wall-plug energy [J] from the
    #: PerformanceModel (one sample period per batched input column).
    analog_time: float = 0.0
    analog_energy: float = 0.0
    #: Requests shed at flush because their batch's modelled completion
    #: time fell past their ``deadline=``.
    deadline_misses: int = 0

    @property
    def batch_fill(self) -> float:
        """Mean evaluated batch size over the configured maximum."""
        if self.batches == 0 or self.max_batch == 0:
            return 0.0
        return self.flushed / (self.batches * self.max_batch)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def total_latency(self) -> float:
        """Modelled serving time [s]: weight streaming plus analog compute."""
        return self.weight_time_spent + self.analog_time

    @property
    def total_energy(self) -> float:
        """Modelled serving energy [J]: weight streaming plus analog compute."""
        return self.weight_energy_spent + self.analog_energy


class BatchScheduler:
    """Coalesces matvec requests into batched compiled evaluations.

    One physical :class:`PhotonicTensorCore` backs the scheduler; each
    distinct weight matrix becomes a compiled program in the LRU cache.
    Requests queue per (weight program, gain) and :meth:`flush` runs
    every group as dense batches of at most ``max_batch`` columns.
    """

    def __init__(
        self,
        rows: int | None = None,
        columns: int | None = None,
        weight_bits: int | None = None,
        adc_bits: int | None = None,
        technology: Technology | None = None,
        cache_capacity: int = 8,
        max_batch: int = 256,
        label: str = "sched",
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max batch must be >= 1, got {max_batch}")
        self.technology = technology if technology is not None else default_technology()
        self.core = PhotonicTensorCore(
            rows=rows,
            columns=columns,
            weight_bits=weight_bits,
            adc_bits=adc_bits,
            technology=self.technology,
            label=label,
        )
        self.performance = PerformanceModel(
            technology=self.technology,
            rows=self.core.rows,
            columns=self.core.columns,
            weight_bits=self.core.weight_bits,
        )
        self.cache = WeightProgramCache(cache_capacity)
        self.max_batch = max_batch
        self._pending: OrderedDict[tuple[bytes, float], dict] = OrderedDict()
        #: Requests queued in ``_pending`` (kept beside the queues so
        #: :attr:`pending` reads no queue).
        self._queued = 0
        self._stats = SchedulerStats(max_batch=max_batch)
        #: Optional :class:`repro.telemetry.Telemetry` binding (set by
        #: the owning session).  None = zero telemetry calls on the
        #: flush path.
        self.telemetry = None

    @property
    def rows(self) -> int:
        return self.core.rows

    @property
    def columns(self) -> int:
        return self.core.columns

    @property
    def pending(self) -> int:
        """Requests submitted but not yet flushed."""
        return self._queued

    # -- request path --------------------------------------------------------
    def submit(
        self, weights, x, gain: float = 1.0, deadline: float | None = None
    ) -> Ticket:
        """Queue one matvec request; resolved by the next :meth:`flush`.

        ``deadline`` is an *absolute* timestamp on the owning session's
        clock: if the request's batch cannot complete by then (see
        :meth:`flush`), the request is shed instead of evaluated.
        """
        weights = integral_weights(weights)
        if weights.shape != (self.rows, self.columns):
            raise ConfigurationError(
                f"weight matrix must be {self.rows}x{self.columns}, "
                f"got shape {weights.shape}"
            )
        if np.any(weights < 0) or np.any(weights > self.core.max_weight):
            raise ConfigurationError(
                f"weights must lie in [0, {self.core.max_weight}], got range "
                f"[{weights.min()}, {weights.max()}]"
            )
        x = np.asarray(x, dtype=float)
        if x.shape != (self.columns,):
            raise ConfigurationError(
                f"input must have shape ({self.columns},), got {x.shape}"
            )
        if x.size and (x.min() < 0.0 or x.max() > 1.0):
            raise ConfigurationError(
                f"analog inputs must lie in [0, 1], got range "
                f"[{x.min():.6g}, {x.max():.6g}]"
            )
        if gain <= 0.0:
            raise ConfigurationError(f"TIA gain must be positive, got {gain}")

        # Copy: np.asarray aliases the caller's arrays, and an in-place
        # mutation between submit and flush would compile the mutated
        # weights under the original key, poisoning the program cache
        # for every future request with that key.
        return self._enqueue(
            weight_key(weights), weights.copy(), x.copy(), float(gain), deadline
        )

    def _enqueue(
        self,
        key: bytes,
        weights: np.ndarray,
        x: np.ndarray,
        gain: float,
        deadline: float | None,
    ) -> Ticket:
        """Queue one request whose arrays are already validated, private
        to the scheduler and keyed (``key`` is ``weight_key(weights)``):
        the shared tail of :meth:`submit` and of a session's submit,
        which validates and keys each weight matrix once per session."""
        group = self._pending.get((key, gain))
        if group is None:
            group = {
                "weights": weights,
                "inputs": [],
                "tickets": [],
                "has_deadline": False,
            }
            self._pending[(key, gain)] = group
        ticket = Ticket(deadline=deadline)
        group["inputs"].append(x)
        group["tickets"].append(ticket)
        if deadline is not None:
            group["has_deadline"] = True
        self._stats.requests += 1
        self._queued += 1
        return ticket

    def _program_for(self, key: bytes, weights: np.ndarray) -> CachedProgram:
        tel = self.telemetry
        program = self.cache.get(key)
        if program is not None:
            # Hit: the pSRAM streaming this program originally paid is
            # exactly what reusing it avoids.
            self._stats.cache_hits += 1
            self._stats.weight_energy_saved += program.load_energy
            self._stats.weight_time_saved += program.load_time
            if tel is not None:
                tel.metrics.counter("cache_hits").inc()
                tel.instant(
                    "cache_hit", "cache", args={"program": key[:8].hex()}
                )
            return program
        self._stats.cache_misses += 1
        # Warm start: a persisted compile of this exact program (same
        # weights, geometry, technology, calibration epoch) skips the
        # host-side recompile entirely.  The *modelled* pSRAM streaming
        # cost is still charged — the weights must physically stream
        # into this core's arrays either way — so energy/latency
        # accounting is identical to a cold compile; only wall-clock
        # compile work is avoided.
        program = self.cache.read_back(key)
        restored = program is not None
        if restored:
            load_energy = program.load_energy
            load_time = program.load_time
        else:
            load_energy = self.core.load_weight_matrix(weights)
            load_time = self.core.weight_update_time()
            program = CachedProgram(
                engine=CompiledCore(self.core),
                load_energy=load_energy,
                load_time=load_time,
            )
        self._stats.weight_energy_spent += load_energy
        self._stats.weight_time_spent += load_time
        if self.cache.put(key, program) is not None:
            self._stats.cache_evictions += 1
        if tel is not None:
            # The pSRAM streaming occupies the core for load_time on
            # the modelled clock before the batch can evaluate.
            start = tel.clock.now
            tel.clock.advance(load_time)
            tel.metrics.counter("cache_misses").inc()
            if restored:
                tel.metrics.counter("warm_starts").inc()
            tel.span(
                "warm start" if restored else "compile",
                "fleet" if restored else "compile",
                start,
                load_time,
                args={
                    "program": key[:8].hex(),
                    "load_energy_pj": load_energy * 1e12,
                },
            )
        return program

    def flush(self, now: float | None = None) -> int:
        """Evaluate every pending group; returns resolved request count.

        ``now`` is the flush's start timestamp on the owning session's
        clock.  With it (or a telemetry binding, whose modelled clock
        then supplies the service timeline), requests carrying a
        ``deadline=`` are shed when their batch's estimated completion
        — the running service time plus one ADC sample period per
        column of the *pre-shed* chunk — falls past the deadline; shed
        tickets are flagged ``expired`` and counted as
        ``deadline_misses``.  Without either time source deadlines
        cannot be evaluated and every request runs.
        """
        resolved = 0
        sample_period = 1.0 / self.performance.sample_rate
        power = self.performance.total_power
        tel = self.telemetry
        if tel is not None:
            service_now = tel.clock.now
        else:
            service_now = now
        try:
            for (key, gain), group in self._pending.items():
                spent_before = self._stats.weight_time_spent
                program = self._program_for(key, group["weights"])
                if tel is not None:
                    service_now = tel.clock.now
                elif service_now is not None:
                    # Mirror the load time a telemetry clock would have
                    # advanced by (zero on a cache hit).
                    service_now += self._stats.weight_time_spent - spent_before
                inputs = group["inputs"]
                tickets = group["tickets"]
                shed_deadlines = group["has_deadline"] and service_now is not None
                for start in range(0, len(inputs), self.max_batch):
                    chunk = inputs[start : start + self.max_batch]
                    chunk_tickets = tickets[start : start + len(chunk)]
                    if shed_deadlines:
                        completion = service_now + len(chunk) * sample_period
                        live = [
                            index
                            for index, ticket in enumerate(chunk_tickets)
                            if ticket.deadline is None
                            or ticket.deadline >= completion
                        ]
                        if len(live) < len(chunk):
                            misses = len(chunk) - len(live)
                            survivors = set(live)
                            for index, ticket in enumerate(chunk_tickets):
                                if index not in survivors:
                                    ticket.expired = True
                            self._stats.deadline_misses += misses
                            if tel is not None:
                                tel.metrics.counter("deadline_misses").inc(
                                    misses
                                )
                            chunk = [chunk[index] for index in live]
                            chunk_tickets = [
                                chunk_tickets[index] for index in live
                            ]
                            if not chunk:
                                continue
                    batch = np.stack(chunk, axis=1)
                    result = program.engine.matmul(batch, gain=gain)
                    for offset, ticket in enumerate(chunk_tickets):
                        ticket._batch = result
                        ticket._column = offset
                    self._stats.batches += 1
                    self._stats.samples += len(chunk)
                    self._stats.analog_time += len(chunk) * sample_period
                    self._stats.analog_energy += len(chunk) * sample_period * power
                    resolved += len(chunk)
                    if tel is None:
                        if service_now is not None:
                            service_now += len(chunk) * sample_period
                    else:
                        # One ADC sample period per batched column on
                        # the modelled clock; requests of this batch
                        # resolve when its last conversion lands.
                        batch_start = tel.clock.now
                        batch_time = len(chunk) * sample_period
                        tel.clock.advance(batch_time)
                        service_now = tel.clock.now
                        for ticket in chunk_tickets:
                            ticket.resolved_at = tel.clock.now
                        tel.metrics.counter("batches").inc()
                        tel.metrics.histogram(
                            "batch_size", lo=1.0, hi=1e6, per_decade=16
                        ).observe(float(len(chunk)))
                        tel.span(
                            f"batch x{len(chunk)}",
                            "batch",
                            batch_start,
                            batch_time,
                            args={
                                "program": key[:8].hex(),
                                "columns": len(chunk),
                                "gain": gain,
                            },
                        )
        finally:
            # Never leave a stale group behind: a failed compile or
            # evaluation must not wedge every subsequent flush.
            self._pending.clear()
            self._queued = 0
            self._stats.flushed += resolved
        return resolved

    def stats(self) -> SchedulerStats:
        """Detached snapshot of the accounting so far."""
        return dataclasses.replace(self._stats, pending=self.pending)
