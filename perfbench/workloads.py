"""The benchmark's three workloads.

Each workload builds its inputs from the seed, hands only those inputs
to the simulator's public API, and exposes the same life cycle to the
harness in ``run.py``:

* ``setup()`` — build the target and warm it (timed as ``setup_s``);
  leaves ``self.reference``, the modelled digest of the warm-up, which
  every set-up of a seed must repeat exactly, and
  ``self.round_reference``, the digest every round must repeat (None
  when the first timed round sets it);
* ``begin_round()`` — untimed preparation of one round of
  ``steps_per_round`` steps;
* ``step(index)`` — one timed step, returning the simulated requests it
  resolved;
* ``end_round()`` — untimed; the round's digest (modelled outputs and
  work counters), compared exactly against ``self.round_reference``;
* ``gate(rng)`` — the untimed correctness gate: recomputes a seeded
  sample of outputs through the device loop and checks the ledgers.

Why these three (see DESIGN.md): ``traffic_warm`` isolates per-request
bookkeeping with programs resident, ``compile_churn`` is bound by
program compiles, ``cnn_batch`` by batched evaluation.
"""

from __future__ import annotations

import hashlib
import shutil

import numpy as np

from repro.api.cluster import PhotonicCluster
from repro.api.graph import AvgPool, Conv2d, Dense, Flatten, Model, ReLU
from repro.api.policy import FlushPolicy
from repro.api.routing import RoutingPolicy
from repro.api.session import PhotonicSession
from repro.core.tensor_core import PhotonicTensorCore
from repro.elastic import ProgramStore
from repro.ml.convolution import PhotonicConv2d, avg_pool2d
from repro.ml.datasets import procedural_digits
from repro.ml.layers import PhotonicDense, relu
from repro.ml.mapping import MatrixTiler
from repro.runtime.serving import synthetic_trace
from repro.telemetry import MetricsRegistry, ModelClock
from repro.traffic import SLO, Poisson, TrafficEngine, WorkloadMix


def _hash_arrays(arrays) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return digest.hexdigest()


def _report_digest(report) -> dict:
    """The modelled ledger of one report: energy, modelled time and the
    work counters every run of a seed must repeat exactly."""
    return {
        "energy_j": report.weight_energy_spent + report.analog_energy,
        "modelled_time_s": report.analog_time + report.weight_time_spent,
        "deadline_misses": report.deadline_misses,
        "requests": report.requests,
        "batches": report.batches,
        "samples": report.samples,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "cache_evictions": report.cache_evictions,
    }


def _device_matvec(core_shape: tuple[int, int], weights, x) -> np.ndarray:
    """W @ x through the device loop (MatrixTiler on a physical core) at
    the native TIA gain the serving routes use for ``gain=None``."""
    core = PhotonicTensorCore(rows=core_shape[0], columns=core_shape[1])
    return MatrixTiler(core).matvec(weights, x, gain=1.0)


class TrafficWarm:
    """Open-loop Poisson tape on the modelled clock through one 8x8
    session that warm-starts from a filled ProgramStore.

    One step replays the whole tape through a *fresh* target, the
    ``find_capacity`` trial pattern: a second ``TrafficEngine.run`` on a
    reused target rewinds the shared arrival clock and sheds requests
    the first run served (see DESIGN.md), so targets are never reused.
    """

    name = "traffic_warm"
    #: Requests per tape (one step).
    TAPE = 1000
    #: Offered rate [req/s, modelled]: ~60% of the single-core capacity
    #: the traffic bench probes for this mix, so no deadline is missed.
    RATE = 4.8e9
    GRID = (8, 8)
    GATE_SAMPLES = 32

    def __init__(self, seed: int, workdir) -> None:
        self.seed = int(seed)
        self.store_dir = workdir / "store"
        self.slo = SLO(p99_latency=2.5e-7, deadline_miss_budget=0.01)
        self.mix = WorkloadMix.zipf(tenants=4, rows=8, columns=8, deadline_s=1e-6)
        self.arrivals = Poisson(self.RATE)
        self.policy = self.slo.flush_policy(batch_limit=64)
        self.requests_per_step = self.TAPE
        self.steps_per_round = 1
        self.store: ProgramStore | None = None
        self.reference: dict | None = None
        self._last = None

    def _target(self) -> PhotonicSession:
        return PhotonicSession(
            grid=self.GRID,
            max_batch=64,
            flush_policy=self.policy,
            metrics=MetricsRegistry(),
            clock=ModelClock(),
            program_store=self.store,
            label=self.name,
        )

    def _run_tape(self, target: PhotonicSession) -> dict:
        engine = TrafficEngine(
            target, self.mix, self.arrivals, slo=self.slo, seed=self.seed
        )
        return engine.run(self.TAPE)

    @staticmethod
    def _digest(target: PhotonicSession, summary: dict) -> dict:
        digest = _report_digest(target.report())
        digest.update(
            admitted=summary["admitted"],
            resolved=summary["resolved"],
            rate_limited=summary["rate_limited"],
            p99_e2e_s=summary["p99_e2e_s"],
            makespan_s=summary["makespan_s"],
            flushes=target.flushes,
            store_restores=target.scheduler.cache.restores
            + target.tiled_cache.restores,
        )
        return digest

    def setup(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store = ProgramStore(self.store_dir)
        # A cold tape compiles every program and writes it through.
        self._run_tape(self._target())
        # Then one warm tape exactly as every timed step runs it.
        target = self._target()
        self.reference = self._digest(target, self._run_tape(target))
        self.round_reference = self.reference

    def begin_round(self) -> None:
        """Every step builds its own target."""

    def step(self, index: int) -> int:
        target = self._target()
        summary = self._run_tape(target)
        self._last = (target, summary)
        return summary["resolved"]

    def end_round(self) -> dict:
        return self._digest(*self._last)

    def gate(self, rng: np.random.Generator) -> tuple[int, list[str]]:
        target = self._target()
        captured = []
        submit = target.submit

        def capture(weights, x, **kwargs):
            future = submit(weights, x, **kwargs)
            captured.append((np.array(weights), np.array(x), future))
            return future

        target.submit = capture
        summary = self._run_tape(target)
        del target.submit
        failures = []
        pending = sum(1 for _, _, future in captured if not future.done)
        shed = sum(1 for _, _, future in captured if future.expired)
        resolved = len(captured) - pending - shed
        if pending:
            failures.append(f"{pending} futures still pending after the tape")
        if not (
            summary["admitted"] == len(captured)
            and summary["admitted"] == resolved + summary["deadline_misses"]
            and shed == summary["deadline_misses"]
        ):
            failures.append(
                f"ledger: admitted {summary['admitted']} != resolved "
                f"{resolved} + deadline misses {summary['deadline_misses']} "
                f"(futures {len(captured)}, shed {shed})"
            )
        if self._digest(target, summary) != self.reference:
            failures.append("gate tape digest differs from the set-up digest")
        served = [i for i, (_, _, f) in enumerate(captured) if not f.expired]
        sample = rng.choice(len(served), size=self.GATE_SAMPLES, replace=False)
        for index in sorted(sample):
            weights, x, future = captured[served[index]]
            expected = _device_matvec(self.GRID, weights, x)
            if not np.array_equal(future.value, expected):
                failures.append(f"request {served[index]}: value differs from device loop")
        return self.GATE_SAMPLES + 1, failures


class CompileChurn:
    """A retraining multi-tenant trace replayed through a 4-core
    round-robin cluster with two-program caches: every core recompiles
    the hot programs, and retrained tenants force fresh compiles.

    A round is one episode: a fresh cluster replays the same
    ``WINDOWS`` explicit flush windows, so every round repeats the same
    compiles and the digest of every round must match exactly.
    """

    name = "compile_churn"
    CORES = 4
    GRID = (8, 8)
    TENANTS = 6
    CHURN = 0.03
    #: Requests per flush window (one step) and windows per episode.
    WINDOW = 16
    WINDOWS = 24
    GATE_SAMPLES = 32
    #: Seed of the trace's schedule: which tenant each request serves
    #: and where tenants retrain.
    SCHEDULE_SEED = 2025
    MAX_WEIGHT = 7

    def __init__(self, seed: int, workdir) -> None:
        self.seed = int(seed)
        self.requests_per_step = self.WINDOW
        self.steps_per_round = self.WINDOWS
        self.reference: dict | None = None
        self._trace = self._seeded_trace()
        self._cluster: PhotonicCluster | None = None
        self._futures: list = []

    def _seeded_trace(self) -> list:
        """``synthetic_trace``'s schedule with weights and inputs drawn
        from the run's seed.

        The schedule (tenant order, retrain points) decides how many
        compiles each flush window does; drawn per seed it moved the
        median step time by ~45% between seeds, so it is fixed and the
        seed draws every weight matrix and input vector instead.
        """
        rng = np.random.default_rng(self.seed)
        served: dict[int, np.ndarray] = {}
        drawn: dict[int, np.ndarray] = {}
        trace = []
        for tenant, weights, _ in synthetic_trace(
            tenants=self.TENANTS,
            requests=self.WINDOW * self.WINDOWS,
            max_weight=self.MAX_WEIGHT,
            churn=self.CHURN,
            seed=self.SCHEDULE_SEED,
        ):
            # A retrain hands the tenant a new weight array.
            if served.get(tenant) is not weights:
                served[tenant] = weights
                drawn[tenant] = rng.integers(0, self.MAX_WEIGHT + 1, weights.shape)
            trace.append((drawn[tenant], rng.uniform(0.0, 1.0, weights.shape[1])))
        return trace

    def _fresh_cluster(self) -> PhotonicCluster:
        return PhotonicCluster(
            cores=self.CORES,
            grid=self.GRID,
            cache_capacity=2,
            tiled_cache_capacity=2,
            flush_policy=FlushPolicy.explicit(),
            routing=RoutingPolicy(kind="round_robin"),
            clock=ModelClock(),
            label=self.name,
        )

    def setup(self) -> None:
        # Warm-up episode: its outputs feed the gate and its digest is
        # the reference every timed episode must repeat.
        self.begin_round()
        for index in range(self.steps_per_round):
            self.step(index)
        self.reference = self.end_round()
        self.round_reference = self.reference
        self._warm_futures = self._futures

    def begin_round(self) -> None:
        self._cluster = self._fresh_cluster()
        self._futures = []

    def step(self, index: int) -> int:
        cluster = self._cluster
        window = self._trace[index * self.WINDOW : (index + 1) * self.WINDOW]
        self._futures.extend(cluster.submit(weights, x) for weights, x in window)
        cluster.flush()
        return len(window)

    def end_round(self) -> dict:
        report = self._cluster.report()
        digest = _report_digest(report.total)
        digest.update(
            flushes=self._cluster.flushes,
            routed=list(report.routed),
            outputs=_hash_arrays(future.value for future in self._futures),
        )
        return digest

    def gate(self, rng: np.random.Generator) -> tuple[int, list[str]]:
        trace, futures = self._trace, self._warm_futures
        failures = []
        pending = sum(1 for future in futures if not future.done)
        shed = sum(1 for future in futures if future.expired)
        if pending or len(futures) != len(trace):
            failures.append(
                f"{pending} pending of {len(futures)} futures for {len(trace)} requests"
            )
        resolved = len(futures) - pending - shed
        misses = self.reference["deadline_misses"]
        if not (
            self.reference["requests"] == len(futures) == resolved + misses
            and shed == misses
        ):
            failures.append(
                f"ledger: admitted {len(futures)} != resolved {resolved} + "
                f"deadline misses {misses} (report requests "
                f"{self.reference['requests']}, shed {shed})"
            )
        sample = rng.choice(len(trace), size=self.GATE_SAMPLES, replace=False)
        for index in sorted(sample):
            weights, x = trace[index]
            expected = _device_matvec(self.GRID, weights, x)
            if not np.array_equal(futures[index].value, expected):
                failures.append(f"request {index}: value differs from device loop")
        return self.GATE_SAMPLES + 1, failures


class CnnBatch:
    """A Conv2d -> ReLU -> AvgPool -> Flatten -> Dense model deployed
    with ``PhotonicSession.compile``; one step is one blocking
    ``predict`` of a 32-image batch (a closed loop with one client).
    A round cycles through ``BATCHES`` seeded batches."""

    name = "cnn_batch"
    GRID = (8, 9)
    ADC_BITS = 6
    KERNELS = 8
    HIDDEN = 40
    BATCH = 32
    BATCHES = 4
    GATE_IMAGES = 2

    def __init__(self, seed: int, workdir) -> None:
        self.seed = int(seed)
        self.requests_per_step = self.BATCH
        self.steps_per_round = self.BATCHES
        self.reference: dict | None = None
        rng = np.random.default_rng(self.seed)
        self.bank = rng.normal(0.0, 1.0, (self.KERNELS, 3, 3))
        features = self.KERNELS * 3 * 3
        self.weights = rng.normal(0.0, 1.0 / np.sqrt(features), (self.HIDDEN, features))
        self.bias = rng.normal(0.0, 0.1, self.HIDDEN)
        count = self.BATCH * self.BATCHES
        images, _ = procedural_digits(
            samples_per_class=-(-count // 10), noise=0.1, seed=self.seed, pooled=False
        )
        images = images.reshape(-1, 8, 8)[rng.permutation(len(images))[:count]]
        self.batches = images.reshape(self.BATCHES, self.BATCH, 8, 8)
        self._outputs: list = []
        self._first_round: list | None = None

    def setup(self) -> None:
        model = Model.sequential(
            Conv2d(self.bank), ReLU(), AvgPool(2), Flatten(), Dense(self.weights, self.bias)
        )
        self.session = PhotonicSession(
            grid=self.GRID, adc_bits=self.ADC_BITS, clock=ModelClock(), label=self.name
        )
        self.endpoint = self.session.compile(model, label=self.name)
        # Warm-up: the first flush of a fresh session carries the
        # compile ledger, so its report is the modelled digest.
        future = self.endpoint.submit(self.batches[0])
        warm = future.result()
        self.reference = _report_digest(future.report)
        self.reference["outputs"] = _hash_arrays([warm])
        self.round_reference = None
        self._totals = self.session.report()

    def begin_round(self) -> None:
        self._outputs = []

    def step(self, index: int) -> int:
        self._outputs.append(self.endpoint.predict(self.batches[index]))
        return self.BATCH

    def end_round(self) -> dict:
        """The session's float ledgers are cumulative, so round-to-round
        differences are not exact: a round's digest is its outputs and
        integer counters, and the float ledger is checked on the
        set-up digest instead."""
        if self._first_round is None:
            self._first_round = self._outputs
        totals = self.session.report()
        digest = {
            "outputs": _hash_arrays(self._outputs),
            "requests": totals.requests - self._totals.requests,
            "batches": totals.batches - self._totals.batches,
            "samples": totals.samples - self._totals.samples,
            "cache_hits": totals.cache_hits - self._totals.cache_hits,
            "cache_misses": totals.cache_misses - self._totals.cache_misses,
            "cache_evictions": totals.cache_evictions - self._totals.cache_evictions,
        }
        self._totals = totals
        return digest

    def gate(self, rng: np.random.Generator) -> tuple[int, list[str]]:
        failures = []
        core = PhotonicTensorCore(
            rows=self.GRID[0], columns=self.GRID[1], adc_bits=self.ADC_BITS
        )
        conv = PhotonicConv2d(self.bank, core)
        dense = PhotonicDense(self.weights, core, bias=self.bias)
        picks = rng.choice(self.BATCH * self.BATCHES, size=self.GATE_IMAGES, replace=False)
        for pick in sorted(picks):
            batch, image = divmod(int(pick), self.BATCH)
            maps = relu(conv.forward(self.batches[batch, image])[np.newaxis])
            expected = dense.forward(avg_pool2d(maps, 2).reshape(1, -1))[0]
            if not np.array_equal(self._first_round[batch][image], expected):
                failures.append(
                    f"batch {batch} image {image}: logits differ from device loop"
                )
        return self.GATE_IMAGES, failures


WORKLOADS = {
    workload.name: workload for workload in (TrafficWarm, CompileChurn, CnnBatch)
}
