"""Host-time tracing of the simulator's layers, built from the benchmark's
own files.

The tracer wraps methods of the ``repro`` modules named in
:data:`WRAPPED` by replacing the class (or module) attributes for the
duration of a traced round; :meth:`Tracer.uninstall` puts the originals
back, so untraced rounds run the program unmodified.

Three wrapper kinds, by how hot the method is:

* ``span`` — records a span (id, name, start, end, parent id, step id)
  and adds its duration to the parent's child time, so a span's self
  time is its duration minus the time its children cover;
* ``leaf`` — counts calls and times them without recording a span; the
  time still leaves the parent's self time.  Used where a method runs
  tens of thousands of times per step (ring transmission, telemetry
  per-request bookkeeping);
* ``count`` — counts calls only (ADC conversions inside the ladder
  bisection); their time stays in the enclosing span's self time.

Spans stay in memory and are written out by :meth:`Tracer.dump` after
the run; only the first :data:`KEEP_STEPS` traced steps (plus set-up)
keep their span records, while the per-name aggregates cover every
traced step.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

SPAN, LEAF, COUNT = "span", "leaf", "count"

#: Span records are kept for set-up and this many traced steps.
KEEP_STEPS = 3

#: The layers a per-layer metric is reported for, by module name.
LAYERS = (
    "traffic",
    "api.cluster",
    "api.session",
    "runtime.scheduler",
    "runtime.engine",
    "runtime.tiling",
    "core",
    "photonics",
    "ml.convolution",
    "telemetry",
    "elastic.store",
)


def _columns(args, kwargs):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    shape = getattr(batch, "shape", None)
    return int(shape[1]) if shape is not None and len(shape) == 2 else 1


def _requests(args, kwargs):
    return int(args[1] if len(args) > 1 else kwargs["requests"])


#: (layer, module, attribute, kind, units hook, extra modules whose
#: global of the same name is patched too — functions imported by name).
WRAPPED = (
    ("traffic", "repro.traffic.engine", "TrafficEngine.run", SPAN, _requests, ()),
    ("api.cluster", "repro.api.cluster", "PhotonicCluster.__init__", SPAN, None, ()),
    ("api.cluster", "repro.api.cluster", "PhotonicCluster.submit", SPAN, None, ()),
    ("api.cluster", "repro.api.cluster", "PhotonicCluster._route", SPAN, None, ()),
    ("api.cluster", "repro.api.cluster", "PhotonicCluster.flush", SPAN, None, ()),
    ("api.cluster", "repro.api.cluster", "PhotonicCluster.poll", SPAN, None, ()),
    ("api.cluster", "repro.api.cluster", "PhotonicCluster.report", SPAN, None, ()),
    ("api.session", "repro.api.session", "PhotonicSession.__init__", SPAN, None, ()),
    ("api.session", "repro.api.session", "PhotonicSession.submit", SPAN, None, ()),
    ("api.session", "repro.api.session", "PhotonicSession.flush", SPAN, None, ()),
    ("api.session", "repro.api.session", "PhotonicSession.poll", SPAN, None, ()),
    ("api.session", "repro.api.session", "PhotonicSession.report", SPAN, None, ()),
    ("api.session", "repro.api.session", "PhotonicSession.compile", SPAN, None, ()),
    ("api.session", "repro.api.session", "DeployedModel.predict", SPAN, None, ()),
    ("runtime.scheduler", "repro.runtime.scheduler", "BatchScheduler.submit", SPAN, None, ()),
    ("runtime.scheduler", "repro.runtime.scheduler", "BatchScheduler.flush", SPAN, None, ()),
    ("runtime.scheduler", "repro.runtime.scheduler", "BatchScheduler._program_for", SPAN, None, ()),
    ("runtime.scheduler", "repro.runtime.scheduler", "WeightProgramCache.get", LEAF, None, ()),
    ("runtime.scheduler", "repro.runtime.scheduler", "WeightProgramCache.put", SPAN, None, ()),
    ("runtime.scheduler", "repro.runtime.scheduler", "WeightProgramCache.read_back", SPAN, None, ()),
    ("runtime.engine", "repro.runtime.engine", "CompiledCore.__init__", SPAN, None, ()),
    ("runtime.engine", "repro.runtime.engine", "CompiledCore.from_state", SPAN, None, ()),
    ("runtime.engine", "repro.runtime.engine", "CompiledCore.matmul", SPAN, _columns, ()),
    ("runtime.tiling", "repro.runtime.tiling", "TiledMatmul.__init__", SPAN, None, ()),
    ("runtime.tiling", "repro.runtime.tiling", "TiledMatmul.from_state", SPAN, None, ()),
    ("runtime.tiling", "repro.runtime.tiling", "TiledMatmul.matmul", SPAN, None, ()),
    ("core", "repro.core.tensor_core", "PhotonicTensorCore.__init__", SPAN, None, ()),
    ("core", "repro.core.tensor_core", "PhotonicTensorCore.load_weight_matrix", SPAN, None, ()),
    ("core", "repro.core.tensor_core", "PhotonicTensorCore.weight_update_energy", SPAN, None, ()),
    ("core", "repro.core.psram", "PsramArray.write_all", SPAN, None, ()),
    ("core", "repro.core.psram", "PsramArray.write_energy", SPAN, None, ()),
    ("core", "repro.core.eoadc", "EoAdc.code_boundaries", SPAN, None, ()),
    ("core", "repro.core.eoadc", "EoAdc.convert", COUNT, None, ()),
    ("photonics", "repro.photonics.mrr", "AddDropMRR.thru_transmission", LEAF, None, ()),
    ("photonics", "repro.photonics.mrr", "AllPassMRR.thru_transmission", LEAF, None, ()),
    ("ml.convolution", "repro.ml.convolution", "PhotonicConv2d.forward_batch", SPAN, None, ()),
    ("ml.convolution", "repro.ml.convolution", "im2col_channels", SPAN, None, ("repro.api.session",)),
    ("ml.convolution", "repro.ml.convolution", "encode_patch_batch", SPAN, None, ("repro.api.session",)),
    ("telemetry", "repro.telemetry.binding", "Telemetry.record_request", LEAF, None, ()),
    ("telemetry", "repro.telemetry.binding", "Telemetry.drain_window", SPAN, None, ()),
    ("telemetry", "repro.telemetry.binding", "Telemetry.latency_quantiles", SPAN, None, ()),
    ("telemetry", "repro.telemetry.binding", "merged_tenant_quantiles", SPAN, None,
     ("repro.telemetry", "repro.traffic.engine", "repro.api.cluster")),
    ("telemetry", "repro.telemetry.metrics", "MetricsRegistry.counter", LEAF, None, ()),
    ("telemetry", "repro.telemetry.metrics", "MetricsRegistry.histogram", LEAF, None, ()),
    ("elastic.store", "repro.elastic.store", "ProgramStore.load", SPAN, None, ()),
    ("elastic.store", "repro.elastic.store", "ProgramStore.save", SPAN, None, ()),
)


def span_name(layer: str, attribute: str) -> str:
    return f"{layer}:{attribute}"


class Tracer:
    """Span recorder and per-name aggregates (calls, self seconds,
    inclusive seconds, units) for the wrapped methods."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self._next_id = 0
        self._step: int | str | None = None
        self._steps = 0
        self._kept_steps: set = {"setup"}
        self._marked: dict[str, tuple[int, int]] = {}
        self._patches: list[tuple[object, str, object]] = []
        #: name -> [calls, self_s, inclusive_s, units]
        self.aggregate: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        #: (id, name, start_s, end_s, parent_id, step) of kept spans.
        self.spans: list[tuple] = []

    # -- scopes ----------------------------------------------------------
    def begin_step(self, step: str | None = None) -> None:
        """Open the root span of the next step (or of set-up,
        ``"setup"``); steps are numbered in the order they run."""
        if step is None:
            step = self._steps
            self._steps += 1
        self._step = step
        if len(self._kept_steps) <= KEEP_STEPS:
            self._kept_steps.add(step)
        self._stack.append([self._new_id(), perf_counter(), 0.0])

    def end_step(self) -> float:
        """Close the root span; returns its duration in seconds."""
        span_id, start, child = self._stack.pop()
        end = perf_counter()
        record = self.aggregate["step"]
        record[0] += 1
        record[1] += (end - start) - child
        record[2] += end - start
        if self._step in self._kept_steps:
            self.spans.append((span_id, "step", start, end, None, self._step))
        self._step = None
        return end - start

    def reset(self) -> dict[str, list]:
        """Return the aggregates so far and start new ones."""
        done = {name: list(values) for name, values in self.aggregate.items()}
        self.aggregate.clear()
        return done

    def mark(self) -> None:
        """Remember the counts now, for :meth:`counts_since_mark`."""
        self._marked = self._counts()

    def counts_since_mark(self) -> dict[str, list[int]]:
        """Calls and units per name since :meth:`mark` — the
        deterministic part of the aggregates, which every round of a
        workload must repeat exactly."""
        counts = {}
        for name, (calls, units) in self._counts().items():
            marked_calls, marked_units = self._marked.get(name, (0, 0))
            counts[name] = [calls - marked_calls, units - marked_units]
        return counts

    def _counts(self) -> dict[str, tuple[int, int]]:
        return {
            name: (values[0], values[3])
            for name, values in sorted(self.aggregate.items())
        }

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- wrappers --------------------------------------------------------
    def _span(self, name, fn, units):
        stack = self._stack
        aggregate = self.aggregate

        def wrapper(*args, **kwargs):
            span_id = self._new_id()
            parent = stack[-1][0] if stack else None
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                record = aggregate[name]
                record[0] += 1
                record[1] += duration - frame[2]
                record[2] += duration
                if units is not None:
                    record[3] += units(args, kwargs)
                if stack:
                    stack[-1][2] += duration
                if self._step in self._kept_steps:
                    self.spans.append(
                        (span_id, name, frame[1], end, parent, self._step)
                    )

        return wrapper

    def _leaf(self, name, fn):
        stack = self._stack
        aggregate = self.aggregate

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                record = aggregate[name]
                record[0] += 1
                record[1] += duration
                record[2] += duration
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def _count(self, name, fn):
        aggregate = self.aggregate

        def wrapper(*args, **kwargs):
            aggregate[name][0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, kind, fn, units):
        if kind == SPAN:
            return self._span(name, fn, units)
        if kind == LEAF:
            return self._leaf(name, fn)
        return self._count(name, fn)

    def install(self) -> None:
        """Replace every attribute in :data:`WRAPPED` with its wrapper."""
        if self._patches:
            return
        for layer, module_name, attribute, kind, units, also in WRAPPED:
            name = span_name(layer, attribute)
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, kind, raw.__func__, units))
                else:
                    wrapped = self._wrap(name, kind, raw, units)
                self._patch(owner, method, wrapped)
            else:
                raw = getattr(module, attribute)
                wrapped = self._wrap(name, kind, raw, units)
                for target_name in (module_name, *also):
                    target = importlib.import_module(target_name)
                    if getattr(target, attribute) is raw:
                        self._patch(target, attribute, wrapped)

    def _patch(self, owner, attribute, wrapped) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Put every original attribute back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output ----------------------------------------------------------
    def dump(self, path) -> None:
        """Write the kept spans as JSON lines of
        ``[id, name, start_s, end_s, parent_id, step]``."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


CALLS, SELF, INCLUSIVE, UNITS = range(4)


def _name(attribute: str) -> str:
    for layer, _, wrapped, *_ in WRAPPED:
        if wrapped == attribute:
            return span_name(layer, attribute)
    raise KeyError(attribute)


def _layer_names(*layers: str) -> list[str]:
    return [span_name(layer, attribute) for layer, _, attribute, *_ in WRAPPED if layer in layers]


#: Self time that is compiling or building device models.
COMPILE_NAMES = [
    _name("CompiledCore.__init__"),
    _name("TiledMatmul.__init__"),
    *_layer_names("core"),
    *_layer_names("photonics"),
]
#: Self time that is request bookkeeping: submit, flush, route, the
#: traffic loop and telemetry.
SERVE_NAMES = _layer_names(
    "traffic", "api.cluster", "api.session", "runtime.scheduler", "telemetry"
)
#: Self time that is batched evaluation and im2col.
EVALUATE_NAMES = [
    _name("CompiledCore.matmul"),
    _name("TiledMatmul.matmul"),
    *_layer_names("ml.convolution"),
]


def per_layer_metrics(aggregate, setup_aggregate, steps: int, cache: dict) -> dict:
    """Per-step layer metrics from the traced steps' aggregates, as
    ``{name: (value, unit)}``.  Per-program compile times also count the
    programs compiled during set-up; ``cache`` holds the program-cache
    hits, misses and evictions per step (from the serving reports)."""

    def field(name, index, source=aggregate):
        record = source.get(name)
        return record[index] if record else 0

    def total(names, index):
        return sum(field(name, index) for name in names)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def per_program(attribute):
        name = _name(attribute)
        inclusive = field(name, INCLUSIVE) + field(name, INCLUSIVE, setup_aggregate)
        calls = field(name, CALLS) + field(name, CALLS, setup_aggregate)
        return ratio(inclusive, calls) * 1e3

    n = max(steps, 1)
    step_time = field("step", INCLUSIVE)
    metrics = {}
    for layer in LAYERS:
        names = _layer_names(layer)
        metrics[f"{layer}.calls"] = (total(names, CALLS) / n, "count")
        metrics[f"{layer}.self_ms"] = (total(names, SELF) / n * 1e3, "ms")
    session_submit = _name("PhotonicSession.submit")
    scheduler_submit = _name("BatchScheduler.submit")
    drain = _name("Telemetry.drain_window")
    run = _name("TrafficEngine.run")
    matmul = _name("CompiledCore.matmul")
    hits, misses = cache["cache_hits"], cache["cache_misses"]
    metrics.update(
        {
            "api.session.submit_us_per_req": (
                ratio(field(session_submit, SELF), field(session_submit, CALLS)) * 1e6, "us"),
            "runtime.scheduler.submit_us_per_req": (
                ratio(field(scheduler_submit, SELF), field(scheduler_submit, CALLS)) * 1e6, "us"),
            "telemetry.drain_ms_per_flush": (
                ratio(field(drain, INCLUSIVE), field(drain, CALLS)) * 1e3, "ms"),
            "traffic.self_us_per_req": (
                ratio(field(run, SELF), field(run, UNITS)) * 1e6, "us"),
            "runtime.engine.compile_ms_per_program": (per_program("CompiledCore.__init__"), "ms"),
            "runtime.tiling.build_ms_per_program": (per_program("TiledMatmul.__init__"), "ms"),
            "core.load_weight_matrix_ms": (
                field(_name("PhotonicTensorCore.load_weight_matrix"), INCLUSIVE) / n * 1e3, "ms"),
            "core.psram_ledger_ms": (
                total([_name("PsramArray.write_all"), _name("PsramArray.write_energy"),
                       _name("PhotonicTensorCore.weight_update_energy")], SELF) / n * 1e3, "ms"),
            "core.ladder_ms": (field(_name("EoAdc.code_boundaries"), INCLUSIVE) / n * 1e3, "ms"),
            "photonics.ring_evals": (total(_layer_names("photonics"), CALLS) / n, "count"),
            "core.ladder_converts": (field(_name("EoAdc.convert"), CALLS) / n, "count"),
            "runtime.engine.matmul_us_per_column": (
                ratio(field(matmul, SELF), field(matmul, UNITS)) * 1e6, "us"),
            "runtime.tiling.matmul_ms_per_step": (
                field(_name("TiledMatmul.matmul"), INCLUSIVE) / n * 1e3, "ms"),
            "ml.convolution.im2col_ms_per_step": (
                field(_name("im2col_channels"), INCLUSIVE) / n * 1e3, "ms"),
            "runtime.scheduler.cache_hit_ratio": (ratio(hits, hits + misses), "1"),
            "runtime.scheduler.cache_hits": (hits, "count"),
            "runtime.scheduler.cache_misses": (misses, "count"),
            "runtime.scheduler.cache_evictions": (cache["cache_evictions"], "count"),
            "api.cluster.route_us_per_req": (
                ratio(field(_name("PhotonicCluster._route"), INCLUSIVE),
                      field(_name("PhotonicCluster.submit"), CALLS)) * 1e6, "us"),
            "elastic.store.load_ms": (field(_name("ProgramStore.load"), INCLUSIVE) / n * 1e3, "ms"),
            "elastic.store.loads": (field(_name("ProgramStore.load"), CALLS) / n, "count"),
            "runtime.engine.compiles": (field(_name("CompiledCore.__init__"), CALLS) / n, "count"),
            "runtime.tiling.builds": (field(_name("TiledMatmul.__init__"), CALLS) / n, "count"),
            "api.session.flushes": (field(_name("PhotonicSession.flush"), CALLS) / n, "count"),
            "step.ms": (step_time / n * 1e3, "ms"),
            "step.unattributed_ms": (field("step", SELF) / n * 1e3, "ms"),
            "share.compile": (ratio(total(COMPILE_NAMES, SELF), step_time), "1"),
            "share.serve": (ratio(total(SERVE_NAMES, SELF), step_time), "1"),
            "share.evaluate": (ratio(total(EVALUATE_NAMES, SELF), step_time), "1"),
        }
    )
    return metrics


def describe(aggregate, steps: int, top: int = 20) -> str:
    """A table of the largest self times per step."""
    n = max(steps, 1)
    rows = sorted(aggregate.items(), key=lambda item: -item[1][SELF])[:top]
    lines = [f"{'self ms/step':>12} {'calls/step':>11}  span"]
    for name, record in rows:
        lines.append(f"{record[SELF] / n * 1e3:12.3f} {record[CALLS] / n:11.1f}  {name}")
    return "\n".join(lines)
