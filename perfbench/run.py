"""Host-time benchmark of the photonic tensor-core simulator.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload traffic_warm --seed 2025 \
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
unmodified: set-up time (median of several set-ups), host requests per
second (median over rounds of requests / round time), the median and
p90 host step time, and peak RSS.  Every time is scaled to a reference
host speed by calibration probes timed beside it (``calibration.py``),
so that the drift of a shared host's speed cancels; the times as
measured are printed beside the result.  ``--trace 1`` is a separate run whose
rounds alternate between untraced and traced by the layer wrappers of
``tracer.py``; the traced rounds give the per-layer metrics, and the two
kinds together the tracing overhead.  Both modes check outputs outside
the timed steps (``workloads.py``: device-loop recomputation, ledger
conservation, exact repetition of the modelled digest and work
counters).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See DESIGN.md
for the workloads, the step definitions and the layer -> metric map.
"""

from __future__ import annotations

import os

# Single-threaded numerics: the pools must be pinned before numpy loads.
for _variable in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibration  # noqa: E402

ROOT = Path.cwd()
SOURCE = ROOT / "src" / "repro"
BENCH = Path(__file__).resolve().parent
#: Outputs of a run (span dumps, digests, the per-run program store).
OUTPUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("traffic_warm", "compile_churn", "cnn_batch")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: The fewest steps a trace-0 run takes, so that at least ten steps lie
#: beyond the p90 tail.
MIN_STEPS = 100
#: Probes timed beside each set-up, and the window of probes (centred on
#: a step) whose median is that step's speed reference.
SETUP_PROBES = 15
PROBE_WINDOW = 11


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")
    return arguments


def source_fingerprint() -> str:
    """Hash of the simulator and benchmark sources, keying the cross-run
    digest file."""
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted([*SOURCE.rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Ledger:
    """Operations attempted and failed, with the reasons printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        print(f"FAILED ({count}): {reason}", file=sys.stderr)


def run_round(workload, ledger: Ledger, tracer=None, probes=None):
    """Time the steps of one round and check its digest.  Returns
    ``(step_seconds, requests_per_step, counts)``; ``counts`` are the
    tracer's deterministic counts of the round (None untraced).  With a
    ``probes`` list, one calibration probe is timed after every step."""
    times: list[float] = []
    requests: list[int] = []
    workload.begin_round()
    if tracer is not None:
        tracer.install()
        tracer.mark()
    try:
        for index in range(workload.steps_per_round):
            if tracer is not None:
                tracer.begin_step()
            start = perf_counter()
            try:
                done = workload.step(index)
            except Exception:  # a failing step is counted, the run goes on
                traceback.print_exc()
                done = 0
                ledger.fail(workload.requests_per_step, f"step {index} raised")
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.end_step()
            times.append(elapsed)
            requests.append(done)
            if probes is not None:
                probes.append(calibration.probe())
    finally:
        if tracer is not None:
            tracer.uninstall()
    round_requests = workload.requests_per_step * workload.steps_per_round
    ledger.attempted += round_requests
    try:
        digest = workload.end_round()
    except Exception:  # an unreadable round fails all its requests
        traceback.print_exc()
        digest = None
    if workload.round_reference is None:
        workload.round_reference = digest
    if digest != workload.round_reference:
        ledger.fail(round_requests, f"round digest {digest} != {workload.round_reference}")
    counts = tracer.counts_since_mark() if tracer is not None else None
    return times, requests, counts


def requests_per_second(times, requests, steps_per_round: int) -> float:
    """Median over rounds of (requests resolved / host time of the
    round).  Every round of a run repeats the same work, so its rate is
    steady even where the steps within it are not (``compile_churn``'s
    windows range from ~10 to ~450 ms)."""
    rates = []
    for start in range(0, len(times), steps_per_round):
        end = start + steps_per_round
        rates.append(sum(requests[start:end]) / sum(times[start:end]))
    return statistics.median(rates)


def check_repeat(path: Path, record: dict, ledger: Ledger) -> None:
    """Compare this run's digest with an earlier run of the same seed
    and sources (written on first use), key by key."""
    record = json.loads(json.dumps(record))
    if path.exists():
        earlier = json.loads(path.read_text())
        for key in record.keys() & earlier.keys():
            if record[key] != earlier[key]:
                ledger.fail(1, f"{key} differs from an earlier run of this seed")
        earlier.update(record)
        record = earlier
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def end_to_end(workload, arguments, ledger: Ledger) -> tuple[dict, dict]:
    """Set up ``SETUP_REPEATS`` times, then time steps untraced.  Every
    time is scaled to the reference speed of ``calibration.py`` by the
    probes timed beside it."""
    setups = []
    raw_setups = []
    references = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = [calibration.probe() for _ in range(SETUP_PROBES)]
        start = perf_counter()
        workload.setup()
        elapsed = perf_counter() - start
        after = [calibration.probe() for _ in range(SETUP_PROBES)]
        raw_setups.append(elapsed)
        setups.append(elapsed * calibration.scale(before + after))
        references.append(workload.reference)
    if any(reference != references[0] for reference in references):
        ledger.fail(1, f"set-up digests differ: {references}")
    gc.collect()
    raw_times: list[float] = []
    requests: list[int] = []
    probes: list[float] = []
    started = perf_counter()
    while perf_counter() - started < arguments.seconds or len(raw_times) < MIN_STEPS:
        round_times, round_requests, _ = run_round(workload, ledger, probes=probes)
        raw_times += round_times
        requests += round_requests
    per_round = workload.steps_per_round
    half = PROBE_WINDOW // 2
    times = [
        elapsed * calibration.scale(probes[max(0, index - half) : index + half + 1])
        for index, elapsed in enumerate(raw_times)
    ]
    print(
        f"{arguments.workload}: {len(times)} steps; set-ups "
        f"{', '.join(f'{seconds:.3f}' for seconds in raw_setups)} s as measured; "
        f"as measured: {requests_per_second(raw_times, requests, per_round):.1f} req/s, "
        f"step p50 {statistics.median(raw_times) * 1e3:.3f} ms; host speed "
        f"{calibration.scale(probes):.3f} of the reference"
    )
    return {
        "setup_s": (statistics.median(setups), "s"),
        "host_requests_per_s": (requests_per_second(times, requests, per_round), "1/s"),
        "host_step_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "host_step_p90_ms": (
            statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
            "ms",
        ),
        "host_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }, {"digest": workload.reference, "round": workload.round_reference}


def per_layer(workload, arguments, ledger: Ledger, tag: str) -> tuple[dict, dict]:
    """Set up once traced, then alternate untraced and traced rounds."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_step("setup")
        workload.setup()
        tracer.end_step()
    finally:
        tracer.uninstall()
    setup_aggregate = tracer.reset()
    # Traced and untraced rounds alternate, so that both see the same
    # drift of the host's speed and their difference is the overhead.
    untraced: tuple[list, list] = ([], [])
    traced: tuple[list, list] = ([], [])
    round_counts = []
    gc.collect()
    started = perf_counter()
    while perf_counter() - started < arguments.seconds or not round_counts:
        times, requests, _ = run_round(workload, ledger)
        untraced[0].extend(times)
        untraced[1].extend(requests)
        times, requests, counts = run_round(workload, ledger, tracer)
        traced[0].extend(times)
        traced[1].extend(requests)
        round_counts.append(counts)
    for index, counts in enumerate(round_counts[1:], start=1):
        if counts != round_counts[0]:
            ledger.fail(
                workload.requests_per_step * workload.steps_per_round,
                f"work counters of traced round {index} differ from round 0",
            )
    reference = workload.round_reference
    cache = {
        key: reference[key] / workload.steps_per_round
        for key in ("cache_hits", "cache_misses", "cache_evictions")
    }
    steps = len(traced[0])
    metrics = tracing.per_layer_metrics(tracer.aggregate, setup_aggregate, steps, cache)
    untraced_rate = requests_per_second(*untraced, workload.steps_per_round)
    traced_rate = requests_per_second(*traced, workload.steps_per_round)
    metrics["trace.untraced_requests_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_requests_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_requests_per_s"] = (untraced_rate - traced_rate, "1/s")
    tracer.dump(OUTPUT / f"spans-{tag}.jsonl")
    print(tracing.describe(tracer.aggregate, steps))
    return metrics, {
        "digest": workload.reference,
        "round": workload.round_reference,
        "round_counts": round_counts[0],
    }


def run(arguments) -> dict:
    """One workload in this process; returns the result object."""
    import numpy as np

    from workloads import WORKLOADS

    tag = f"{arguments.workload}-seed{arguments.seed}"
    run_dir = OUTPUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        workload = WORKLOADS[arguments.workload](arguments.seed, run_dir)
        if arguments.trace == 0:
            metrics, record = end_to_end(workload, arguments, ledger)
        else:
            metrics, record = per_layer(workload, arguments, ledger, tag)
        try:
            checks, failures = workload.gate(np.random.default_rng(arguments.seed))
        except Exception:  # a gate that cannot run fails every check
            traceback.print_exc()
            checks, failures = 1, ["the correctness gate raised"]
        ledger.attempted += checks
        for failure in failures:
            ledger.fail(1, f"gate: {failure}")
        print(f"digest {tag}: {json.dumps(workload.reference, sort_keys=True)}")
        check_repeat(OUTPUT / f"digest-{tag}-{source_fingerprint()}.json", record, ledger)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    arguments = parse_arguments(argv)
    if not (SOURCE / "__init__.py").is_file():
        print(
            "perfbench: src/repro not found under the working directory; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SOURCE.parent))
    OUTPUT.mkdir(exist_ok=True)
    result = run(arguments)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
