#!/usr/bin/env python3
"""helmcut benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {census,cuts,links} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
src/ directory.  A run is a closed loop with one client: it sets up (import,
input generation from the seed, one warm-up operation) SETUP_REPEATS times,
then runs a fixed list of operations, checks every output against the
oracles, and prints one JSON line last (times in reference seconds, see
hostclock.py):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run measures the same operations untraced and then traced (each pass on a
fresh import, so no cache carries over), prints the per-layer metrics and
the tracing overhead, and writes the spans to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# One round of each workload takes 20 to 40 wall seconds on a 2-core x86-64
# host, as its speed drifts; a run makes max(1, round(seconds / ROUND_SECONDS))
# rounds, each on its own inputs, so a run is a fixed amount of work for a
# given seed and length.
ROUND_SECONDS = 30
SETUP_REPEATS = 3

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "op_p50_s": "s"}


def fresh_helmcut():
    """Import helmcut from this checkout, dropping any earlier import so its
    caches start empty."""
    for name in [m for m in sys.modules if m == "helmcut" or m.startswith("helmcut.")]:
        del sys.modules[name]
    hc = importlib.import_module("helmcut")
    if SRC.resolve() not in Path(hc.__file__).resolve().parents:
        raise ImportError(f"helmcut imported from {hc.__file__}, not from {SRC}")
    return hc


def set_up(workload, seed: int, rounds: int, clock):
    """(start and end readings of the clock, helmcut package, prepared inputs)."""
    gc.collect()
    start = clock.mark()
    hc = fresh_helmcut()
    rng = random.Random(seed)
    prepared = [workload.prepare(hc, workload.generate(rng)) for _ in range(rounds)]
    workload.warm_up(hc)
    return (start, clock.mark()), hc, prepared


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    intervals: list = field(default_factory=list)  # (kind, units, start, end) readings
    errors: list = field(default_factory=list)

    def samples(self, clock) -> dict[str, list[float]]:
        """Operation times by sample class, in the clock's seconds."""
        out: dict[str, list[float]] = defaultdict(list)
        for kind, _, a, b in self.intervals:
            out[kind].append(clock.reference_s(a, b))
        return out

    @property
    def units(self) -> int:
        """Verdicts (or domains) produced."""
        return sum(units for _, units, _, _ in self.intervals)


def measure(workload, hc, prepared, clock, tracer=None) -> Measurement:
    m = Measurement()
    paused = tracer.paused if tracer is not None else contextlib.nullcontext
    outputs = []
    for op in [op for p in prepared for op in workload.ops(hc, p)]:
        m.attempted += 1
        start = clock.mark()
        try:
            out = op.run()
        except Exception:  # a failed operation is counted, and the loop goes on
            m.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        m.intervals.append((op.kind, op.verdicts, start, clock.mark()))
        with paused():
            m.errors += op.check(out)
        outputs.append((op.tag, out))
    with paused():
        m.errors += workload.final_check(outputs)
    return m


def tail_percentile(samples: list[float]):
    """p90 by nearest rank, reported only when at least ten samples lie
    beyond it (100 samples or more)."""
    if len(samples) < 100:
        return None
    return sorted(samples)[math.ceil(0.9 * len(samples)) - 1]


def details(workload, m: Measurement, clock) -> dict:
    """The workload's own latency figures by sample class, plus the plain
    wall time spent inside operations and the host's reference loop rate."""
    samples = m.samples(clock)
    out = {
        "workload": workload.name,
        "units": m.units,
        "busy_s": sum(sum(v) for v in samples.values()),
        "wall_busy_s": sum(b[0] - a[0] - (b[1] - a[1]) for _, _, a, b in m.intervals),
        "reference_loops_per_s": statistics.median(clock.rates),
    }
    for kind, values in sorted(samples.items()):
        out[f"{kind}_samples"] = len(values)
        out[f"{kind}_p50_s"] = statistics.median(values)
        p90 = tail_percentile(values)
        if p90 is not None:
            out[f"{kind}_p90_s"] = p90
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("census", "cuts", "links"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "helmcut" / "__init__.py").is_file():
        print(f"no helmcut sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(SRC))
    from hostclock import HostClock
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / ROUND_SECONDS))

    with HostClock() as clock:
        setups = []
        for _ in range(SETUP_REPEATS):
            readings, hc, prepared = set_up(workload, args.seed, rounds, clock)
            setups.append(readings)
        m = measure(workload, hc, prepared, clock)
        if args.trace:
            from tracing import Tracer

            plain = m
            del hc, prepared
            _, hc, prepared = set_up(workload, args.seed, rounds, clock)
            tracer = Tracer(clock.net_time)
            tracer.install()
            m = measure(workload, hc, prepared, clock, tracer)
            m.errors += plain.errors

    if args.trace:
        busy = [sum(map(sum, x.samples(clock).values())) for x in (plain, m)]
        metrics = {name: (value, "count") for name, value in tracer.metrics().items()}
        for name in metrics:
            if name.endswith("_s"):
                metrics[name] = (metrics[name][0], "s")
        metrics["trace.overhead_pct"] = (100.0 * (busy[1] / busy[0] - 1.0), "%")
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"trace-{workload.name}-seed{args.seed}.json")
    else:
        samples = m.samples(clock)
        metrics = {
            "setup_s": statistics.median(clock.reference_s(a, b) for a, b in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": m.units / sum(map(sum, samples.values())),
            "op_p50_s": statistics.median(samples[workload.primary]),
        }
        metrics = {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}

    for message in m.errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps(details(workload, m, clock)))
    print(
        json.dumps(
            {
                "correct": not m.errors,
                "attempted": m.attempted,
                "failed": m.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
