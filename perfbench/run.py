"""The repository's benchmark: one workload, measured from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lookup-zipf --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``lookup-zipf``, ``commit-storm``, ``commit-storm-explain``
(simulated Mantle, see ``simruns.py``) and ``live-mixed`` (three real
``mantle-serve`` processes, see ``liverun.py``).  The run repeats whole
iterations (set-up, timed phase, checks) until ``--seconds`` have passed
and reports medians over them.  The timed phase is the run plus what the
workload makes of it (a telemetry verdict, or the critical-path and blame
folds); the checks after it are untimed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run that folds a ``cProfile`` of the timed phase onto the
repository's layers (``layers.py``) and reads the layers' counters.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Progress and the pinned environment go to standard error.  The exit code
is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Knobs that would change what is measured; unset for every run.
PINNED_ENV = ("MANTLE_SIM_FAST", "MANTLE_SIM_LANES", "MANTLE_TRACE",
              "MANTLE_TELEMETRY")

#: Whole iterations a run makes at least, whatever ``--seconds`` says.
MIN_ITERATIONS = 3

#: Where live rounds keep their WAL directories (removed after each).
WORKDIR = os.path.join(ROOT, ".perfbench")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "kops": "Kop/s",
    "p50_us": "us",
    "p99_us": "us",
    "peak_rss_mb": "MiB",
}

COUNTERS = {
    "core.rpcs_per_op": "rpc/op",
    "core.retries_per_op": "retry/op",
    "indexnode.path_cache_hit_rate": "ratio",
    "indexnode.invalidations": "count",
    "host.indexnode.cpu_util": "ratio",
    "tafdb.abort_ratio": "ratio",
    "raft.entries_per_flush": "entry/flush",
    "raft.fsyncs_per_write": "fsync/write",
    "host.tafdb.fsyncs_per_op": "fsync/op",
    "live.wire_us_per_op": "us/op",
    "live.fsync_us_per_op": "us/op",
    "live.cpu_us_per_op": "us/op",
    "live.queue_us_per_op": "us/op",
    "runtime.wire.us_per_frame": "us/frame",
    "trace_overhead": "ratio",
}


def per_layer_units():
    """Every per-layer metric name and its unit."""
    import layers

    units = {}
    for layer in layers.LAYERS:
        units[f"{layer}.self_share"] = "ratio"
        units[f"{layer}.calls_per_op"] = "calls/op"
    units.update(COUNTERS)
    return units


def latency_figures(latencies_us):
    """p50 and p99 of one iteration's op latencies."""
    from repro.sim.stats import percentile

    ordered = sorted(latencies_us)
    return {"p50_us": percentile(ordered, 50.0),
            "p99_us": percentile(ordered, 99.0)}


def median_over(iterations, key):
    return statistics.median(getattr(it, key) for it in iterations)


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Result:
    """The run's correctness tally and metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}

    def tally(self, iteration):
        """Count an iteration's ops; a failed op or check is a failure."""
        self.attempted += iteration.attempted
        self.failed += iteration.failed
        for problem in iteration.problems:
            self.fail(problem)

    def fail(self, problem):
        """Record one failed check."""
        self.failed += 1
        self.problems.append(problem)

    def payload(self, units):
        missing = sorted(set(units) - set(self.metrics))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name],
                               "unit": units[name]} for name in units},
        }


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# -- simulated workloads -----------------------------------------------------

def sim_iterations(data, seconds, result):
    import gc

    import simruns

    deadline = time.perf_counter() + seconds
    iterations = []
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() < deadline:
        gc.collect()
        iteration = simruns.run_once(data)
        result.tally(iteration)
        if iterations and iteration.sim != iterations[0].sim:
            result.fail(
                f"simulated figures changed between iterations: "
                f"{iteration.sim} vs {iterations[0].sim}")
        iterations.append(iteration)
        log(f"iteration {len(iterations)}: setup {iteration.setup_s:.3f}s "
            f"run {iteration.run_s:.3f}s")
    return iterations


def check_explain_matches_storm(data, sim, result):
    """Explanation is pure bookkeeping: the explained storm's simulated
    figures must equal those of the same storm run uninstrumented."""
    import simruns

    plain = simruns.run_once(simruns.SimInputs("commit-storm", data.seed))
    result.tally(plain)
    if plain.sim != sim:
        result.fail(
            f"explained storm {sim} differs from plain storm {plain.sim}")


def run_sim(workload, seed, seconds, trace, result):
    import simruns

    data = simruns.SimInputs(workload, seed)
    log(f"{workload}: {data.ops} ops over {len(data.streams)} clients, "
        f"{data.spec.total_entries} prefilled entries")
    if trace:
        return trace_sim(data, seconds, result)
    iterations = sim_iterations(data, seconds, result)
    sim = iterations[0].sim
    if workload == "commit-storm-explain":
        check_explain_matches_storm(data, sim, result)
    log(f"simulated figures over {sim['samples']} ops: {sim}")
    result.metrics.update({
        "setup_s": median_over(iterations, "setup_s"),
        "ops_per_s": statistics.median(it.attempted / it.run_s
                                       for it in iterations),
        "kops": sim["kops"],
        "p50_us": sim["p50_us"],
        "p99_us": sim["p99_us"],
        "peak_rss_mb": peak_rss_mb(),
    })


def trace_sim(data, seconds, result):
    import cProfile

    import layers
    import simruns

    plain = sim_iterations(data, seconds / 2.0, result)
    profiler = cProfile.Profile()
    traced = simruns.run_once(data, profiler=profiler)
    result.tally(traced)
    result.metrics.update(layers.fold_profile(profiler, traced.attempted))
    result.metrics.update(traced.layer)
    result.metrics.update({
        "live.wire_us_per_op": 0.0,
        "live.fsync_us_per_op": 0.0,
        "live.cpu_us_per_op": 0.0,
        "live.queue_us_per_op": 0.0,
        "runtime.wire.us_per_frame": 0.0,
        "trace_overhead": traced.run_s / statistics.median(
            it.run_s for it in plain),
    })


# -- the live cluster --------------------------------------------------------

def live_rounds(data, seconds, result):
    import liverun

    deadline = time.perf_counter() + seconds
    rounds = []
    while len(rounds) < MIN_ITERATIONS or time.perf_counter() < deadline:
        live_round = liverun.run_round(data, WORKDIR)
        result.tally(live_round)
        rounds.append(live_round)
        figures = latency_figures(live_round.latencies_us)
        log(f"round {len(rounds)}: setup {live_round.setup_s:.3f}s "
            f"run {live_round.run_s:.3f}s "
            f"p50 {figures['p50_us']:.0f}us p99 {figures['p99_us']:.0f}us")
    return rounds


def run_live(seed, seconds, trace, result):
    import liverun

    data = liverun.LiveInputs(seed)
    log(f"live-mixed: {data.ops} ops over {len(data.streams)} slots, "
        f"{data.spec.total_entries} prefilled entries")
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        if trace:
            return trace_live(data, seconds, result)
        rounds = live_rounds(data, seconds, result)
    finally:
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass
    per_round = [latency_figures(r.latencies_us) for r in rounds]
    ops_per_s = statistics.median(r.attempted / r.run_s for r in rounds)
    result.metrics.update({
        "setup_s": median_over(rounds, "setup_s"),
        "ops_per_s": ops_per_s,
        "kops": ops_per_s / 1e3,
        "p50_us": statistics.median(f["p50_us"] for f in per_round),
        "p99_us": statistics.median(f["p99_us"] for f in per_round),
        "peak_rss_mb": median_over(rounds, "rss_mb"),
    })


def trace_live(data, seconds, result):
    import cProfile

    import layers
    import liverun
    from repro.runtime.obs import phase_breakdown

    rounds = live_rounds(data, seconds / 2.0, result)
    plain = rounds[-1]
    profiler = cProfile.Profile()
    traced = liverun.run_round(data, WORKDIR, traced=True,
                               profiler=profiler)
    result.tally(traced)
    phases = phase_breakdown(traced.snapshots).values()
    folded = sum(agg.count for agg in phases)
    if folded != data.ops:
        result.fail(
            f"traced {folded} op trees of {data.ops} ops")

    def per_op(kind):
        return sum(agg.phase_us.get(kind, 0.0) for agg in phases) \
            / max(1, folded)

    raft_fsyncs = plain.fsyncs.get("indexnode-raft.jsonl", 0)
    result.metrics.update(layers.fold_profile(profiler, traced.attempted))
    result.metrics.update(plain.layer)
    result.metrics.update({
        "indexnode.path_cache_hit_rate": 0.0,
        "indexnode.invalidations": 0.0,
        "host.indexnode.cpu_util": 0.0,
        "tafdb.abort_ratio": 0.0,
        "raft.entries_per_flush": 1.0 if raft_fsyncs else 0.0,
        "raft.fsyncs_per_write": raft_fsyncs / max(1, data.writes),
        "host.tafdb.fsyncs_per_op":
            plain.fsyncs.get("tafdb-0.wal", 0) / max(1, data.ops),
        "live.wire_us_per_op": per_op("wire"),
        "live.fsync_us_per_op": per_op("fsync"),
        "live.cpu_us_per_op": per_op("cpu"),
        "live.queue_us_per_op": per_op("queue"),
        # Two frames per op: the request encoded, the response decoded.
        "runtime.wire.us_per_frame":
            layers.self_seconds(profiler, "repro.runtime.wire") * 1e6
            / max(1, 2 * traced.attempted),
        "trace_overhead": traced.run_s / median_over(rounds, "run_s"),
    })


# -- entry point -------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lookup-zipf", "commit-storm",
                                 "commit-storm-explain", "live-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        log(f"no program to measure: {src}/repro is missing")
        return 2
    sys.path[:0] = [src, HERE]
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
        f"trace {args.trace}; kernel: default (fast paths, no lanes); "
        f"unset {', '.join(PINNED_ENV)}")
    result = Result()
    if args.workload == "live-mixed":
        run_live(args.seed, args.seconds, args.trace, result)
    else:
        run_sim(args.workload, args.seed, args.seconds, args.trace, result)
    units = per_layer_units() if args.trace else END_TO_END
    payload = result.payload(units)
    for problem in result.problems[:20]:
        log(f"check failed: {problem}")
    print(json.dumps(payload))
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
