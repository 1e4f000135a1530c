"""The three simulated workloads: build, populate, run, explain, check.

The program is driven only through its public surface:
``repro.bench.cluster.build_system`` builds a Mantle deployment,
``repro.workloads.namespace.populate`` prefills it and
``repro.bench.harness.run_workload`` runs the pre-generated op streams
with one closed-loop simulated client per stream.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List

from repro.bench.analyze import classify_run
from repro.bench.audit import check_consistency
from repro.bench.cluster import build_system
from repro.bench.harness import run_workload
from repro.sim.critpath import build_blame, build_critpath
from repro.sim.stats import percentile
from repro.sim.telemetry import Telemetry
from repro.sim.trace import TailKeeper, Tracer
from repro.workloads.namespace import populate

import inputs

#: Simulated time allowed after the last op for Raft followers to apply,
#: compactors to fold and the invalidator to purge before the audit.
DRAIN_US = 300_000.0

#: Ops that modify the namespace.
WRITES = ("create", "delete", "mkdir", "rmdir", "dirrename", "setattr")

#: Critical-path and blame folds must telescope to float dust.
CONSERVATION_TOLERANCE = 1e-6


class SimInputs:
    """One seed's inputs for one simulated workload."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spec, self.extra_dirs, self.streams = inputs.build(workload,
                                                                seed)
        self.ops = sum(len(stream) for stream in self.streams)


class Streams:
    """``run_workload``'s workload protocol over pre-generated streams."""

    def __init__(self, streams):
        self.streams = streams
        self.num_clients = len(streams)

    def client_ops(self, cid: int):
        return iter(self.streams[cid])


def build(data: SimInputs):
    """A started, prefilled Mantle deployment (the timed set-up)."""
    system = build_system("mantle", "quick")
    populate(system, data.spec)
    for path in data.extra_dirs:
        system.bulk_mkdir(path)
    return system


def counters(system) -> Dict[str, float]:
    """Cumulative per-layer counters of one deployment."""
    replicas = list(system.index_group.nodes.values())
    caches = [node.state_machine.cache for node in replicas]
    shards = [shard for server in system.tafdb.servers
              for shard in server.shards.values()]
    return {
        "cache_hits": sum(cache.hits for cache in caches),
        "cache_misses": sum(cache.misses for cache in caches),
        "invalidations": sum(node.state_machine.invalidator.purged_entries
                             for node in replicas),
        "index_cpu_busy_us": sum(node.host.cpu_busy_us for node in replicas),
        "index_cores": sum(node.host.cores for node in replicas),
        "shard_aborts": sum(shard.aborts for shard in shards),
        "shard_commits": sum(shard.commits for shard in shards),
        "raft_entries": sum(node.entries_flushed for node in replicas),
        "raft_flushes": sum(node.batches_flushed for node in replicas),
        "tafdb_fsyncs": sum(host.fsync_count
                            for host in system.tafdb.hosts),
        "index_fsyncs": sum(node.host.fsync_count for node in replicas),
    }


class SimRun:
    """What one iteration of a simulated workload measured."""

    def __init__(self):
        self.setup_s = 0.0
        self.run_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.sim: Dict[str, float] = {}
        self.layer: Dict[str, float] = {}


def run_once(data: SimInputs, profiler=None) -> SimRun:
    """Build, run, explain and check one deployment.

    The timed phase is the run plus what the workload makes of it: the
    telemetry verdict on ``lookup-zipf``, the critical-path and blame
    folds on ``commit-storm-explain``.  ``profiler`` (a
    ``cProfile.Profile``) covers exactly the timed phase.  The drain and
    the consistency audit come after it, untimed.
    """
    out = SimRun()
    started = time.perf_counter()
    system = build(data)
    out.setup_s = time.perf_counter() - started
    try:
        sim = system.sim
        telemetry = tracer = None
        if data.workload in ("lookup-zipf", "commit-storm-explain"):
            telemetry = sim.telemetry = Telemetry()
        if data.workload == "commit-storm-explain":
            tracer = Tracer(keeper=TailKeeper())
            tracer.bind(sim)
            sim.tracer = tracer
        before = counters(system)
        if profiler is not None:
            profiler.enable()
        started = time.perf_counter()
        metrics = run_workload(system, Streams(data.streams), setup=False)
        if tracer is not None:
            out.problems += _explain(tracer, data.workload)
        elif telemetry is not None:
            classify_run(system, metrics, telemetry)
        out.run_s = time.perf_counter() - started
        if profiler is not None:
            profiler.disable()
        out.layer = layer_counters(before, counters(system), metrics)
        sim.run(until=sim.now + DRAIN_US)
        out.problems += [str(v) for v in check_consistency(system)]
    finally:
        system.shutdown()
    out.attempted = metrics.ops_completed + metrics.ops_failed
    out.failed = metrics.ops_failed
    if out.attempted != data.ops:
        out.problems.append(f"ran {out.attempted} ops of {data.ops} generated")
    out.sim = sim_figures(metrics)
    return out


def _explain(tracer, name: str) -> List[str]:
    """Fold the kept tail trees into a critical path and a blame matrix;
    returns any conservation breach."""
    crit = build_critpath(tracer.retained_spans(), name=name)
    blame = build_blame(crit)
    problems = []
    if crit.ops == 0:
        problems.append("explain: no op trees were kept")
    if crit.conservation_error() > CONSERVATION_TOLERANCE:
        problems.append(f"explain: critical path covers "
                        f"{1 - crit.conservation_error():.6%} of latency")
    if blame.conservation_error() > CONSERVATION_TOLERANCE:
        problems.append(f"explain: blame covers "
                        f"{1 - blame.conservation_error():.6%} of the "
                        f"critical path's queue time")
    return problems


def sim_figures(metrics) -> Dict[str, float]:
    """Simulated throughput and op latency; exact for one seed."""
    samples = sorted(itertools.chain.from_iterable(
        recorder.samples for recorder in metrics.latency.values()))
    return {
        "kops": metrics.throughput_kops(),
        "p50_us": percentile(samples, 50.0),
        "p99_us": percentile(samples, 99.0),
        "samples": len(samples),
    }


def layer_counters(before: Dict[str, float], after: Dict[str, float],
                   metrics) -> Dict[str, float]:
    """Per-layer counters over the timed run, as rates and ratios."""
    delta = {key: after[key] - before[key] for key in after}
    ops = max(1, metrics.ops_completed + metrics.ops_failed)
    probes = delta["cache_hits"] + delta["cache_misses"]
    attempts = delta["shard_aborts"] + delta["shard_commits"]
    capacity_us = metrics.duration_us * after["index_cores"]
    rounds = sum(recorder.total for recorder in metrics.rpc_rounds.values())
    writes = sum(recorder.count for op, recorder in metrics.latency.items()
                 if op in WRITES)
    return {
        "core.rpcs_per_op": rounds / ops,
        "core.retries_per_op": metrics.retries / ops,
        "indexnode.path_cache_hit_rate":
            delta["cache_hits"] / probes if probes else 0.0,
        "indexnode.invalidations": delta["invalidations"],
        "host.indexnode.cpu_util":
            delta["index_cpu_busy_us"] / capacity_us if capacity_us else 0.0,
        "tafdb.abort_ratio":
            delta["shard_aborts"] / attempts if attempts else 0.0,
        "raft.entries_per_flush":
            delta["raft_entries"] / delta["raft_flushes"]
            if delta["raft_flushes"] else 0.0,
        "raft.fsyncs_per_write":
            delta["index_fsyncs"] / writes if writes else 0.0,
        "host.tafdb.fsyncs_per_op": delta["tafdb_fsyncs"] / ops,
    }
