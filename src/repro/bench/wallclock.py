"""Wall-clock regression harness for the DES kernel and the quick suite.

``python -m repro.bench.wallclock`` times four kernel micro-benchmarks
(events per wall-second) plus the quick experiment suite and writes
``BENCH_wallclock.json`` at the repository root so successive PRs can track
the substrate's trajectory.  All numbers are *wall-clock* — simulated
results are covered by the determinism tests, not this file.

The microbenches mirror ``benchmarks/bench_simulator.py`` but run without
pytest so they can execute in CI and inside the JSON harness:

* ``timeout_churn``      — many processes sleeping in short timeouts
  (heap-dominated; the classic DES inner loop).
* ``immediate_resume``   — processes yielding already-processed events
  (exercises the deferred-callback microtask fast path).
* ``resource_pingpong``  — uncontended ``Resource`` request/release plus
  ``Store`` put/get ping-pong (zero-delay event fast path).
* ``anyof_fanout``       — ``AnyOf`` over 64 children (O(1) index map).

Baselines live as one JSON file per recorded revision under
``src/repro/bench/baselines/``; ``--assert-vs REV`` gates the current
geomean against any of them and ``--save-baseline REV`` records a new one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.core import AnyOf, Simulator
from repro.sim.resources import Resource, Store
from repro.sim.telemetry import NULL_TELEMETRY
from repro.sim.trace import NULL_TRACER

def _untraced_sim() -> Simulator:
    """A simulator with tracing and telemetry explicitly off.

    The kernel numbers gate the "zero cost when off" contract of the span
    tracer and the telemetry registry, so they must not silently inherit
    ``MANTLE_TRACE`` / ``MANTLE_TELEMETRY`` from the environment.
    """
    return Simulator(tracer=NULL_TRACER, telemetry=NULL_TELEMETRY)


#: Repository root (src/repro/bench/wallclock.py -> repo root).
REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", ".."))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_wallclock.json")

# ---------------------------------------------------------------------------
# Baseline history: one JSON document per recorded revision.
# ---------------------------------------------------------------------------

BASELINE_DIR = os.path.join(os.path.dirname(__file__), "baselines")


def list_baselines() -> List[str]:
    """Recorded revisions, oldest first (by each file's ``order`` field)."""
    docs = []
    for entry in os.listdir(BASELINE_DIR):
        if entry.endswith(".json"):
            with open(os.path.join(BASELINE_DIR, entry)) as handle:
                doc = json.load(handle)
            docs.append((doc.get("order", 0), doc["rev"]))
    return [rev for _order, rev in sorted(docs)]


def load_baseline(rev: str) -> Dict[str, object]:
    path = os.path.join(BASELINE_DIR, rev + ".json")
    if not os.path.exists(path):
        known = ", ".join(list_baselines())
        raise KeyError(f"no baseline {rev!r}; recorded revisions: {known}")
    with open(path) as handle:
        return json.load(handle)


def save_baseline(rev: str, kernel_results: Dict[str, Dict[str, float]],
                  commit: str = "", note: str = "") -> str:
    """Record ``kernel_results`` as baseline ``rev`` (merging with an
    existing file, whose other keys are kept)."""
    path = os.path.join(BASELINE_DIR, rev + ".json")
    if os.path.exists(path):
        with open(path) as handle:
            doc = json.load(handle)
    else:
        existing = list_baselines()
        last = load_baseline(existing[-1])["order"] if existing else -1
        doc = {"rev": rev, "order": last + 1}
    if commit:
        doc["commit"] = commit
    if note:
        doc["note"] = note
    doc["kernel_events_per_s"] = {name: row["events_per_s"]
                                  for name, row in kernel_results.items()}
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# Kernel microbenches.  Each returns (events_processed, wall_seconds).
# ---------------------------------------------------------------------------

def bench_timeout_churn(procs: int = 400,
                        steps: int = 50) -> Tuple[int, float]:
    sim = _untraced_sim()

    def worker(i):
        for _ in range(steps):
            yield sim.timeout(1)

    for i in range(procs):
        sim.process(worker(i))
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return procs * steps, elapsed


def bench_immediate_resume(procs: int = 200,
                           steps: int = 100) -> Tuple[int, float]:
    sim = _untraced_sim()
    done = sim.event()
    done.succeed("ready")
    sim.run()  # process `done` so every yield hits the resume-immediately path

    def worker():
        for _ in range(steps):
            yield done

    for _ in range(procs):
        sim.process(worker())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return procs * steps, elapsed


def bench_resource_pingpong(rounds: int = 5000) -> Tuple[int, float]:
    sim = _untraced_sim()
    cpu = Resource(sim, capacity=2)
    store = Store(sim)

    def producer():
        for i in range(rounds):
            req = cpu.request()
            yield req
            cpu.release(req)
            store.put(i)

    def consumer():
        for _ in range(rounds):
            yield store.get()

    sim.process(producer())
    sim.process(consumer())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return rounds * 2, elapsed


def bench_anyof_fanout(rounds: int = 300,
                       fanout: int = 64) -> Tuple[int, float]:
    sim = _untraced_sim()

    def waiter():
        for r in range(rounds):
            children = [sim.timeout(1 + (i % 7), i) for i in range(fanout)]
            yield AnyOf(sim, children)

    sim.process(waiter())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return rounds * fanout, elapsed


KERNEL_BENCHES: Dict[str, Callable[..., Tuple[int, float]]] = {
    "timeout_churn": bench_timeout_churn,
    "immediate_resume": bench_immediate_resume,
    "resource_pingpong": bench_resource_pingpong,
    "anyof_fanout": bench_anyof_fanout,
}


def run_kernel_benches(repeats: int = 3) -> Dict[str, Dict[str, float]]:
    """Run every kernel microbench, best of ``repeats`` runs, annotated
    with ``speedup_vs_<rev>`` against every recorded baseline."""
    history = [(rev, load_baseline(rev).get("kernel_events_per_s", {}))
               for rev in list_baselines()]
    results: Dict[str, Dict[str, float]] = {}
    for name, fn in KERNEL_BENCHES.items():
        best_rate = 0.0
        events = 0
        best_elapsed = float("inf")
        for _ in range(repeats):
            events, elapsed = fn()
            rate = events / elapsed if elapsed > 0 else 0.0
            if rate > best_rate:
                best_rate = rate
                best_elapsed = elapsed
        results[name] = {
            "events": events,
            "wall_s": round(best_elapsed, 6),
            "events_per_s": round(best_rate, 1),
        }
        for rev, rates in history:
            recorded = rates.get(name)
            if recorded:
                results[name]["speedup_vs_" + rev] = round(
                    best_rate / recorded, 3)
    return results


def geomean_speedup(kernel: Dict[str, Dict[str, float]],
                    key: str = "speedup_vs_seed") -> float:
    ratios = [row[key] for row in kernel.values() if key in row]
    if not ratios:
        return 0.0
    product = 1.0
    for ratio in ratios:
        product *= ratio
    return product ** (1.0 / len(ratios))


# ---------------------------------------------------------------------------
# Tracing overhead: the same metadata workload traced vs untraced.
# ---------------------------------------------------------------------------

def measure_tracing_overhead(clients: int = 24,
                             items: int = 8) -> Dict[str, float]:
    """Wall-clock cost of span tracing on one mdtest mkdir run on Mantle.

    The kernel microbenches never cross an instrumentation site, so this is
    the number that actually measures the tracer: the identical workload
    with the null tracer and with a live :class:`~repro.sim.trace.Tracer`.
    The simulated results are identical either way (pinned by the
    determinism tests); only wall-clock and the span count differ.
    """
    from repro.experiments.base import mdtest_metrics, mdtest_metrics_traced

    start = time.perf_counter()
    mdtest_metrics("mantle", "mkdir", clients=clients, items=items)
    untraced_s = time.perf_counter() - start

    start = time.perf_counter()
    _, tracer = mdtest_metrics_traced("mantle", "mkdir", clients=clients,
                                      items=items)
    traced_s = time.perf_counter() - start
    return {
        "untraced_s": round(untraced_s, 4),
        "traced_s": round(traced_s, 4),
        "overhead_ratio": round(traced_s / untraced_s, 3) if untraced_s
        else 0.0,
        "spans": len(tracer.spans),
    }


def measure_profiling_overhead(clients: int = 24,
                               items: int = 8) -> Dict[str, float]:
    """Wall-clock cost of cost-attribution profiling on one mdtest run.

    Profiling = span tracing + per-process span stacks + cost charges +
    the telemetry busy counters the reconciliation check needs, i.e. the
    full ``mantle-exp profile`` instrumentation, against the identical
    uninstrumented workload.  The simulated results are bit-identical
    either way (pinned by the determinism tests); this also times the
    profile fold itself.
    """
    from repro.experiments.base import (mdtest_metrics,
                                        mdtest_metrics_profiled)
    from repro.sim.profile import profile_from_tracer

    start = time.perf_counter()
    mdtest_metrics("mantle", "mkdir", clients=clients, items=items)
    off_s = time.perf_counter() - start

    start = time.perf_counter()
    _, tracer, _ = mdtest_metrics_profiled("mantle", "mkdir",
                                           clients=clients, items=items)
    profile = profile_from_tracer(tracer)
    on_s = time.perf_counter() - start
    return {
        "profiling_off_s": round(off_s, 4),
        "profiling_on_s": round(on_s, 4),
        "overhead_ratio": round(on_s / off_s, 3) if off_s else 0.0,
        "spans": profile.span_count,
        "centers": len(profile.centers),
    }


def measure_telemetry_overhead(clients: int = 24,
                               items: int = 8) -> Dict[str, float]:
    """Wall-clock cost of windowed telemetry on one mdtest mkdir run.

    Same shape as :func:`measure_tracing_overhead`: the identical workload
    with telemetry off and with a live
    :class:`~repro.sim.telemetry.Telemetry` registry.  The simulated
    results are bit-identical either way (pinned by the determinism
    tests); only wall-clock and the instrument count differ.
    """
    from repro.experiments.base import (mdtest_metrics,
                                        mdtest_metrics_telemetry)

    start = time.perf_counter()
    mdtest_metrics("mantle", "mkdir", clients=clients, items=items)
    off_s = time.perf_counter() - start

    start = time.perf_counter()
    _, telemetry, _ = mdtest_metrics_telemetry("mantle", "mkdir",
                                               clients=clients, items=items)
    on_s = time.perf_counter() - start
    return {
        "telemetry_off_s": round(off_s, 4),
        "telemetry_on_s": round(on_s, 4),
        "overhead_ratio": round(on_s / off_s, 3) if off_s else 0.0,
        "instruments": len(telemetry.instruments()),
    }


def measure_digest_overhead(clients: int = 24,
                            items: int = 8) -> Dict[str, float]:
    """Wall-clock cost of the tail-observability instrumentation.

    Times the identical mdtest mkdir run uninstrumented and with the full
    ``mantle-exp triage`` rig attached: windowed per-op latency digests
    plus a :class:`~repro.sim.trace.TailKeeper`-carrying tracer (and the
    phase segmentation fold that runs before teardown).  The simulated
    results are bit-identical either way (pinned by the determinism
    tests); only wall-clock, the digest population and the kept span
    count differ.
    """
    from repro.experiments.base import (mdtest_metrics,
                                        mdtest_metrics_triaged)
    from repro.sim.telemetry import latency_digests

    start = time.perf_counter()
    mdtest_metrics("mantle", "mkdir", clients=clients, items=items)
    off_s = time.perf_counter() - start

    start = time.perf_counter()
    _, tracer, telemetry, phases = mdtest_metrics_triaged(
        "mantle", "mkdir", clients=clients, items=items)
    on_s = time.perf_counter() - start
    digests = latency_digests(telemetry)
    return {
        "digest_off_s": round(off_s, 4),
        "digest_on_s": round(on_s, 4),
        "overhead_ratio": round(on_s / off_s, 3) if off_s else 0.0,
        "digests": len(digests),
        "digest_windows": sum(len(d.windows) for _op, d in digests),
        "kept_spans": tracer.keeper.kept_spans,
        "phases": len(phases),
    }


def measure_critpath_overhead(clients: int = 24,
                              items: int = 8) -> Dict[str, float]:
    """Wall-clock cost of critical-path extraction on one mdtest run.

    The instrumentation is the same as profiling (span tree + charges +
    blocked edges); what this times on top is the extraction itself —
    :func:`~repro.sim.critpath.critpath_from_tracer` plus the
    profile-contrast fold, i.e. everything ``mantle-exp critpath`` does
    after the simulation finishes.  The simulated results are
    bit-identical to the uninstrumented run (pinned by the determinism
    tests).
    """
    from repro.experiments.base import (mdtest_metrics,
                                        mdtest_metrics_profiled)
    from repro.sim.critpath import (contrast_with_profile,
                                    critpath_from_tracer)
    from repro.sim.profile import profile_from_tracer

    start = time.perf_counter()
    mdtest_metrics("mantle", "mkdir", clients=clients, items=items)
    off_s = time.perf_counter() - start

    start = time.perf_counter()
    _, tracer, _ = mdtest_metrics_profiled("mantle", "mkdir",
                                           clients=clients, items=items)
    sim_s = time.perf_counter() - start
    start = time.perf_counter()
    crit = critpath_from_tracer(tracer)
    contrast = contrast_with_profile(crit, profile_from_tracer(tracer))
    extract_s = time.perf_counter() - start
    on_s = sim_s + extract_s
    return {
        "critpath_off_s": round(off_s, 4),
        "critpath_on_s": round(on_s, 4),
        "extract_s": round(extract_s, 4),
        "overhead_ratio": round(on_s / off_s, 3) if off_s else 0.0,
        "ops": crit.ops,
        "centers": len(crit.gated),
        "contrast_rows": len(contrast),
    }


# ---------------------------------------------------------------------------
# Quick experiment suite timing.
# ---------------------------------------------------------------------------

def time_quick_suite(jobs: int = 1,
                     experiments: Optional[List[str]] = None) -> Dict[str, object]:
    """Time ``mantle-exp all --scale quick`` (optionally a subset) end to end."""
    from repro.experiments.runner import run_experiments

    start = time.perf_counter()
    outcomes = run_experiments(experiments, scale="quick", jobs=jobs,
                               quiet=True)
    elapsed = time.perf_counter() - start
    return {
        "jobs": jobs,
        "wall_s": round(elapsed, 3),
        "per_experiment_s": {o.exp_id: round(o.wall_s, 3) for o in outcomes},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.wallclock",
        description="Wall-clock regression harness (kernel + quick suite)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--skip-suite", action="store_true",
                        help="only run the kernel microbenches")
    parser.add_argument("--suite-jobs", type=int, default=None, metavar="N",
                        help="additionally time the quick suite with N workers")
    parser.add_argument("--experiments", nargs="*", default=None,
                        help="subset of experiment ids for the suite timing")
    parser.add_argument("--repeats", type=int, default=3,
                        help="microbench repetitions (best-of)")
    parser.add_argument("--assert-vs", metavar="REV", default=None,
                        help="fail if the kernel geomean drops below the "
                             "floor vs recorded baseline REV (see "
                             "--assert-frac); recorded: "
                             + ", ".join(list_baselines()))
    parser.add_argument("--assert-frac", type=float, default=0.05,
                        metavar="FRAC",
                        help="allowed regression for --assert-vs "
                             "(default 0.05, i.e. a 0.95x geomean floor)")
    parser.add_argument("--save-baseline", metavar="REV", default=None,
                        help="record this run's kernel rates as baseline "
                             "REV under src/repro/bench/baselines/")
    parser.add_argument("--skip-overhead", action="store_true",
                        help="skip the traced-vs-untraced workload timing")
    args = parser.parse_args(argv)

    report: Dict[str, object] = {
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "kernel": run_kernel_benches(repeats=args.repeats),
    }
    for name, row in report["kernel"].items():
        speedup = row.get("speedup_vs_seed")
        suffix = f"  {speedup:.2f}x vs seed" if speedup else ""
        print(f"kernel/{name:18s} {row['events_per_s']:>12,.0f} events/s "
              f"({row['wall_s']:.3f}s){suffix}")
    for rev in list_baselines():
        key = "speedup_vs_" + rev
        geo = round(geomean_speedup(report["kernel"], key=key), 3)
        if geo:
            report["kernel_geomean_" + key] = geo
            print(f"kernel geomean speedup vs {rev}: {geo:.2f}x")

    failed = False
    if args.assert_vs is not None:
        floor = 1.0 - args.assert_frac
        geo = report.get("kernel_geomean_speedup_vs_" + args.assert_vs)
        if geo is None:
            print(f"FAIL: baseline {args.assert_vs!r} has no "
                  f"kernel rates (recorded: "
                  f"{', '.join(list_baselines())})", file=sys.stderr)
            failed = True
        elif geo < floor:
            print(f"FAIL: kernel geomean {geo:.3f}x vs {args.assert_vs} is "
                  f"below the {floor:.2f}x floor "
                  f"(>{args.assert_frac:.0%} regression)", file=sys.stderr)
            failed = True
        else:
            print(f"assert-vs {args.assert_vs} OK: "
                  f"{geo:.3f}x >= {floor:.2f}x")

    if args.save_baseline:
        try:
            import subprocess
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
                capture_output=True, text=True, check=True).stdout.strip()
        except Exception:
            commit = ""
        path = save_baseline(args.save_baseline, report["kernel"],
                             commit=commit)
        print(f"(recorded baseline {args.save_baseline!r} at {path})")

    if not args.skip_overhead:
        overhead = measure_tracing_overhead()
        report["tracing_overhead"] = overhead
        print(f"tracing overhead      {overhead['overhead_ratio']:.2f}x wall "
              f"({overhead['untraced_s']:.2f}s -> {overhead['traced_s']:.2f}s,"
              f" {overhead['spans']} spans)")
        telemetry_cost = measure_telemetry_overhead()
        report["telemetry_overhead"] = telemetry_cost
        print(f"telemetry overhead    "
              f"{telemetry_cost['overhead_ratio']:.2f}x wall "
              f"({telemetry_cost['telemetry_off_s']:.2f}s -> "
              f"{telemetry_cost['telemetry_on_s']:.2f}s, "
              f"{telemetry_cost['instruments']} instruments)")
        profiling_cost = measure_profiling_overhead()
        report["profiling_overhead"] = profiling_cost
        print(f"profiling overhead    "
              f"{profiling_cost['overhead_ratio']:.2f}x wall "
              f"({profiling_cost['profiling_off_s']:.2f}s -> "
              f"{profiling_cost['profiling_on_s']:.2f}s, "
              f"{profiling_cost['spans']} spans, "
              f"{profiling_cost['centers']} centers)")
        digest_cost = measure_digest_overhead()
        report["digest_overhead"] = digest_cost
        print(f"digest overhead       "
              f"{digest_cost['overhead_ratio']:.2f}x wall "
              f"({digest_cost['digest_off_s']:.2f}s -> "
              f"{digest_cost['digest_on_s']:.2f}s, "
              f"{digest_cost['digests']} digests / "
              f"{digest_cost['digest_windows']} windows, "
              f"{digest_cost['kept_spans']} tail spans kept)")
        critpath_cost = measure_critpath_overhead()
        report["critpath_overhead"] = critpath_cost
        print(f"critpath overhead     "
              f"{critpath_cost['overhead_ratio']:.2f}x wall "
              f"({critpath_cost['critpath_off_s']:.2f}s -> "
              f"{critpath_cost['critpath_on_s']:.2f}s, extraction "
              f"{critpath_cost['extract_s']:.3f}s over "
              f"{critpath_cost['ops']} ops, "
              f"{critpath_cost['centers']} centers)")

    if not args.skip_suite:
        suite: Dict[str, object] = {"serial": time_quick_suite(
            jobs=1, experiments=args.experiments)}
        print(f"suite/serial          {suite['serial']['wall_s']:.1f}s wall")
        if args.suite_jobs and args.suite_jobs > 1:
            suite[f"jobs{args.suite_jobs}"] = time_quick_suite(
                jobs=args.suite_jobs, experiments=args.experiments)
            print(f"suite/jobs{args.suite_jobs}          "
                  f"{suite[f'jobs{args.suite_jobs}']['wall_s']:.1f}s wall")
        report["quick_suite"] = suite

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"(wrote {args.output})")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
