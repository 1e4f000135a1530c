"""Golden values: kernel and shared-code changes must not move results.

The two-tier scheduler in ``repro.sim.core`` (microtask deque + heap) runs
events in ``(time, seq)`` order.  Every simulated timestamp, throughput
figure and RPC count downstream of it is pinned here by a golden value at
three levels:

* a kernel-level trace touching every scheduling path (sha256 of its repr),
* a full mdtest run's metrics (a literal fingerprint),
* fig12 at quick scale (its literal table rows).

The values were captured when three interchangeable schedulers (this one,
an all-heap loop and a lane-sharded loop) all reproduced them bit for bit.
A golden value also catches a change in shared code (network, resources,
TafDB) that would have moved every scheduler in lockstep.  Instrumentation
(tracing, telemetry) must leave the same results untouched.
"""

import hashlib

import pytest

from repro.bench.cluster import build_system
from repro.bench.harness import run_workload
from repro.experiments import get_experiment
from repro.sim.core import AnyOf, Simulator
from repro.sim.resources import Resource
from repro.workloads.mdtest import MdtestWorkload


def _kernel_trace():
    """A scenario touching every scheduling path: zero-delay resumes,
    contended resources, AnyOf fan-out and interrupts.  Returns the
    (time, label) event trace."""
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    trace = []

    def worker(i):
        for round_no in range(3):
            request = resource.request()
            yield request
            trace.append((sim.now, f"grant-{i}-{round_no}"))
            yield sim.timeout(i % 3)  # delay 0 exercises the deque
            resource.release(request)
        first = yield AnyOf(sim, [sim.timeout(5), sim.timeout(5),
                                  sim.timeout(2 + i % 2)])
        trace.append((sim.now, f"anyof-{i}-{first}"))

    def interrupter(victim):
        yield sim.timeout(4)
        victim.interrupt("poke")

    victims = [sim.process(worker(i)) for i in range(8)]
    sim.process(interrupter(victims[3]))
    with pytest.raises(Exception):
        sim.run()  # victim 3 does not catch the interrupt
    trace.append((sim.now, "end"))
    return trace


def _mdtest_fingerprint():
    system = build_system("mantle", "quick")
    try:
        metrics = run_workload(system, MdtestWorkload(
            "objstat", depth=8, items=6, num_clients=12))
    finally:
        system.shutdown()
    return (
        metrics.ops_completed,
        metrics.retries,
        round(metrics.duration_us, 6),
        {op: (rec.count, round(rec.mean, 9))
         for op, rec in sorted(metrics.latency.items())},
        {op: (rec.count, round(rec.mean, 9))
         for op, rec in sorted(metrics.rpc_rounds.items())},
    )


def _fig12_rows():
    tables = get_experiment("fig12").run(scale="quick")
    return [tuple(row) for table in tables for row in table.rows]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: Golden values (see the module docstring for their provenance).
_KERNEL_TRACE_SHA256 = (
    "940251a72c2000ccf3becef0b57862da015d2506af3ed92125fff062760b68df")
_MDTEST_FINGERPRINT = (72, 0, 1704.4, {"objstat": (72, 284.066666667)},
                       {"objstat": (72, 2.0)})
_FIG12_QUICK_ROWS = [
    ("create", 36.3, 46.1, 118.9, 117.9, 3.25, 2.56, 0.99),
    ("delete", 33.9, 43.6, 103.5, 93.4, 2.75, 2.15, 0.9),
    ("objstat", 49.2, 64.8, 145.8, 168.4, 3.43, 2.6, 1.16),
    ("dirstat", 44.8, 61.4, 139.0, 167.0, 3.73, 2.72, 1.2),
    ("create", "cpu-bound", "cpu-bound", "underloaded", "underloaded"),
    ("delete", "cpu-bound", "cpu-bound", "rpc-bound", "underloaded"),
    ("objstat", "cpu-bound", "cpu-bound", "underloaded", "rpc-bound"),
    ("dirstat", "cpu-bound", "cpu-bound", "underloaded", "rpc-bound"),
]


class TestGoldenValues:
    def test_kernel_trace_matches_golden(self):
        trace = _kernel_trace()
        assert len(trace) == 12
        assert trace[-1] == (4.0, "end")
        assert _sha256(repr(trace)) == _KERNEL_TRACE_SHA256

    def test_mdtest_metrics_match_golden(self):
        assert _mdtest_fingerprint() == _MDTEST_FINGERPRINT

    def test_fig12_quick_matches_golden(self):
        first = _fig12_rows()
        assert first == _FIG12_QUICK_ROWS
        assert _fig12_rows() == first


class TestFastPathDeterminism:
    def test_tracing_does_not_change_results(self, monkeypatch):
        """Span tracing is pure bookkeeping: identical simulated results."""
        monkeypatch.setenv("MANTLE_TRACE", "1")
        assert _mdtest_fingerprint() == _MDTEST_FINGERPRINT

    def test_telemetry_does_not_change_results(self, monkeypatch):
        """Windowed telemetry is pure bookkeeping: identical results."""
        monkeypatch.setenv("MANTLE_TELEMETRY", "1")
        assert _mdtest_fingerprint() == _MDTEST_FINGERPRINT
