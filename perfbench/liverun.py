"""live-mixed: the production mix against a real three-process cluster.

Each round starts a ``repro.runtime.live.ProcessCluster`` (``tafdb``,
``indexnode`` and ``proxy`` as separate ``mantle-serve`` processes on
loopback TCP) over a fresh WAL directory, so every IndexNode commit and
every TafDB commit is one real ``fsync``.  The load runs in this process
on one asyncio loop: two closed-loop slots, each with its own connection
to the proxy, each timing every op it sends.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import sys
import tempfile
import time
from typing import Dict, List, Optional

from repro.errors import MetadataError, NoSuchPathError
from repro.ops import make_op
from repro.runtime import obs
from repro.runtime.aio import RpcConnection
from repro.runtime.live import ProcessCluster
from repro.sim.trace import CAT_OP, Tracer

import inputs

#: Ops a slot keeps in flight while prefilling the namespace.
POPULATE_WINDOW = 32

#: Slot process name in client-side spans (the live trace convention).
CLIENT = "client"

_WRITES = ("create", "delete", "mkdir", "rmdir")


class LiveInputs:
    """One seed's namespace and slot streams."""

    def __init__(self, seed: int):
        self.spec, _, self.streams = inputs.build("live-mixed", seed)
        self.ops = sum(len(stream) for stream in self.streams)
        self.writes = sum(1 for stream in self.streams
                          for name, _ in stream if name in _WRITES)


class _CurrentTask:
    """Keys a tracer's span stacks on the running asyncio task, so the
    slots' concurrent ops keep separate stacks."""

    @property
    def _active_process(self):
        return asyncio.current_task()


class Slot:
    """One closed-loop load slot: a connection plus its timings.

    With a tracer, every op opens a client-side root span and ships its
    id as trace context, like a traced ``LiveClient``, so the servers'
    spans join one cross-process tree per op.  ``LiveClient`` itself is
    not used: it runs its loop on a thread of its own and blocks its
    caller per op, while the slots share one loop on the calling thread,
    the one thread ``cProfile`` follows.
    """

    def __init__(self, endpoint: str, tracer: Optional[Tracer] = None):
        self.connection = RpcConnection(endpoint)
        self.endpoint = endpoint
        self.tracer = tracer
        self.latencies_us: List[float] = []
        self.rpcs = 0
        self.retries = 0
        self._t0 = time.monotonic()

    def now_us(self) -> float:
        return (time.monotonic() - self._t0) * 1e6

    async def perform(self, name: str, args: tuple):
        wire_op = make_op(name, *args).to_wire()
        if self.tracer is None:
            return await self.connection.call("perform", (wire_op,), {})
        started = self.now_us()
        span = self.tracer.begin(name, started, category=CAT_OP, host=CLIENT)
        ok = False
        try:
            result, meta = await self.connection.call(
                "perform", (wire_op,), {},
                trace={"proc": CLIENT, "span": span.span_id}, with_meta=True)
            ok = True
        finally:
            now = self.now_us()
            if ok:
                self.tracer.charge(
                    "wire", max(0.0, now - started - meta.get("srv_us", 0.0)),
                    self.endpoint)
            self.tracer.end(span, now, ok=ok)
        return result

    async def run(self, stream) -> List[str]:
        """Run ``stream`` back to back; returns one line per failed op."""
        failures = []
        clock = time.perf_counter
        record = self.latencies_us.append
        for name, args in stream:
            started = clock()
            try:
                reply = await self.perform(name, args)
            except MetadataError as exc:
                failures.append(f"{name}{args}: {exc!r}")
            else:
                self.rpcs += reply.get("rpcs", 0)
                self.retries += reply.get("retries", 0)
            record((clock() - started) * 1e6)
        return failures


async def _populate(slot: Slot, spec) -> List[str]:
    """Prefill the namespace: directories level by level, then objects,
    ``POPULATE_WINDOW`` ops in flight at a time."""
    levels: Dict[int, List[str]] = {}
    for path in spec.directories:
        levels.setdefault(path.count("/"), []).append(path)
    batches = [[("mkdir", (path,)) for path in levels[depth]]
               for depth in sorted(levels)]
    objects = [("create", (path,)) for path in spec.objects]
    batches += [objects[i:i + POPULATE_WINDOW]
                for i in range(0, len(objects), POPULATE_WINDOW)]
    failures = []
    for batch in batches:
        results = await asyncio.gather(
            *(slot.perform(name, args) for name, args in batch),
            return_exceptions=True)
        failures += [f"populate {op}: {res!r}" for op, res in
                     zip(batch, results) if isinstance(res, BaseException)]
    return failures


async def _read_back(slot: Slot, streams) -> List[str]:
    """Every acknowledged create and mkdir must be visible, and every
    entry a slot later deleted must be gone."""
    expected: Dict[str, tuple] = {}
    for stream in streams:
        for name, args in stream:
            if name in _WRITES:
                check = "objstat" if name in ("create", "delete") \
                    else "dirstat"
                expected[args[0]] = (check, name in ("create", "mkdir"))
    checks = sorted(expected.items())
    problems = []
    for i in range(0, len(checks), POPULATE_WINDOW):
        window = checks[i:i + POPULATE_WINDOW]
        results = await asyncio.gather(
            *(slot.perform(check, (path,)) for path, (check, _) in window),
            return_exceptions=True)
        for (path, (_, exists)), result in zip(window, results):
            if isinstance(result, NoSuchPathError):
                if exists:
                    problems.append(f"read-back: acknowledged {path} "
                                    "is missing")
            elif isinstance(result, BaseException):
                problems.append(f"read-back {path}: {result!r}")
            elif not exists:
                problems.append(f"read-back: deleted {path} still exists")
    return problems


async def _call_roles(endpoints: Dict[str, str], method: str) -> List:
    """One ``obs.*`` control call to every role, in role-name order."""
    return [await obs.call_endpoint(endpoint, method)
            for _role, endpoint in sorted(endpoints.items())]


def vm_hwm_mb(pid: int) -> float:
    """A process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _wal_lines(wal_dir: str) -> Dict[str, int]:
    """Commit records per WAL file: one line per ``fsync``."""
    counts = {}
    for root, _dirs, files in os.walk(wal_dir):
        for name in files:
            with open(os.path.join(root, name), "rb") as fh:
                counts[name] = sum(1 for _ in fh)
    return counts


class LiveRound:
    """What one cluster lifetime measured."""

    def __init__(self):
        self.setup_s = 0.0
        self.run_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.latencies_us: List[float] = []
        self.rss_mb = 0.0
        self.fsyncs: Dict[str, int] = {}
        self.layer: Dict[str, float] = {}
        self.snapshots: List[dict] = []


def run_round(data: LiveInputs, workdir: str, traced: bool = False,
              profiler=None) -> LiveRound:
    """Start a cluster, prefill it, run both slots, read back, stop.

    ``traced`` starts every role with ``--trace --telemetry`` and roots
    each op in a client-side span; ``profiler`` covers the timed phase.
    Role processes are stopped and the WAL directory removed whatever
    happens.
    """
    out = LiveRound()
    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=workdir)
    cluster = ProcessCluster(wal_dir=wal_dir, trace=traced,
                             telemetry=traced)
    try:
        started = time.perf_counter()
        cluster.start()
        asyncio.run(_drive(data, cluster, wal_dir, traced, profiler, out,
                           started))
        out.rss_mb = sum(vm_hwm_mb(proc.pid)
                         for proc in cluster.processes.values())
    finally:
        codes = cluster.stop()
        shutil.rmtree(wal_dir, ignore_errors=True)
    out.problems += [f"role {role} exited {code}"
                     for role, code in sorted(codes.items()) if code != 0]
    if sorted(codes) != sorted(ProcessCluster.ROLE_ORDER):
        out.problems.append(f"roles stopped: {sorted(codes)}")
    return out


async def _drive(data: LiveInputs, cluster: ProcessCluster, wal_dir: str,
                 traced: bool, profiler, out: LiveRound, started: float):
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.bind(_CurrentTask())
    epoch_us = time.time() * 1e6
    slots = [Slot(cluster.proxy_endpoint, tracer) for _ in data.streams]
    try:
        out.problems += await _populate(slots[0], data.spec)
        out.setup_s = time.perf_counter() - started
        before = _wal_lines(wal_dir)
        if tracer is not None:
            tracer.reset()
            await _call_roles(cluster.endpoints, "obs.reset")
        if profiler is not None:
            profiler.enable()
        started = time.perf_counter()
        results = await asyncio.gather(
            *(slot.run(stream) for slot, stream in zip(slots, data.streams)))
        out.run_s = time.perf_counter() - started
        if profiler is not None:
            profiler.disable()
        after = _wal_lines(wal_dir)
        out.fsyncs = {name: after[name] - before.get(name, 0)
                      for name in after}
        if tracer is not None:
            out.snapshots = await _call_roles(cluster.endpoints,
                                              "obs.trace_snapshot")
            out.snapshots.append(obs.snapshot_from_tracer(
                CLIENT, tracer, epoch_us=epoch_us,
                now_us=slots[0].now_us(), clock="wallclock"))
        failures = [line for result in results for line in result]
        for line in failures[:5]:
            print(f"perfbench: op failed: {line}", file=sys.stderr)
        out.attempted = data.ops
        out.failed = len(failures)
        out.layer = {
            "core.rpcs_per_op": sum(s.rpcs for s in slots) / data.ops,
            "core.retries_per_op": sum(s.retries for s in slots) / data.ops,
        }
        out.latencies_us = [us for slot in slots for us in slot.latencies_us]
        out.problems += await _read_back(slots[0], data.streams)
    finally:
        for slot in slots:
            await slot.connection.close()
