"""Simulated servers: CPU cores and fsync-charged disks.

Each metadata server in the paper's Table 2 deployment becomes a
:class:`Host` with a finite core count.  Service logic charges CPU through
:meth:`Host.work`, which occupies one core for the given number of simulated
microseconds — this is what makes a single IndexNode saturate (Figure 19b)
and what makes LocoFS's central directory server the bottleneck the paper
describes.

The :class:`CostModel` gathers every constant in one place so experiments
(and tests) can build deliberately skewed models.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Tuple

from repro.errors import ServiceUnavailableError
from repro.sim.core import Simulator, Timeout
from repro.sim.resources import Resource


@dataclasses.dataclass
class CostModel:
    """All simulated costs, in microseconds.

    The defaults are loosely calibrated to a 25 Gbps datacenter network and
    NVMe-backed servers, matching the ratios (not the absolutes) that drive
    the paper's results: an RPC round trip is ~2 orders of magnitude more
    expensive than a local hash probe, and an fsync is comparable to an RTT.
    """

    #: One-way network latency (RTT = 2x).
    net_one_way_us: float = 50.0
    #: Read one row from a TafDB shard (request handling + B-tree probe).
    db_row_read_us: float = 25.0
    #: Write one row (index update + WAL append, group-committed).
    db_row_write_us: float = 50.0
    #: Fixed per-transaction bookkeeping on a shard.
    db_txn_overhead_us: float = 20.0
    #: Effective durable-commit cost per TafDB commit (group-committed WAL).
    db_commit_sync_us: float = 40.0
    #: One level of IndexTable probing on the IndexNode.
    index_probe_us: float = 8.0
    #: One TopDirPathCache hit (single hash probe).
    cache_hit_us: float = 2.0
    #: Fixed request handling (parse/dispatch/marshal) per IndexNode RPC —
    #: the dominant CPU term that makes a single IndexNode saturate (§7
    #: measures ~500K ops/s/node, i.e. ~100us of CPU per op on 64 cores).
    index_rpc_overhead_us: float = 30.0
    #: Durable fsync of a Raft log segment.
    fsync_us: float = 120.0
    #: Applying one committed Raft entry to the state machine.
    raft_apply_us: float = 1.0
    #: Raft replication message handling (append-entries processing).
    raft_msg_us: float = 2.0
    #: Proxy request parsing/marshalling per client request.
    proxy_overhead_us: float = 2.0
    #: Per-level permission intersection.
    permission_check_us: float = 0.3
    #: Base/ceiling for exponential backoff after a transaction abort.
    backoff_base_us: float = 200.0
    backoff_max_us: float = 20000.0
    #: Data-service access for one small object (§3: single RPC + tens of us
    #: of SSD device time).
    data_io_small_us: float = 80.0

    def copy(self, **overrides) -> "CostModel":
        return dataclasses.replace(self, **overrides)


#: What-if override components -> the CostModel fields they scale.  A
#: component names one mechanically-improvable piece of the deployment
#: (faster NVMe under the Raft log, kernel-bypass networking, a leaner
#: request parser...), which usually covers several cost constants at once.
COMPONENT_FIELDS = {
    "proxy.cpu": ("proxy_overhead_us",),
    "index.cpu": ("index_probe_us", "index_rpc_overhead_us",
                  "cache_hit_us", "permission_check_us"),
    "raft.cpu": ("raft_apply_us", "raft_msg_us"),
    "raft.fsync": ("fsync_us",),
    "tafdb.cpu": ("db_row_read_us", "db_row_write_us",
                  "db_txn_overhead_us"),
    "tafdb.fsync": ("db_commit_sync_us",),
    "net.rtt": ("net_one_way_us",),
    "data.io": ("data_io_small_us",),
}


@dataclasses.dataclass(frozen=True)
class CostOverrides:
    """A declarative "virtual speedup": per-component cost scale factors.

    ``speedups`` maps a :data:`COMPONENT_FIELDS` component to a factor
    ``f``; applying the overrides divides each of the component's cost
    constants by ``f`` (``f=2.0`` halves the cost, ``f=0.5`` doubles it).
    The scaled :class:`CostModel` then threads through the whole
    deployment — hosts, network, Raft group, TafDB servers — exactly like
    a hand-edited cost model would, so a what-if rerun measures the real
    (queueing included) effect of the hypothesised change.
    """

    speedups: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def of(cls, **speedups: float) -> "CostOverrides":
        return cls.parse(speedups)

    @classmethod
    def parse(cls, speedups: Dict[str, float]) -> "CostOverrides":
        """Validate a {component: factor} mapping into overrides."""
        items = []
        for component, factor in sorted(speedups.items()):
            if component not in COMPONENT_FIELDS:
                known = ", ".join(sorted(COMPONENT_FIELDS))
                raise ValueError(f"unknown override component "
                                 f"{component!r}; known: {known}")
            factor = float(factor)
            if factor <= 0.0:
                raise ValueError(f"{component}: speedup factor must be "
                                 f"positive, got {factor}")
            items.append((component, factor))
        return cls(tuple(items))

    def as_dict(self) -> Dict[str, float]:
        return dict(self.speedups)

    def __bool__(self) -> bool:
        return bool(self.speedups)

    def apply(self, costs: "CostModel") -> "CostModel":
        """Return a copy of ``costs`` with every override applied."""
        scaled = {}
        for component, factor in self.speedups:
            for field in COMPONENT_FIELDS[component]:
                base = scaled.get(field, getattr(costs, field))
                scaled[field] = base / factor
        return costs.copy(**scaled) if scaled else costs


def parse_speedup_args(args: "Iterable[str]") -> CostOverrides:
    """Parse CLI ``component=FACTORx`` fragments into overrides.

    Accepts ``raft.fsync=2x``, ``net.rtt=2``, ``tafdb.cpu=1.5x``; the
    trailing ``x`` is optional.  Repeated components multiply.
    """
    speedups: Dict[str, float] = {}
    for arg in args:
        component, sep, factor_text = arg.partition("=")
        if not sep or not component or not factor_text:
            raise ValueError(f"bad speedup {arg!r}; expected "
                             "component=FACTOR[x], e.g. raft.fsync=2x")
        factor_text = factor_text.rstrip("xX")
        try:
            factor = float(factor_text)
        except ValueError:
            raise ValueError(f"bad speedup factor in {arg!r}") from None
        speedups[component] = speedups.get(component, 1.0) * factor
    return CostOverrides.parse(speedups)


class Host:
    """A simulated server with ``cores`` CPU cores and one durable disk."""

    def __init__(self, sim: Simulator, name: str, cores: int = 32,
                 fsync_us: float = 120.0):
        self.sim = sim
        self.name = name
        self.cores = cores
        self.cpu = Resource(sim, cores, label="cpu", host=name)
        self.disk = Resource(sim, 1, label="disk", host=name)
        self.fsync_us = fsync_us
        self.fsync_count = 0
        self.cpu_busy_us = 0.0
        self.crashed = False

    def __repr__(self):
        return f"<Host {self.name} cores={self.cores}>"

    def work(self, us: float):
        """Occupy one CPU core for ``us`` simulated microseconds.

        Raises :class:`ServiceUnavailableError` if the host has been crashed
        by failure injection.
        """
        if self.crashed:
            raise ServiceUnavailableError(self.name)
        cpu = self.cpu
        req = cpu.request()
        yield req
        tracer = self.sim.tracer
        if tracer.enabled:
            wait = self.sim._now - req._enqueue_time
            if wait > 0.0:
                tracer.charge("queue", wait, self.name, resource="cpu",
                              by=getattr(req, "_blame", None))
        try:
            yield Timeout(self.sim, us)
            self.cpu_busy_us += us
            if tracer.enabled:
                tracer.charge("cpu", us, self.name)
            telemetry = self.sim.telemetry
            if telemetry.enabled:
                now = self.sim._now
                telemetry.counter("host.cpu_busy_us", self.name,
                                  capacity=self.cores).add_interval(
                    now - us, now, us)
        finally:
            cpu.release(req)
        if self.crashed:
            raise ServiceUnavailableError(self.name)

    def fsync(self, amortized_over: int = 1):
        """Charge one durable flush, optionally amortised across a batch.

        Raft log batching submits many entries under a single fsync; the
        caller passes the batch size so per-entry accounting stays honest.
        """
        if self.crashed:
            raise ServiceUnavailableError(self.name)
        req = self.disk.request()
        yield req
        self._charge_disk_wait(req)
        try:
            yield self.sim.timeout(self.fsync_us)
            self.fsync_count += 1
            self._record_fsync(self.fsync_us)
        finally:
            self.disk.release(req)

    def _charge_disk_wait(self, req) -> None:
        tracer = self.sim.tracer
        if tracer.enabled:
            wait = self.sim._now - req._enqueue_time
            if wait > 0.0:
                tracer.charge("queue", wait, self.name, resource="disk",
                              by=getattr(req, "_blame", None))

    def _record_fsync(self, us: float) -> None:
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.charge("fsync", us, self.name)
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            now = self.sim._now
            telemetry.counter("host.fsync", self.name).add(now)
            telemetry.counter("host.disk_busy_us", self.name,
                              capacity=1.0).add_interval(now - us, now, us)

    def fsync_cost(self, us: float):
        """Charge a caller-specified durable-write cost on the disk.

        TafDB's group-committed WAL writes are cheaper than a full Raft log
        segment fsync, so callers pass their own duration here; plain
        :meth:`fsync` uses the host default.
        """
        if self.crashed:
            raise ServiceUnavailableError(self.name)
        req = self.disk.request()
        yield req
        self._charge_disk_wait(req)
        try:
            yield self.sim.timeout(us)
            self.fsync_count += 1
            self._record_fsync(us)
        finally:
            self.disk.release(req)

    def crash(self) -> None:
        """Failure injection: subsequent work on this host fails."""
        self.crashed = True

    def recover(self) -> None:
        self.crashed = False

    def utilization(self, elapsed_us: float) -> float:
        """Fraction of total core-time spent busy over ``elapsed_us``."""
        if elapsed_us <= 0:
            return 0.0
        return self.cpu_busy_us / (elapsed_us * self.cores)
