"""The system-agnostic metadata-service interface.

Every system under evaluation (Mantle, Tectonic, InfiniFS, LocoFS) exposes
the same seven mdtest operations plus bulk-loading hooks, so the workload
generators and the benchmark harness never special-case a system.

Operation methods are *generators* running inside the discrete-event
simulation; ``perform`` is the uniform typed entry point: it dispatches a
:class:`repro.ops.Op` through the per-system handler table, stamps the
:class:`~repro.sim.stats.OpContext`, and (under an enabled tracer) opens the
operation's root span.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

from repro.ops import OP_NAMES, Op
from repro.sim.core import Simulator
from repro.sim.network import Network
from repro.sim.stats import OpContext
from repro.sim.telemetry import OP_LATENCY_DIGEST_PREFIX

#: The mdtest operation names used throughout benchmarks (§6.3).
#: (Alias of :data:`repro.ops.OP_NAMES`; kept for existing importers.)
OPS = OP_NAMES

#: Operations followed by a data-service access in end-to-end runs (§3).
_DATA_ACCESS_OPS = frozenset(("create", "delete", "objstat"))


class MetadataSystem:
    """Abstract base; subclasses implement ``op_<name>`` generators."""

    name = "abstract"

    #: Tenant identity stamped on every op's root span (interference
    #: blame groups victims/culprits by it).  ``None`` = single-tenant;
    #: multi-namespace deployments set it to the namespace name.
    tenant: Optional[str] = None

    def __init__(self, sim: Simulator, network: Network):
        self.sim = sim
        self.network = network
        # Execution seam: domain code routes RPC/time/host-work through this
        # object.  For a Simulator this is a SimRuntime (bit-identical to
        # direct kernel calls); the live facade substitutes an AsyncioRuntime
        # carried on the same attribute (see repro/runtime/).
        from repro.runtime.base import default_runtime
        self.runtime = default_runtime(sim, network)
        self._uuid_counter = itertools.count(1)
        self.data_access_enabled = False

    # -- lifecycle ------------------------------------------------------------

    def startup(self) -> None:
        """Run elections / warmup; must be called before submitting ops."""

    def shutdown(self) -> None:
        """Stop background processes so the event queue can drain."""

    # -- bulk loading (pre-population, no simulated cost) -----------------------

    def bulk_mkdir(self, path: str) -> int:
        raise NotImplementedError

    def bulk_create(self, path: str, size: int = 0) -> int:
        raise NotImplementedError

    # -- uniform submission -----------------------------------------------------

    def next_uuid(self) -> str:
        """Client-generated request UUID (idempotent retry support, §5.3)."""
        return f"{self.name}-req-{next(self._uuid_counter)}"

    def _handler_for(self, op_name: str) -> Callable:
        """Resolve (and cache) the ``op_<name>`` handler for one op type."""
        table: Optional[Dict[str, Callable]] = getattr(
            self, "_handler_table", None)
        if table is None:
            table = self._handler_table = {}
        handler = table.get(op_name)
        if handler is None:
            handler = getattr(self, "op_" + op_name, None)
            if handler is None:
                raise NotImplementedError(
                    f"{self.name} does not implement {op_name!r}")
            table[op_name] = handler
        return handler

    def perform(self, op: Op, ctx: Optional[OpContext] = None):
        """Run one typed metadata operation end to end (generator).

        Stamps start/finish times on ``ctx``, optionally appends the
        data-service access the paper's Figure 10b end-to-end runs include,
        and — under an enabled tracer — opens the operation's root span and
        threads it through ``ctx`` so phases, RPCs and transactions nest
        beneath it.
        """
        handler = self._handler_for(op.name)
        if ctx is None:
            ctx = OpContext(op.name)
        tracer = self.sim.tracer
        if tracer.enabled:
            span = tracer.begin(op.name, self.sim.now, category="op",
                                host=self.name)
            if self.tenant is not None:
                span.annotate(tenant=self.tenant)
            ctx.trace = span
            ctx.tracer = tracer
        else:
            span = None
        ctx.start = self.sim.now
        try:
            result = yield from handler(*op.handler_args(), ctx=ctx)
            if self.data_access_enabled and op.name in _DATA_ACCESS_OPS:
                yield from self.data_access(ctx)
        except BaseException:
            if span is not None:
                ctx.finish = self.sim.now
                tracer.end(span, self.sim.now, ok=False)
            telemetry = self.sim.telemetry
            if telemetry.enabled:
                telemetry.digest(OP_LATENCY_DIGEST_PREFIX + op.name).record(
                    self.sim.now, self.sim.now - ctx.start)
            raise
        ctx.finish = self.sim.now
        if span is not None:
            tracer.end(span, self.sim.now)
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            telemetry.digest(OP_LATENCY_DIGEST_PREFIX + op.name).record(
                self.sim.now, self.sim.now - ctx.start)
        return result

    def data_access(self, ctx: OpContext):
        """One small-object data-service access: a single RPC plus tens of
        microseconds of SSD device time (§3)."""
        costs = getattr(self, "costs", None)
        one_way = costs.net_one_way_us if costs else 50.0
        device = costs.data_io_small_us if costs else 80.0
        yield self.sim.timeout(2 * one_way + device)

    # -- operations (override in subclasses) ---------------------------------------

    def op_create(self, path: str, ctx: OpContext):
        raise NotImplementedError
        yield  # pragma: no cover

    def op_delete(self, path: str, ctx: OpContext):
        raise NotImplementedError
        yield  # pragma: no cover

    def op_objstat(self, path: str, ctx: OpContext):
        raise NotImplementedError
        yield  # pragma: no cover

    def op_dirstat(self, path: str, ctx: OpContext):
        raise NotImplementedError
        yield  # pragma: no cover

    def op_readdir(self, path: str, ctx: OpContext):
        raise NotImplementedError
        yield  # pragma: no cover

    def op_mkdir(self, path: str, ctx: OpContext):
        raise NotImplementedError
        yield  # pragma: no cover

    def op_rmdir(self, path: str, ctx: OpContext):
        raise NotImplementedError
        yield  # pragma: no cover

    def op_dirrename(self, src: str, dst: str, ctx: OpContext):
        raise NotImplementedError
        yield  # pragma: no cover

    def op_setattr(self, path: str, permission, ctx: OpContext):
        raise NotImplementedError
        yield  # pragma: no cover


class IdAllocator:
    """Monotonic inode-id allocator shared by bulk loading and proxies.

    Real deployments hand out per-proxy id ranges; a shared counter has the
    same correctness properties and no simulated cost, so we keep it simple.
    """

    def __init__(self, start: int = 2):
        self._counter = itertools.count(start)

    def next(self) -> int:
        return next(self._counter)
