"""The Runtime protocol and its simulator-backed implementation.

Before this seam existed, domain code reached into the simulator directly
in exactly three kinds of places:

* **RPC dispatch** — ``self.network.rpc(server, method, ...)``;
* **time** — ``self.sim.now`` reads and ``yield self.sim.timeout(us)``;
* **host execution** — ``yield from self.host.work(us)`` /
  ``host.fsync_cost(us)`` (plus the Raft ``propose`` commit wait and the
  2PC fan-out via ``sim.process``/``sim.all_of``).

:class:`Runtime` names those touch points.  Orchestration code is written
as plain generators that only ever ``yield from`` runtime methods; what the
generator actually *yields* is an implementation detail of the runtime
driving it:

* under :class:`SimRuntime` the methods delegate to the original simulator
  primitives, so the kernel sees the exact event sequence it always saw —
  simulated results are bit-identical to the pre-seam code (the golden
  values in the determinism suites gate this);
* under :class:`~repro.runtime.aio.AsyncioRuntime` the methods yield small
  effect objects that an ``async`` trampoline translates into real TCP
  round trips, ``asyncio.sleep`` and thread-offloaded ``fsync``.

Nothing in this module imports asyncio; the simulator path stays exactly as
cheap as it was.

Observability rides the same seam.  Both runtimes expose ``tracer`` and
``telemetry`` attributes (``NULL_TRACER``/``NULL_TELEMETRY`` when off):
under :class:`SimRuntime` they are the simulator's own instruments charging
simulated microseconds; :class:`~repro.runtime.aio.AsyncioRuntime` carries
its own wall-clock pair and stamps real fsync and wire time into the same
span/charge vocabulary, so one critical-path / phase-breakdown toolchain
reads both worlds.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional


class Runtime:
    """Abstract execution environment for Mantle's orchestration code.

    All generator methods are consumed with ``yield from`` inside domain
    generators; ``now`` is an ordinary property.  ``kind`` distinguishes
    implementations where behaviour must legitimately differ (e.g. error
    messages); domain code must not branch on it for anything that changes
    results.
    """

    kind = "abstract"

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current time in microseconds (simulated or monotonic wallclock)."""
        raise NotImplementedError

    def sleep(self, us: float):
        """Suspend the calling operation for ``us`` microseconds."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- host execution ----------------------------------------------------

    def work(self, host, us: float):
        """Charge ``us`` of CPU on ``host``.

        In the simulator this occupies one core (queueing included); on a
        live runtime the real computation already happened, so this is a
        no-op.
        """
        raise NotImplementedError
        yield  # pragma: no cover

    def fsync(self, host, us: float):
        """One durable flush on ``host``'s disk.

        The simulator charges ``us`` on the (single-queue) disk resource; a
        live runtime performs a real ``os.fsync`` offloaded to a worker
        thread so the event loop never blocks on the device.
        """
        raise NotImplementedError
        yield  # pragma: no cover

    # -- RPC dispatch ------------------------------------------------------

    def rpc(self, service, method: str, *args, ctx=None, **kwargs):
        """One request/response round trip to ``service``.

        ``service`` is a simulated :class:`~repro.sim.network.Server` under
        :class:`SimRuntime` and a :class:`~repro.runtime.live.RemoteService`
        stub (name + address) under the asyncio runtime.  Counts one RPC on
        ``ctx`` either way, so Table 1 RTT accounting holds live.
        """
        raise NotImplementedError
        yield  # pragma: no cover

    def gather(self, generators: Iterable):
        """Run operation sub-generators concurrently; return their results
        in order (the 2PC parallel prepare/commit fan-out)."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- replication -------------------------------------------------------

    def propose(self, node, command) -> Any:
        """Propose ``command`` on Raft node ``node`` and await the applied
        result.  When tracing is on, each runtime decomposes the commit in
        its own place: the simulator via the commit-stat replay in
        ``IndexNodeService._propose_attributed``, the live runtime via the
        spans ``SoloRaft.commit`` opens around its real flush and apply."""
        raise NotImplementedError
        yield  # pragma: no cover


class SimRuntime(Runtime):
    """Thin adapter over the discrete-event kernel.

    Every method delegates to the exact primitive the pre-seam code used,
    producing the identical yield sequence — this class must never add,
    remove or reorder simulator events.  ``network`` may be ``None`` for
    server-side runtimes (handlers charge work/fsync but never originate
    RPCs); calling :meth:`rpc` on such a runtime is a bug and raises.
    """

    kind = "sim"

    __slots__ = ("sim", "network")

    def __init__(self, sim, network=None):
        self.sim = sim
        self.network = network

    @property
    def now(self) -> float:
        return self.sim.now

    def sleep(self, us: float):
        yield self.sim.timeout(us)

    def work(self, host, us: float):
        yield from host.work(us)

    def fsync(self, host, us: float):
        yield from host.fsync_cost(us)

    def rpc(self, service, method: str, *args, ctx=None, **kwargs):
        network = self.network
        if network is None:
            raise RuntimeError(
                "this SimRuntime has no network transport attached")
        result = yield from network.rpc(service, method, *args,
                                        ctx=ctx, **kwargs)
        return result

    def gather(self, generators: Iterable):
        sim = self.sim
        results = yield sim.all_of(
            [sim.process(generator) for generator in generators])
        return results

    def propose(self, node, command):
        result = yield node.propose(command)
        return result


def default_runtime(sim, network=None) -> Runtime:
    """The runtime for a simulator-or-facade ``sim`` object.

    A :class:`~repro.sim.core.Simulator` answers with its cached
    :class:`SimRuntime`; the live facade objects carry their process's
    :class:`~repro.runtime.aio.AsyncioRuntime` in the same attribute —
    which is how one ``Server`` subclass serves both worlds unmodified.
    """
    runtime: Optional[Runtime] = getattr(sim, "runtime", None)
    if runtime is None:
        runtime = SimRuntime(sim, network)
    elif network is not None and getattr(runtime, "network", None) is None \
            and isinstance(runtime, SimRuntime):
        runtime = SimRuntime(sim, network)
    return runtime
