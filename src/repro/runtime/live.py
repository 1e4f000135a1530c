"""Live deployment assembly: the same Mantle code as real asyncio services.

The simulator runs Mantle's state machines (``ShardState``,
``IndexNodeState``) and orchestration (``MantleProxy``, ``TafDBClient``)
under a DES kernel.  This module re-hosts the *identical* classes in real
processes:

* :class:`LiveSimFacade` duck-types the handful of ``Simulator`` attributes
  domain code reads (``now``/``_now``, constructor-injected
  tracer/telemetry instances fed by the wall clock, and the ``runtime``
  the seam resolves) — so ``Server.dispatch``, ``TafDBClient`` and
  ``MetadataSystem.perform`` run unmodified, instrumentation included;
* :class:`LiveHost` stands in for ``sim.host.Host``: never crashed, and its
  "disk" is a real write-ahead file fsynced on a worker thread;
* :class:`SoloRaft` is the live IndexNode's single-node replicated log — a
  durable JSONL append before every apply, the degenerate (but correctly
  ordered and durable) Raft a one-replica group is;
* the three ``build_*_role`` functions assemble each ``mantle-serve``
  process; :class:`InProcessCluster` hosts all three roles on one event
  loop (real localhost TCP) for tests, and :class:`ProcessCluster` spawns
  them as actual OS processes with a READY handshake.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from repro.baselines.base import IdAllocator, MetadataSystem
from repro.core.config import MantleConfig
from repro.core.proxy import MantleProxy
from repro.runtime.aio import AsyncioRuntime, RemoteService, WireServer
from repro.sim.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.trace import NULL_TRACER, Tracer
from repro.tafdb.client import TafDBClient
from repro.tafdb.contention import ContentionRegistry
from repro.tafdb.partition import Partitioner
from repro.tafdb.rows import attr_key
from repro.tafdb.shard import WriteIntent
from repro.types import ROOT_ID, AttrMeta, EntryKind


def build_observability(config: MantleConfig, process_name: str,
                        force_trace: bool = False,
                        force_telemetry: bool = False):
    """Resolve (tracer, telemetry) for one live process.

    The same ``MantleConfig.tracing``/``telemetry`` flags that instrument
    a simulated deployment instrument a live one; ``force_*`` are the CLI
    overrides (``mantle-serve --trace/--telemetry``).  Disabled layers get
    the shared null singletons, preserving the zero-cost-off contract.
    """
    del process_name  # reserved for future per-role capacity tuning
    tracer = Tracer() if (config.tracing or force_trace) else NULL_TRACER
    telemetry = (Telemetry(window_us=config.telemetry_window_us)
                 if (config.telemetry or force_telemetry)
                 else NULL_TELEMETRY)
    return tracer, telemetry


class LiveSimFacade:
    """The ``sim`` object live code sees: a wallclock plus this process's
    tracer/telemetry, with the :class:`AsyncioRuntime` on the attribute
    the runtime seam resolves.

    Instrumentation is **constructor-injected** (defaulting to the
    runtime's own instances, which default to the null singletons) — the
    facade never reassigns shared globals, so two facades in one process
    can carry different tracers and a test can hand in its own.  The
    tracer's span stacks are keyed by :attr:`_active_process`: live, the
    "process" a charge belongs to is the asyncio task serving the
    request, which is exactly the role ``sim._active_process`` plays for
    simulated processes.
    """

    def __init__(self, runtime: AsyncioRuntime, tracer=None, telemetry=None):
        self.runtime = runtime
        self.tracer = tracer if tracer is not None else runtime.tracer
        self.telemetry = (telemetry if telemetry is not None
                          else runtime.telemetry)
        if self.tracer.enabled:
            self.tracer.bind(self)

    @property
    def now(self) -> float:
        return self.runtime.now

    @property
    def _now(self) -> float:
        return self.runtime.now

    @property
    def _active_process(self):
        """The tracer's span-stack key: the currently running task."""
        try:
            return asyncio.current_task()
        except RuntimeError:
            return None


class LiveHost:
    """A real machine's stand-in for the simulated ``Host``.

    ``do_fsync`` is what ``AsyncioRuntime.fsync`` offloads to a worker
    thread: an append plus a real ``os.fsync`` on this host's WAL file —
    the durability point the simulator charges ``db_commit_sync_us`` for.
    """

    def __init__(self, sim: LiveSimFacade, name: str,
                 wal_dir: Optional[str] = None):
        self.sim = sim
        self.name = name
        self.crashed = False
        self.fsyncs = 0
        self._wal_path = None
        self._wal = None
        if wal_dir is not None:
            os.makedirs(wal_dir, exist_ok=True)
            self._wal_path = os.path.join(wal_dir, f"{name}.wal")
            self._wal = open(self._wal_path, "ab")

    def do_fsync(self) -> None:
        self.fsyncs += 1
        if self._wal is not None:
            self._wal.write(b"C\n")  # commit marker
            self._wal.flush()
            os.fsync(self._wal.fileno())

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None


class SoloRaft:
    """Single-node durable log backing the live IndexNode.

    ``commit`` appends the command to a JSONL log, fsyncs it off-loop, then
    applies it to the state machine — the ordering and durability contract
    the simulated Raft group provides, minus replication (the live smoke
    cluster runs one IndexNode replica).  Always leader; ``read_barrier``
    is a no-op generator for the same reason.
    """

    is_leader = True
    leader_hint = None

    def __init__(self, host: LiveHost, state_machine,
                 log_path: Optional[str] = None):
        self.host = host
        self.state_machine = state_machine
        self.commits = 0
        self._log = open(log_path, "ab") if log_path else None
        self._lock = threading.Lock()

    def _append_durable(self, command) -> None:
        from repro.runtime import wire
        if self._log is None:
            return
        record = json.dumps(wire.to_jsonable(tuple(command)),
                            separators=(",", ":")).encode() + b"\n"
        with self._lock:
            self._log.write(record)
            self._log.flush()
            os.fsync(self._log.fileno())

    async def commit(self, command):
        loop = asyncio.get_running_loop()
        sim = self.host.sim
        tracer = sim.tracer
        telemetry = sim.telemetry
        if not tracer.enabled and not telemetry.enabled:
            await loop.run_in_executor(None, self._append_durable, command)
            self.commits += 1
            return self.state_machine.apply(command)
        # Instrumented commit: the same raft.flush / raft.apply spans the
        # simulated leader opens, with wall-clock durations — what lets
        # the differential report align live commits against the modelled
        # fsync/apply costs.
        host = self.host.name
        flush_started = sim.now
        if tracer.enabled:
            span = tracer.begin("raft.flush", flush_started, category="raft",
                                host=host)
            span.annotate(entries=1)
        await loop.run_in_executor(None, self._append_durable, command)
        flush_ended = sim.now
        if tracer.enabled:
            tracer.charge("fsync", flush_ended - flush_started, host)
            tracer.end(span, flush_ended)
        if telemetry.enabled:
            telemetry.counter("raft.flushes", host).add(flush_ended)
            telemetry.counter("host.disk_busy_us", host,
                              capacity=1.0).add_interval(
                flush_started, flush_ended)
        self.commits += 1
        if not tracer.enabled:
            return self.state_machine.apply(command)
        apply_started = sim.now
        span = tracer.begin("raft.apply", apply_started, category="raft",
                            host=host)
        span.annotate(entries=1)
        try:
            result = self.state_machine.apply(command)
        finally:
            now = sim.now
            tracer.charge("cpu", now - apply_started, host)
            tracer.end(span, now)
        return result

    def read_barrier(self):
        return
        yield  # pragma: no cover

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None


# -- role builders -----------------------------------------------------------

def build_tafdb_role(config: MantleConfig, runtime: AsyncioRuntime,
                     wal_dir: Optional[str] = None):
    """One live TafDB server process holding every shard.

    The live smoke cluster maps all shards onto one server; shard *count*
    (and therefore 1PC-vs-2PC routing) still matches the simulated
    configuration, which is what the agreement suite compares.
    """
    from repro.tafdb.server import DBServer

    facade = LiveSimFacade(runtime)
    costs = config.effective_costs()
    host = LiveHost(facade, "tafdb-0", wal_dir=wal_dir)
    partitioner = Partitioner(config.num_db_shards, 1)
    server = DBServer(host, partitioner.shards_on_server(0), costs)
    # Bootstrap the namespace root exactly as MantleSystem._install_root
    # does for the simulated deployment.
    root_shard = partitioner.shard_of(ROOT_ID)
    server.shard(root_shard).execute("bootstrap-root", [WriteIntent(
        attr_key(ROOT_ID), "insert",
        AttrMeta(id=ROOT_ID, kind=EntryKind.DIRECTORY))])
    return server


def build_indexnode_role(config: MantleConfig, runtime: AsyncioRuntime,
                         wal_dir: Optional[str] = None):
    """One live IndexNode process: real state machine over a SoloRaft log."""
    from repro.indexnode.server import IndexNodeService
    from repro.indexnode.state import IndexNodeState

    facade = LiveSimFacade(runtime)
    costs = config.effective_costs()
    host = LiveHost(facade, "indexnode-0", wal_dir=wal_dir)
    state = IndexNodeState(cache_k=config.path_cache_k,
                           cache_enabled=config.enable_path_cache,
                           root_id=ROOT_ID)
    log_path = None
    if wal_dir is not None:
        os.makedirs(wal_dir, exist_ok=True)
        log_path = os.path.join(wal_dir, "indexnode-raft.jsonl")
    node = SoloRaft(host, state, log_path=log_path)
    return IndexNodeService(host, node, state, costs, start_purger=False)


class LiveTafDB:
    """Proxy-side view of the TafDB deployment: remote stubs + the shared
    contention registry (process-local live, exactly as shared-object state
    is cluster-internal in the simulator)."""

    def __init__(self, facade: LiveSimFacade, runtime: AsyncioRuntime,
                 config: MantleConfig, services: List[RemoteService]):
        self._facade = facade
        self._runtime = runtime
        self.costs = config.effective_costs()
        self.partitioner = Partitioner(config.num_db_shards, len(services))
        self.services = services
        self.contention = ContentionRegistry(
            threshold=config.delta_activation_threshold,
            window_us=config.delta_activation_window_us,
            enabled=config.enable_delta_records)

    def client(self, client_id: Optional[int] = None) -> TafDBClient:
        return TafDBClient(self._facade, None, self.partitioner,
                           self.services, self.costs, client_id=client_id,
                           runtime=self._runtime)


class LiveMantleService(MetadataSystem):
    """The proxy process's service object: real ``MantleProxy`` instances
    orchestrating over remote TafDB/IndexNode stubs.

    Subclasses :class:`MetadataSystem`, so ``perform(op)`` — including its
    phase stamping and typed-op dispatch — is byte-for-byte the code the
    simulator runs.
    """

    name = "mantle-live"

    def __init__(self, config: MantleConfig, runtime: AsyncioRuntime,
                 tafdb_services: List[RemoteService],
                 index_service: RemoteService,
                 wal_dir: Optional[str] = None):
        facade = LiveSimFacade(runtime)
        super().__init__(facade, None)  # resolves runtime from the facade
        self.config = config
        self.costs = config.effective_costs()
        self.namespace = "default"
        self.root_id = ROOT_ID
        self._wal_dir = wal_dir
        self.tafdb = LiveTafDB(facade, runtime, config, tafdb_services)
        self._index_service = index_service
        self.ids = IdAllocator(start=ROOT_ID + 1)
        self.proxies = [MantleProxy(self, i)
                        for i in range(config.num_proxies)]
        self._proxy_rr = 0

    # -- the service surface MantleProxy consumes ---------------------------

    def proxy_host(self, proxy_id: int) -> LiveHost:
        return LiveHost(self.sim, f"proxy-{proxy_id}", wal_dir=self._wal_dir)

    def leader_service(self) -> RemoteService:
        return self._index_service

    def lookup_services(self) -> List[RemoteService]:
        return [self._index_service]

    def proxy(self) -> MantleProxy:
        self._proxy_rr += 1
        return self.proxies[self._proxy_rr % len(self.proxies)]

    # -- MetadataSystem operations -------------------------------------------

    def op_create(self, path, ctx):
        result = yield from self.proxy().op_create(path, ctx=ctx)
        return result

    def op_delete(self, path, ctx):
        result = yield from self.proxy().op_delete(path, ctx=ctx)
        return result

    def op_objstat(self, path, ctx):
        result = yield from self.proxy().op_objstat(path, ctx=ctx)
        return result

    def op_dirstat(self, path, ctx):
        result = yield from self.proxy().op_dirstat(path, ctx=ctx)
        return result

    def op_readdir(self, path, ctx):
        result = yield from self.proxy().op_readdir(path, ctx=ctx)
        return result

    def op_mkdir(self, path, ctx):
        result = yield from self.proxy().op_mkdir(path, ctx=ctx)
        return result

    def op_rmdir(self, path, ctx):
        result = yield from self.proxy().op_rmdir(path, ctx=ctx)
        return result

    def op_dirrename(self, src, dst, ctx):
        result = yield from self.proxy().op_dirrename(src, dst, ctx=ctx)
        return result

    def op_setattr(self, path, permission, ctx):
        result = yield from self.proxy().op_setattr(path, permission, ctx=ctx)
        return result


class ProxyFrontend:
    """The proxy process's wire surface: the typed op registry over TCP.

    One method matters — ``perform`` takes an :class:`repro.ops.Op` wire
    payload, drives the operation end to end, and returns the result plus
    the per-op counters a simulated client would read off its OpContext.
    """

    def __init__(self, service: LiveMantleService):
        self.service = service

    def dispatch(self, method: str, args: tuple, kwargs: dict, span=None):
        if method == "ping":
            return {"pong": True, "now_us": self.service.sim.now}
        if method != "perform":
            from repro.errors import MetadataError
            raise MetadataError(f"proxy frontend has no RPC {method!r}")
        from repro.ops import Op
        from repro.sim.stats import OpContext

        op = Op.from_wire(args[0])
        ctx = OpContext(op.name)
        sim = self.service.sim
        tracer = sim.tracer
        if not tracer.enabled:
            result = yield from self.service.perform(op, ctx=ctx)
            return {"result": result, "rpcs": ctx.rpcs,
                    "retries": ctx.retries, "latency_us": ctx.latency}
        # Handler span mirroring the sim Server.dispatch convention; when
        # the caller shipped trace context, ``span`` is a RemoteSpanRef and
        # the op's whole tree re-parents onto the client's rpc span.
        handler = tracer.begin("rpc_perform", sim.now, category="handler",
                               parent=span, host=None)
        ok = True
        try:
            result = yield from self.service.perform(op, ctx=ctx)
        except BaseException:
            ok = False
            raise
        finally:
            tracer.end(handler, sim.now, ok=ok)
        return {"result": result, "rpcs": ctx.rpcs,
                "retries": ctx.retries, "latency_us": ctx.latency}


def build_proxy_role(config: MantleConfig, runtime: AsyncioRuntime,
                     tafdb_endpoints: List[str], index_endpoint: str,
                     wal_dir: Optional[str] = None) -> ProxyFrontend:
    from repro.runtime.aio import RpcConnection

    tafdb_services = [RemoteService(f"tafdb-{i}", RpcConnection(endpoint))
                      for i, endpoint in enumerate(tafdb_endpoints)]
    index_service = RemoteService(
        "indexnode-0", RpcConnection(index_endpoint))
    service = LiveMantleService(config, runtime, tafdb_services,
                                index_service, wal_dir=wal_dir)
    return ProxyFrontend(service)


# -- clusters ----------------------------------------------------------------

class InProcessCluster:
    """All three roles on one background event loop, talking over real
    localhost TCP.  The cheap way for tests (and ``--in-process`` smoke
    runs) to exercise the full wire protocol without spawning processes."""

    ROLE_ORDER = ("tafdb", "indexnode", "proxy")

    def __init__(self, config: Optional[MantleConfig] = None,
                 wal_dir: Optional[str] = None,
                 metrics: bool = False):
        self.config = config or MantleConfig.small()
        self.wal_dir = wal_dir
        self.metrics = metrics
        self.proxy_endpoint: Optional[str] = None
        #: role -> "127.0.0.1:<port>" once started (obs snapshot targets).
        self.endpoints: Dict[str, str] = {}
        #: role -> metrics port (only when ``metrics`` was requested).
        self.metrics_ports: Dict[str, int] = {}
        #: role -> that role's AsyncioRuntime (each role gets its own, so
        #: span buffers separate per "process" even though the roles share
        #: one event loop).
        self.runtimes: Dict[str, AsyncioRuntime] = {}
        self._loop = None
        self._thread: Optional[threading.Thread] = None
        self._servers: List[WireServer] = []
        self._metrics_servers: List = []
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def __enter__(self) -> "InProcessCluster":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> str:
        import asyncio

        def runner():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self._start_roles())
            except BaseException as exc:  # surface to the caller
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            loop.run_forever()
            # Drain cancelled tasks after stop() halts the loop.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.close()

        self._thread = threading.Thread(target=runner, name="mantle-live",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("live cluster failed to start in 30s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"live cluster startup failed: {self._startup_error!r}")
        return self.proxy_endpoint

    def _make_runtime(self, role: str) -> AsyncioRuntime:
        tracer, telemetry = build_observability(self.config, role)
        runtime = AsyncioRuntime(tracer=tracer, telemetry=telemetry,
                                 process_name=role)
        self.runtimes[role] = runtime
        return runtime

    async def _start_metrics(self, role: str,
                             runtime: AsyncioRuntime) -> None:
        if not self.metrics:
            return
        from repro.runtime.obs import MetricsServer

        server = MetricsServer(runtime)
        self.metrics_ports[role] = await server.start()
        self._metrics_servers.append(server)

    async def _start_roles(self) -> None:
        runtime = self._make_runtime("tafdb")
        tafdb = build_tafdb_role(self.config, runtime, wal_dir=self.wal_dir)
        tafdb_server = WireServer(runtime, tafdb)
        tafdb_port = await tafdb_server.start()
        await self._start_metrics("tafdb", runtime)

        runtime = self._make_runtime("indexnode")
        index = build_indexnode_role(self.config, runtime,
                                     wal_dir=self.wal_dir)
        index_server = WireServer(runtime, index)
        index_port = await index_server.start()
        await self._start_metrics("indexnode", runtime)

        runtime = self._make_runtime("proxy")
        frontend = build_proxy_role(
            self.config, runtime,
            [f"127.0.0.1:{tafdb_port}"], f"127.0.0.1:{index_port}",
            wal_dir=self.wal_dir)
        proxy_server = WireServer(runtime, frontend)
        proxy_port = await proxy_server.start()
        await self._start_metrics("proxy", runtime)

        self._servers = [tafdb_server, index_server, proxy_server]
        self.endpoints = {"tafdb": f"127.0.0.1:{tafdb_port}",
                          "indexnode": f"127.0.0.1:{index_port}",
                          "proxy": f"127.0.0.1:{proxy_port}"}
        self.proxy_endpoint = self.endpoints["proxy"]

    def stop(self) -> None:
        import asyncio

        if self._loop is None:
            return

        async def shutdown():
            for server in self._metrics_servers:
                await server.stop()
            for server in self._servers:
                await server.stop()

        future = asyncio.run_coroutine_threadsafe(shutdown(), self._loop)
        try:
            future.result(timeout=10)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._loop = None
        self._thread = None

    # -- observability -------------------------------------------------------

    def trace_snapshots(self) -> List[dict]:
        """Per-role trace snapshots (direct runtime access; no RPC).

        Safe after the driving client has drained: the snapshot payloads
        are built from plain attribute reads on each role's runtime.
        """
        from repro.runtime.obs import trace_snapshot_payload

        return [trace_snapshot_payload(self.runtimes[role])
                for role in self.ROLE_ORDER if role in self.runtimes]

    def metrics_snapshots(self) -> List[dict]:
        """Per-role metrics snapshots (direct runtime access; no RPC)."""
        from repro.runtime.obs import metrics_snapshot_payload

        return [metrics_snapshot_payload(self.runtimes[role])
                for role in self.ROLE_ORDER if role in self.runtimes]


class ProcessCluster:
    """Real OS processes: one ``mantle-serve`` per role.

    Startup is a READY handshake — each child prints
    ``MANTLE-SERVE READY port=<port>`` once its listener is bound; shutdown
    is SIGTERM, which each role traps for a clean exit 0 (the contract the
    CI ``live-smoke`` job asserts).
    """

    ROLE_ORDER = ("tafdb", "indexnode", "proxy")

    def __init__(self, config_name: str = "small",
                 wal_dir: Optional[str] = None,
                 ready_timeout_s: float = 30.0,
                 trace: bool = False, telemetry: bool = False,
                 metrics: bool = False):
        self.config_name = config_name
        self.wal_dir = wal_dir
        self.ready_timeout_s = ready_timeout_s
        self.trace = trace
        self.telemetry = telemetry
        self.metrics = metrics
        self.processes: Dict[str, subprocess.Popen] = {}
        self.ports: Dict[str, int] = {}
        #: role -> "127.0.0.1:<port>" (obs snapshot targets).
        self.endpoints: Dict[str, str] = {}
        #: role -> metrics HTTP port (only with ``metrics=True``).
        self.metrics_ports: Dict[str, int] = {}
        self.proxy_endpoint: Optional[str] = None

    def __enter__(self) -> "ProcessCluster":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _spawn(self, role: str, extra: List[str]) -> subprocess.Popen:
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        argv = [sys.executable, "-m", "repro.runtime.serve", role,
                "--config", self.config_name] + extra
        if self.wal_dir:
            argv += ["--wal-dir", os.path.join(self.wal_dir, role)]
        if self.trace:
            argv.append("--trace")
        if self.telemetry:
            argv.append("--telemetry")
        if self.metrics:
            argv += ["--metrics-port", "0"]
        return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)

    def _await_ready(self, role: str, proc: subprocess.Popen) -> int:
        """Parse the READY line; returns the wire port and records any
        advertised metrics port (``MANTLE-SERVE READY port=N [metrics=M]``).
        """
        deadline = time.monotonic() + self.ready_timeout_s
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            line = line.strip()
            if line.startswith("MANTLE-SERVE READY"):
                fields = dict(token.split("=", 1)
                              for token in line.split()[2:] if "=" in token)
                if "metrics" in fields:
                    self.metrics_ports[role] = int(fields["metrics"])
                return int(fields["port"])
        stderr = proc.stderr.read() if proc.stderr else ""
        self.stop()
        raise RuntimeError(
            f"{role} never reported READY (rc={proc.poll()}): {stderr[-2000:]}")

    def start(self) -> str:
        proc = self._spawn("tafdb", ["--port", "0"])
        self.processes["tafdb"] = proc
        self.ports["tafdb"] = self._await_ready("tafdb", proc)

        proc = self._spawn("indexnode", ["--port", "0"])
        self.processes["indexnode"] = proc
        self.ports["indexnode"] = self._await_ready("indexnode", proc)

        proc = self._spawn("proxy", [
            "--port", "0",
            "--tafdb", f"127.0.0.1:{self.ports['tafdb']}",
            "--indexnode", f"127.0.0.1:{self.ports['indexnode']}"])
        self.processes["proxy"] = proc
        self.ports["proxy"] = self._await_ready("proxy", proc)
        self.endpoints = {role: f"127.0.0.1:{port}"
                          for role, port in self.ports.items()}
        self.proxy_endpoint = self.endpoints["proxy"]
        return self.proxy_endpoint

    def stop(self, timeout_s: float = 15.0) -> Dict[str, int]:
        """SIGTERM every role (proxy first) and collect exit codes."""
        exit_codes: Dict[str, int] = {}
        for role in reversed(self.ROLE_ORDER):
            proc = self.processes.get(role)
            if proc is None:
                continue
            if proc.poll() is None:
                proc.terminate()
        for role in reversed(self.ROLE_ORDER):
            proc = self.processes.pop(role, None)
            if proc is None:
                continue
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            exit_codes[role] = proc.returncode
            for stream in (proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()
        return exit_codes
