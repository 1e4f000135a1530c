"""Hierarchical span tracing for the simulated cluster.

Every instrumented layer (RPC fabric, Raft, TafDB, IndexNode, the operation
orchestrators) opens :class:`Span` records against the simulator's tracer.
Spans carry parent/child links, the host doing the work, and free-form
attributes, so a single operation unrolls into a tree::

    mkdir                                   (category "op")
    |-- lookup                              (category "phase")
    |   `-- rpc:lookup -> rpc_lookup        (categories "rpc"/"handler")
    |-- execution                           (category "phase")
    |   `-- tafdb.txn                       (category "txn")
    `-- rpc:mutate ...

Design constraints, in order of importance:

* **Determinism** — the tracer performs pure Python bookkeeping and never
  creates simulator events or advances time, so enabling tracing cannot
  change any simulated result (``tests/experiments/test_fastpath_determinism``
  pins this down).
* **Zero cost when off** — the default tracer is the :data:`NULL_TRACER`
  no-op singleton; instrumentation sites guard on ``tracer.enabled`` so a
  disabled run pays one attribute load and a boolean test per site.
* **Bounded overhead when on** — finished spans land in a fixed-size ring
  buffer (oldest spans fall out) and root spans can be sampled 1-in-N;
  children of unsampled roots are elided entirely.
* **Tail retention** — the ring plus uniform sampling keep a *uniform*
  slice, so the p999 stragglers that define SLOs are exactly the spans
  that fall out first.  A :class:`TailKeeper` attached to the tracer
  additionally retains the full span tree of any root op that errored or
  whose duration clears a per-op-type adaptive threshold (a quantile of
  the op's own duration digest), under a bounded span budget with whole-
  tree eviction — so slow-op exemplars survive ring pressure.  The keep
  decision depends only on simulated durations, so it is deterministic.

Enable tracing with ``MANTLE_TRACE=1`` (every :class:`~repro.sim.core.Simulator`
constructed in the process gets a live tracer), ``MantleConfig(tracing=True)``
(one Mantle deployment), or by assigning ``sim.tracer = Tracer()`` directly.

The module also ships a Chrome-trace (``chrome://tracing`` / Perfetto JSON)
exporter plus the aggregation helpers ``mantle-exp trace``, fig15 and table1
use to turn raw spans back into the paper's per-phase tables.
"""

from __future__ import annotations

import collections
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Span categories used by the built-in instrumentation.
CAT_OP = "op"              #: one client-visible metadata operation (root)
CAT_PHASE = "phase"        #: lookup / loop_detect / execution sub-phase
CAT_RPC = "rpc"            #: one request/response round trip
CAT_HANDLER = "handler"    #: server-side rpc_<method> handler body
CAT_TXN = "txn"            #: one TafDB transaction (1PC or 2PC)
CAT_RAFT = "raft"          #: Raft persist / replication / apply work
CAT_INDEX = "index"        #: IndexNode-local resolution work
CAT_MAINT = "maintenance"  #: background loops (compactor, invalidator)


class Span:
    """One timed interval in the simulation, linked into a tree.

    ``start_us`` / ``end_us`` are simulated microseconds.  ``parent_id`` is 0
    for root spans.  ``ok`` is False when the spanned work raised.

    ``parent_id`` is the *declared* parent (what the instrumentation site
    passed, e.g. an RPC span declares the operation root).  ``dyn_parent_id``
    is the *dynamic* parent: the span that was innermost on the opening
    process's stack at begin time.  The two differ exactly where declared
    trees overlap (RPCs declare the root while a phase span is open); the
    profiler (:mod:`repro.sim.profile`) folds on the dynamic tree because
    only there are sibling intervals guaranteed disjoint, which is what makes
    self-time = parent-minus-children non-negative and exactly conservative.
    """

    __slots__ = ("span_id", "parent_id", "name", "category", "host",
                 "start_us", "end_us", "attrs", "ok", "dyn_parent_id",
                 "costs", "queue_res", "blocked", "queue_by")

    def __init__(self, span_id: int, parent_id: int, name: str,
                 category: str, host: Optional[str], start_us: float):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.host = host
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.attrs: Optional[Dict[str, Any]] = None
        self.ok = True
        self.dyn_parent_id = 0
        #: (cost-kind, host) -> simulated microseconds charged while this
        #: span was innermost; ``None`` until the first charge.
        self.costs: Optional[Dict[Tuple[str, Optional[str]], float]] = None
        #: (resource, host) -> queue microseconds, refining the ``queue``
        #: entries in :attr:`costs` by what was waited on (cpu/disk/latch).
        #: A strict decomposition: summed per host it never exceeds the
        #: host's ``queue`` cost.  ``None`` until the first tagged charge.
        self.queue_res: Optional[Dict[Tuple[str, Optional[str]],
                                      float]] = None
        #: (cause-frame, cost-kind, host) -> microseconds this span spent
        #: *blocked on another process's* work (e.g. a Raft commit wait
        #: decomposed into batch-window queue / leader fsync / replication
        #: wire).  Unlike :attr:`costs` these are a refinement of the
        #: span's idle residual, not additional cost — the profiler
        #: ignores them; the critical-path analyzer consumes them.
        self.blocked: Optional[Dict[Tuple[str, str, Optional[str]],
                                    float]] = None
        #: (culprit-op, culprit-tenant, resource, host) -> queue
        #: microseconds, refining :attr:`queue_res` by the *occupant* whose
        #: departure admitted this span's process to the resource — the
        #: who-delayed-whom tags the blame matrix folds.  Summed per
        #: (resource, host) it equals the matching :attr:`queue_res` entry
        #: exactly (unknown occupants land under ``"(unknown)"``).
        #: ``None`` until the first occupant-tagged charge.
        self.queue_by: Optional[Dict[Tuple[str, Optional[str], str,
                                           Optional[str]], float]] = None

    def add_cost(self, kind: str, host: Optional[str], us: float) -> None:
        """Accumulate ``us`` of ``kind`` cost (cpu/fsync/wire/queue)."""
        costs = self.costs
        if costs is None:
            costs = self.costs = {}
        key = (kind, host)
        costs[key] = costs.get(key, 0.0) + us

    def add_queue_resource(self, resource: str, host: Optional[str],
                           us: float) -> None:
        """Refine a ``queue`` charge by the resource waited on."""
        res = self.queue_res
        if res is None:
            res = self.queue_res = {}
        key = (resource, host)
        res[key] = res.get(key, 0.0) + us

    def add_blocked(self, cause: str, kind: str, host: Optional[str],
                    us: float) -> None:
        """Accumulate blocked-on time attributed to ``cause``."""
        blocked = self.blocked
        if blocked is None:
            blocked = self.blocked = {}
        key = (cause, kind, host)
        blocked[key] = blocked.get(key, 0.0) + us

    def add_queue_by(self, op: str, tenant: Optional[str], resource: str,
                     host: Optional[str], us: float) -> None:
        """Tag queue time with the occupant (op, tenant) that preceded it."""
        by = self.queue_by
        if by is None:
            by = self.queue_by = {}
        key = (op, tenant, resource, host)
        by[key] = by.get(key, 0.0) + us

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    def annotate(self, **attrs) -> None:
        """Attach free-form attributes (cache outcome, batch size, ...)."""
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span(#{self.span_id} {self.category}/{self.name!r} "
                f"parent={self.parent_id} host={self.host!r} "
                f"[{self.start_us}, {self.end_us}] ok={self.ok})")


class _NullSpan:
    """Stand-in returned for elided spans (disabled tracer, unsampled root,
    or any descendant of an unsampled root).  Accepts annotations silently."""

    __slots__ = ()
    span_id = 0
    parent_id = 0
    category = ""
    name = ""
    host = None
    start_us = 0.0
    end_us = 0.0
    ok = True
    duration_us = 0.0
    dyn_parent_id = 0
    costs = None
    queue_res = None
    blocked = None
    queue_by = None

    def annotate(self, **attrs) -> None:
        pass

    def add_cost(self, kind: str, host: Optional[str], us: float) -> None:
        pass

    def add_queue_resource(self, resource: str, host: Optional[str],
                           us: float) -> None:
        pass

    def add_blocked(self, cause: str, kind: str, host: Optional[str],
                    us: float) -> None:
        pass

    def add_queue_by(self, op: str, tenant: Optional[str], resource: str,
                     host: Optional[str], us: float) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"

    def __bool__(self) -> bool:
        return False


#: Shared elided-span singleton; falsy so ``if span:`` skips dead work.
NULL_SPAN = _NullSpan()


class RemoteSpanRef:
    """A parent span living in *another process* (live runtime only).

    The wire protocol carries ``{"proc", "span"}`` trace context on each
    request frame; the receiving server rebuilds it as a ``RemoteSpanRef``
    and passes it where sim code passes the caller's :class:`Span`.  A span
    begun with a remote parent becomes a *local* root (``parent_id`` 0 —
    ids are only unique per process) annotated with
    ``remote_parent_proc``/``remote_parent_span``, which is what the
    cross-process trace merge (:mod:`repro.runtime.obs`) stitches back into
    one tree.
    """

    __slots__ = ("proc", "span_id")

    def __init__(self, proc: str, span_id: int):
        self.proc = proc
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteSpanRef({self.proc!r}, #{self.span_id})"


class NullTracer:
    """The disabled tracer: every call is a no-op.

    Instrumentation sites check :attr:`enabled` before building span
    arguments, so a disabled run's cost per site is one attribute load and a
    boolean test — the "zero-cost-when-off" contract the wallclock harness
    enforces.
    """

    __slots__ = ()
    enabled = False
    keeper = None

    @property
    def spans(self) -> Sequence[Span]:
        return ()

    @property
    def dropped(self) -> int:
        return 0

    def retained_spans(self):
        return []

    def begin(self, name: str, now: float, category: str = "",
              parent: Any = None, host: Optional[str] = None):
        return NULL_SPAN

    def current_span(self):
        return None

    def end(self, span, now: float, ok: bool = True) -> None:
        pass

    def bind(self, sim) -> None:
        pass

    def charge(self, kind: str, us: float, host: Optional[str] = None,
               resource: Optional[str] = None,
               by: Optional[Tuple[str, Optional[str]]] = None) -> None:
        pass

    def charge_blocked(self, cause: str, kind: str, us: float,
                       host: Optional[str] = None,
                       resource: Optional[str] = None,
                       by: Optional[Tuple[str, Optional[str]]] = None
                       ) -> None:
        pass

    def current_op_label(self) -> Optional[Tuple[str, Optional[str]]]:
        return None

    @property
    def unattributed(self) -> Dict[Tuple[Optional[str], str], float]:
        return {}

    def reset(self) -> None:
        pass


#: Process-wide no-op tracer shared by every untraced simulator.
NULL_TRACER = NullTracer()

#: Default ring capacity: ~40 MB of spans worst-case, far above what the
#: quick-scale workloads produce, small enough to bound long soak runs.
DEFAULT_MAX_SPANS = 262_144

#: Default tail-keeper budget: whole trees are evicted (oldest first) once
#: the retained spans exceed this.
DEFAULT_KEEP_BUDGET_SPANS = 65_536

#: Adaptive keep threshold: retain roots above this duration quantile of
#: their own op type (p99 — one kept exemplar per ~100 ops at steady state).
DEFAULT_KEEP_QUANTILE = 0.99

#: Adaptive thresholds need this many samples of an op type before they
#: engage; below it every root of that type is kept (budget-bounded).
DEFAULT_KEEP_MIN_SAMPLES = 64


class TailKeeper:
    """Keep policy retaining whole span trees for tail/error exemplars.

    Attach via ``Tracer(keeper=TailKeeper(...))``.  For every finished
    root the keeper decides: keep the tree if the root errored, or if its
    duration reaches the op type's threshold — ``threshold_us`` when
    fixed, else the :data:`DEFAULT_KEEP_QUANTILE` of the op's own
    duration sketch (same log-spaced buckets as
    :class:`~repro.sim.telemetry.Digest`, so the threshold inherits the
    digest's error bound).  Until an op type has
    ``min_samples`` observations its roots are all kept — early stragglers
    are exactly the ones worth keeping, and the span ``budget`` bounds
    memory either way: once exceeded, the oldest kept trees are evicted
    whole (``evicted_roots`` counts them).

    Decisions read only simulated durations and integer counts, never the
    wall clock or an RNG — identical traffic keeps identical trees.
    """

    __slots__ = ("quantile", "threshold_us", "min_samples", "budget",
                 "kept_roots", "kept_errors", "evicted_roots", "_trees",
                 "_span_count", "_buckets", "_counts")

    def __init__(self, quantile: float = DEFAULT_KEEP_QUANTILE,
                 threshold_us: Optional[float] = None,
                 min_samples: int = DEFAULT_KEEP_MIN_SAMPLES,
                 budget: int = DEFAULT_KEEP_BUDGET_SPANS):
        if not 0.0 < quantile < 1.0:
            raise ValueError("keep quantile must be in (0, 1)")
        if budget < 1:
            raise ValueError("keep budget must be >= 1")
        self.quantile = quantile
        self.threshold_us = threshold_us
        self.min_samples = min_samples
        self.budget = budget
        #: roots kept so far (monotonic; eviction does not decrement).
        self.kept_roots = 0
        #: roots kept because they errored.
        self.kept_errors = 0
        #: kept trees evicted whole to stay under budget.
        self.evicted_roots = 0
        #: root span_id -> that root's full finished tree (insertion-ordered
        #: by root finish time, which is what eviction walks).
        self._trees: Dict[int, List[Span]] = {}
        self._span_count = 0
        #: op name -> duration sketch (digest buckets) feeding thresholds.
        self._buckets: Dict[str, Dict[int, int]] = {}
        self._counts: Dict[str, int] = {}

    def op_threshold_us(self, op: str) -> Optional[float]:
        """Current keep threshold for an op type; ``None`` = keep all
        (threshold still warming up)."""
        if self.threshold_us is not None:
            return self.threshold_us
        if self._counts.get(op, 0) < self.min_samples:
            return None
        from repro.sim import telemetry as _telemetry

        return _telemetry._bucket_quantile(self._buckets[op], self.quantile)

    def offer(self, root: Span, tree: List[Span]) -> bool:
        """Decide on one finished root's tree; returns True when kept."""
        threshold = self.op_threshold_us(root.name)
        keep = (not root.ok) or threshold is None \
            or root.duration_us >= threshold
        if self.threshold_us is None:
            from repro.sim import telemetry as _telemetry

            buckets = self._buckets.get(root.name)
            if buckets is None:
                buckets = self._buckets[root.name] = {}
            b = _telemetry.digest_bucket(root.duration_us)
            buckets[b] = buckets.get(b, 0) + 1
            self._counts[root.name] = self._counts.get(root.name, 0) + 1
        if not keep:
            return False
        self.kept_roots += 1
        if not root.ok:
            self.kept_errors += 1
        self._trees[root.span_id] = tree
        self._span_count += len(tree)
        while self._span_count > self.budget and len(self._trees) > 1:
            oldest = next(iter(self._trees))
            self._span_count -= len(self._trees.pop(oldest))
            self.evicted_roots += 1
        return True

    @property
    def kept_spans(self) -> int:
        """Spans currently retained across all kept trees."""
        return self._span_count

    def trees(self) -> List[List[Span]]:
        """Kept trees, oldest root first."""
        return list(self._trees.values())

    def spans(self) -> List[Span]:
        """Every retained span, flattened (tree order, root last)."""
        out: List[Span] = []
        for tree in self._trees.values():
            out.extend(tree)
        return out

    def reset(self) -> None:
        self.kept_roots = 0
        self.kept_errors = 0
        self.evicted_roots = 0
        self._trees.clear()
        self._span_count = 0
        self._buckets.clear()
        self._counts.clear()


class Tracer:
    """Collects finished spans into a bounded ring buffer.

    Parameters
    ----------
    max_spans:
        Ring capacity; once full, the oldest finished spans fall out and
        :attr:`dropped` counts them.
    sample_every:
        Root-span sampling: keep 1 in N root spans (default 1 = keep all).
        Children of an unsampled root are elided at creation, so sampling
        bounds tracing overhead for large workloads.
    keeper:
        Optional :class:`TailKeeper`; finished trees of slow or failed
        (sampled-in) roots are retained beyond the ring under its budget.
    """

    __slots__ = ("_ring", "_next_id", "_roots_seen", "_sample_every",
                 "started", "finished", "_sim", "_stacks", "unattributed",
                 "keeper", "_root_of", "_live_trees")

    enabled = True

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS,
                 sample_every: int = 1,
                 keeper: Optional[TailKeeper] = None):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self._ring: collections.deque = collections.deque(maxlen=max_spans)
        self._next_id = 0
        self._roots_seen = 0
        self._sample_every = sample_every
        self.keeper = keeper
        #: span_id -> its tree root's span_id (tail-keep bookkeeping; only
        #: populated while a keeper is attached).
        self._root_of: Dict[int, int] = {}
        #: root span_id -> finished spans of its still-open tree.
        self._live_trees: Dict[int, List[Span]] = {}
        self.started = 0
        self.finished = 0
        # Cost attribution.  ``_stacks`` maps the simulator's currently
        # executing process to its stack of open spans; ``charge`` lands on
        # the stack top.  An unbound tracer (no ``bind`` call) degrades to a
        # single shared stack — fine for single-process unit tests, wrong
        # for concurrent workloads, which is why every assignment site binds.
        self._sim = None
        self._stacks: Dict[Any, List[Any]] = {}
        #: (host, cost-kind) -> us charged while no (sampled) span was open.
        #: Keeps profiler-vs-telemetry reconciliation exact under sampling.
        self.unattributed: Dict[Tuple[Optional[str], str], float] = {}

    def bind(self, sim) -> None:
        """Attach the simulator whose active process keys the span stacks.

        Charges and dynamic-parent links are attributed per process; the
        kernel publishes ``sim._active_process`` on every resume, so binding
        is the only coupling the tracer needs.
        """
        self._sim = sim

    @property
    def spans(self) -> Sequence[Span]:
        """Finished spans, oldest first (a snapshot-free live view)."""
        return self._ring

    @property
    def dropped(self) -> int:
        """Finished spans that fell out of the ring."""
        return self.finished - len(self._ring)

    @property
    def sample_every(self) -> int:
        return self._sample_every

    def begin(self, name: str, now: float, category: str = "",
              parent: Any = None, host: Optional[str] = None):
        """Open a span; returns :data:`NULL_SPAN` when sampled out.

        ``parent`` is another :class:`Span` (or :data:`NULL_SPAN`, in which
        case the child is elided too, keeping whole trees atomic under
        sampling), ``None`` for a root span, or a :class:`RemoteSpanRef`
        for a parent in another live process — the span becomes a local
        root carrying the remote link in its attributes.

        Elided spans are still pushed onto the opening process's stack so
        that work done under them charges the unattributed bucket rather
        than leaking into an outer span's cost profile.
        """
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        remote = None
        if isinstance(parent, RemoteSpanRef):
            remote, parent = parent, None
        if parent is None:
            self._roots_seen += 1
            if self._sample_every > 1 and \
                    (self._roots_seen - 1) % self._sample_every:
                span = NULL_SPAN
            else:
                span = None
            parent_id = 0
        elif parent is NULL_SPAN:
            span = NULL_SPAN
            parent_id = 0
        else:
            span = None
            parent_id = parent.span_id
        if span is None:
            self._next_id += 1
            self.started += 1
            span = Span(self._next_id, parent_id, name, category, host, now)
            if stack:
                span.dyn_parent_id = stack[-1].span_id
            if remote is not None:
                span.annotate(remote_parent_proc=remote.proc,
                              remote_parent_span=remote.span_id)
            if self.keeper is not None:
                # Tree membership follows the opening process's stack: its
                # bottom span is this process's tree root (the op root for
                # client work, the fan-out wrapper for spawned legs).
                bottom = stack[0] if stack else None
                if bottom is not None and bottom is not NULL_SPAN:
                    self._root_of[span.span_id] = self._root_of.get(
                        bottom.span_id, bottom.span_id)
                else:
                    self._root_of[span.span_id] = span.span_id
        if stack is None:
            self._stacks[proc] = [span]
        else:
            stack.append(span)
        return span

    def current_span(self):
        """The innermost open span of the currently executing process, or
        ``None`` (``NULL_SPAN`` while an elided subtree is open)."""
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        return stack[-1] if stack else None

    def end(self, span, now: float, ok: bool = True) -> None:
        """Close a span and commit it to the ring."""
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        if stack:
            if stack[-1] is span:
                stack.pop()
            elif span is not NULL_SPAN:
                # A child leaked open (exception unwound past its end call):
                # truncate through it so the stack mirrors reality again.
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i] is span:
                        del stack[i:]
                        break
            if not stack:
                del self._stacks[proc]
        if span is NULL_SPAN:
            return
        span.end_us = now
        span.ok = ok
        self.finished += 1
        self._ring.append(span)
        if self.keeper is not None:
            root_id = self._root_of.pop(span.span_id, span.span_id)
            tree = self._live_trees.get(root_id)
            if tree is None:
                tree = self._live_trees[root_id] = []
            tree.append(span)
            if span.span_id == root_id:
                del self._live_trees[root_id]
                if span.category == CAT_OP:
                    self.keeper.offer(span, tree)

    def charge(self, kind: str, us: float, host: Optional[str] = None,
               resource: Optional[str] = None,
               by: Optional[Tuple[str, Optional[str]]] = None) -> None:
        """Attribute ``us`` simulated microseconds of ``kind`` cost.

        The charge lands on the innermost open span of the currently
        executing process; with no (sampled) span open it accrues to the
        tracer-level :attr:`unattributed` bucket so totals still reconcile
        against telemetry busy counters.

        ``resource`` optionally names what a ``queue`` charge waited on
        (``"cpu"`` / ``"disk"`` / ``"latch"``); the refinement is stored
        alongside — never instead of — the plain ``queue`` cost, so the
        profiler's totals are unchanged while the critical-path analyzer
        can split queueing by its underlying bottleneck.

        ``by`` optionally names the occupant ``(op, tenant)`` whose
        departure admitted this process (stamped on the grant by
        :meth:`~repro.sim.resources.Resource.release`).  Every
        resource-tagged charge also lands a ``queue_by`` tag — ``by=None``
        falls back to ``("(unknown)", None)`` — so per (resource, host)
        the occupant tags decompose ``queue_res`` exactly.
        """
        if us <= 0.0:
            return
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        if stack:
            top = stack[-1]
            if top is not NULL_SPAN:
                top.add_cost(kind, host, us)
                if resource is not None:
                    top.add_queue_resource(resource, host, us)
                    if by is None:
                        top.add_queue_by("(unknown)", None, resource,
                                         host, us)
                    else:
                        top.add_queue_by(by[0], by[1], resource, host, us)
                return
        key = (host, kind)
        bucket = self.unattributed
        bucket[key] = bucket.get(key, 0.0) + us

    def charge_blocked(self, cause: str, kind: str, us: float,
                       host: Optional[str] = None,
                       resource: Optional[str] = None,
                       by: Optional[Tuple[str, Optional[str]]] = None
                       ) -> None:
        """Attribute ``us`` of blocked-on time to the innermost open span.

        Blocked-on edges decompose time a span spent waiting for *another
        process* (a Raft commit, typically) into the costs that gated it.
        They refine the span's idle residual rather than adding cost, so
        they are stored in ``Span.blocked`` — invisible to the profiler's
        conservation sums — and consumed only by
        :mod:`repro.sim.critpath`.  With no span open the charge is
        dropped: there is no waiting span to explain.

        ``resource`` / ``by`` additionally tag a queue-kind blocked edge
        with its occupant (the Raft batch-window wait passes
        ``resource="raft"`` and the label of the batch that was flushing),
        mirroring :meth:`charge`'s queue_by bookkeeping.
        """
        if us <= 0.0:
            return
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        if stack:
            top = stack[-1]
            if top is not NULL_SPAN:
                top.add_blocked(cause, kind, host, us)
                if resource is not None:
                    if by is None:
                        top.add_queue_by("(unknown)", None, resource,
                                         host, us)
                    else:
                        top.add_queue_by(by[0], by[1], resource, host, us)

    def current_op_label(self) -> Optional[Tuple[str, Optional[str]]]:
        """The ``(op, tenant)`` identity of the currently executing
        process, for occupant tagging.

        RPC handlers run inline in the calling client's process, so the
        *first* span on the active process's stack is the operation root
        for client-driven work (``category == "op"``, carrying the
        system's tenant annotation).  Spawned 2PC fan-out legs root at
        their wrapper span instead, which carries the owning op's
        identity as an ``op_label`` annotation (see
        ``TafDBClient._fanout_leg``).  Other non-client processes (the
        Raft event loop, background maintenance) report their root
        span's name with no tenant.  Returns ``None`` with no open span
        or under an elided (sampled-out) root — callers then tag
        ``"(unknown)"``.
        """
        proc = self._sim._active_process if self._sim is not None else None
        stack = self._stacks.get(proc)
        if not stack:
            return None
        root = stack[0]
        if root is NULL_SPAN:
            return None
        attrs = root.attrs
        if root.category == CAT_OP:
            return (root.name, attrs.get("tenant") if attrs else None)
        if attrs:
            label = attrs.get("op_label")
            if label is not None:
                return (label[0], label[1])
        return (root.name, None)

    def retained_spans(self) -> List[Span]:
        """Every span still held: the ring plus kept tail trees, deduped
        and ordered by span id (creation order, deterministic)."""
        if self.keeper is None:
            return list(self._ring)
        seen = set()
        out: List[Span] = []
        for span in self._ring:
            seen.add(span.span_id)
            out.append(span)
        for span in self.keeper.spans():
            if span.span_id not in seen:
                seen.add(span.span_id)
                out.append(span)
        out.sort(key=lambda s: s.span_id)
        return out

    def reset(self) -> None:
        """Drop every collected span (counters restart too)."""
        self._ring.clear()
        self._next_id = 0
        self._roots_seen = 0
        self.started = 0
        self.finished = 0
        self._stacks.clear()
        self.unattributed.clear()
        self._root_of.clear()
        self._live_trees.clear()
        if self.keeper is not None:
            self.keeper.reset()


def trace_stats(tracer) -> Dict[str, int]:
    """Sample/keep/drop accounting for one tracer, embedded in every trace
    export so consumers can tell how complete the span population is."""
    keeper = getattr(tracer, "keeper", None)
    return {
        "started": getattr(tracer, "started", 0),
        "finished": getattr(tracer, "finished", 0),
        "dropped": tracer.dropped,
        "sample_every": getattr(tracer, "sample_every", 1),
        "kept_roots": keeper.kept_roots if keeper is not None else 0,
        "kept_errors": keeper.kept_errors if keeper is not None else 0,
        "kept_spans": keeper.kept_spans if keeper is not None else 0,
        "kept_evicted_roots":
            keeper.evicted_roots if keeper is not None else 0,
    }


# ---------------------------------------------------------------------------
# Span <-> JSON (live snapshot collection crosses process boundaries).
# ---------------------------------------------------------------------------

def span_to_jsonable(span: Span) -> Dict[str, Any]:
    """Flatten one finished span into JSON-safe structures.

    Tuple-keyed cost maps become lists of ``[key..., us]`` rows; ``None``
    hosts stay ``None``.  The inverse is :func:`span_from_jsonable`.
    """
    out: Dict[str, Any] = {
        "id": span.span_id,
        "parent": span.parent_id,
        "dyn_parent": span.dyn_parent_id,
        "name": span.name,
        "cat": span.category,
        "host": span.host,
        "start_us": span.start_us,
        "end_us": span.end_us,
        "ok": span.ok,
    }
    if span.attrs:
        out["attrs"] = dict(span.attrs)
    if span.costs:
        out["costs"] = [[kind, host, us]
                        for (kind, host), us in span.costs.items()]
    if span.queue_res:
        out["queue_res"] = [[res, host, us]
                            for (res, host), us in span.queue_res.items()]
    if span.blocked:
        out["blocked"] = [[cause, kind, host, us]
                          for (cause, kind, host), us in span.blocked.items()]
    if span.queue_by:
        out["queue_by"] = [
            [op, tenant, res, host, us]
            for (op, tenant, res, host), us in span.queue_by.items()]
    return out


def span_from_jsonable(data: Dict[str, Any]) -> Span:
    """Rebuild a :class:`Span` from :func:`span_to_jsonable` output."""
    span = Span(data["id"], data.get("parent", 0), data["name"],
                data.get("cat", ""), data.get("host"), data["start_us"])
    span.end_us = data.get("end_us")
    span.ok = bool(data.get("ok", True))
    span.dyn_parent_id = data.get("dyn_parent", 0)
    attrs = data.get("attrs")
    if attrs:
        span.attrs = dict(attrs)
    for kind, host, us in data.get("costs", ()):
        span.add_cost(kind, host, us)
    for res, host, us in data.get("queue_res", ()):
        span.add_queue_resource(res, host, us)
    for cause, kind, host, us in data.get("blocked", ()):
        span.add_blocked(cause, kind, host, us)
    for op, tenant, res, host, us in data.get("queue_by", ()):
        span.add_queue_by(op, tenant, res, host, us)
    return span


# ---------------------------------------------------------------------------
# Aggregation: spans -> the paper's per-phase / per-RPC tables.
# ---------------------------------------------------------------------------

class OpAggregate:
    """Per-operation rollup of root spans and their direct children.

    Mirrors :class:`~repro.sim.stats.MetricSet` semantics exactly: failed
    operations contribute to ``failures`` only, phase means average over the
    roots that recorded that phase, and ``rpcs`` counts one per ``rpc``-
    category child — which is also how ``OpContext.rpcs`` counts.
    """

    __slots__ = ("op", "count", "failures", "total_latency_us",
                 "rpcs_total", "phases")

    def __init__(self, op: str):
        self.op = op
        self.count = 0
        self.failures = 0
        self.total_latency_us = 0.0
        self.rpcs_total = 0
        #: phase -> (roots that recorded it, summed duration).
        self.phases: Dict[str, Tuple[int, float]] = {}

    @property
    def mean_latency_us(self) -> float:
        return self.total_latency_us / self.count if self.count else 0.0

    @property
    def mean_rpcs(self) -> float:
        return self.rpcs_total / self.count if self.count else 0.0

    def mean_phase_us(self, phase: str) -> float:
        entry = self.phases.get(phase)
        if not entry or not entry[0]:
            return 0.0
        return entry[1] / entry[0]


def aggregate_ops(spans: Iterable[Span]) -> Dict[str, OpAggregate]:
    """Fold a span stream into per-operation aggregates.

    Only ``op``-category roots and their *direct* children matter here;
    deeper descendants (handlers under RPCs, 2PC phases under transactions)
    are drill-down detail for the exported trace.
    """
    roots: Dict[int, Span] = {}
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.category == CAT_OP:
            roots[span.span_id] = span
        elif span.parent_id:
            children.setdefault(span.parent_id, []).append(span)
    out: Dict[str, OpAggregate] = {}
    for span_id, root in roots.items():
        agg = out.get(root.name)
        if agg is None:
            agg = out[root.name] = OpAggregate(root.name)
        if not root.ok:
            agg.failures += 1
            continue
        agg.count += 1
        agg.total_latency_us += root.duration_us
        per_phase: Dict[str, float] = {}
        for child in children.get(span_id, ()):
            if child.category == CAT_PHASE:
                per_phase[child.name] = (
                    per_phase.get(child.name, 0.0) + child.duration_us)
            elif child.category == CAT_RPC:
                agg.rpcs_total += 1
        for phase, total in per_phase.items():
            seen, acc = agg.phases.get(phase, (0, 0.0))
            agg.phases[phase] = (seen + 1, acc + total)
    return out


def children_index(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    """parent span_id -> list of direct children (test/debug helper)."""
    index: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent_id:
            index.setdefault(span.parent_id, []).append(span)
    return index


def category_summary(spans: Iterable[Span]) -> Dict[str, Tuple[int, float]]:
    """category -> (span count, summed duration); the coarse cost map."""
    out: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        count, total = out.get(span.category, (0, 0.0))
        out[span.category] = (count + 1, total + span.duration_us)
    return out


# ---------------------------------------------------------------------------
# Chrome-trace (Perfetto) export.
# ---------------------------------------------------------------------------

def chrome_trace_events(spans: Iterable[Span], pid: int = 1,
                        process_name: Optional[str] = None,
                        ts_offset_us: float = 0.0) -> List[dict]:
    """Render spans as Chrome-trace complete events for one process track.

    Each distinct host becomes a thread (tid) inside the process; spans with
    no host attribution share a synthetic "orchestration" thread.  ``ts`` is
    simulated microseconds, which is exactly the unit the format wants.
    ``ts_offset_us`` shifts every timestamp — the live trace merge uses it
    to put per-process wallclocks (each with its own epoch) on one axis.
    """
    events: List[dict] = []
    if process_name:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": process_name}})
    tids: Dict[str, int] = {}

    def tid_of(host: Optional[str]) -> int:
        label = host or "orchestration"
        tid = tids.get(label)
        if tid is None:
            tid = tids[label] = len(tids) + 1
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": label}})
        return tid

    for span in spans:
        if span.end_us is None:
            continue
        event = {
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "ts": span.start_us + ts_offset_us,
            "dur": span.duration_us,
            "pid": pid,
            "tid": tid_of(span.host),
            "args": {"span_id": span.span_id,
                     "parent_id": span.parent_id,
                     "ok": span.ok},
        }
        if span.attrs:
            event["args"].update(span.attrs)
        events.append(event)
    return events


def export_chrome_trace(sections: Sequence[Tuple[str, Iterable[Span]]],
                        stats: Optional[Dict[str, Dict[str, int]]] = None,
                        ) -> dict:
    """Build one Chrome-trace payload; each section is its own pid track.

    ``stats`` (per-section :func:`trace_stats` dicts) rides along as a
    ``traceStats`` top-level key — Perfetto ignores unknown keys, and the
    sample/keep/drop accounting must survive into every export so nobody
    mistakes a ring-truncated trace for a complete one.
    """
    events: List[dict] = []
    for pid, (name, spans) in enumerate(sections, start=1):
        events.extend(chrome_trace_events(spans, pid=pid, process_name=name))
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    if stats is not None:
        payload["traceStats"] = {name: dict(stats[name])
                                 for name in sorted(stats)}
    return payload


def write_chrome_trace(path: str,
                       sections: Sequence[Tuple[str, Iterable[Span]]],
                       stats: Optional[Dict[str, Dict[str, int]]] = None,
                       ) -> dict:
    """Export ``sections`` to ``path`` as Chrome-trace JSON; returns payload."""
    payload = export_chrome_trace(sections, stats=stats)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return payload


def validate_chrome_trace(payload: dict) -> List[str]:
    """Schema-check a Chrome-trace payload; returns a list of problems.

    Covers what ``chrome://tracing`` / Perfetto actually require: a
    ``traceEvents`` array of objects with ``name``/``ph``/``pid``/``tid``,
    numeric non-negative ``ts``+``dur`` on complete ("X") events, and
    ``args`` objects where present.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append(f"{where}: missing name")
        ph = event.get("ph")
        if ph not in ("X", "M", "B", "E", "i"):
            problems.append(f"{where}: unsupported ph {ph!r}")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: {field} must be an int")
        if ph == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(f"{where}: bad {field} {value!r}")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: args must be an object")
    return problems
