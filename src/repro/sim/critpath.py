"""Critical-path analysis and the what-if ("virtual speedup") predictor.

The cost profiler (:mod:`repro.sim.profile`) answers *where every simulated
microsecond went*; this module answers the sharper question *which
microseconds actually gated end-to-end latency* — and, on top of that,
*what a hypothesised fix would buy*.

Extraction
----------
Every completed operation runs as one client process, and RPC handlers
execute inline in the calling process, so an op's dynamic span tree
(``Span.dyn_parent_id``) is a **serial decomposition** of its wall clock:
sibling intervals are disjoint and self-times telescope to the root's
duration exactly.  Parallel sub-work (the 2PC fan-out) enters the tree
through explicit ``join_to`` edges — spans annotated with the fan-out
wait span they join back into; within a group of time-overlapping
siblings only the **gating leg** (the one the join actually waited on,
i.e. the last to finish) stays on the path, and the overlapped legs'
cost surfaces as off-path slack in the contrast.  :func:`build_critpath`
walks each successful ``op`` root and splits every span's self-time into
gating segments:

* the cpu / fsync / wire charges the sim layer attributed to the span,
* ``queue`` charges refined by the resource waited on
  (``queue:cpu`` / ``queue:disk`` / ``queue:latch``, from
  ``Span.queue_res``),
* **blocked-on edges** (``Span.blocked``) — time the span spent waiting on
  *another process*, decomposed into its causes.  The cross-process waits
  in the stack are the Raft commit — the IndexNode service stamps the
  commit timeline so the wait splits into ``raft.queue`` (batch window),
  ``raft.flush`` (leader log fsync), ``raft.follower_flush`` /
  ``raft.follower_apply`` (the gating follower's fsync and apply,
  piggybacked on its AppendReply and charged to the follower's host) and
  ``raft.replicate`` (the remaining replication round trips — genuinely
  network-shaped) — and the follower read barrier
  (``raft.read_barrier``, the commitIndex round trip replica reads wait
  on, charged as wire),
* an ``idle`` residual for self-time no charge or blocked edge explains.

Summed over an op's tree the segments equal the op's duration (up to float
addition dust), so the aggregated **gating profile** — microseconds gated
per (host, frame, kind) center — covers 100% of end-to-end latency and a
center's ``share`` reads directly as "fraction of client latency gated
here".

Slack
-----
Because each op is a serial chain, every on-path microsecond has zero
slack: shrinking it moves the op's finish time one-for-one (first order —
queueing effects are where the what-if *rerun* earns its keep).  The
interesting slack lives at the center level: :func:`contrast_with_profile`
aligns the gating profile against the total-cost profile, and the
difference — cost attributed somewhere, but never on any op's path — is
**off-path work** (Raft heartbeats, follower fsyncs absorbed in the
replicate edge, compaction, maintenance).  Speeding up an off-path center
predicts ≈0 client-visible gain, which the what-if engine makes testable.

What-if
-------
:func:`predict_speedup` maps each gating center to the
:data:`~repro.sim.host.COMPONENT_FIELDS` component that scales it and
computes the first-order gain ``gated_us * (1 - 1/factor)`` of a
:class:`~repro.sim.host.CostOverrides` set.  Uniquely, because the cluster
is a deterministic DES, the prediction is *checkable*: rerun the sim with
the overrides actually applied (``MantleConfig.overrides``) and compare.
``mantle-exp whatif`` automates exactly that loop.

Known first-order limits (documented, and why validation picks the probes
it does): with the follower piggyback split, ``raft.replicate`` is the
wire-only remainder and maps to ``net.rtt`` (the stamps come from the
*gating* follower, so residual skew from the non-gating replicas still
lands in replicate); queue segments scale with their underlying resource
only approximately (we assume wait shrinks proportionally with service
time).
Most importantly the model is **open-loop**: past the saturation knee,
shrinking one center raises throughput, which refills the other queues
and claws back much of the predicted gain — a closed-loop effect no
slack model sees.  Validation therefore probes at figure *knee* points
(latency just lifting off the plateau), where the measured reruns show
first-order predictions hold to ~10%; at deep saturation the same probes
over-predict ~2x, which the whatif rerun makes visible rather than
hiding.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim.host import COMPONENT_FIELDS, CostOverrides
from repro.sim.trace import CAT_OP, Span

#: Occupant tag used when a queue segment carries no ``queue_by`` entry
#: (unlabelled holder, sampled-out root, float-dust residuals).
UNKNOWN_CULPRIT = ("(unknown)", None)

#: Gating-segment kinds, in display order.  ``queue:*`` refines ``queue``
#: by the resource waited on; blocked-on edges reuse cpu/fsync/wire/queue.
SEGMENT_KINDS = ("cpu", "fsync", "wire", "queue:cpu", "queue:disk",
                 "queue:latch", "queue", "idle")

#: A gating center: (host, frame, kind) -> microseconds on some op's path.
Center = Tuple[Optional[str], str, str]


def collapse_kind(kind: str) -> str:
    """Fold ``queue:<resource>`` back to ``queue`` (profile alignment)."""
    return "queue" if kind.startswith("queue:") else kind


class CritPath:
    """The aggregated critical-path (gating) profile of one traced run.

    Attributes
    ----------
    gated:
        (host, frame, kind) -> microseconds gating end-to-end latency.
        Frames are span names, except blocked-on segments where the frame
        is the *cause* (``raft.flush``, ``raft.replicate``, ...).
    ops / op_failures:
        successful roots folded in / failed roots skipped (failed ops
        don't contribute latency, mirroring ``MetricSet``).
    total_us:
        summed duration of the folded roots == sum of ``gated`` values
        (up to float dust); the share denominator.
    root_paths:
        (root span, extracted path microseconds) per folded op — the
        per-op conservation invariant ``path_us == root.duration_us``.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.ops = 0
        self.op_failures = 0
        self.total_us = 0.0
        self.gated: Dict[Center, float] = {}
        self.ops_by_name: Dict[str, int] = {}
        self.root_paths: List[Tuple[Span, float]] = []
        self._by_id: Dict[int, Span] = {}
        self._children: Dict[int, List[Span]] = {}
        self._self_us: Dict[int, float] = {}

    # -- derived views -----------------------------------------------------

    @property
    def mean_latency_us(self) -> float:
        return self.total_us / self.ops if self.ops else 0.0

    def shares(self) -> Dict[Center, float]:
        """center -> fraction of end-to-end latency it gates."""
        total = self.total_us
        if total <= 0.0:
            return {key: 0.0 for key in self.gated}
        return {key: us / total for key, us in self.gated.items()}

    def top_gating(self, n: int = 15) -> List[Tuple[Center, float]]:
        """The ``n`` centers gating the most latency, largest first."""
        ranked = sorted(self.gated.items(),
                        key=lambda kv: (-kv[1], _center_sort_key(kv[0])))
        return ranked[:n]

    def gated_by_kind(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (_host, _frame, kind), us in self.gated.items():
            out[kind] = out.get(kind, 0.0) + us
        return out

    def host_kind_totals(self) -> Dict[Tuple[Optional[str], str], float]:
        """(host, collapsed kind) -> gated us; the contrast alignment."""
        out: Dict[Tuple[Optional[str], str], float] = {}
        for (host, _frame, kind), us in self.gated.items():
            key = (host, collapse_kind(kind))
            out[key] = out.get(key, 0.0) + us
        return out

    def conservation_error(self) -> float:
        """Relative |sum(gated) - sum(root durations)|; float dust only."""
        gated = sum(self.gated.values())
        return abs(gated - self.total_us) / max(self.total_us, 1e-9)

    # -- exemplar rendering -------------------------------------------------

    def exemplar_root(self) -> Optional[Span]:
        """The folded op whose duration is closest to the mean latency —
        a "typical" operation, deterministically chosen."""
        if not self.root_paths:
            return None
        mean = self.mean_latency_us
        return min(self.root_paths,
                   key=lambda rp: (abs(rp[0].duration_us - mean),
                                   rp[0].span_id))[0]

    def render_exemplar(self, root: Optional[Span] = None) -> List[str]:
        """Render one op's path as an indented tree with per-span gating
        segments (the drill-down behind the aggregated centers)."""
        root = root or self.exemplar_root()
        if root is None:
            return ["(no completed ops traced)"]
        lines = [f"{root.name}  {root.duration_us:.1f}us end-to-end"]

        def describe(span: Span) -> str:
            parts = []
            for host, _frame, kind, us in _segments_of(
                    span, self._self_us.get(span.span_id, 0.0)):
                if us > 0.005:
                    where = f"@{host}" if host else ""
                    parts.append(f"{kind}{where} {us:.1f}")
            return ", ".join(parts) if parts else "-"

        def walk(span: Span, depth: int) -> None:
            pad = "  " * depth
            if depth:
                lines.append(f"{pad}{span.name}  {span.duration_us:.1f}us"
                             f"  [{describe(span)}]")
            else:
                lines.append(f"{pad}gates: {describe(span)}")
            for child in sorted(self._children.get(span.span_id, ()),
                                key=lambda s: (s.start_us, s.span_id)):
                walk(child, depth + 1)

        walk(root, 0)
        return lines


def _center_sort_key(center: Center) -> Tuple[str, str, str]:
    host, frame, kind = center
    return (host or "", frame, kind)


def _segments_of(span: Span, self_us: float) -> List[
        Tuple[Optional[str], str, str, float]]:
    """Decompose one span's self-time into (host, frame, kind, us) gating
    segments.  By construction the segments sum to ``self_us`` up to float
    dust: charges are taken verbatim, queue charges are refined by their
    resource tags, blocked-on edges refine (and are capped by) the idle
    residual, and whatever remains is ``idle``.
    """
    frame = span.name
    out: List[Tuple[Optional[str], str, str, float]] = []
    charged = 0.0
    if span.costs:
        queue_res = dict(span.queue_res) if span.queue_res else {}
        for (kind, host), us in span.costs.items():
            charged += us
            if kind != "queue":
                out.append((host, frame, kind, us))
                continue
            remaining = us
            for (resource, rhost), rus in list(queue_res.items()):
                if rhost != host or rus <= 0.0 or remaining <= 0.0:
                    continue
                take = min(rus, remaining)
                out.append((host, frame, f"queue:{resource}", take))
                remaining -= take
                del queue_res[(resource, rhost)]
            if remaining > 0.0:
                out.append((host, frame, "queue", remaining))
    avail = self_us - charged
    if avail < 0.0:
        avail = 0.0
    if span.blocked:
        blocked_total = sum(span.blocked.values())
        scale = 1.0
        if blocked_total > avail:
            scale = avail / blocked_total if blocked_total > 0.0 else 0.0
        used = 0.0
        for (cause, kind, host), us in span.blocked.items():
            us *= scale
            if us > 0.0:
                out.append((host, cause, kind, us))
                used += us
        avail -= used
    if avail > 0.0:
        out.append((span.host, frame, "idle", avail))
    return out


def _fold_children(kids: List[Span]) -> List[Span]:
    """Select the children on the gating path.

    Serial siblings (disjoint intervals — the normal stack-discipline
    case) all stay.  Siblings whose intervals overlap are a fan-out
    group: the join waited on whichever leg finished *last*, so only
    that leg gates; the others ran in its shadow.  Back-to-back spans
    (end == next start, exact in the DES) are serial, not overlapping.
    """
    kids = sorted(kids, key=lambda s: (s.start_us, s.end_us, s.span_id))
    folded: List[Span] = []
    group = [kids[0]]
    group_end = kids[0].end_us
    for kid in kids[1:]:
        if kid.start_us < group_end:
            group.append(kid)
            group_end = max(group_end, kid.end_us)
        else:
            folded.append(max(group,
                              key=lambda s: (s.end_us, s.span_id)))
            group = [kid]
            group_end = kid.end_us
    folded.append(max(group, key=lambda s: (s.end_us, s.span_id)))
    return folded


def build_critpath(spans: Iterable[Span], name: str = "",
                   root_category: str = CAT_OP,
                   root_name: Optional[str] = None,
                   require_ok: bool = True,
                   root_where: Optional[Callable[[Span], bool]] = None
                   ) -> CritPath:
    """Extract and aggregate the critical path of every traced op.

    Only *successful*, *dynamically rooted* ``op``-category spans are
    folded (an op whose root fell out of the ring cannot be decomposed;
    failed ops contribute no latency).  Per root, the extracted segments
    sum to the root's duration exactly — the telescoping identity the
    profiler relies on, inherited here segment-by-segment, with fan-out
    groups contributing exactly their gating leg.

    ``root_category`` / ``root_name`` / ``require_ok`` repoint the fold at
    non-op roots — e.g. ``root_category="raft", root_name="raft.election"``
    decomposes a traced failover's unavailability window instead of client
    ops (lost candidacies are still skipped unless ``require_ok=False``).
    ``root_where`` filters root spans further — the triage path uses it to
    fold only the tail exemplars of one phase (the predicate sees the root
    span; roots it rejects are skipped without counting as failures).
    """
    crit = CritPath(name)
    finished = [s for s in spans if s.end_us is not None]
    by_id = {s.span_id: s for s in finished}
    raw_children: Dict[int, List[Span]] = {}
    for span in finished:
        pid = span.dyn_parent_id
        if (not pid or pid not in by_id) and span.attrs is not None:
            # A fan-out leg: a dynamic root that joins back into the
            # span that awaited it (see TafDBClient._fanout_leg).
            pid = span.attrs.get("join_to", 0)
        if pid and pid in by_id:
            raw_children.setdefault(pid, []).append(span)
    children = {pid: _fold_children(kids)
                for pid, kids in raw_children.items()}
    child_us: Dict[int, float] = {
        pid: sum(kid.duration_us for kid in kids)
        for pid, kids in children.items()}
    crit._by_id = by_id
    crit._children = children
    self_us = crit._self_us
    for span in finished:
        value = span.duration_us - child_us.get(span.span_id, 0.0)
        self_us[span.span_id] = value if value > 0.0 else 0.0

    gated = crit.gated
    for span in finished:
        if span.category != root_category:
            continue
        if root_name is not None and span.name != root_name:
            continue
        if span.dyn_parent_id and span.dyn_parent_id in by_id:
            continue  # op nested under another op's tree: not a root
        if root_where is not None and not root_where(span):
            continue
        if require_ok and not span.ok:
            crit.op_failures += 1
            continue
        crit.ops += 1
        crit.ops_by_name[span.name] = crit.ops_by_name.get(span.name, 0) + 1
        crit.total_us += span.duration_us
        path_us = 0.0
        stack = [span]
        while stack:
            node = stack.pop()
            for host, frame, kind, us in _segments_of(
                    node, self_us[node.span_id]):
                key = (host, frame, kind)
                gated[key] = gated.get(key, 0.0) + us
                path_us += us
            stack.extend(children.get(node.span_id, ()))
        crit.root_paths.append((span, path_us))
    return crit


def critpath_from_tracer(tracer, name: str = "") -> CritPath:
    """Fold one tracer's finished spans into a gating profile."""
    return build_critpath(tracer.spans, name=name)


# ---------------------------------------------------------------------------
# Blame: who delayed whom, per queue-kind gating segment.
# ---------------------------------------------------------------------------

def _queue_resource(frame: str, kind: str) -> Optional[str]:
    """The occupant-tagged resource behind a queue-kind gating segment,
    or ``None`` for non-queue segments.  ``queue:<res>`` names it
    directly; the Raft batch-window blocked edge queues on the leader's
    log (tagged ``"raft"``); an untagged ``queue`` residual matches no
    occupant map and falls to the unknown culprit."""
    if kind.startswith("queue:"):
        return kind.partition(":")[2]
    if kind == "queue":
        return "raft" if frame == "raft.queue" else "other"
    return None


#: One blame cell key: (victim op, victim tenant, culprit op,
#: culprit tenant, resource, host).
BlameKey = Tuple[str, Optional[str], str, Optional[str], str,
                 Optional[str]]


class BlameMatrix:
    """Who-delayed-whom: queue microseconds on victims' critical paths,
    attributed to the occupant that held (or preceded them at) the
    contended resource.

    Every queue-kind gating segment of every folded op is distributed
    over the span's ``queue_by`` occupant tags for that (resource, host)
    — proportionally, so the matrix total equals the queue-segment total
    *exactly* (float dust aside); segments with no tags land under
    :data:`UNKNOWN_CULPRIT`.  ``total_us`` is the all-segments denominator
    (the folded ops' end-to-end latency), so ``queue_share`` reads as
    "fraction of client latency spent queueing behind someone".
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.ops = 0
        self.total_us = 0.0
        self.total_queue_us = 0.0
        self.cells: Dict[BlameKey, float] = {}

    @property
    def blamed_us(self) -> float:
        return sum(self.cells.values())

    @property
    def queue_share(self) -> float:
        """Fraction of end-to-end latency that was queueing."""
        if self.total_us <= 0.0:
            return 0.0
        return self.total_queue_us / self.total_us

    def conservation_error(self) -> float:
        """Relative |sum(cells) - sum(queue segments)|; float dust only."""
        return (abs(self.blamed_us - self.total_queue_us)
                / max(self.total_queue_us, 1e-9))

    def top_culprits(self, n: int = 15) -> List[
            Tuple[Tuple[str, Optional[str], str], float]]:
        """(culprit op, culprit tenant, resource) -> us, largest first."""
        agg: Dict[Tuple[str, Optional[str], str], float] = {}
        for (_vo, _vt, c_op, c_ten, res, _host), us in self.cells.items():
            key = (c_op, c_ten, res)
            agg[key] = agg.get(key, 0.0) + us
        ranked = sorted(agg.items(),
                        key=lambda kv: (-kv[1], kv[0][0], kv[0][1] or "",
                                        kv[0][2]))
        return ranked[:n]

    def victim_totals(self) -> Dict[Tuple[str, Optional[str]], float]:
        """(victim op, victim tenant) -> blamed us."""
        out: Dict[Tuple[str, Optional[str]], float] = {}
        for (v_op, v_ten, _co, _ct, _res, _host), us in self.cells.items():
            key = (v_op, v_ten)
            out[key] = out.get(key, 0.0) + us
        return out

    def tenant_matrix(self) -> Dict[Tuple[Optional[str], Optional[str]],
                                    float]:
        """(victim tenant, culprit tenant) -> us: the interference-share
        rollup multitenant runs read (None = untenanted work)."""
        out: Dict[Tuple[Optional[str], Optional[str]], float] = {}
        for (_vo, v_ten, _co, c_ten, _res, _host), us in self.cells.items():
            key = (v_ten, c_ten)
            out[key] = out.get(key, 0.0) + us
        return out

    def interference_us(self) -> float:
        """Queue time blamed on a *different* op type or tenant than the
        victim's own — cross-traffic interference, as opposed to
        self-contention within one op population."""
        return sum(
            us for (v_op, v_ten, c_op, c_ten, _r, _h), us
            in self.cells.items() if (v_op, v_ten) != (c_op, c_ten))


def build_blame(crit: CritPath, name: str = "") -> BlameMatrix:
    """Fold a :class:`CritPath`'s queue segments into a blame matrix.

    Walks exactly the spans :func:`build_critpath` folded (same children
    selection, same self-times, same segment decomposition), so the
    matrix conserves against the profile's ``queue*`` centers by
    construction — the invariant ``mantle-exp blame`` gates on.
    """
    blame = BlameMatrix(name or crit.name)
    blame.ops = crit.ops
    blame.total_us = crit.total_us
    cells = blame.cells
    self_us = crit._self_us
    children = crit._children
    for root, _path_us in crit.root_paths:
        attrs = root.attrs
        victim = (root.name, attrs.get("tenant") if attrs else None)
        stack = [root]
        while stack:
            node = stack.pop()
            for host, frame, kind, us in _segments_of(
                    node, self_us[node.span_id]):
                resource = _queue_resource(frame, kind)
                if resource is None or us <= 0.0:
                    continue
                blame.total_queue_us += us
                tags = node.queue_by
                shares = []
                if tags:
                    shares = [((op, tenant), t_us)
                              for (op, tenant, res, t_host), t_us
                              in tags.items()
                              if res == resource and t_host == host
                              and t_us > 0.0]
                total = sum(t_us for _c, t_us in shares)
                if total <= 0.0:
                    key = victim + UNKNOWN_CULPRIT + (resource, host)
                    cells[key] = cells.get(key, 0.0) + us
                    continue
                for culprit, t_us in shares:
                    key = victim + culprit + (resource, host)
                    cells[key] = cells.get(key, 0.0) + us * (t_us / total)
            stack.extend(children.get(node.span_id, ()))
    return blame


def render_blame_exemplar(crit: CritPath,
                          root: Optional[Span] = None) -> List[str]:
    """One victim op's path with each queue segment naming its culprits —
    the drill-down behind the aggregated matrix."""
    root = root or crit.exemplar_root()
    if root is None:
        return ["(no completed ops traced)"]
    attrs = root.attrs
    tenant = attrs.get("tenant") if attrs else None
    who = f"{root.name}" + (f" [tenant {tenant}]" if tenant else "")
    lines = [f"{who}  {root.duration_us:.1f}us end-to-end"]

    def culprits_of(span: Span, resource: str,
                    host: Optional[str]) -> str:
        tags = span.queue_by
        if not tags:
            return "(unknown)"
        shares = [((op, ten), us) for (op, ten, res, t_host), us
                  in tags.items()
                  if res == resource and t_host == host and us > 0.0]
        total = sum(us for _c, us in shares)
        if total <= 0.0:
            return "(unknown)"
        shares.sort(key=lambda cu: (-cu[1], cu[0][0], cu[0][1] or ""))
        parts = []
        for (op, ten), us in shares[:3]:
            label = op + (f"/{ten}" if ten else "")
            parts.append(f"{label} {us / total:.0%}")
        return ", ".join(parts)

    def walk(span: Span, depth: int) -> None:
        segs = []
        for host, frame, kind, us in _segments_of(
                span, crit._self_us.get(span.span_id, 0.0)):
            resource = _queue_resource(frame, kind)
            if resource is None or us <= 0.005:
                continue
            where = f"@{host}" if host else ""
            segs.append(f"{kind}{where} {us:.1f}us <- "
                        f"{culprits_of(span, resource, host)}")
        if depth and (segs or crit._children.get(span.span_id)):
            pad = "  " * depth
            detail = "; ".join(segs) if segs else "-"
            lines.append(f"{pad}{span.name}  [{detail}]")
        elif not depth and segs:
            lines.append(f"  queued: {'; '.join(segs)}")
        for child in sorted(crit._children.get(span.span_id, ()),
                            key=lambda s: (s.start_us, s.span_id)):
            walk(child, depth + 1)

    walk(root, 0)
    return lines


# ---------------------------------------------------------------------------
# Contrast: gating profile vs total-cost profile -> off-path slack.
# ---------------------------------------------------------------------------

class ContrastRow:
    """One (host, kind) alignment of gated vs total attributed cost."""

    __slots__ = ("host", "kind", "gated_us", "total_us")

    def __init__(self, host: Optional[str], kind: str,
                 gated_us: float, total_us: float):
        self.host = host
        self.kind = kind
        self.gated_us = gated_us
        self.total_us = total_us

    @property
    def offpath_us(self) -> float:
        """Attributed cost never on any op's path: the center's slack —
        work you can speed up without moving client latency."""
        return max(0.0, self.total_us - self.gated_us)

    @property
    def gated_frac(self) -> float:
        """Fraction of this center's cost that gates latency."""
        if self.total_us <= 0.0:
            return 0.0
        return min(1.0, self.gated_us / self.total_us)


def contrast_with_profile(crit: CritPath, profile) -> List[ContrastRow]:
    """Align the gating profile with a :class:`~repro.sim.profile.CostProfile`
    at (host, kind) granularity, largest off-path slack first.

    ``idle`` is excluded on both sides (it is a residual, not a cost) and
    blocked-on segments are excluded from the gated side: their cost is
    *attributed* on the worker process's own spans (raft.flush fsync,
    raft.msg wire...), so including the waiter's view too would double
    count.  What remains compares like-for-like: cost charged at sim
    sites, split by whether any op's path ran through it.
    """
    total: Dict[Tuple[Optional[str], str], float] = {}
    for (host, _frame, kind), us in profile.centers.items():
        if kind == "idle":
            continue
        key = (host, kind)
        total[key] = total.get(key, 0.0) + us
    blocked_frames = ("raft.queue", "raft.flush", "raft.follower_flush",
                      "raft.follower_apply", "raft.replicate",
                      "raft.commit", "raft.read_barrier")
    gated: Dict[Tuple[Optional[str], str], float] = {}
    for (host, frame, kind), us in crit.gated.items():
        if kind == "idle" or frame in blocked_frames:
            continue
        key = (host, collapse_kind(kind))
        gated[key] = gated.get(key, 0.0) + us
    rows = [ContrastRow(host, kind, gated.get((host, kind), 0.0), us)
            for (host, kind), us in total.items()]
    rows.sort(key=lambda r: (-r.offpath_us, r.host or "", r.kind))
    return rows


# ---------------------------------------------------------------------------
# What-if: first-order prediction of a virtual speedup.
# ---------------------------------------------------------------------------

def component_of(host: Optional[str], frame: str, kind: str,
                 include_queue: bool = True) -> Optional[str]:
    """Map a gating center to the override component that scales it.

    Returns ``None`` for centers no single cost constant controls:
    ``idle``, latch queueing (serialisation, not a cost), the Raft batch
    window (config, not a cost) and the undecomposed ``raft.commit``
    fallback.  ``raft.replicate`` — wire-only now that follower fsync/cpu
    are split out via the AppendReply piggyback — maps to ``net.rtt``.
    Queue segments map to the component of the resource they waited on
    (first-order: waits shrink with service time) unless
    ``include_queue`` is off.
    """
    if kind == "idle":
        return None
    if frame in ("raft.queue", "raft.commit"):
        return None
    if kind == "wire":
        return "net.rtt"
    resource = None
    if kind.startswith("queue"):
        if not include_queue:
            return None
        resource = kind.partition(":")[2]
        if resource in ("", "latch"):
            return None
    host = host or ""
    if kind == "fsync" or resource == "disk":
        if "tafdb" in host:
            return "tafdb.fsync"
        return "raft.fsync"  # IndexNode/dir-server disks hold Raft logs
    # cpu (or queue:cpu) by host class; raft frames override the host.
    if frame.startswith("raft."):
        return "raft.cpu"
    if "tafdb" in host:
        return "tafdb.cpu"
    if "indexnode" in host or "dir" in host or "coordinator" in host:
        return "index.cpu"
    if "proxy" in host:
        return "proxy.cpu"
    return None


class Prediction:
    """First-order what-if estimate for one override set."""

    __slots__ = ("overrides", "baseline_mean_us", "ops", "gain_us_per_op",
                 "matched_us_per_op", "include_queue")

    def __init__(self, overrides: CostOverrides, baseline_mean_us: float,
                 ops: int, gain_us_per_op: float,
                 matched_us_per_op: Dict[str, float], include_queue: bool):
        self.overrides = overrides
        self.baseline_mean_us = baseline_mean_us
        self.ops = ops
        self.gain_us_per_op = gain_us_per_op
        self.matched_us_per_op = matched_us_per_op
        self.include_queue = include_queue

    @property
    def predicted_mean_us(self) -> float:
        return max(0.0, self.baseline_mean_us - self.gain_us_per_op)

    @property
    def predicted_latency_delta_frac(self) -> float:
        """Predicted relative latency reduction (0.31 = 31% faster)."""
        if self.baseline_mean_us <= 0.0:
            return 0.0
        return self.gain_us_per_op / self.baseline_mean_us

    @property
    def predicted_throughput_ratio(self) -> float:
        """Closed-loop throughput multiplier: clients are latency-bound,
        so throughput scales inversely with mean latency."""
        predicted = self.predicted_mean_us
        if predicted <= 0.0:
            return float("inf")
        return self.baseline_mean_us / predicted


def predict_speedup(crit: CritPath, overrides: CostOverrides,
                    include_queue: bool = True) -> Prediction:
    """Predict the latency delta of ``overrides`` from gating slack alone.

    First-order model: a center gated for ``g`` microseconds per run,
    scaled by factor ``f``, returns ``g * (1 - 1/f)`` of latency.  Centers
    that map to no overridden component predict zero — which is the whole
    point for off-path overrides.
    """
    factors = overrides.as_dict()
    for component in factors:
        if component not in COMPONENT_FIELDS:  # pragma: no cover
            raise ValueError(f"unknown component {component!r}")
    ops = max(crit.ops, 1)
    gain = 0.0
    matched: Dict[str, float] = {component: 0.0 for component in factors}
    for (host, frame, kind), us in crit.gated.items():
        component = component_of(host, frame, kind,
                                 include_queue=include_queue)
        if component is None:
            continue
        factor = factors.get(component)
        if factor is None:
            continue
        matched[component] += us / ops
        gain += (us / ops) * (1.0 - 1.0 / factor)
    return Prediction(overrides, crit.mean_latency_us, crit.ops, gain,
                      matched, include_queue)


# ---------------------------------------------------------------------------
# Queueing-aware correction: the closed-loop bottleneck bound.
# ---------------------------------------------------------------------------

class Station:
    """One service station (host x cpu|disk) in the bottleneck-law view."""

    __slots__ = ("host", "resource", "demand_us", "scaled_demand_us",
                 "utilization", "mean_queue")

    def __init__(self, host: str, resource: str, demand_us: float,
                 scaled_demand_us: float, utilization: float,
                 mean_queue: float):
        self.host = host
        self.resource = resource
        #: Measured per-op service demand busy_us / (ops * capacity).
        self.demand_us = demand_us
        #: Demand after subtracting the overridden components' saved work.
        self.scaled_demand_us = scaled_demand_us
        self.utilization = utilization
        self.mean_queue = mean_queue


class CorrectedPrediction:
    """Slack prediction floored by the closed-loop bottleneck law.

    The first-order slack model shrinks every gated microsecond
    independently — open-loop, so past the saturation knee it
    over-predicts (~2x): shrinking one center raises throughput, which
    refills the bottleneck queue.  But a closed system of ``clients``
    concurrent requesters cannot respond faster than the bottleneck
    law allows: with per-op demand ``D_i = busy_us_i / (ops *
    capacity_i)`` at each station, throughput is capped at ``1 /
    max(D_i)`` per client slot, i.e. mean latency is floored at
    ``clients * max(D_i')`` where ``D_i'`` is the demand *after* the
    override removes its share of service time.  The corrected estimate
    is simply ``max(slack prediction, bottleneck floor)``: at knee
    points the floor is slack (the slack model already holds to ~10%),
    deep in saturation the floor binds and removes the ~2x optimism.
    """

    __slots__ = ("slack", "clients", "stations", "bottleneck_mean_us")

    def __init__(self, slack: Prediction, clients: int,
                 stations: List[Station], bottleneck_mean_us: float):
        self.slack = slack
        self.clients = clients
        self.stations = stations
        self.bottleneck_mean_us = bottleneck_mean_us

    @property
    def predicted_mean_us(self) -> float:
        return max(self.slack.predicted_mean_us, self.bottleneck_mean_us)

    @property
    def bound_binding(self) -> bool:
        """True when the bottleneck floor (not slack) sets the estimate —
        i.e. the run is past the knee and the correction is doing work."""
        return self.bottleneck_mean_us > self.slack.predicted_mean_us

    def bottleneck(self) -> Optional[Station]:
        """The station with the largest post-override demand."""
        if not self.stations:
            return None
        return max(self.stations,
                   key=lambda s: (s.scaled_demand_us, s.host, s.resource))


#: Busy-time telemetry behind each station resource.
_STATION_METRICS = (("host.cpu_busy_us", "cpu"),
                    ("host.disk_busy_us", "disk"))


def predict_speedup_corrected(crit: CritPath, overrides: CostOverrides,
                              profile, telemetry, clients: int,
                              include_queue: bool = True,
                              ) -> CorrectedPrediction:
    """Queueing-aware what-if: slack prediction + bottleneck-law floor.

    ``profile`` is the run's total-cost :class:`~repro.sim.profile.CostProfile`
    (same charge sites as the ``host.*_busy_us`` telemetry counters, so the
    component split of busy time is exact); ``telemetry`` supplies measured
    busy microseconds, capacities and queue depths; ``clients`` is the
    closed-loop population that drove the run.
    """
    slack = predict_speedup(crit, overrides, include_queue=include_queue)
    factors = overrides.as_dict()
    ops = max(crit.ops, 1)
    elapsed = max((root.end_us or 0.0 for root, _us in crit.root_paths),
                  default=0.0)

    # Busy time each override removes, per station: profile centers are
    # total attributed cost (on- and off-path), exactly what the busy
    # counters integrate, so subtracting the overridden components' share
    # scales the measured demand without re-deriving it from the model.
    saved: Dict[Tuple[str, str], float] = {}
    for (host, frame, kind), us in profile.centers.items():
        if kind == "cpu":
            resource = "cpu"
        elif kind == "fsync":
            resource = "disk"
        else:
            continue
        component = component_of(host, frame, kind, include_queue=False)
        factor = factors.get(component) if component else None
        if factor is None or host is None:
            continue
        key = (host, resource)
        saved[key] = saved.get(key, 0.0) + us * (1.0 - 1.0 / factor)

    stations: List[Station] = []
    for metric, resource in _STATION_METRICS:
        for host in sorted(telemetry.hosts(metric)):
            counter = telemetry.find(metric, host)
            if counter is None or counter.total <= 0.0:
                continue
            capacity = counter.capacity if counter.capacity > 0 else 1.0
            busy = counter.total
            scaled_busy = max(0.0, busy - saved.get((host, resource), 0.0))
            gauge = telemetry.find("resource.queued." + resource, host)
            stations.append(Station(
                host, resource,
                demand_us=busy / (ops * capacity),
                scaled_demand_us=scaled_busy / (ops * capacity),
                utilization=(busy / (elapsed * capacity)
                             if elapsed > 0 else 0.0),
                mean_queue=gauge.mean_over() if gauge is not None else 0.0))

    d_max = max((s.scaled_demand_us for s in stations), default=0.0)
    return CorrectedPrediction(slack, clients, stations, clients * d_max)


# ---------------------------------------------------------------------------
# JSON export + validator.
# ---------------------------------------------------------------------------

def to_critpath_payload(crit: CritPath,
                        contrast: Optional[List[ContrastRow]] = None) -> dict:
    """Render the gating profile (and optional contrast) as JSON.

    Values are rounded after aggregation and centers are sorted, so — with
    the simulation itself deterministic — the payload is byte-identical
    across repeat runs.
    """
    shares = crit.shares()
    centers = [
        {"host": host, "frame": frame, "kind": kind,
         "gated_us": round(us, 3), "share": round(shares[(host, frame,
                                                          kind)], 6)}
        for (host, frame, kind), us in sorted(
            crit.gated.items(), key=lambda kv: (-kv[1],
                                                _center_sort_key(kv[0])))
    ]
    payload = {
        "name": crit.name,
        "ops": crit.ops,
        "op_failures": crit.op_failures,
        "ops_by_name": dict(sorted(crit.ops_by_name.items())),
        "total_us": round(crit.total_us, 3),
        "mean_latency_us": round(crit.mean_latency_us, 3),
        "centers": centers,
        "exemplar": crit.render_exemplar(),
    }
    if contrast is not None:
        payload["contrast"] = [
            {"host": row.host, "kind": row.kind,
             "gated_us": round(row.gated_us, 3),
             "total_us": round(row.total_us, 3),
             "offpath_us": round(row.offpath_us, 3)}
            for row in contrast
        ]
    return payload


def validate_critpath(payload: Any) -> List[str]:
    """Schema-check a critical-path payload; returns a list of problems.

    Beyond field shapes, checks the load-bearing invariant the export
    must carry: center shares sum to ~1 of end-to-end latency (when any
    ops completed) and no center claims more than the total.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    for field in ("ops", "op_failures"):
        if not isinstance(payload.get(field), int) or payload[field] < 0:
            problems.append(f"{field} must be a non-negative int")
    for field in ("total_us", "mean_latency_us"):
        value = payload.get(field)
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"{field} must be a non-negative number")
    centers = payload.get("centers")
    if not isinstance(centers, list):
        problems.append("missing centers array")
        centers = []
    share_sum = 0.0
    total_us = payload.get("total_us") or 0.0
    for i, center in enumerate(centers):
        where = f"centers[{i}]"
        if not isinstance(center, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(center.get("frame"), str) or not center["frame"]:
            problems.append(f"{where}: missing frame")
        if not isinstance(center.get("kind"), str) or not center["kind"]:
            problems.append(f"{where}: missing kind")
        host = center.get("host")
        if host is not None and not isinstance(host, str):
            problems.append(f"{where}: host must be a string or null")
        gated = center.get("gated_us")
        if not isinstance(gated, (int, float)) or gated < 0:
            problems.append(f"{where}: bad gated_us {gated!r}")
        elif isinstance(total_us, (int, float)) and \
                gated > total_us * (1 + 1e-6) + 1e-3:
            problems.append(f"{where}: gated_us {gated} exceeds total_us")
        share = center.get("share")
        if not isinstance(share, (int, float)) or not 0 <= share <= 1:
            problems.append(f"{where}: bad share {share!r}")
        else:
            share_sum += share
    if centers and isinstance(total_us, (int, float)) and total_us > 0 \
            and abs(share_sum - 1.0) > 1e-3:
        problems.append(f"center shares sum to {share_sum:.6f}, not 1")
    exemplar = payload.get("exemplar")
    if not isinstance(exemplar, list) or \
            not all(isinstance(line, str) for line in exemplar):
        problems.append("exemplar must be a list of strings")
    if "contrast" in payload:
        contrast = payload["contrast"]
        if not isinstance(contrast, list):
            problems.append("contrast must be an array")
        else:
            for i, row in enumerate(contrast):
                if not isinstance(row, dict):
                    problems.append(f"contrast[{i}]: not an object")
                    continue
                for field in ("gated_us", "total_us", "offpath_us"):
                    value = row.get(field)
                    if not isinstance(value, (int, float)) or value < 0:
                        problems.append(
                            f"contrast[{i}]: bad {field} {value!r}")
    return problems


def to_blame_payload(blame: BlameMatrix, crit: CritPath) -> dict:
    """Render a blame matrix as JSON (rounded after aggregation, cells
    sorted), byte-identical across repeat runs like the critpath payload."""
    total_queue = blame.total_queue_us

    def cell_row(key: BlameKey, us: float) -> dict:
        v_op, v_ten, c_op, c_ten, resource, host = key
        return {"victim_op": v_op, "victim_tenant": v_ten,
                "culprit_op": c_op, "culprit_tenant": c_ten,
                "resource": resource, "host": host,
                "us": round(us, 3),
                "share": round(us / total_queue, 6) if total_queue > 0
                else 0.0}

    cells = [cell_row(key, us) for key, us in sorted(
        blame.cells.items(),
        key=lambda kv: (-kv[1], kv[0][0], kv[0][1] or "", kv[0][2],
                        kv[0][3] or "", kv[0][4], kv[0][5] or ""))]
    culprits = [
        {"culprit_op": c_op, "culprit_tenant": c_ten, "resource": resource,
         "us": round(us, 3),
         "share": round(us / total_queue, 6) if total_queue > 0 else 0.0}
        for (c_op, c_ten, resource), us in blame.top_culprits(n=10 ** 9)
    ]
    tenants = [
        {"victim_tenant": v_ten, "culprit_tenant": c_ten,
         "us": round(us, 3)}
        for (v_ten, c_ten), us in sorted(
            blame.tenant_matrix().items(),
            key=lambda kv: (-kv[1], kv[0][0] or "", kv[0][1] or ""))
    ]
    return {
        "name": blame.name,
        "ops": blame.ops,
        "total_us": round(blame.total_us, 3),
        "total_queue_us": round(total_queue, 3),
        "queue_share": round(blame.queue_share, 6),
        "interference_us": round(blame.interference_us(), 3),
        "conservation_error": blame.conservation_error(),
        "cells": cells,
        "top_culprits": culprits,
        "tenant_matrix": tenants,
        "exemplar": render_blame_exemplar(crit),
    }


def validate_blame(payload: Any) -> List[str]:
    """Schema-check a blame payload; returns a list of problems.

    Carries the conservation invariant into the export: cell
    microseconds must sum back to ``total_queue_us`` (to rounding dust —
    each cell is rounded to 1e-3, so the tolerance scales with the cell
    count), and no cell or share may exceed the total.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    if not isinstance(payload.get("ops"), int) or payload["ops"] < 0:
        problems.append("ops must be a non-negative int")
    for field in ("total_us", "total_queue_us", "queue_share",
                  "interference_us", "conservation_error"):
        value = payload.get(field)
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"{field} must be a non-negative number")
    cells = payload.get("cells")
    if not isinstance(cells, list):
        problems.append("missing cells array")
        cells = []
    total_queue = payload.get("total_queue_us") or 0.0
    cell_sum = 0.0
    share_sum = 0.0
    for i, cell in enumerate(cells):
        where = f"cells[{i}]"
        if not isinstance(cell, dict):
            problems.append(f"{where}: not an object")
            continue
        for field in ("victim_op", "culprit_op", "resource"):
            if not isinstance(cell.get(field), str) or not cell[field]:
                problems.append(f"{where}: missing {field}")
        for field in ("victim_tenant", "culprit_tenant", "host"):
            value = cell.get(field)
            if value is not None and not isinstance(value, str):
                problems.append(f"{where}: {field} must be string or null")
        us = cell.get("us")
        if not isinstance(us, (int, float)) or us < 0:
            problems.append(f"{where}: bad us {us!r}")
        else:
            cell_sum += us
            if isinstance(total_queue, (int, float)) and \
                    us > total_queue * (1 + 1e-6) + 1e-3:
                problems.append(f"{where}: us {us} exceeds total_queue_us")
        share = cell.get("share")
        if not isinstance(share, (int, float)) or not 0 <= share <= 1:
            problems.append(f"{where}: bad share {share!r}")
        else:
            share_sum += share
    if isinstance(total_queue, (int, float)) and total_queue > 0:
        dust = 1e-3 * (len(cells) + 1) + total_queue * 1e-6
        if abs(cell_sum - total_queue) > dust:
            problems.append(
                f"cells sum to {cell_sum:.3f}us, not total_queue_us "
                f"{total_queue:.3f} (tolerance {dust:.3f})")
        if cells and abs(share_sum - 1.0) > 1e-3:
            problems.append(f"cell shares sum to {share_sum:.6f}, not 1")
    for field in ("top_culprits", "tenant_matrix"):
        if not isinstance(payload.get(field), list):
            problems.append(f"missing {field} array")
    exemplar = payload.get("exemplar")
    if not isinstance(exemplar, list) or \
            not all(isinstance(line, str) for line in exemplar):
        problems.append("exemplar must be a list of strings")
    return problems
