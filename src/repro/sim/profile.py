"""Cost-center profiling: fold finished span trees into flame graphs.

The tracer (:mod:`repro.sim.trace`) answers *what happened when*; this
module answers *where every simulated microsecond went*.  A
:class:`CostProfile` folds a tracer's finished spans into

* **self-times** on the dynamic span tree — each span's duration minus its
  dynamic children's durations.  The dynamic tree (``Span.dyn_parent_id``,
  per-process nesting recorded by the tracer's span stacks) guarantees
  sibling intervals are disjoint, so self-time is non-negative and the sum
  of self-times over a tree equals the root's duration *exactly* (a
  telescoping identity; ``tests/sim/test_profile.py`` pins it down).
* **cost kinds** — the cpu / fsync / wire / queue charges the sim layer
  attributed to each span while it was innermost, plus a derived
  ``idle`` residual (self-time not explained by any charge: think blocked
  on a child process or a raft commit wait).
* **cost centers** — (host, frame, kind) aggregates, where the host is the
  one the charge named (the server doing the work, not the span's label).

Exports come in two interchange formats, each with a schema validator:

* collapsed-stack (``frame;frame;[kind] value`` — flamegraph.pl /
  ``inferno-flamegraph`` input), and
* speedscope JSON (https://www.speedscope.app "sampled" profiles).

:func:`diff_profiles` aligns two profiles by (frame, kind) — hosts are
dropped because they differ across systems — and normalises by completed
operations, so deltas read directly as "extra microseconds per op" and the
per-frame span counts as "extra RPCs per op".  That is what lets
``mantle-exp profile --diff mantle infinifs fig12`` name the mechanisms
behind the knee gap instead of just restating the throughput numbers.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.trace import CAT_OP, CAT_PHASE, Span

#: Every cost kind a charge can carry, plus the derived residual.
COST_KINDS = ("cpu", "fsync", "wire", "queue", "idle")

#: Synthetic root frame for charges that hit an empty span stack.
UNATTRIBUTED_FRAME = "(unattributed)"

#: speedscope's published schema URL (the ``$schema`` key it expects).
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def _frame(name: str) -> str:
    """Collapsed-stack frames may not contain separators; sanitise."""
    return name.replace(" ", "_").replace(";", ":")


class FrameCost:
    """Per-frame rollup: span count, inclusive time, per-kind self costs."""

    __slots__ = ("frame", "spans", "inclusive_us", "self_us", "kinds")

    def __init__(self, frame: str):
        self.frame = frame
        self.spans = 0
        self.inclusive_us = 0.0
        self.self_us = 0.0
        self.kinds: Dict[str, float] = {}

    def add_kind(self, kind: str, us: float) -> None:
        self.kinds[kind] = self.kinds.get(kind, 0.0) + us


class CostProfile:
    """A folded cost profile of one instrumented run.

    Attributes
    ----------
    centers:
        (host, frame, kind) -> self-attributed simulated microseconds.
    stacks:
        (frame tuple, kind) -> microseconds; the flame-graph input.
    frames:
        frame name -> :class:`FrameCost` rollup.
    ops / op_failures:
        completed / failed ``op``-category root spans (the per-op
        normaliser for diffs).
    total_root_us / total_self_us:
        summed dynamic-root durations and summed self-times; equal up to
        float addition order (the conservation invariant).
    unattributed:
        (host, kind) -> microseconds charged while no sampled span was
        open; folded into ``centers``/``stacks`` under
        :data:`UNATTRIBUTED_FRAME` but kept separately for reconciliation.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.ops = 0
        self.op_failures = 0
        self.span_count = 0
        self.total_root_us = 0.0
        self.total_self_us = 0.0
        self.centers: Dict[Tuple[Optional[str], str, str], float] = {}
        self.stacks: Dict[Tuple[Tuple[str, ...], str], float] = {}
        self.frames: Dict[str, FrameCost] = {}
        self.unattributed: Dict[Tuple[Optional[str], str], float] = {}

    # -- derived views -----------------------------------------------------

    def cost_by_kind(self) -> Dict[str, float]:
        """kind -> total microseconds (charges + idle + unattributed)."""
        out: Dict[str, float] = {}
        for (_host, _frame, kind), us in self.centers.items():
            out[kind] = out.get(kind, 0.0) + us
        return out

    def cpu_by_host(self) -> Dict[Optional[str], float]:
        """host -> cpu self-time, including the unattributed bucket.

        This is the series that must reconcile with telemetry's
        ``host.cpu_busy_us`` counters: both are incremented with the same
        ``us`` at the same :meth:`~repro.sim.host.Host.work` sites.
        """
        out: Dict[Optional[str], float] = {}
        for (host, _frame, kind), us in self.centers.items():
            if kind == "cpu":
                out[host] = out.get(host, 0.0) + us
        return out

    def frame_kind_totals(self) -> Dict[Tuple[str, str], float]:
        """(frame, kind) -> microseconds, hosts summed out (diff alignment)."""
        out: Dict[Tuple[str, str], float] = {}
        for (_host, frame, kind), us in self.centers.items():
            key = (frame, kind)
            out[key] = out.get(key, 0.0) + us
        return out

    def inclusive_by_frame(self) -> Dict[str, Tuple[int, float]]:
        """frame -> (span count, inclusive microseconds).

        Phase frames never nest under themselves, so dividing by root
        count re-derives fig13/fig15's per-phase means from the profiler.
        """
        return {frame: (fc.spans, fc.inclusive_us)
                for frame, fc in self.frames.items()}

    def top_self(self, n: int = 15) -> List[Tuple[str, str, float]]:
        """The ``n`` hottest (frame, kind, us) centers by self cost."""
        totals = self.frame_kind_totals()
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(frame, kind, us) for (frame, kind), us in ranked[:n]]

    def conservation_error(self) -> float:
        """Relative |sum(self) - sum(root durations)|; ~1e-16 in practice."""
        return (abs(self.total_self_us - self.total_root_us)
                / max(self.total_root_us, 1e-9))


def build_profile(spans: Iterable[Span],
                  unattributed: Optional[Dict[Tuple[Optional[str], str],
                                              float]] = None,
                  name: str = "") -> CostProfile:
    """Fold finished spans (plus the tracer's unattributed charges) into a
    :class:`CostProfile`.

    Spans whose dynamic parent is absent (true roots, spans begun in
    freshly spawned processes, or orphans whose parent fell out of the
    ring) become dynamic roots; conservation holds per present tree.
    """
    profile = CostProfile(name)
    finished = [s for s in spans if s.end_us is not None]
    by_id: Dict[int, Span] = {s.span_id: s for s in finished}
    child_us: Dict[int, float] = {}
    for span in finished:
        pid = span.dyn_parent_id
        if pid and pid in by_id:
            child_us[pid] = child_us.get(pid, 0.0) + span.duration_us

    paths: Dict[int, Tuple[str, ...]] = {}

    def path_of(span: Span) -> Tuple[str, ...]:
        cached = paths.get(span.span_id)
        if cached is not None:
            return cached
        pid = span.dyn_parent_id
        if pid and pid in by_id:
            result = path_of(by_id[pid]) + (_frame(span.name),)
        else:
            result = (_frame(span.name),)
        paths[span.span_id] = result
        return result

    centers = profile.centers
    stacks = profile.stacks
    for span in finished:
        profile.span_count += 1
        frame = _frame(span.name)
        dur = span.duration_us
        self_us = dur - child_us.get(span.span_id, 0.0)
        if self_us < 0.0:
            self_us = 0.0  # float dust only; nesting forbids real negatives
        stack = path_of(span)
        fc = profile.frames.get(frame)
        if fc is None:
            fc = profile.frames[frame] = FrameCost(frame)
        fc.spans += 1
        fc.inclusive_us += dur
        fc.self_us += self_us
        if span.category == CAT_OP:
            if span.ok:
                profile.ops += 1
            else:
                profile.op_failures += 1
        if not span.dyn_parent_id or span.dyn_parent_id not in by_id:
            profile.total_root_us += dur
        profile.total_self_us += self_us
        charged = 0.0
        if span.costs:
            for (kind, host), us in span.costs.items():
                charged += us
                key = (host, frame, kind)
                centers[key] = centers.get(key, 0.0) + us
                skey = (stack, kind)
                stacks[skey] = stacks.get(skey, 0.0) + us
                fc.add_kind(kind, us)
        idle = self_us - charged
        if idle > 0.0:
            key = (span.host, frame, "idle")
            centers[key] = centers.get(key, 0.0) + idle
            skey = (stack, "idle")
            stacks[skey] = stacks.get(skey, 0.0) + idle
            fc.add_kind("idle", idle)
    if unattributed:
        for (host, kind), us in unattributed.items():
            if us <= 0.0:
                continue
            profile.unattributed[(host, kind)] = us
            key = (host, UNATTRIBUTED_FRAME, kind)
            centers[key] = centers.get(key, 0.0) + us
            skey = ((UNATTRIBUTED_FRAME,), kind)
            stacks[skey] = stacks.get(skey, 0.0) + us
    return profile


def profile_from_tracer(tracer, name: str = "") -> CostProfile:
    """Fold one tracer's ring (and unattributed bucket) into a profile."""
    return build_profile(tracer.spans, dict(tracer.unattributed), name=name)


def dynamic_phase_breakdown(
        spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """op -> phase -> mean microseconds, derived from the dynamic tree.

    Groups ``phase``-category spans under their dynamic-parent ``op`` roots
    (phases open directly inside the client process, so the dynamic parent
    *is* the root), sums per root, and averages over the successful roots
    that recorded each phase — the same semantics as
    :meth:`repro.sim.stats.MetricSet.phase_breakdown`, which is what lets
    fig13/fig15's ``--check-profile`` assert the two derivations agree.
    """
    finished = {s.span_id: s for s in spans if s.end_us is not None}
    roots = {sid: s for sid, s in finished.items() if s.category == CAT_OP}
    per_root: Dict[int, Dict[str, float]] = {}
    for span in finished.values():
        if span.category != CAT_PHASE:
            continue
        # Phases normally open directly under their op root, but chase the
        # chain anyway so a phase nested inside another phase still lands
        # on the right op.
        anc = span.dyn_parent_id
        while anc and anc not in roots:
            parent = finished.get(anc)
            anc = parent.dyn_parent_id if parent is not None else 0
        if not anc:
            continue
        phases = per_root.setdefault(anc, {})
        phases[span.name] = phases.get(span.name, 0.0) + span.duration_us
    agg: Dict[str, Dict[str, Tuple[int, float]]] = {}
    for root_id, phases in per_root.items():
        root = roots[root_id]
        if not root.ok:
            continue
        op_phases = agg.setdefault(root.name, {})
        for phase, total in phases.items():
            count, acc = op_phases.get(phase, (0, 0.0))
            op_phases[phase] = (count + 1, acc + total)
    return {op: {phase: total / count
                 for phase, (count, total) in phases.items() if count}
            for op, phases in agg.items()}


# ---------------------------------------------------------------------------
# Collapsed-stack (flamegraph.pl) export.
# ---------------------------------------------------------------------------

def to_folded(profile: CostProfile) -> List[str]:
    """Render the profile as collapsed-stack lines.

    Each cost kind becomes a synthetic leaf frame (``[cpu]``, ``[wire]``,
    ...) under the span stack, so flamegraph.pl renders kinds as distinct
    cells and the diff aligns on them.  Values are integer microseconds
    rounded *after* aggregation; lines are sorted, which (together with
    simulated-time determinism) makes the output byte-identical across
    repeat runs.  Zero-rounded lines are dropped — the format
    requires positive integers.
    """
    merged: Dict[str, int] = {}
    for (stack, kind), us in profile.stacks.items():
        line = ";".join(stack + (f"[{kind}]",))
        merged[line] = merged.get(line, 0) + int(round(us))
    return [f"{line} {value}" for line, value in sorted(merged.items())
            if value > 0]


def write_folded(path: str, profile: CostProfile) -> List[str]:
    """Write collapsed-stack lines to ``path``; returns the lines."""
    lines = to_folded(profile)
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line + "\n")
    return lines


def validate_folded(lines: Iterable[str]) -> List[str]:
    """Schema-check collapsed-stack lines; returns a list of problems.

    flamegraph.pl's actual contract: one ``stack value`` pair per line,
    semicolon-separated non-empty frames with no embedded spaces, and a
    positive integer value.
    """
    problems: List[str] = []
    for i, line in enumerate(lines):
        where = f"line {i + 1}"
        if not isinstance(line, str) or not line.strip():
            problems.append(f"{where}: empty")
            continue
        parts = line.rsplit(" ", 1)
        if len(parts) != 2:
            problems.append(f"{where}: missing value field")
            continue
        stack, value = parts
        if not value.isdigit() or int(value) <= 0:
            problems.append(f"{where}: value {value!r} is not a positive "
                            "integer")
        if " " in stack:
            problems.append(f"{where}: stack contains a space")
        frames = stack.split(";")
        if not frames or any(not f for f in frames):
            problems.append(f"{where}: empty frame in stack {stack!r}")
    return problems


# ---------------------------------------------------------------------------
# speedscope export.
# ---------------------------------------------------------------------------

def to_speedscope(profile: CostProfile, name: str = "") -> dict:
    """Render the profile as a speedscope "sampled" profile.

    One sample per (stack, kind) with its microsecond total as the weight;
    frames are deduplicated into the shared frame table.  Deterministic for
    the same reasons as :func:`to_folded`.
    """
    samples_by_stack: Dict[Tuple[str, ...], int] = {}
    for (stack, kind), us in profile.stacks.items():
        full = stack + (f"[{kind}]",)
        samples_by_stack[full] = samples_by_stack.get(full, 0) + \
            int(round(us))
    ordered = sorted((stack, weight)
                     for stack, weight in samples_by_stack.items()
                     if weight > 0)
    frame_index: Dict[str, int] = {}
    frames: List[dict] = []
    samples: List[List[int]] = []
    weights: List[int] = []
    for stack, weight in ordered:
        indexed = []
        for frame in stack:
            idx = frame_index.get(frame)
            if idx is None:
                idx = frame_index[frame] = len(frames)
                frames.append({"name": frame})
            indexed.append(idx)
        samples.append(indexed)
        weights.append(weight)
    total = sum(weights)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name or profile.name or "simulated cost profile",
            "unit": "microseconds",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        }],
        "exporter": "mantle-exp profile",
    }


def write_speedscope(path: str, profile: CostProfile,
                     name: str = "") -> dict:
    """Write the speedscope JSON to ``path``; returns the payload."""
    payload = to_speedscope(profile, name=name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return payload


def validate_speedscope(payload: Any) -> List[str]:
    """Schema-check a speedscope payload; returns a list of problems.

    Covers what speedscope's importer actually requires of a "sampled"
    profile: the ``$schema`` marker, a shared frame table of named frames,
    and per-profile samples/weights of equal length whose frame indices
    stay in range.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    if payload.get("$schema") != SPEEDSCOPE_SCHEMA:
        problems.append("missing or wrong $schema")
    shared = payload.get("shared")
    frames = shared.get("frames") if isinstance(shared, dict) else None
    if not isinstance(frames, list):
        problems.append("missing shared.frames array")
        frames = []
    for i, frame in enumerate(frames):
        if not isinstance(frame, dict) or \
                not isinstance(frame.get("name"), str) or not frame["name"]:
            problems.append(f"shared.frames[{i}]: missing name")
    profiles = payload.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        problems.append("missing profiles array")
        profiles = []
    for p, prof in enumerate(profiles):
        where = f"profiles[{p}]"
        if not isinstance(prof, dict):
            problems.append(f"{where}: not an object")
            continue
        if prof.get("type") != "sampled":
            problems.append(f"{where}: type must be 'sampled'")
        if prof.get("unit") not in ("microseconds", "milliseconds",
                                    "seconds", "nanoseconds", "bytes",
                                    "none"):
            problems.append(f"{where}: bad unit {prof.get('unit')!r}")
        samples = prof.get("samples")
        weights = prof.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            problems.append(f"{where}: missing samples/weights")
            continue
        if len(samples) != len(weights):
            problems.append(f"{where}: {len(samples)} samples vs "
                            f"{len(weights)} weights")
        for s, sample in enumerate(samples):
            if not isinstance(sample, list) or not sample:
                problems.append(f"{where}.samples[{s}]: empty sample")
                continue
            for idx in sample:
                if not isinstance(idx, int) or idx < 0 or idx >= len(frames):
                    problems.append(
                        f"{where}.samples[{s}]: frame index {idx!r} out "
                        "of range")
                    break
        for w, weight in enumerate(weights):
            if not isinstance(weight, (int, float)) or weight < 0:
                problems.append(f"{where}.weights[{w}]: bad weight "
                                f"{weight!r}")
                break
    return problems


# ---------------------------------------------------------------------------
# Differential profiles.
# ---------------------------------------------------------------------------

class DiffRow:
    """One (frame, kind) alignment between two profiles, per-op normalised."""

    __slots__ = ("frame", "kind", "base_us_per_op", "other_us_per_op",
                 "base_spans_per_op", "other_spans_per_op")

    def __init__(self, frame: str, kind: str,
                 base_us_per_op: float, other_us_per_op: float,
                 base_spans_per_op: float, other_spans_per_op: float):
        self.frame = frame
        self.kind = kind
        self.base_us_per_op = base_us_per_op
        self.other_us_per_op = other_us_per_op
        self.base_spans_per_op = base_spans_per_op
        self.other_spans_per_op = other_spans_per_op

    @property
    def delta_us_per_op(self) -> float:
        """Signed cost gap: positive means ``other`` spends more here."""
        return self.other_us_per_op - self.base_us_per_op

    @property
    def delta_spans_per_op(self) -> float:
        return self.other_spans_per_op - self.base_spans_per_op


def diff_profiles(base: CostProfile, other: CostProfile) -> List[DiffRow]:
    """Align two profiles by (frame, kind) and return signed per-op deltas.

    Hosts are summed out before aligning (the two systems deploy different
    host sets), and every total is divided by the profile's completed-op
    count so a row reads as "microseconds of this cost per operation".
    Rows come back sorted by |delta|, largest first.
    """
    base_ops = max(base.ops, 1)
    other_ops = max(other.ops, 1)
    base_totals = base.frame_kind_totals()
    other_totals = other.frame_kind_totals()
    rows: List[DiffRow] = []
    for frame, kind in sorted(set(base_totals) | set(other_totals)):
        base_fc = base.frames.get(frame)
        other_fc = other.frames.get(frame)
        rows.append(DiffRow(
            frame, kind,
            base_totals.get((frame, kind), 0.0) / base_ops,
            other_totals.get((frame, kind), 0.0) / other_ops,
            (base_fc.spans / base_ops) if base_fc is not None else 0.0,
            (other_fc.spans / other_ops) if other_fc is not None else 0.0,
        ))
    rows.sort(key=lambda r: (-abs(r.delta_us_per_op), r.frame, r.kind))
    return rows
