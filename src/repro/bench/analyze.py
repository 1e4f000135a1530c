"""Saturation analyzer: attribute each experiment point to its bottleneck.

The paper's scaling arguments are mechanistic — baselines hit CPU
saturation on their metadata servers first (Figs 12/14/19), Mantle's
lookups are wire-dominated until much higher load, and shared-directory
mutation workloads die of transaction conflicts rather than of any
hardware limit.  This module turns a run's telemetry + metrics into that
attribution automatically: each run is classified as **cpu-bound**,
**fsync-bound**, **rpc-bound** or **contention-bound** when the dominant
score clears a threshold in the steady-state window, else
**underloaded**.

Scores, all in [0, 1]:

* ``cpu`` — max per-host CPU busy-fraction (time-clipped to the steady
  window, from the ``host.cpu_busy_us`` telemetry counter);
* ``fsync`` — max per-host disk busy-fraction (``host.disk_busy_us``);
* ``rpc`` — fraction of completed-op latency spent as network flight
  time (mean RPC rounds x RTT / mean latency).  High when the wire, not
  any server, sets latency — the signature of an unsaturated Mantle;
* ``contention`` — max of the TafDB abort ratio (aborts / outcomes, from
  the per-window ``tafdb.*`` counters) and the op retry ratio.

Since PR 10 a run is no longer scored as one homogeneous blob: when
windowed telemetry exists, :func:`segment_run` change-point-segments the
busy-fraction / latency-digest timelines into labeled phases (warmup /
steady / burst / saturated / drain), each with its own Verdict, and
:func:`classify_run` reports the *primary* phase (longest saturated,
else longest steady, ...).  The fixed middle-half :func:`steady_window`
survives only as the fallback for runs without windowed telemetry.

The classifier itself is pure arithmetic over these numbers, so it is
unit-testable on synthetic timelines and bit-deterministic (every input
derives from simulated time only).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.telemetry import _bucket_quantile, latency_digests

#: A score must clear this to pin the run on one resource.
DEFAULT_THRESHOLD = 0.5

#: Fraction of the run treated as steady state (the middle half).
STEADY_FRACTION = 0.5

#: Score key -> verdict label.
LABELS = {
    "cpu": "cpu-bound",
    "fsync": "fsync-bound",
    "rpc": "rpc-bound",
    "contention": "contention-bound",
}

UNDERLOADED = "underloaded"


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Classification of one run plus the evidence behind it."""

    label: str
    scores: Dict[str, float]
    hotspots: Dict[str, str]
    window: Tuple[float, float]

    def describe(self) -> str:
        parts = [f"{key}={self.scores.get(key, 0.0):.2f}"
                 for key in sorted(LABELS)]
        hot = self.hotspots.get(self.label.split("-")[0], "")
        suffix = f" @{hot}" if hot else ""
        return f"{self.label}{suffix} ({', '.join(parts)})"


def steady_window(started_us: float, finished_us: float,
                  fraction: float = STEADY_FRACTION) -> Tuple[float, float]:
    """The middle ``fraction`` of ``[started_us, finished_us]`` — clear of
    warm-up (empty caches, cold Raft pipeline) and drain (stragglers)."""
    span = finished_us - started_us
    if span <= 0:
        return started_us, started_us
    mid = started_us + span / 2.0
    half = span * fraction / 2.0
    return mid - half, mid + half


#: Scores that measure distance to a hard ceiling (utilizations/ratios).
#: They outrank ``rpc``, which is a latency decomposition: a host at 90%
#: CPU is the knee even if most of an op's latency is still wire time.
SATURATION_KEYS = ("cpu", "fsync", "contention")


def classify(scores: Dict[str, float],
             threshold: float = DEFAULT_THRESHOLD) -> str:
    """Two-tier dominant-resource classification.

    The highest *saturation* score (cpu/fsync/contention) at or above
    ``threshold`` wins; otherwise a wire fraction >= ``threshold`` makes
    the run rpc-bound; otherwise it is underloaded.  Ties break in sorted
    key order so the verdict is deterministic.
    """
    best_key = None
    best_score = -1.0
    for key in sorted(scores):
        if key in SATURATION_KEYS and scores[key] > best_score:
            best_key = key
            best_score = scores[key]
    if best_key is not None and best_score >= threshold:
        return LABELS.get(best_key, best_key + "-bound")
    if scores.get("rpc", 0.0) >= threshold:
        return LABELS["rpc"]
    return UNDERLOADED


def _busy_fractions(telemetry, metric: str, lo: float,
                    hi: float) -> Dict[str, float]:
    """Per-host busy-fraction of a ``*_busy_us`` counter over ``[lo, hi)``."""
    elapsed = hi - lo
    if elapsed <= 0:
        return {}
    out = {}
    for host in telemetry.hosts(metric):
        counter = telemetry.counter(metric, host)
        capacity = counter.capacity if counter.capacity > 0 else 1.0
        out[host] = counter.sum_clipped(lo, hi) / (elapsed * capacity)
    return out


def _max_entry(fractions: Dict[str, float]) -> Tuple[float, str]:
    best_host = ""
    best = 0.0
    for host in sorted(fractions):
        if fractions[host] > best:
            best = fractions[host]
            best_host = host
    return best, best_host


def rpc_wire_fraction(system, metrics) -> float:
    """Fraction of completed-op latency that is pure network flight."""
    total_latency = sum(rec.total for rec in metrics.latency.values())
    if total_latency <= 0:
        return 0.0
    total_rpcs = sum(rec.total for rec in metrics.rpc_rounds.values())
    rtt = 2.0 * system.costs.net_one_way_us
    return min(1.0, total_rpcs * rtt / total_latency)


def contention_score(metrics, telemetry, lo: float, hi: float) -> float:
    """Max of the steady-window TafDB abort ratio and the retry ratio."""
    aborts = 0.0
    commits = 0.0
    for inst in telemetry.instruments():
        if inst.kind != "counter":
            continue
        if inst.name.startswith("tafdb.aborts."):
            aborts += inst.sum_clipped(lo, hi)
        elif inst.name == "tafdb.commits":
            commits += inst.sum_clipped(lo, hi)
    abort_ratio = aborts / (aborts + commits) if (aborts + commits) > 0 else 0.0
    attempts = metrics.ops_completed + metrics.retries
    retry_ratio = metrics.retries / attempts if attempts > 0 else 0.0
    return max(abort_ratio, retry_ratio)


def _verdict_over(system, metrics, telemetry, lo: float, hi: float,
                  threshold: float = DEFAULT_THRESHOLD) -> Verdict:
    """Score and classify one time window of a finished run.

    cpu/fsync/contention are clipped to ``[lo, hi)``; the rpc wire
    fraction is a run-global latency decomposition (per-op latencies are
    not windowed by resource), which is documented behaviour — a wire-
    dominated run is wire-dominated in every phase.
    """
    cpu_fracs = _busy_fractions(telemetry, "host.cpu_busy_us", lo, hi)
    disk_fracs = _busy_fractions(telemetry, "host.disk_busy_us", lo, hi)
    cpu, cpu_host = _max_entry(cpu_fracs)
    fsync, fsync_host = _max_entry(disk_fracs)
    scores = {
        "cpu": min(1.0, cpu),
        "fsync": min(1.0, fsync),
        "rpc": rpc_wire_fraction(system, metrics),
        "contention": contention_score(metrics, telemetry, lo, hi),
    }
    hotspots = {}
    if cpu_host:
        hotspots["cpu"] = cpu_host
    if fsync_host:
        hotspots["fsync"] = fsync_host
    return Verdict(label=classify(scores, threshold), scores=scores,
                   hotspots=hotspots, window=(lo, hi))


def classify_run(system, metrics, telemetry=None,
                 threshold: float = DEFAULT_THRESHOLD) -> Verdict:
    """Score and classify one finished benchmark run.

    ``telemetry`` defaults to the system simulator's registry; it must
    have been enabled for the run for the cpu/fsync/contention scores to
    be meaningful (they fall back to 0 otherwise).

    When windowed telemetry exists the run is phase-segmented
    (:func:`segment_run`) and the verdict of the :func:`primary_phase`
    is returned — so a burst tacked onto a quiet run no longer dilutes
    (or is diluted by) the steady state.  Without windowed telemetry
    the legacy fixed middle-half window applies.
    """
    if telemetry is None:
        telemetry = system.sim.telemetry
    telemetry.finalize(system.sim.now)
    phases = segment_run(system, metrics, telemetry, threshold)
    primary = primary_phase(phases)
    if primary is not None:
        return primary.verdict
    lo, hi = steady_window(metrics.started_at, metrics.finished_at)
    return _verdict_over(system, metrics, telemetry, lo, hi, threshold)


# -- phase segmentation (PR 10) ---------------------------------------------
#
# A run's telemetry windows are summarised into one feature vector per
# window -- (max host busy-fraction, op completion rate, p99 latency) --
# and split by penalized binary change-point segmentation: recursively
# take the split that most reduces within-segment variance, as long as
# it explains at least SEGMENT_MIN_GAIN of the run's total variance.
# Every input is windowed simulated-time telemetry and every comparison
# breaks ties leftward, so segment boundaries (and therefore triage
# exports) are bit-identical across repeat runs.


#: Stop splitting after this many phases.
SEGMENT_MAX_PHASES = 6

#: A split must explain at least this fraction of the run's total
#: feature variance to be accepted (guards against chasing noise).
SEGMENT_MIN_GAIN = 0.05

#: Mean busy-fraction at or above this marks a phase ``saturated``.
SATURATED_BUSY = 0.85

#: Leading/trailing phases whose completion rate is below this fraction
#: of the peak phase rate are ``warmup`` / ``drain``.
RAMP_FRACTION = 0.5

#: A phase whose rate or p99 exceeds this multiple of the cross-phase
#: median is a ``burst``.
BURST_FACTOR = 1.5

#: Labels :func:`segment_run` can assign.
PHASE_LABELS = ("warmup", "steady", "burst", "saturated", "drain")

#: classify_run picks the longest phase of the first non-empty label.
PRIMARY_PREFERENCE = ("saturated", "steady", "burst", "warmup", "drain")


@dataclasses.dataclass(frozen=True)
class Phase:
    """One labeled segment of a run, with its own bottleneck verdict."""

    label: str
    window: Tuple[float, float]
    verdict: Verdict
    busy: float        #: mean max-host busy fraction over the phase
    rate_per_s: float  #: op completions per simulated second
    p99_us: float      #: merged-digest p99 over the phase
    ops: int           #: op completions inside the phase

    @property
    def duration_us(self) -> float:
        return self.window[1] - self.window[0]

    def describe(self) -> str:
        lo, hi = self.window
        return (f"{self.label:<9} [{lo / 1e3:9.1f}ms, {hi / 1e3:9.1f}ms) "
                f"ops={self.ops} p99={self.p99_us:.0f}us "
                f"busy={self.busy:.2f} -> {self.verdict.describe()}")


def phase_features(telemetry, started_us: float,
                   finished_us: float) -> List[Dict[str, float]]:
    """One feature row per telemetry window overlapping the run.

    Rows are ``{"lo", "hi", "busy", "rate", "p99"}`` with lo/hi clipped
    to ``[started_us, finished_us)``; ``busy`` is the max over hosts and
    over cpu/disk of the busy fraction, ``rate`` is op completions per
    microsecond (from the latency digests), ``p99`` the merged-digest
    per-window p99.  Empty when the registry has no windowed data (the
    caller falls back to the middle-half window).
    """
    w = float(getattr(telemetry, "window_us", 0.0) or 0.0)
    if w <= 0 or finished_us <= started_us:
        return []
    busy_counters = []
    for metric in ("host.cpu_busy_us", "host.disk_busy_us"):
        for host in telemetry.hosts(metric):
            busy_counters.append(telemetry.counter(metric, host))
    digests = [digest for _op, digest in latency_digests(telemetry)]
    if not busy_counters and not digests:
        return []
    rows: List[Dict[str, float]] = []
    for idx in range(int(started_us // w), int(finished_us // w) + 1):
        lo = max(idx * w, started_us)
        hi = min((idx + 1) * w, finished_us)
        if hi <= lo:
            continue
        busy = 0.0
        for counter in busy_counters:
            value = counter.windows.get(idx, 0.0)
            capacity = counter.capacity if counter.capacity > 0 else 1.0
            frac = min(1.0, value / ((hi - lo) * capacity))
            if frac > busy:
                busy = frac
        count = 0
        merged: Dict[int, int] = {}
        for digest in digests:
            cell = digest.windows.get(idx)
            if cell is None:
                continue
            count += cell[1]
            for b, c in cell[0].items():
                merged[b] = merged.get(b, 0) + c
        rows.append({
            "lo": lo,
            "hi": hi,
            "busy": busy,
            "rate": count / (hi - lo),
            "p99": _bucket_quantile(merged, 0.99) if merged else 0.0,
        })
    return rows


def _segment_bounds(vectors: List[Tuple[float, ...]],
                    max_phases: int = SEGMENT_MAX_PHASES,
                    min_gain: float = SEGMENT_MIN_GAIN
                    ) -> List[Tuple[int, int]]:
    """Binary change-point segmentation of normalized feature vectors.

    Returns half-open index ranges covering ``[0, len(vectors))``.  The
    within-segment cost is the summed per-dimension variance; each
    accepted split is the one reducing cost the most, provided the
    reduction clears ``min_gain`` of the unsplit cost.  Strictly-greater
    comparisons keep the leftmost candidate on ties, so the result is
    deterministic.
    """
    n = len(vectors)
    if n == 0:
        return []
    dims = len(vectors[0])
    prefix = [[0.0] * dims]
    prefix_sq = [[0.0] * dims]
    for vec in vectors:
        prev = prefix[-1]
        prev_sq = prefix_sq[-1]
        prefix.append([prev[d] + vec[d] for d in range(dims)])
        prefix_sq.append([prev_sq[d] + vec[d] * vec[d] for d in range(dims)])

    def cost(i: int, j: int) -> float:
        length = j - i
        total = 0.0
        for d in range(dims):
            s = prefix[j][d] - prefix[i][d]
            s2 = prefix_sq[j][d] - prefix_sq[i][d]
            total += s2 - (s * s) / length
        return max(total, 0.0)

    segments: List[Tuple[int, int]] = [(0, n)]
    gain_floor = min_gain * cost(0, n)
    while len(segments) < max_phases:
        best_gain = gain_floor
        best: Optional[Tuple[int, int]] = None
        for si, (i, j) in enumerate(segments):
            if j - i < 2:
                continue
            base = cost(i, j)
            for k in range(i + 1, j):
                gain = base - cost(i, k) - cost(k, j)
                if gain > best_gain:
                    best_gain = gain
                    best = (si, k)
        if best is None:
            break
        si, k = best
        i, j = segments[si]
        segments[si:si + 1] = [(i, k), (k, j)]
    return segments


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _label_segments(busy: List[float], rates: List[float],
                    p99s: List[float]) -> List[str]:
    """Heuristic phase labels from per-segment mean features.

    ``saturated`` (busy at the ceiling) wins outright; leading/trailing
    low-rate segments are ``warmup`` / ``drain``; a remaining segment
    whose rate or p99 spikes above the cross-segment median is a
    ``burst``; everything else is ``steady``.
    """
    k = len(busy)
    labels: List[Optional[str]] = [None] * k
    for i in range(k):
        if busy[i] >= SATURATED_BUSY:
            labels[i] = "saturated"
    peak_rate = max(rates) if rates else 0.0
    if k > 1 and peak_rate > 0:
        i = 0
        while i < k and labels[i] is None \
                and rates[i] < RAMP_FRACTION * peak_rate:
            labels[i] = "warmup"
            i += 1
        j = k - 1
        while j > i and labels[j] is None \
                and rates[j] < RAMP_FRACTION * peak_rate:
            labels[j] = "drain"
            j -= 1
    base_rate = _median(rates)
    base_p99 = _median(p99s)
    for i in range(k):
        if labels[i] is not None:
            continue
        spiky = (base_rate > 0 and rates[i] >= BURST_FACTOR * base_rate) or \
                (base_p99 > 0 and p99s[i] >= BURST_FACTOR * base_p99)
        labels[i] = "burst" if spiky else "steady"
    return [label or "steady" for label in labels]


def segment_run(system, metrics, telemetry=None,
                threshold: float = DEFAULT_THRESHOLD,
                max_phases: int = SEGMENT_MAX_PHASES) -> List[Phase]:
    """Change-point-segment one finished run into labeled phases.

    Returns ``[]`` when the registry has no windowed busy counters or
    latency digests (callers then fall back to the middle-half window).
    Each phase carries its own :class:`Verdict` scored over the phase
    window only.
    """
    if telemetry is None:
        telemetry = system.sim.telemetry
    telemetry.finalize(system.sim.now)
    feats = phase_features(telemetry, metrics.started_at,
                           metrics.finished_at)
    if not feats:
        return []
    max_rate = max(f["rate"] for f in feats) or 1.0
    max_p99 = max(f["p99"] for f in feats) or 1.0
    vectors = [(f["busy"], f["rate"] / max_rate, f["p99"] / max_p99)
               for f in feats]
    bounds = _segment_bounds(vectors, max_phases)
    busy_means: List[float] = []
    rate_means: List[float] = []
    p99_means: List[float] = []
    op_counts: List[int] = []
    for i, j in bounds:
        span = sum(f["hi"] - f["lo"] for f in feats[i:j])
        ops = sum(f["rate"] * (f["hi"] - f["lo"]) for f in feats[i:j])
        busy_means.append(
            sum(f["busy"] * (f["hi"] - f["lo"]) for f in feats[i:j]) / span
            if span > 0 else 0.0)
        rate_means.append(ops / span if span > 0 else 0.0)
        weights = sum(f["rate"] for f in feats[i:j])
        p99_means.append(
            sum(f["p99"] * f["rate"] for f in feats[i:j]) / weights
            if weights > 0 else 0.0)
        op_counts.append(int(round(ops)))
    labels = _label_segments(busy_means, rate_means, p99_means)
    digests = [digest for _op, digest in latency_digests(telemetry)]
    phases: List[Phase] = []
    for seg, label, busy, rate, ops in zip(bounds, labels, busy_means,
                                           rate_means, op_counts):
        i, j = seg
        lo = feats[i]["lo"]
        hi = feats[j - 1]["hi"]
        merged: Dict[int, int] = {}
        for digest in digests:
            w = digest.window_us
            for idx, cell in digest.windows.items():
                if idx * w + w > lo and idx * w < hi:
                    for b, c in cell[0].items():
                        merged[b] = merged.get(b, 0) + c
        phases.append(Phase(
            label=label,
            window=(lo, hi),
            verdict=_verdict_over(system, metrics, telemetry, lo, hi,
                                  threshold),
            busy=busy,
            rate_per_s=rate * 1e6,
            p99_us=_bucket_quantile(merged, 0.99) if merged else 0.0,
            ops=ops,
        ))
    return phases


def primary_phase(phases: List[Phase]) -> Optional[Phase]:
    """The phase whose verdict speaks for the whole run: the longest
    phase of the most load-bearing label present
    (:data:`PRIMARY_PREFERENCE` order; ties break to the earliest)."""
    for label in PRIMARY_PREFERENCE:
        candidates = [p for p in phases if p.label == label]
        if candidates:
            return max(candidates, key=lambda p: p.duration_us)
    return None


def anomalous_phases(phases: List[Phase]) -> List[Phase]:
    """Phases worth triaging: saturated and burst ones, plus any phase
    whose verdict pinned a resource (non-underloaded)."""
    return [p for p in phases
            if p.label in ("saturated", "burst")
            or p.verdict.label != UNDERLOADED]


# -- timeline helpers (CLI rendering / tests) -------------------------------


def utilization_series(counter) -> list:
    """``[(window_start_us, busy_fraction)]`` for a ``*_busy_us`` counter."""
    capacity = counter.capacity if counter.capacity > 0 else 1.0
    denom = counter.window_us * capacity
    return [(start, value / denom) for start, value in counter.series()]


def latency_p99_series(telemetry, q: float = 0.99) -> list:
    """``[(window_start_us, p-quantile latency us)]`` merged across every
    per-op completion-latency digest in the registry."""
    merged: Dict[int, Dict[int, int]] = {}
    w = None
    for _op, digest in latency_digests(telemetry):
        w = digest.window_us
        for idx, cell in digest.windows.items():
            bucket = merged.setdefault(idx, {})
            for b, c in cell[0].items():
                bucket[b] = bucket.get(b, 0) + c
    if w is None:
        return []
    return [(idx * w, _bucket_quantile(merged[idx], q))
            for idx in sorted(merged)]


def hit_ratio_series(telemetry, hits_metric: str = "index.cache_hits",
                     misses_metric: str = "index.cache_misses") -> list:
    """``[(window_start_us, hit_ratio)]`` aggregated across hosts."""
    totals: Dict[int, list] = {}
    for metric, slot in ((hits_metric, 0), (misses_metric, 1)):
        for host in telemetry.hosts(metric):
            counter = telemetry.counter(metric, host)
            for idx, value in counter.windows.items():
                cell = totals.setdefault(idx, [0.0, 0.0])
                cell[slot] += value
    w = None
    for metric in (hits_metric, misses_metric):
        for host in telemetry.hosts(metric):
            w = telemetry.counter(metric, host).window_us
            break
        if w is not None:
            break
    if w is None:
        return []
    out = []
    for idx in sorted(totals):
        hits, misses = totals[idx]
        seen = hits + misses
        out.append((idx * w, hits / seen if seen > 0 else 0.0))
    return out
