"""Capacity resources and mailboxes for the DES kernel.

:class:`Resource` models a pool of identical servers' CPU cores, a disk's
single write head, or a latch: ``capacity`` concurrent holders, FIFO queueing.
:class:`Store` is an unbounded FIFO mailbox used for asynchronous message
passing (Raft RPCs, background compaction queues).

Grants and mailbox wakeups are zero-delay: they go straight onto the
kernel's microtask deque (``sim._micro``).
"""

from __future__ import annotations

import collections
from typing import Any, Deque, List

# _PENDING is the kernel's internal "not yet triggered" sentinel; the flat
# constructors below mirror Event.__init__ without the call indirection.
from repro.sim.core import _PENDING, Event, SimulationError, Simulator


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot.

    ``_blame`` is the occupant label ``(op, tenant)`` stamped by the
    contended grant path when tracing is on — who held the slot this
    request waited for.  Deliberately *not* initialised in ``__init__``
    (the uncontended fast path never touches it); readers use
    ``getattr(req, "_blame", None)``, and only under ``tracer.enabled``.
    """

    __slots__ = ("resource", "_enqueue_time", "_granted", "_blame")

    def __init__(self, resource: "Resource"):
        sim = resource.sim
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self._enqueue_time = sim._now
        self._granted = False

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request (e.g. on interrupt)."""
        if self._granted or self.triggered:
            return
        resource = self.resource
        try:
            resource._waiting.remove(self)
        except ValueError:
            return
        if resource.label is not None:
            resource._sample_queue()


class Resource:
    """FIFO capacity resource.

    Usage from a process::

        req = cpu.request()
        yield req
        try:
            yield sim.timeout(cost)
        finally:
            cpu.release(req)

    Grant/release bookkeeping is counters-only on the hot path: holding is a
    flag on the :class:`Request` itself rather than a per-grant dict entry.
    """

    def __init__(self, sim: Simulator, capacity: int,
                 label: str = None, host: str = None):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Request] = collections.deque()
        # Observability: peak concurrent holders and total waits, used by the
        # bench harness to report CPU saturation.
        self.peak_in_use = 0
        self.total_grants = 0
        self.total_wait_time = 0.0
        # Telemetry identity.  Labelled resources (a host's "cpu"/"disk")
        # report queue depth and queue waits to ``sim.telemetry`` on the
        # *contended* paths only; unlabelled resources and the uncontended
        # grant fast path pay nothing beyond a None check.
        self.label = label
        self.host = host

    def _sample_queue(self) -> None:
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            telemetry.gauge("resource.queued." + self.label, self.host,
                            capacity=self.capacity).set(
                self.sim._now, len(self._waiting))

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        req = Request(self)
        if self._in_use < self.capacity:
            # Uncontended fast path: grant inline (counters only, and the
            # trigger is enqueued directly — the request is fresh, so the
            # already-triggered guard in Event.succeed cannot fire).
            in_use = self._in_use + 1
            self._in_use = in_use
            self.total_grants += 1
            if in_use > self.peak_in_use:
                self.peak_in_use = in_use
            req._granted = True
            req._value = None
            self.sim._micro.append(req)
        else:
            self._waiting.append(req)
            if self.label is not None:
                self._sample_queue()
        return req

    def release(self, request: Request) -> None:
        if not request._granted:
            if not request.triggered:
                # Never granted: just withdraw it.
                request.cancel()
                return
            raise SimulationError("release of a request that is not held")
        request._granted = False
        self._in_use -= 1
        if self._waiting and self._in_use < self.capacity:
            now = self.sim._now
            wait_hist = None
            if self.label is not None:
                telemetry = self.sim.telemetry
                if telemetry.enabled:
                    wait_hist = telemetry.histogram(
                        "resource.wait_us." + self.label, self.host)
            # Occupant tracking: the releaser *is* the departing occupant
            # (release runs in the holder's own process), so its op label
            # is who the granted waiters queued behind.  Pure bookkeeping,
            # tracer-gated — a disabled run pays one attribute load.
            tracer = self.sim.tracer
            blame = tracer.current_op_label() if tracer.enabled else None
            while self._waiting and self._in_use < self.capacity:
                nxt = self._waiting.popleft()
                wait = now - nxt._enqueue_time
                self.total_wait_time += wait
                if wait_hist is not None:
                    wait_hist.record(now, wait)
                if blame is not None:
                    nxt._blame = blame
                self._grant(nxt)
            if wait_hist is not None:
                self._sample_queue()

    def _grant(self, req: Request) -> None:
        in_use = self._in_use + 1
        self._in_use = in_use
        self.total_grants += 1
        if in_use > self.peak_in_use:
            self.peak_in_use = in_use
        req._granted = True
        req.succeed()


class Store:
    """Unbounded FIFO mailbox.

    ``put`` never blocks; ``get`` returns an event that triggers with the
    oldest item (immediately if one is queued).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = collections.deque()
        self._getters: Deque[Event] = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        sim = self.sim
        ev = Event(sim)
        if self._items:
            # Non-empty fast path: trigger inline (fresh event, _ok is
            # already True).
            ev._value = self._items.popleft()
            sim._micro.append(ev)
        else:
            self._getters.append(ev)
        return ev

    def drain(self) -> List[Any]:
        """Take every queued item without waiting (used by batch consumers)."""
        items = list(self._items)
        self._items.clear()
        return items
