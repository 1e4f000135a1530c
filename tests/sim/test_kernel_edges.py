"""Edge-case tests for the DES kernel's failure and composition paths."""

import pytest

from repro.sim.core import (AllOf, AnyOf, Interrupt, SimulationError,
                             Simulator)


class TestConditionFailures:
    def test_all_of_fails_fast_on_child_failure(self):
        sim = Simulator()

        def failer():
            yield sim.timeout(2)
            raise ValueError("child exploded")

        def slow():
            yield sim.timeout(100)
            return "late"

        def body():
            try:
                yield AllOf(sim, [sim.process(failer()), sim.process(slow())])
            except ValueError as exc:
                return (str(exc), sim.now)

        assert sim.run_process(body()) == ("child exploded", 2.0)

    def test_any_of_failure_propagates(self):
        sim = Simulator()

        def failer():
            yield sim.timeout(1)
            raise KeyError("boom")

        def body():
            try:
                yield AnyOf(sim, [sim.process(failer()), sim.timeout(50)])
            except KeyError:
                return "caught"

        assert sim.run_process(body()) == "caught"

    def test_nested_conditions(self):
        sim = Simulator()

        def body():
            inner = AllOf(sim, [sim.timeout(3, "a"), sim.timeout(5, "b")])
            index, value = yield AnyOf(sim, [inner, sim.timeout(50, "slow")])
            return (index, value, sim.now)

        assert sim.run_process(body()) == (0, ["a", "b"], 5.0)

    def test_mixed_simulator_events_rejected(self):
        sim_a, sim_b = Simulator(), Simulator()
        from repro.sim.core import SimulationError
        with pytest.raises(SimulationError):
            AllOf(sim_a, [sim_a.timeout(1), sim_b.timeout(1)])


class TestInterruptEdges:
    def test_interrupt_during_resource_wait_releases_queue_slot(self):
        from repro.sim.resources import Resource
        sim = Simulator()
        res = Resource(sim, 1)
        order = []

        def holder():
            req = res.request()
            yield req
            try:
                yield sim.timeout(50)
            finally:
                res.release(req)
            order.append("holder")

        def victim():
            req = res.request()
            try:
                yield req
            except Interrupt:
                req.cancel()
                res.release(req)
                order.append("victim-interrupted")
                return

        def third():
            req = res.request()
            yield req
            res.release(req)
            order.append("third")

        sim.process(holder())
        victim_proc = sim.process(victim())
        sim.process(third())

        def attacker():
            yield sim.timeout(10)
            victim_proc.interrupt("bail")

        sim.process(attacker())
        sim.run()
        # The interrupted waiter must not block the third process.
        assert order == ["victim-interrupted", "holder", "third"]

    def test_interrupt_chain_unwinds_yield_from(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(100)

        def outer():
            try:
                yield from inner()
            except Interrupt as intr:
                return f"unwound:{intr.cause}"

        proc = sim.process(outer())

        def attacker():
            yield sim.timeout(5)
            proc.interrupt("deep")

        sim.process(attacker())
        sim.run()
        assert proc.value == "unwound:deep"


class TestRunSemantics:
    def test_run_until_leaves_unrelated_events_queued(self):
        sim = Simulator()
        late = []

        def background():
            yield sim.timeout(1000)
            late.append(sim.now)

        def quick():
            yield sim.timeout(5)
            return "done"

        sim.process(background())
        proc = sim.process(quick())
        sim.run_until(proc)
        assert proc.value == "done"
        assert late == []          # background still pending
        sim.run()
        assert late == [1000.0]    # and still runnable afterwards

    def test_clock_never_goes_backwards(self):
        sim = Simulator()
        stamps = []

        def worker(delay):
            yield sim.timeout(delay)
            stamps.append(sim.now)

        for delay in (5, 1, 9, 1, 7):
            sim.process(worker(delay))
        sim.run()
        assert stamps == sorted(stamps)

    def test_event_value_accessors_guarded(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok
        ev.succeed(7)
        assert ev.value == 7 and ev.ok

    def test_run_until_in_the_past_is_rejected(self):
        # Regression: with a later event still queued, run(until=t) for
        # t < now used to set the clock back to t.
        sim = Simulator()

        def late():
            yield sim.timeout(50)

        sim.process(late())
        sim.run(until=20)
        assert sim.now == 20.0
        with pytest.raises(SimulationError):
            sim.run(until=5)
        assert sim.now == 20.0
        sim.run()
        assert sim.now == 50.0

    def test_run_until_now_drains_due_events(self):
        sim = Simulator()
        fired = []

        def body():
            yield sim.timeout(10)
            ev = sim.event()
            ev.succeed()
            yield ev
            fired.append(sim.now)
            yield sim.timeout(10)
            fired.append(sim.now)

        sim.process(body())
        sim.run(until=10)
        assert fired == [10.0]
        sim.run(until=10)  # no-op: nothing more is due at t=10
        assert sim.now == 10.0 and fired == [10.0]
        sim.run()
        assert fired == [10.0, 20.0]


class TestDequeOrdering:
    def test_rounded_away_delay_takes_the_deque(self):
        """A positive delay that vanishes in floating point (``now + delay
        == now``) is a zero-delay event: it must join the microtask deque
        behind the triggers already there.  Were it pushed onto the heap
        at the current time, the run loop would pop it ahead of them."""
        sim = Simulator()
        order = []

        def body():
            yield sim.timeout(2.0 ** 60)
            first = sim.event()
            first.callbacks.append(lambda _ev: order.append("trigger"))
            first.succeed()
            tiny = sim.timeout(1.0)
            assert sim.now + 1.0 == sim.now
            assert tiny in sim._micro and not sim._queue
            tiny.callbacks.append(lambda _ev: order.append("timeout"))
            yield tiny

        sim.process(body())
        sim.run()
        assert order == ["trigger", "timeout"]
