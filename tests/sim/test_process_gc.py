"""Finished processes are freed by reference counting.

A process keeps a bound method of itself for resumption; unless the kernel
drops it when the process finishes, every finished process (with its
generator) forms a reference cycle that only the cyclic collector frees.
These tests run seeded scenarios with the collector off and
``gc.DEBUG_SAVEALL`` set, then collect once: any finished ``Process`` or
generator still caught in a cycle lands in ``gc.garbage``.
"""

import gc
import types

import pytest

from repro.raft.node import RaftNode
from repro.sim.core import Interrupt, Process, Simulator
from tests.raft.test_raft import build_group
from tests.sim.test_kernel_stress import _run, _scenario


@pytest.fixture
def saved_garbage():
    """Run the body with the collector off; yield a function that collects
    and returns the cyclic garbage created meanwhile."""
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    del gc.garbage[:]

    def collect():
        gc.collect()
        return list(gc.garbage)

    try:
        yield collect
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        if was_enabled:
            gc.enable()


def _leaked(garbage):
    """Processes and generators in the cyclic garbage that nothing
    long-lived holds on purpose.

    A simulator publishes the last process it resumed, and a Raft node
    keeps its event-loop process; when those holders sit in a cycle of
    their own (simulator and runtime, node and group) the process is
    collected along with them.  Every other finished process must have
    been freed already.
    """
    held = set()
    for obj in garbage:
        if isinstance(obj, Simulator):
            held.add(id(obj._active_process))
        elif isinstance(obj, RaftNode):
            held.add(id(obj._proc))
    processes = [o for o in garbage
                 if isinstance(o, Process) and id(o) not in held]
    generators = [o for o in garbage if isinstance(o, types.GeneratorType)]
    return processes, generators


def test_kernel_stress_scenario_leaves_no_process_cycles(saved_garbage):
    trace, _now = _run(_scenario(1))
    assert trace
    assert _leaked(saved_garbage()) == ([], [])


def test_raft_group_leaves_no_process_cycles(saved_garbage):
    def run():
        sim, group = build_group(voters=3)
        leader = sim.run_process(group.wait_for_leader())

        def body():
            results = []
            for i in range(6):
                results.append((yield leader.propose(f"c{i}")))
            return results

        assert len(sim.run_process(body())) == 6
        group.stop()
        sim.run()
        assert not any(node._proc.is_alive for node in group.nodes.values())

    run()
    assert _leaked(saved_garbage()) == ([], [])


def test_interrupting_a_finished_process_is_a_noop():
    sim = Simulator()

    def body():
        yield sim.timeout(5)
        return "done"

    proc = sim.process(body())
    sim.run()
    proc.interrupt("late")
    sim.run()
    assert proc.ok and proc.value == "done"


def test_late_resume_of_a_finished_process_is_a_noop():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def body():
        try:
            yield gate
        except Interrupt:  # pragma: no cover - must not be delivered
            caught.append(True)
        return "done"

    proc = sim.process(body())
    sim.run()
    # Same timestamp: the gate resumes and finishes the process, then the
    # interrupt queued behind it arrives at a finished process.
    gate.succeed()
    proc.interrupt("late")
    sim.run()
    assert proc.ok and proc.value == "done"
    assert caught == []
