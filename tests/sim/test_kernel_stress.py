"""Randomized kernel stress: seeded scenarios pinned to golden traces.

Each seed expands into a scenario *plan* — plain data: hosts, servers,
client scripts, store ping-pongs, interrupts, standing watchdogs — before
any simulator exists, so the replay is a pure function of the seed.  The
executed event trace (timestamps, actors, values) is pinned by its sha256
digest and the final clock by its exact value, both captured when three
interchangeable schedulers still agreed on them.  Any drift is an ordering
change in the kernel (or in the shared network/host/resource code), and
the seed reproduces it.
"""

import hashlib
import random

import pytest

from repro.sim.core import AnyOf, Interrupt, Simulator
from repro.sim.host import Host
from repro.sim.network import Network, Server
from repro.sim.resources import Store


class _Echo(Server):
    def __init__(self, host, work_us):
        super().__init__(host)
        self.work_us = work_us

    def rpc_echo(self, value):
        yield from self.host.work(self.work_us)
        return value


def _scenario(seed):
    """Expand ``seed`` into a kernel-independent scenario plan."""
    rng = random.Random(seed)
    num_hosts = rng.randint(2, 6)
    plan = {
        "num_hosts": num_hosts,
        "cores": [rng.randint(1, 4) for _ in range(num_hosts)],
        "work_us": [round(rng.uniform(1.0, 20.0), 3)
                    for _ in range(num_hosts)],
        "jitter": rng.choice([0.0, 0.0, 0.25]),
        "net_seed": rng.randint(0, 10_000),
        "watchdogs": [(rng.randrange(num_hosts),
                       round(rng.uniform(500.0, 2_000.0), 3))
                      for _ in range(rng.randint(0, 12))],
        "clients": [],
        "pairs": [],
        "interrupts": [],
    }
    for cid in range(rng.randint(2, 8)):
        ops = []
        for _ in range(rng.randint(3, 8)):
            kind = rng.choice(["sleep", "work", "rpc", "rpc", "fsync",
                               "anyof"])
            if kind == "sleep":
                ops.append(("sleep", round(rng.uniform(0.0, 30.0), 3)))
            elif kind == "work":
                ops.append(("work", round(rng.uniform(0.5, 10.0), 3)))
            elif kind == "rpc":
                ops.append(("rpc", rng.randrange(num_hosts)))
            elif kind == "fsync":
                ops.append(("fsync",))
            else:
                ops.append(("anyof", sorted(
                    round(rng.uniform(1.0, 25.0), 3)
                    for _ in range(rng.randint(2, 3)))))
        plan["clients"].append({
            "home": rng.randrange(num_hosts),
            "phase": round(rng.uniform(0.0, 10.0), 3),
            "ops": ops,
        })
    for pid in range(rng.randint(0, 2)):
        plan["pairs"].append({
            "producer_home": rng.randrange(num_hosts),
            "consumer_home": rng.randrange(num_hosts),
            "items": rng.randint(1, 4),
            "gaps": [round(rng.uniform(1.0, 40.0), 3)
                     for _ in range(4)],
        })
    for sid in range(rng.randint(0, 2)):
        plan["interrupts"].append({
            "victim_home": rng.randrange(num_hosts),
            "at": round(rng.uniform(5.0, 200.0), 3),
        })
    return plan


def _run(plan):
    """Replay ``plan``; return (trace, final sim.now)."""
    sim = Simulator()
    net = Network(sim, one_way_us=50.0, jitter_frac=plan["jitter"],
                  seed=plan["net_seed"])
    hosts = [Host(sim, f"h{i}", cores=plan["cores"][i], fsync_us=80.0)
             for i in range(plan["num_hosts"])]
    servers = [_Echo(host, plan["work_us"][i])
               for i, host in enumerate(hosts)]
    trace = []

    for hid, delay in plan["watchdogs"]:
        # Standing timers: fire late, to nobody.
        sim.timeout(delay)

    def client(cid, spec):
        home = hosts[spec["home"]]
        yield sim.timeout(spec["phase"])
        for idx, op in enumerate(spec["ops"]):
            kind = op[0]
            if kind == "sleep":
                yield sim.timeout(op[1])
                trace.append((sim.now, cid, idx, "slept"))
            elif kind == "work":
                yield from home.work(op[1])
                trace.append((sim.now, cid, idx, "worked"))
            elif kind == "fsync":
                yield from home.fsync()
                trace.append((sim.now, cid, idx, "synced"))
            elif kind == "rpc":
                reply = yield from net.rpc(servers[op[1]], "echo",
                                           (cid, idx))
                trace.append((sim.now, cid, idx, "rpc", reply))
            else:
                first, _ = yield AnyOf(
                    sim, [sim.timeout(d) for d in op[1]])
                trace.append((sim.now, cid, idx, "anyof", first))

    def producer(pid, spec, store):
        home = hosts[spec["producer_home"]]
        for i in range(spec["items"]):
            yield sim.timeout(spec["gaps"][i])
            yield from home.work(1.0)
            store.put((pid, i))
            trace.append((sim.now, "put", pid, i))

    def consumer(pid, spec, store):
        for _ in range(spec["items"]):
            value = yield store.get()
            trace.append((sim.now, "got", pid, value))

    def sleeper(sid):
        try:
            yield sim.timeout(10_000.0)
            trace.append((sim.now, sid, "overslept"))
        except Interrupt as exc:
            trace.append((sim.now, sid, "interrupted", str(exc.cause)))

    def interrupter(victim, at, sid):
        yield sim.timeout(at)
        victim.interrupt(f"poke-{sid}")

    for cid, spec in enumerate(plan["clients"]):
        sim.process(client(cid, spec), name=f"client-{cid}")
    for pid, spec in enumerate(plan["pairs"]):
        store = Store(sim)
        sim.process(producer(pid, spec, store), name=f"prod-{pid}")
        sim.process(consumer(pid, spec, store), name=f"cons-{pid}")
    for sid, spec in enumerate(plan["interrupts"]):
        victim = sim.process(sleeper(sid), name=f"sleeper-{sid}")
        sim.process(interrupter(victim, spec["at"], sid))
    sim.run()
    return trace, sim.now

#: seed -> (sha256 of the trace repr, final sim.now, trace length).
_GOLDEN = {
    0: ("b1f9ece1f32f2d445fe6469a3752a7e30ed8780307701468af08aeaff8476d45",
        10000.0, 28),
    1: ("1de1f16083a6819b5f08572d0b713aae5e8481c23d5abd1d96bf2aa44ecbb32d",
        10000.0, 48),
    2: ("9d8f1c8686c6eabdd6233d81a607f00098823964bca01c676d075f885934b41e",
        1999.578, 30),
    3: ("704f62453f8b4caddc3f8583b1154b45586e004a8b427e73e3cce29148a2d7e7",
        1791.533, 31),
    4: ("10ebe9ba8a78598f3807dd36c820566996fcb9de266871d0ad1a69761b408a43",
        10000.0, 14),
    5: ("dc7e86aaec7963df6be082ad537fd79642dfb880b9675c2f8191cc693d7ec732",
        10000.0, 28),
    6: ("bcb1a5b9ef0203954baf2803cd85b13dc5e432a9525a49ab19f9fdc1bb0575a0",
        10000.0, 35),
    7: ("556cf7cbe2dd0c95d6eae3265fff936f2032a83268a3bb43e0d2dba99fda73dc",
        10000.0, 23),
    8: ("d4aa975cc555bba85d6db3d6e738bca9da122d964ed35dac11a3c85525d25324",
        1638.536, 40),
    9: ("7408946b469cf812e12457c2ed7f86cfc60300b42af3760f2adafeaded19ac25",
        10000.0, 34),
    1234: ("730f70f27fea0f5c911dc704f70d7202088eae8cc4307c1af99d250f41e75a51",
        1868.473, 23),
}


def _digest(trace):
    return hashlib.sha256(repr(trace).encode()).hexdigest()


class TestKernelStress:
    @pytest.mark.parametrize("seed", sorted(_GOLDEN))
    def test_trace_matches_golden(self, seed):
        trace, final_now = _run(_scenario(seed))
        assert (_digest(trace), final_now, len(trace)) == _GOLDEN[seed]
