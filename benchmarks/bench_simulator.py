"""Wall-clock micro-benchmarks of the DES kernel and TafDB substrate.

The whole reproduction rides on the event loop: these benchmarks track how
many simulated events/transactions per wall-second the kernel sustains.
"""

from repro.sim.core import AnyOf, Simulator
from repro.sim.host import Host
from repro.sim.resources import Resource, Store
from repro.tafdb.rows import Dirent, attr_key, dirent_key
from repro.tafdb.shard import ShardState, WriteIntent
from repro.types import AttrMeta, EntryKind


def test_kernel_timeout_churn(benchmark):
    def run():
        sim = Simulator()
        done = []

        def worker(i):
            for _ in range(20):
                yield sim.timeout(1)
            done.append(i)

        for i in range(200):
            sim.process(worker(i))
        sim.run()
        return len(done)

    assert benchmark(run) == 200


def test_kernel_resource_contention(benchmark):
    def run():
        sim = Simulator()
        host = Host(sim, "h", cores=4)

        def worker():
            for _ in range(10):
                yield from host.work(5)

        for _ in range(50):
            sim.process(worker())
        sim.run()
        return sim.now

    assert benchmark(run) > 0


def test_kernel_immediate_resume_chain(benchmark):
    """Zero-delay yields: the microtask-deque fast path in Process._resume."""
    def run():
        sim = Simulator()
        done = []

        def worker(i):
            for _ in range(100):
                event = sim.event()
                event.succeed()
                yield event
            done.append(i)

        for i in range(50):
            sim.process(worker(i))
        sim.run()
        return len(done)

    assert benchmark(run) == 50


def test_kernel_uncontended_resource(benchmark):
    """request()/release() with free capacity: the counters-only grant path."""
    def run():
        sim = Simulator()
        resource = Resource(sim, capacity=4)

        def worker():
            for _ in range(500):
                request = resource.request()
                yield request
                resource.release(request)

        sim.process(worker())
        sim.run()
        return resource.total_grants

    assert benchmark(run) == 500


def test_kernel_store_pingpong(benchmark):
    """put/get hand-off between two processes, like every RPC reply queue."""
    def run():
        sim = Simulator()
        store = Store(sim)
        received = []

        def producer():
            for i in range(500):
                store.put(i)
                yield sim.timeout(1)

        def consumer():
            for _ in range(500):
                item = yield store.get()
                received.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        return len(received)

    assert benchmark(run) == 500


def test_kernel_anyof_fanout(benchmark):
    """AnyOf over 64 events: the O(1) winner-index lookup."""
    def run():
        sim = Simulator()
        winners = []

        def worker():
            for round_no in range(30):
                timeouts = [sim.timeout(1 + ((round_no + k) % 7))
                            for k in range(64)]
                first = yield AnyOf(sim, timeouts)
                winners.append(first)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        return len(winners)

    assert benchmark(run) == 120


def test_shard_single_shard_txns(benchmark):
    def run():
        shard = ShardState()
        shard.execute("seed", [WriteIntent(
            attr_key(1), "insert", AttrMeta(id=1, kind=EntryKind.DIRECTORY))])
        for i in range(1000):
            shard.execute(f"t{i}", [WriteIntent(
                dirent_key(1, f"o{i}"), "insert",
                Dirent(id=i + 10, kind=EntryKind.OBJECT,
                       attrs=AttrMeta(id=i + 10, kind=EntryKind.OBJECT)))])
        return shard.row_count

    assert benchmark(run) == 1001


def test_shard_scan_children(benchmark):
    shard = ShardState()
    shard.execute("seed", [WriteIntent(
        attr_key(1), "insert", AttrMeta(id=1, kind=EntryKind.DIRECTORY))])
    for i in range(1000):
        shard.execute(f"t{i}", [WriteIntent(
            dirent_key(1, f"o{i:04d}"), "insert",
            Dirent(id=i + 10, kind=EntryKind.OBJECT,
                   attrs=AttrMeta(id=i + 10, kind=EntryKind.OBJECT)))])

    def scan():
        return shard.scan_children(1, limit=100)

    assert len(benchmark(scan)) == 100
