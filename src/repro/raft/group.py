"""Wiring for one Raft replication group (IndexNode's availability story)."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ServiceUnavailableError
from repro.raft.node import RaftConfig, RaftNode, Role
from repro.sim.core import Simulator
from repro.sim.host import CostModel, Host
from repro.sim.network import Network


class RaftGroup:
    """A set of voter replicas plus optional learner (read) replicas.

    ``state_machine_factory(node_id)`` builds one state machine per replica;
    since every replica applies the same committed commands in order, the
    machines converge (the paper's "identical in-memory data structures,
    independently constructed by each node").
    """

    def __init__(self, sim: Simulator, network: Network, hosts: List[Host],
                 state_machine_factory: Callable[[int], object],
                 num_voters: int, num_learners: int = 0,
                 config: Optional[RaftConfig] = None,
                 costs: Optional[CostModel] = None, seed: int = 0):
        if num_voters < 1:
            raise ValueError("need at least one voter")
        if len(hosts) != num_voters + num_learners:
            raise ValueError("host count must equal voters + learners")
        self.sim = sim
        self.network = network
        self.costs = costs or CostModel()
        self.config = config or RaftConfig()
        self.nodes: Dict[int, RaftNode] = {}
        self._voter_ids = list(range(num_voters))
        self._learner_ids = list(range(num_voters, num_voters + num_learners))
        for node_id, host in enumerate(hosts):
            self.nodes[node_id] = RaftNode(
                node_id, host, self,
                state_machine_factory(node_id),
                config=self.config,
                is_learner=node_id >= num_voters,
                seed=seed)
        self.messages_sent = 0

    # -- membership ------------------------------------------------------------

    def voter_ids(self) -> List[int]:
        return list(self._voter_ids)

    def learner_ids(self) -> List[int]:
        return list(self._learner_ids)

    def replica_ids(self) -> List[int]:
        return self._voter_ids + self._learner_ids

    def quorum(self) -> int:
        return len(self._voter_ids) // 2 + 1

    # -- transport ----------------------------------------------------------------

    def send(self, from_id: int, to_id: int, message) -> None:
        """Asynchronous message delivery with network latency."""
        self.messages_sent += 1
        self.sim.process(self._deliver(to_id, message),
                         name=f"raft-msg-{from_id}-{to_id}")

    def _deliver(self, to_id: int, message):
        tracer = self.sim.tracer
        if tracer.enabled:
            # Attribute the flight to the destination replica's host so
            # replication traffic shows up against the IndexNode servers
            # in cost-center and critical-path views (an undelivered
            # message to a stopped node keeps the host label: the wire
            # time was spent regardless).  Membership can change
            # mid-flight; the drop check below re-looks the target up at
            # arrival time.
            target = self.nodes.get(to_id)
            host = target.host.name if target is not None else None
            span = tracer.begin("raft.msg:" + type(message).__name__,
                                self.sim.now, category="raft", host=host)
            sent_us = self.sim._now
            yield from self.network.transit()
            tracer.charge("wire", self.sim._now - sent_us, host)
        else:
            span = None
            yield from self.network.transit()
        target = self.nodes.get(to_id)
        dropped = target is None or target._stopped or target.host.crashed
        if span is not None:
            span.annotate(to=to_id, dropped=dropped)
            tracer.end(span, self.sim.now, ok=not dropped)
        if dropped:
            return  # dropped on the floor, like a real network
        target.mailbox.put(message)

    # -- leadership helpers ------------------------------------------------------------

    def current_leader(self) -> Optional[RaftNode]:
        leaders = [n for n in self.nodes.values()
                   if n.role is Role.LEADER and not n._stopped]
        if not leaders:
            return None
        return max(leaders, key=lambda n: n.current_term)

    def wait_for_leader(self, poll_us: float = 5_000.0,
                        timeout_us: float = 10_000_000.0):
        """Generator: poll until a leader exists; returns the leader node."""
        deadline = self.sim.now + timeout_us
        while self.sim.now < deadline:
            leader = self.current_leader()
            if leader is not None:
                return leader
            yield self.sim.timeout(poll_us)
        raise ServiceUnavailableError("raft leader (election timed out)")

    def leader_or_raise(self) -> RaftNode:
        leader = self.current_leader()
        if leader is None:
            raise ServiceUnavailableError("raft leader")
        return leader

    def stop(self) -> None:
        for node in self.nodes.values():
            node.stop()

    # -- fault injection ----------------------------------------------------------------

    def crash_node(self, node_id: int) -> None:
        node = self.nodes[node_id]
        node.host.crash()
        node.stop()

    @property
    def total_fsyncs(self) -> int:
        return sum(n.host.fsync_count for n in self.nodes.values())
