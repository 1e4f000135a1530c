"""Property test: the leader's quorum commit rule against the index walk.

``RaftNode._advance_commit`` takes N, the quorum-th largest replicated
index over the voters, and commits it when ``log[N].term`` is the current
term.  The reference model below is the rule written out index by index:
walk down from the last log index, stop at the first entry of an older
term, and commit the first index a voter majority holds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raft.node import Role
from tests.raft.test_raft import build_group


def _walk_commit(node):
    """Reference model: the downward walk over every uncommitted index."""
    voters = node.group.voter_ids()
    for candidate in range(node.log.last_index, node.commit_index, -1):
        if node.log.term_at(candidate) != node.current_term:
            break
        replicated = sum(
            1 for vid in voters
            if vid == node.id or node._match_index.get(vid, 0) >= candidate)
        if replicated >= node.group.quorum():
            return candidate
    return node.commit_index


@st.composite
def _leader_states(draw):
    voters = draw(st.integers(1, 5))
    learners = draw(st.integers(0, 2))
    leader_id = draw(st.integers(0, voters - 1))
    # Non-decreasing log terms, none above the leader's current term; the
    # current-term suffix may be empty, partial or the whole log.
    steps = draw(st.lists(st.integers(0, 1), max_size=14))
    terms, term = [], 1
    for step in steps:
        term += step
        terms.append(term)
    current_term = term + draw(st.integers(0, 1))
    last = len(terms)
    commit = draw(st.integers(0, last))
    base = draw(st.integers(0, commit))
    # Stale matches, matches past the leader's last index, and replicas
    # the leader has not heard from yet (no entry at all).
    matches = {}
    for rid in range(voters + learners):
        if rid != leader_id and draw(st.booleans()):
            matches[rid] = draw(st.integers(0, last + 3))
    return voters, learners, leader_id, terms, current_term, commit, \
        base, matches


@settings(max_examples=300, deadline=None)
@given(_leader_states())
def test_quorum_rule_matches_walk(state):
    voters, learners, leader_id, terms, current_term, commit, base, \
        matches = state
    _sim, group = build_group(voters=voters, learners=learners)
    node = group.nodes[leader_id]
    for index, term in enumerate(terms, start=1):
        node.log.append(term, ("cmd", index))
    if base:
        node.log.compact_to(base, node.log.term_at(base))
    node.role = Role.LEADER
    node.current_term = current_term
    node.commit_index = node.last_applied = commit
    node._match_index = dict(matches)
    expected = _walk_commit(node)
    # The commit point is chosen before the first yield (the apply that
    # follows charges CPU); one step is enough to observe it.
    next(node._advance_commit(), None)
    assert node.commit_index == expected
