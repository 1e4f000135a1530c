"""Property-based tests for RaftLog against a naive reference model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raft.log import LogEntry, RaftLog


class ReferenceLog:
    """Plain-list model of the Raft log semantics."""

    def __init__(self):
        self.entries = []  # list of (term, command); index = position+1

    def append(self, term, command):
        self.entries.append((term, command))

    def term_at(self, index):
        if index == 0:
            return 0
        if 1 <= index <= len(self.entries):
            return self.entries[index - 1][0]
        return None

    def merge(self, prev_index, new):
        for offset, (term, command) in enumerate(new):
            index = prev_index + 1 + offset
            existing = self.term_at(index)
            if existing is None:
                self.entries.append((term, command))
            elif existing != term:
                del self.entries[index - 1:]
                self.entries.append((term, command))


_entry = st.tuples(st.integers(1, 4), st.integers(0, 99))


@settings(max_examples=150, deadline=None)
@given(st.lists(_entry, max_size=15),
       st.lists(st.tuples(st.integers(0, 12), st.lists(_entry, max_size=6)),
                max_size=6))
def test_merge_matches_reference(initial, merges):
    """Arbitrary merge sequences leave RaftLog identical to the model
    (monotone-term inputs, as Raft guarantees for shipped entries)."""
    log = RaftLog()
    ref = ReferenceLog()
    term_floor = 1
    for term, command in initial:
        term = max(term, term_floor)
        term_floor = term
        log.append(term, command)
        ref.append(term, command)
    for prev_index, batch in merges:
        prev_index = min(prev_index, log.last_index)
        entries = []
        base_term = ref.term_at(prev_index)
        if base_term is None:
            continue
        term_floor = max(base_term, 1)
        for offset, (term, command) in enumerate(batch):
            term = max(term, term_floor)
            term_floor = term
            entries.append(LogEntry(term, prev_index + 1 + offset, command))
        log.merge(prev_index, entries)
        ref.merge(prev_index, [(e.term, e.command) for e in entries])
    assert log.last_index == len(ref.entries)
    for index in range(1, log.last_index + 1):
        assert log.term_at(index) == ref.term_at(index)
        assert log.entry(index).command == ref.entries[index - 1][1]


@settings(max_examples=150, deadline=None)
@given(st.lists(_entry, min_size=1, max_size=20), st.data())
def test_compaction_preserves_suffix(entries, data):
    log = RaftLog()
    term_floor = 1
    for term, command in entries:
        term = max(term, term_floor)
        term_floor = term
        log.append(term, command)
    cut = data.draw(st.integers(0, log.last_index))
    before = [(log.term_at(i), log.entry(i).command)
              for i in range(cut + 1, log.last_index + 1)]
    cut_term = log.term_at(cut)
    log.compact_to(cut, cut_term)
    after = [(log.term_at(i), log.entry(i).command)
             for i in range(cut + 1, log.last_index + 1)]
    assert before == after
    assert log.base_index == max(cut, 0)
    assert log.term_at(cut) == cut_term


def _reference_merge(entries, base, prev_index, batch):
    """Skip-aware merge over a plain ``(term, command)`` list; returns the
    number of entries appended.

    Entries at or below the snapshot boundary ``base`` are skipped; the
    rest follow :class:`ReferenceLog` semantics.
    """
    appended = 0
    for offset, (term, command) in enumerate(batch):
        index = prev_index + 1 + offset
        if index <= base:
            continue
        if index > len(entries):
            entries.append((term, command))
            appended += 1
        elif entries[index - 1][0] != term:
            del entries[index - 1:]
            entries.append((term, command))
            appended += 1
    return appended


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=15), st.data())
def test_merge_after_compaction_matches_reference(steps, data):
    """Merges after ``compact_to``: batches straddling ``base_index``, a
    batch wholly below it, and a conflict part-way through a batch."""
    terms, term = [], 1
    for step in steps:
        term += step
        terms.append(term)
    log = RaftLog()
    for index, term in enumerate(terms, start=1):
        log.append(term, ("old", index))
    base = data.draw(st.integers(0, len(terms)), label="base")
    log.compact_to(base, log.term_at(base))
    prev_index = data.draw(st.integers(0, len(terms)), label="prev_index")
    size = data.draw(st.integers(0, 8), label="size")
    # Entries before ``conflict_at`` repeat the log (or, below the
    # boundary, carry arbitrary terms the log must ignore); from there on
    # they carry a term newer than any in the log, so the first one that
    # overlaps the log conflicts.
    conflict_at = data.draw(st.integers(0, size), label="conflict_at")
    newer = terms[-1] + 1
    batch = []
    for offset in range(size):
        index = prev_index + 1 + offset
        if offset >= conflict_at or index > len(terms):
            batch_term = newer
        elif index <= base:
            batch_term = data.draw(st.integers(1, newer), label="below")
        else:
            batch_term = terms[index - 1]
        batch.append(LogEntry(batch_term, index, ("new", index)))

    def suffix():
        return [(log.term_at(i), log.entry(i).command)
                for i in range(base + 1, log.last_index + 1)]

    before = suffix()
    expected = [(t, ("old", i)) for i, t in enumerate(terms, start=1)]
    expected_appended = _reference_merge(
        expected, base, prev_index, [(e.term, e.command) for e in batch])
    appended = log.merge(prev_index, batch)

    assert appended == expected_appended
    assert log.base_index == base
    assert log.last_index == len(expected)
    assert suffix() == expected[base:]
    if prev_index + size <= base:
        # Wholly below the snapshot: nothing appended, log untouched.
        assert appended == 0
        assert suffix() == before
