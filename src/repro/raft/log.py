"""The replicated log, with snapshot-based compaction.

1-indexed and append-only; a snapshot cuts the prefix up to
``base_index`` (whose term is retained for the consistency check).  Index 0
— or, after compaction, ``base_index`` — is the anchoring sentinel.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Optional, Sequence


@dataclasses.dataclass(frozen=True)
class LogEntry:
    """One replicated command, stamped with the leader term that created it."""

    term: int
    index: int
    command: Any


class RaftLog:
    """Append-only log with conflict truncation and prefix compaction."""

    def __init__(self):
        self._entries: List[LogEntry] = []
        self._base_index = 0
        self._base_term = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def base_index(self) -> int:
        """Index of the last snapshotted (compacted-away) entry."""
        return self._base_index

    @property
    def base_term(self) -> int:
        return self._base_term

    @property
    def last_index(self) -> int:
        return self._base_index + len(self._entries)

    @property
    def last_term(self) -> int:
        return self._entries[-1].term if self._entries else self._base_term

    def term_at(self, index: int) -> Optional[int]:
        """Term of the entry at ``index``; the base term at the snapshot
        boundary; None when the index is compacted away or beyond the end."""
        if index == self._base_index:
            return self._base_term
        offset = index - self._base_index
        if 1 <= offset <= len(self._entries):
            return self._entries[offset - 1].term
        return None

    def entry(self, index: int) -> LogEntry:
        offset = index - self._base_index
        if not 1 <= offset <= len(self._entries):
            raise IndexError(f"log index {index} out of range "
                             f"(base {self._base_index}, "
                             f"last {self.last_index})")
        return self._entries[offset - 1]

    def append(self, term: int, command: Any) -> LogEntry:
        entry = LogEntry(term, self.last_index + 1, command)
        self._entries.append(entry)
        return entry

    def entries_from(self, start: int, limit: int = 64) -> List[LogEntry]:
        """Entries with index >= ``start`` (at most ``limit``); entries
        before the snapshot boundary are gone — callers must check
        ``base_index`` first and fall back to snapshot installation."""
        start = max(start, self._base_index + 1)
        offset = start - self._base_index - 1
        return self._entries[offset:offset + limit]

    def matches(self, prev_index: int, prev_term: int) -> bool:
        """Raft consistency check for an AppendEntries at ``prev_index``."""
        term = self.term_at(prev_index)
        return term is not None and term == prev_term

    def merge(self, prev_index: int, entries: Sequence[LogEntry]) -> int:
        """Append ``entries`` after ``prev_index``, truncating conflicts.

        Entries at or below the snapshot boundary are already durable and
        are skipped.  Returns the number of *new* entries physically
        appended (for fsync accounting).
        """
        # Skip the part of the batch the snapshot already covers.
        offset = max(0, self._base_index - prev_index)
        log = self._entries
        # ``position`` indexes ``_entries`` for batch entry ``offset``.
        position = prev_index + offset - self._base_index
        overlap = min(len(entries), offset + len(log) - position)
        while (offset < overlap
               and log[position].term == entries[offset].term):
            offset += 1
            position += 1
        if offset < overlap:
            # Conflict: drop this entry and everything after it.
            del log[position:]
        new = entries[offset:]
        log.extend(new)
        return len(new)

    def up_to_date(self, other_last_index: int, other_last_term: int) -> bool:
        """Is (other_last_term, other_last_index) at least as current as us?
        (The §5.4.1 election restriction from the Raft paper.)"""
        if other_last_term != self.last_term:
            return other_last_term > self.last_term
        return other_last_index >= self.last_index

    # -- snapshotting -----------------------------------------------------------

    def compact_to(self, index: int, term: int) -> int:
        """Drop every entry up to and including ``index`` (snapshot taken).

        Returns the number of entries discarded."""
        if index <= self._base_index:
            return 0
        if index > self.last_index:
            raise IndexError(f"cannot compact past last index "
                             f"({index} > {self.last_index})")
        dropped = index - self._base_index
        del self._entries[:dropped]
        self._base_index = index
        self._base_term = term
        return dropped

    def reset_to(self, index: int, term: int) -> None:
        """Replace the whole log with a snapshot boundary (snapshot
        installation on a lagging replica)."""
        self._entries.clear()
        self._base_index = index
        self._base_term = term
