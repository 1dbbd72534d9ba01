"""Priority frontier for pending downloads.

Rules:

* one live entry per URL;
* seeds sit in a distinguished tier above every numeric priority and pop in
  insertion order;
* numeric entries pop by highest priority, ties broken FIFO by insertion, so
  an all-equal-priority crawl degenerates to breadth-first order;
* re-discovering a URL can only raise its priority (max-update), never lower
  it, and never changes its insertion sequence;
* once popped, a URL is terminal: later pushes are ignored.

Operations take a lock so concurrent ``push_or_raise``/``pop_max`` keep the
max-update semantics; the simulator uses it single-threaded.
"""
from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass

from .errors import FrontierEmpty


class _SeedTier:
    def __repr__(self) -> str:
        return "SEED"


SEED = _SeedTier()

PENDING = "pending"
FETCHED = "fetched"


@dataclass
class FrontierEntry:
    url: str
    priority: "float | _SeedTier"
    insertion_seq: int
    state: str = PENDING

    @property
    def is_seed(self) -> bool:
        return self.priority is SEED


def _heap_key(entry: FrontierEntry) -> tuple:
    if entry.is_seed:
        return (0, entry.insertion_seq, 0.0)
    return (1, -entry.priority, entry.insertion_seq)


class Frontier:
    def __init__(self):
        self._entries: dict[str, FrontierEntry] = {}
        self._heap: list[tuple[tuple, str, object]] = []
        self._next_seq = 0
        self._pending = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return self._pending

    def entry(self, url: str) -> FrontierEntry | None:
        with self._lock:
            return self._entries.get(url)

    def push_or_raise(self, url: str, priority: "float | _SeedTier") -> None:
        """Insert the URL, or raise its priority if it is already pending.

        Terminal (already fetched) URLs are ignored.
        """
        if priority is not SEED and not 0.0 <= priority <= 1.0:
            raise ValueError(f"priority must be in [0,1] or SEED, got {priority!r}")
        with self._lock:
            entry = self._entries.get(url)
            if entry is None:
                entry = FrontierEntry(url=url, priority=priority, insertion_seq=self._next_seq)
                self._next_seq += 1
                self._pending += 1
                self._entries[url] = entry
                heapq.heappush(self._heap, (_heap_key(entry), url, entry.priority))
                return
            if entry.state != PENDING:
                return
            if entry.is_seed:
                return
            if priority is SEED or priority > entry.priority:
                entry.priority = priority
                heapq.heappush(self._heap, (_heap_key(entry), url, entry.priority))

    def pop_max(self) -> FrontierEntry:
        """Remove and return the best pending entry; it becomes terminal.

        Raises:
            FrontierEmpty: nothing is pending.
        """
        with self._lock:
            while self._heap:
                _, url, priority_snapshot = heapq.heappop(self._heap)
                entry = self._entries[url]
                if entry.state != PENDING:
                    continue
                if entry.priority != priority_snapshot:
                    continue  # stale heap item from an earlier priority
                entry.state = FETCHED
                self._pending -= 1
                return entry
            raise FrontierEmpty("no pending entries")
