"""Priority frontier for pending downloads.

Rules:

* one live entry per URL;
* seeds have priority ``SEED`` (+inf), above every score, so they pop first;
* entries pop by highest priority, ties broken FIFO by insertion, so an
  all-equal-priority crawl degenerates to breadth-first order;
* re-discovering a URL can only raise its priority (max-update), never lower
  it, and never changes its insertion sequence;
* once popped, a URL is terminal: later pushes are ignored.

The crawl is single-threaded, so a frontier takes no lock.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import FrontierEmpty


# Above every score in [0, 1]; no other +inf priority is accepted.
SEED = math.inf


@dataclass
class FrontierEntry:
    url: str
    priority: float
    insertion_seq: int
    fetched: bool = False


class Frontier:
    def __init__(self):
        self._entries: dict[str, FrontierEntry] = {}
        self._heap: list[tuple[float, int, str]] = []
        self._pending = 0

    def __len__(self) -> int:
        return self._pending

    def entry(self, url: str) -> FrontierEntry | None:
        return self._entries.get(url)

    def is_fetched(self, url: str) -> bool:
        """Whether the URL has been popped; pushing it again changes nothing."""
        entry = self._entries.get(url)
        return entry is not None and entry.fetched

    def push_or_raise(self, url: str, priority: float) -> None:
        """Insert the URL, or raise its priority if it is already pending.

        Terminal (already fetched) URLs are ignored.
        """
        if priority is not SEED and not 0.0 <= priority <= 1.0:
            raise ValueError(f"priority must be in [0,1] or SEED, got {priority!r}")
        entry = self._entries.get(url)
        if entry is None:
            # Entries are never removed, so the count is the insertion sequence.
            entry = FrontierEntry(url=url, priority=priority, insertion_seq=len(self._entries))
            self._pending += 1
            self._entries[url] = entry
        elif entry.fetched or priority <= entry.priority:
            return
        entry.priority = priority
        heapq.heappush(self._heap, (-priority, entry.insertion_seq, url))

    def pop_max(self) -> FrontierEntry:
        """Remove and return the best pending entry; it becomes terminal.

        Raises:
            FrontierEmpty: nothing is pending.
        """
        while self._heap:
            _, _, url = heapq.heappop(self._heap)
            entry = self._entries[url]
            # A raise pushes a strictly better key, so an entry's newest
            # item pops first; its older items pop after it is fetched.
            if entry.fetched:
                continue
            entry.fetched = True
            self._pending -= 1
            return entry
        raise FrontierEmpty("no pending entries")
