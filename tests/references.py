"""Independent reference implementations used as oracles.

These deliberately use different data structures and algorithms than the
package code they check.
"""
from collections import deque

from bifocal.errors import FrontierEmpty
from bifocal.frontier import FETCHED, PENDING, SEED


class ReferenceFrontier:
    """O(n)-scan frontier with the same contracted behavior."""

    def __init__(self):
        self.entries = {}  # url -> [priority, seq, state]
        self.seq = 0

    def push_or_raise(self, url, priority):
        rec = self.entries.get(url)
        if rec is None:
            self.entries[url] = [priority, self.seq, PENDING]
            self.seq += 1
            return
        if rec[2] != PENDING or rec[0] is SEED:
            return
        if priority is SEED or priority > rec[0]:
            rec[0] = priority

    def pop_max(self):
        pending = [(u, r) for u, r in self.entries.items() if r[2] == PENDING]
        if not pending:
            raise FrontierEmpty("empty")
        seeds = [(u, r) for u, r in pending if r[0] is SEED]
        if seeds:
            url, rec = min(seeds, key=lambda ur: ur[1][1])
        else:
            url, rec = min(pending, key=lambda ur: (-ur[1][0], ur[1][1]))
        rec[2] = FETCHED
        return url, (SEED if rec[0] is SEED else rec[0])


def bfs_reference(graph, seeds, budget):
    """Queue-based breadth-first fetch order over a site graph."""
    order = []
    queue = deque(seeds)
    seen = set(seeds)
    while queue and len(order) < budget:
        url = queue.popleft()
        order.append(url)
        for link in graph.pages[url].links:
            if link not in seen:
                seen.add(link)
                queue.append(link)
    return order


def brute_force_prf(counts, labels, label):
    """Per-label metrics straight from the tp/fp/fn definitions."""
    i = labels.index(label)
    tp = counts[i][i]
    fp = sum(counts[r][i] for r in range(len(labels)) if r != i)
    fn = sum(counts[i][c] for c in range(len(labels)) if c != i)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def levenshtein_reference(a, b):
    """Unit-cost edit distance over token sequences from the full DP table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]
