"""Classification metrics and download-decile curves."""
from __future__ import annotations

from dataclasses import dataclass

DECILE_PERCENTS = tuple(range(0, 101, 10))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count matrix, rows = gold label, columns = predicted label."""

    labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.counts) != n or any(len(row) != n for row in self.counts):
            raise ValueError("confusion matrix must be square over labels")
        if any(cell < 0 for row in self.counts for cell in row):
            raise ValueError("confusion matrix counts must be non-negative")

    def index(self, label: str) -> int:
        return self.labels.index(label)


def confusion_matrix(gold, predicted, labels) -> ConfusionMatrix:
    """Tally gold/predicted label sequences into a matrix over ``labels``."""
    gold = list(gold)
    predicted = list(predicted)
    if len(gold) != len(predicted):
        raise ValueError("gold and predicted must have equal length")
    labels = tuple(labels)
    pos = {label: i for i, label in enumerate(labels)}
    counts = [[0] * len(labels) for _ in labels]
    for g, p in zip(gold, predicted):
        counts[pos[g]][pos[p]] += 1
    return ConfusionMatrix(labels=labels, counts=tuple(tuple(row) for row in counts))


def prf(cm: ConfusionMatrix, label: str) -> tuple[float, float, float]:
    """Precision, recall, F1 for one label; zero denominators yield 0."""
    i = cm.index(label)
    tp = cm.counts[i][i]
    predicted = sum(row[i] for row in cm.counts)
    gold = sum(cm.counts[i])
    precision = tp / predicted if predicted else 0.0
    recall = tp / gold if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def macro_prf(cm: ConfusionMatrix) -> tuple[float, float, float]:
    """Unweighted means of per-label precision, recall, and F1."""
    if not cm.labels:
        raise ValueError("confusion matrix has no labels")
    rows = [prf(cm, label) for label in cm.labels]
    n = len(rows)
    return (
        sum(r[0] for r in rows) / n,
        sum(r[1] for r in rows) / n,
        sum(r[2] for r in rows) / n,
    )


def site_curves(events) -> "dict[str, tuple[int, ...]]":
    """Each site's curve over ``(site, is_hit)`` download events in crawl
    order: its cumulative hit counts at each of ``DECILE_PERCENTS`` of its
    own downloads, keyed by site in order of first download."""
    per_site: dict[str, list[bool]] = {}
    for site, hit in events:
        per_site.setdefault(site, []).append(bool(hit))
    return {site: tuple(hits[: percent * len(hits) // 100].count(True) for percent in DECILE_PERCENTS)
            for site, hits in per_site.items()}


def decile_curve(events) -> "tuple[int, ...]":
    """Aggregate curve over ``(site, is_hit)`` download events: the sum of
    their ``site_curves``.  An empty log yields the all-zero curve."""
    return tuple(map(sum, zip(*site_curves(events).values()))) or (0,) * len(DECILE_PERCENTS)


def write_curve_tsv(curve: "tuple[int, ...]", path) -> None:
    """Write ``percent<TAB>count`` rows; the '#' header keeps the file
    directly consumable by gnuplot."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# percent\tparallel_documents\n")
        for percent, count in zip(DECILE_PERCENTS, curve):
            handle.write(f"{percent}\t{count}\n")
