"""Independent reference implementations used as oracles.

These deliberately use different data structures and algorithms than the
package code they check.
"""
from collections import deque

import numpy as np

from bifocal.datasets import STRATEGIES, _fold_domains, generate_negatives, mine_negatives_from_links
from bifocal.errors import DegenerateLabels, FrontierEmpty
from bifocal.frontier import FETCHED, PENDING, SEED
from bifocal.metrics import confusion_matrix, prf
from bifocal.pairscore import (
    LEARNING_RATE,
    TRAIN_STEPS,
    FeaturePairScorer,
    PairFeatureModel,
    pair_feature_vector,
)
from bifocal.urls import jaccard, normalize_url, parse_components


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


def pair_train_reference(data, seed=0):
    """One logistic pair model per call, from a plain per-model descent loop."""
    records = list(data)
    targets = np.array([1.0 if rec.label == "positive" else 0.0 for rec in records])
    if len(set(targets.tolist())) < 2:
        raise DegenerateLabels("pair training needs both positive and negative samples")
    matrix = np.array(
        [pair_feature_vector(rec.url_a, rec.url_b, rec.lang_a, rec.lang_b) for rec in records]
    )
    weights = np.zeros(matrix.shape[1])
    bias = 0.0
    count = len(records)
    for _ in range(TRAIN_STEPS):
        z = matrix @ weights + bias
        probs = 1.0 / (1.0 + np.exp(-z))
        err = probs - targets
        weights -= LEARNING_RATE * (matrix.T @ err) / count
        bias -= LEARNING_RATE * float(err.mean())
    return PairFeatureModel(weights=tuple(weights.tolist()), bias=float(bias))


def max_jaccard_reference(target, pool):
    """The URL of ``pool`` other than ``target`` with the highest token Jaccard
    similarity to it, the smallest URL among equals; ``None`` if there is none."""
    target_tokens = normalize_url(target).token_set()
    candidates = [url for url in set(pool) if url != target]
    if not candidates:
        return None
    return min(candidates, key=lambda url: (-jaccard(normalize_url(url).token_set(), target_tokens), url))


def cross_validate_combos_reference(positives, link_map, lang_map, langs, k, seed):
    """``(key, pos_f1, neg_f1, macro_f1)`` rows from one reference fit per
    combination and fold, scoring each test pair on its own."""
    fold_data = []
    for i, fold_domains in enumerate(_fold_domains(positives, k, seed)):
        test_pos = [p for p in positives if parse_components(p.url_a).registrable_domain in fold_domains]
        train_pos = [p for p in positives if p not in test_pos]
        test = test_pos + mine_negatives_from_links(
            [(p.url_a, p.url_b) for p in test_pos], link_map, lang_map, langs)
        negatives = {s: generate_negatives(train_pos, [s], seed + i)[0] for s in STRATEGIES}
        fold_data.append((train_pos, negatives, test))
    rows = []
    for bits in range(1, 1 << len(STRATEGIES)):
        combo = [s for i, s in enumerate(STRATEGIES) if bits & (1 << i)]
        scores = []
        for train_pos, negatives, test in fold_data:
            scorer = FeaturePairScorer(pair_train_reference(
                train_pos + [neg for s in combo for neg in negatives[s]]))
            predicted = [
                "positive" if scorer.probability(p.url_a, p.url_b, p.lang_a, p.lang_b) > 0.5
                else "negative"
                for p in test
            ]
            cm = confusion_matrix([p.label for p in test], predicted, labels=("negative", "positive"))
            pos_f1, neg_f1 = prf(cm, "positive")[2], prf(cm, "negative")[2]
            scores.append((pos_f1, neg_f1, (pos_f1 + neg_f1) / 2))
        key = "+".join(f"{m}:{mode}" for m, mode in combo)
        rows.append((key, *(sum(s[j] for s in scores) / len(scores) for j in range(3))))
    return rows
