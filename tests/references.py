"""Independent reference implementations used as oracles.

These deliberately use different data structures and algorithms than the
package code they check.
"""
from collections import deque

import numpy as np

import random

from bifocal.datasets import STRATEGIES, generate_negatives, mine_negatives_from_links
from bifocal.errors import BifocalError, ConfigError, FrontierEmpty, NotAUrl
from bifocal.frontier import SEED
from bifocal.langid import (
    NgramHyperparams,
    NgramLangModel,
    _plans,
    _sgd_step,
    _softmax,
    fnv1a64,
    ngram_features,
)
from bifocal.metrics import confusion_matrix, prf
from bifocal.pairscore import (
    LEARNING_RATE,
    TRAIN_STEPS,
    PairFeatureModel,
    pair_feature_vector,
)
from bifocal.urls import jaccard, normalize_url, parse_components


class ReferenceFrontier:
    """O(n)-scan frontier with the same contracted behavior."""

    PENDING, FETCHED = "pending", "fetched"

    def __init__(self):
        self.entries = {}  # url -> [priority, seq, state]
        self.seq = 0

    def push_or_raise(self, url, priority):
        rec = self.entries.get(url)
        if rec is None:
            self.entries[url] = [priority, self.seq, self.PENDING]
            self.seq += 1
            return
        if rec[2] != self.PENDING or rec[0] is SEED:
            return
        if priority is SEED or priority > rec[0]:
            rec[0] = priority

    def pop_max(self):
        pending = [(u, r) for u, r in self.entries.items() if r[2] == self.PENDING]
        if not pending:
            raise FrontierEmpty("empty")
        seeds = [(u, r) for u, r in pending if r[0] is SEED]
        if seeds:
            url, rec = min(seeds, key=lambda ur: ur[1][1])
        else:
            url, rec = min(pending, key=lambda ur: (-ur[1][0], ur[1][1]))
        rec[2] = self.FETCHED
        return url, (SEED if rec[0] is SEED else rec[0])


def score_links_reference(url, lang_u, links, cfg, lang_scorer, pair_scorer):
    """Every link scored by both scorers, one link at a time, no filter."""
    target = cfg.lang_b if lang_u == cfg.lang_a else cfg.lang_a
    scored = []
    for link in links:
        try:
            priority = (lang_scorer.probability(link, target)
                        * pair_scorer.probability(url, link, lang_u, target))
        except BifocalError:
            priority = 0.0
        scored.append((link, priority))
    return scored


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


def _marker_runs_reference(tokens, marker_tokens):
    """``(start, end)`` of each run of 1 to 3 tokens whose concatenation is a
    marker (a hyphenated code such as "en-us" is three tokens)."""
    return [(start, start + length)
            for start in range(len(tokens))
            for length in (1, 2, 3)
            if start + length <= len(tokens)
            and "".join(tokens[start : start + length]) in marker_tokens]


def residuals_reference(tokens, marker_tokens):
    """Full concatenation plus every residual reachable by deleting >= 1 marker.

    A walk over the token positions from the end keeps each token or skips
    one marker run that starts there: ``tails[k]`` holds each text the walk
    makes of ``tokens[k:]``, with whether it skipped a run.  Beyond 12 marker
    runs, ``_fallback_residuals_reference`` decides instead.
    """
    runs = _marker_runs_reference(tokens, marker_tokens)
    if len(runs) > 12:
        return "".join(tokens), _fallback_residuals_reference(tokens, runs)
    tails = [set() for _ in tokens] + [{("", False)}]
    for k in reversed(range(len(tokens))):
        tails[k] = {(tokens[k] + text, skipped) for text, skipped in tails[k + 1]}
        for start, end in runs:
            if start == k:
                tails[k] |= {(text, True) for text, _ in tails[end]}
    return "".join(tokens), frozenset(text for text, skipped in tails[0] if skipped)


def _fallback_residuals_reference(tokens, runs):
    """Each marker run deleted alone, plus what a left-to-right scan leaves
    when it deletes the shortest run at each position it reaches."""
    residuals = {"".join(tokens[:start] + tokens[end:]) for start, end in runs}
    shortest = {}
    for start, end in runs:
        shortest[start] = min(end, shortest.get(start, end))
    kept, k = [], 0
    while k < len(tokens):
        if k in shortest:
            k = shortest[k]
        else:
            kept.append(tokens[k])
            k += 1
    residuals.add("".join(kept))
    return frozenset(residuals)


def baseline_align_reference(url_a, url_b, tokens_a, tokens_b):
    """The token-removal rule, re-normalizing both URLs on every call."""
    if url_a == url_b:
        return False
    core_a = normalize_url(url_a)
    core_b = normalize_url(url_b)
    full_a, plus_a = residuals_reference(core_a, tokens_a)
    full_b, plus_b = residuals_reference(core_b, tokens_b)
    if plus_a & plus_b:
        return True
    return full_b in plus_a or full_a in plus_b


def pair_features_reference(url_a, url_b, tokens_a, tokens_b):
    """The pair features computed from scratch for one pair: the package's
    first ``pair_features``, with no per-URL memo and a full edit-distance
    table."""
    core_a, core_b = normalize_url(url_a), normalize_url(url_b)
    set_a, set_b = set(core_a), set(core_b)

    feat_jaccard = jaccard(set_a, set_b)

    len_a, len_b = len(core_a), len(core_b)
    if max(len_a, len_b) == 0:
        length_ratio = 1.0
    else:
        length_ratio = min(len_a, len_b) / max(len_a, len_b)

    if max(len_a, len_b) == 0:
        edit = 0.0
    else:
        edit = levenshtein_reference(core_a, core_b) / max(len_a, len_b)

    aligned = 1.0 if baseline_align_reference(url_a, url_b, tokens_a, tokens_b) else 0.0

    mismatches = 0
    for tok_a, tok_b in zip(core_a, core_b):
        if tok_a != tok_b and (tok_a in tokens_a or tok_b in tokens_b):
            mismatches += 1

    try:
        comp_a = parse_components(url_a)
        comp_b = parse_components(url_b)
    except NotAUrl:
        prefix_frac = 0.0
        query_jaccard = 0.0
    else:
        pa, pb = comp_a.path_segments, comp_b.path_segments
        if not pa and not pb:
            prefix_frac = 1.0
        else:
            shared = 0
            for seg_a, seg_b in zip(pa, pb):
                if seg_a != seg_b:
                    break
                shared += 1
            prefix_frac = shared / max(len(pa), len(pb))
        query_jaccard = jaccard(
            {k for k, _ in comp_a.query_params},
            {k for k, _ in comp_b.query_params},
        )

    return (
        feat_jaccard,
        length_ratio,
        edit,
        aligned,
        float(mismatches),
        prefix_frac,
        query_jaccard,
    )


def pair_train_reference(data):
    """One logistic pair model per call, from a plain per-model descent loop."""
    records = list(data)
    targets = np.array([1.0 if rec.label == "positive" else 0.0 for rec in records])
    if len(set(targets.tolist())) < 2:
        raise ConfigError("pair training needs both positive and negative samples")
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
    target_tokens = frozenset(normalize_url(target))
    candidates = [url for url in set(pool) if url != target]
    if not candidates:
        return None
    return min(candidates, key=lambda url: (-jaccard(frozenset(normalize_url(url)), target_tokens), url))


def fold_domains_reference(positives, k, seed):
    """The registrable domains of each fold: the domains of the positives'
    ``url_a``, sorted, shuffled by the seed, and each given to the fold with
    the fewest positives so far, the lowest index among equals."""
    domains = {}
    for pair in positives:
        domain = parse_components(pair.url_a).registrable_domain
        domains[domain] = domains.get(domain, 0) + 1
    if k > len(domains):
        raise ConfigError(f"{len(domains)} domains cannot fill {k} folds")
    ordered = sorted(domains)
    rng = random.Random(seed)
    rng.shuffle(ordered)
    fold_sets = [set() for _ in range(k)]
    fold_sizes = [0] * k
    for domain in ordered:
        target = min(range(k), key=lambda i: (fold_sizes[i], i))
        fold_sets[target].add(domain)
        fold_sizes[target] += domains[domain]
    return fold_sets


def cross_validate_combos_reference(positives, link_map, lang_map, langs, k, seed):
    """``(key, pos_f1, neg_f1, macro_f1)`` rows from one reference fit per
    combination and fold, scoring each test pair on its own."""
    fold_data = []
    for i, fold_domains in enumerate(fold_domains_reference(positives, k, seed)):
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
            scorer = pair_train_reference(train_pos + [neg for s in combo for neg in negatives[s]])
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


def feature_ids(model, url):
    """The bucket ids of ``url``'s n-grams in order, hashed one n-gram at a
    time.  ``model`` is anything with ``n_min``, ``n_max`` and
    ``bucket_count``: a model or its hyperparameters."""
    return np.array([fnv1a64(feat.encode("utf-8")) % model.bucket_count
                     for token in normalize_url(url)
                     for feat in ngram_features(token, model.n_min, model.n_max)], dtype=np.int64)


def ngram_predict_reference(model, url):
    """``url``'s distribution over the model's labels, one URL at a time:
    the mean of its rows in float64, one product and one softmax."""
    parts = [model._token_rows(token) for token in normalize_url(url)]
    if not parts:
        p = 1.0 / len(model.labels)
        return {label: p for label in model.labels}
    hidden = np.concatenate(parts).astype(np.float64).mean(axis=0)
    return dict(zip(model.labels, _softmax(hidden @ model.output_weights).tolist()))


def ngram_train_reference(data, hp=None, seed=0):
    """The n-gram trainer over the whole float64 embedding table: drawn in one
    call, every step reading and writing it in place.  The model it returns
    stores every row, in float64."""
    if hp is None:
        hp = NgramHyperparams()
    pairs = list(data)
    labels = tuple(sorted({lang for _, lang in pairs}))
    rng = np.random.default_rng(seed)
    emb = (rng.random((hp.bucket_count, hp.dim)) * 2.0 - 1.0) / hp.dim
    weights = np.zeros((hp.dim, len(labels)))
    model = NgramLangModel(n_min=hp.n_min, n_max=hp.n_max, dim=hp.dim, bucket_count=hp.bucket_count,
                           labels=labels, seed=seed, row_ids=np.arange(hp.bucket_count), rows=emb,
                           output_weights=weights)
    encoded = [(feature_ids(model, url), labels.index(lang)) for url, lang in pairs]
    total_updates = hp.epochs * len(encoded)
    step = 0
    for _ in range(hp.epochs):
        for idx in rng.permutation(len(encoded)):
            ids, y = encoded[idx]
            lr = hp.learning_rate * (1.0 - step / total_updates)
            step += 1
            if ids.size == 0:
                continue
            hidden = emb[ids].mean(axis=0)
            z = hidden @ weights
            e = np.exp(z - z.max())
            dz = e / e.sum()
            dz[y] -= 1.0
            grad_hidden = weights @ dz
            weights -= lr * np.outer(hidden, dz)
            np.add.at(emb, ids, -lr * grad_hidden / ids.size)
    return model


def sgd_step_gradient_check(model, data, step=1e-4, tolerance=1e-3):
    """Check the trainer's own step, ``_sgd_step`` on the example's plan from
    ``_plans``, against central differences of the loss it returns; returns
    the number of entries compared.

    For each ``(url, lang)`` example, a step with ``lr = 1`` on float64 copies
    of the model moves each parameter by its gradient, so before - after is the
    analytic gradient.  The numeric one comes from steps with ``lr = 0``, which
    must leave every parameter where it was.  Every row the examples hash to
    must be one of the model's stored rows.
    """
    emb = model.rows.astype(np.float64)
    weights = model.output_weights.astype(np.float64)
    before = emb.copy(), weights.copy()
    checked = 0
    for url, lang in data:
        ids = feature_ids(model, url)
        stored = np.searchsorted(model.row_ids, ids)
        assert np.array_equal(model.row_ids[stored], ids), url
        (plan,), y = _plans([stored]), model.labels.index(lang)
        moved = emb.copy(), weights.copy()
        assert _sgd_step(*moved, plan, y, 1.0) > 0
        for param, after in zip((emb, weights), moved):
            for index in np.ndindex(param.shape):
                original = param[index]
                param[index] = original + step
                up = _sgd_step(emb, weights, plan, y, 0.0)
                param[index] = original - step
                down = _sgd_step(emb, weights, plan, y, 0.0)
                param[index] = original
                numeric = (up - down) / (2 * step)
                analytic = original - after[index]
                if abs(analytic) < 1e-8 and abs(numeric) < 1e-8:
                    continue
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
                assert rel <= tolerance, (url, index, analytic, numeric)
                checked += 1
    assert np.array_equal(emb, before[0]) and np.array_equal(weights, before[1])
    return checked
