"""Dataset construction: capping, domain-disjoint splits, negative mining
from link graphs, synthetic negative strategies, and the strategy-combination
cross-validation harness.

All generators are pure functions of (input, seed); the harness derives
per-fold seeds as ``seed + fold_index`` so results are reproducible.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BadCap, ConfigError, TooFewDomains
from .isodata import UNKNOWN_LANG
from .pairscore import FeaturePairScorer, pair_train
from .metrics import confusion_matrix, prf
from .urls import jaccard, normalize_url, parse_components, segment_text


class LabeledUrl(NamedTuple):
    """One ``url<TAB>lang`` record; unpacks as ``(url, lang)``."""

    url: str
    lang: str

    @property
    def domain(self) -> str:
        """Registrable domain, parsed when asked for: only domain splits need it."""
        return parse_components(self.url).registrable_domain


@dataclass(frozen=True)
class LabeledPair:
    url_a: str
    url_b: str
    label: str  # "positive" | "negative"
    lang_a: str
    lang_b: str
    method: str  # gold | mined | random_match | remove_tokens | max_jaccard
    mode: str  # "mono" | "bi"

    @property
    def provenance(self) -> str:
        return f"{self.method}:{self.mode}"


def gold_pair(url_a: str, url_b: str, lang_a: str, lang_b: str) -> LabeledPair:
    return LabeledPair(url_a, url_b, "positive", lang_a, lang_b, "gold", "bi")


# ---------------------------------------------------------------------------
# TSV formats (URLs are written byte-for-byte, never re-encoded)

def write_labeled_urls(records, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for rec in records:
            handle.write(f"{rec.url}\t{rec.lang}\n")


def read_labeled_urls(path) -> "list[LabeledUrl]":
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            url, _, lang = line.partition("\t")
            out.append(LabeledUrl(url, lang))
    return out


def write_labeled_pairs(records, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for rec in records:
            handle.write(
                f"{rec.url_a}\t{rec.url_b}\t{rec.label}\t{rec.lang_a}\t{rec.lang_b}\t{rec.provenance}\n"
            )


def read_labeled_pairs(path) -> "list[LabeledPair]":
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 6:
                raise ConfigError(f"{path}:{lineno}: pair row has {len(fields)} tab fields, not 6")
            url_a, url_b, label, lang_a, lang_b, provenance = fields
            method, _, mode = provenance.partition(":")
            out.append(LabeledPair(url_a, url_b, label, lang_a, lang_b, method, mode or "bi"))
    return out


# ---------------------------------------------------------------------------
# Capping and splits

def cap_per_language(corpus, cap: int, seed: int = 0):
    """Uniformly subsample each over-cap language down to exactly ``cap``.

    Under-cap languages pass through untouched; input order is preserved.

    Raises:
        BadCap: ``cap`` is not positive.
    """
    if cap <= 0:
        raise BadCap(f"cap must be positive, got {cap}")
    corpus = list(corpus)
    rng = random.Random(seed)
    by_lang: dict[str, list[int]] = {}
    for i, rec in enumerate(corpus):
        by_lang.setdefault(rec.lang, []).append(i)
    kept: set[int] = set()
    for lang in sorted(by_lang):
        indices = by_lang[lang]
        if len(indices) <= cap:
            kept.update(indices)
        else:
            kept.update(rng.sample(indices, cap))
    return [rec for i, rec in enumerate(corpus) if i in kept]


def split_by_domain(corpus, ratios, seed: int = 0):
    """Split so URLs of one registrable domain land in exactly one part.

    Domains are shuffled by the seed and each is assigned to the part whose
    URL-count deficit against its target ratio is largest.  Disjointness is
    absolute; the ratios are best effort (within one largest-domain mass).

    Raises:
        TooFewDomains: fewer domains than requested parts.
    """
    ratios = tuple(ratios)
    if any(r <= 0 for r in ratios):
        raise ValueError("ratios must be positive")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    corpus = list(corpus)
    by_domain: dict[str, list[int]] = {}
    for i, rec in enumerate(corpus):
        by_domain.setdefault(rec.domain, []).append(i)
    if len(by_domain) < len(ratios):
        raise TooFewDomains(
            f"{len(by_domain)} domains cannot fill {len(ratios)} splits"
        )
    domains = sorted(by_domain)
    rng = random.Random(seed)
    rng.shuffle(domains)
    total = len(corpus)
    assigned_counts = [0] * len(ratios)
    assignment: dict[str, int] = {}
    for domain in domains:
        deficits = [ratio * total - count for ratio, count in zip(ratios, assigned_counts)]
        part = max(range(len(ratios)), key=lambda i: (deficits[i], -i))
        assignment[domain] = part
        assigned_counts[part] += len(by_domain[domain])
    parts = [[] for _ in ratios]
    for rec in corpus:
        parts[assignment[rec.domain]].append(rec)
    return tuple(parts)


# ---------------------------------------------------------------------------
# Negatives mined from link graphs

def mine_negatives_from_links(gold, link_map, lang_map, langs) -> "list[LabeledPair]":
    """Negatives implied by gold alignments plus page outlinks.

    For each URL ``u`` appearing in the gold set, candidate pairs are ``u``
    against every outlink in the two target languages.  When one candidate is
    itself a gold pair, every other candidate becomes a negative; otherwise
    the whole candidate set is discarded.
    """
    langs = set(langs)
    gold_keys = {frozenset(pair) for pair in gold}
    # Each gold URL once, in order of first appearance.
    ordered_urls = dict.fromkeys(url for pair in gold for url in pair)
    negatives = []
    for u in ordered_urls:
        candidates = [v for v in link_map.get(u, ()) if lang_map.get(v) in langs]
        if not any(frozenset((u, v)) in gold_keys for v in candidates):
            continue
        for v in candidates:
            if frozenset((u, v)) in gold_keys:
                continue
            lang_u = lang_map.get(u, UNKNOWN_LANG)
            lang_v = lang_map.get(v, UNKNOWN_LANG)
            negatives.append(
                LabeledPair(
                    url_a=u,
                    url_b=v,
                    label="negative",
                    lang_a=lang_u,
                    lang_b=lang_v,
                    method="mined",
                    mode="mono" if lang_u == lang_v else "bi",
                )
            )
    return negatives


# ---------------------------------------------------------------------------
# Synthetic negative strategies

# The untouchable prefix: scheme, authority (with port) and the separator right
# after the authority.  Deleting that separator would splice the next path
# token into the authority of the re-parsed URL.  Without a scheme, the
# authority is everything before the first "/", "?" or "#".
_PROTECTED_PREFIX_RE = re.compile(r"^(?:[A-Za-z][A-Za-z0-9+.\-]*://)?[^/?#]*[/?#]?")


def _split_protected_prefix(url: str) -> tuple[str, str]:
    """Split into the untouchable prefix and the rest."""
    end = _PROTECTED_PREFIX_RE.match(url).end()
    return url[:end], url[end:]


def _starts(pairs, mode: str) -> "list[tuple[str, str, str, str]]":
    """The ``(url_a, url_b, lang_a, lang_b)`` pairs a strategy perturbs.

    A ``bi`` start is a gold pair as it is.  Each URL of a gold pair is a
    ``mono`` start, paired with itself: ``(url, url, lang, lang)``.
    """
    if mode == "bi":
        return [(p.url_a, p.url_b, p.lang_a, p.lang_b) for p in pairs]
    if mode == "mono":
        return [
            (url, url, lang, lang)
            for p in pairs
            for url, lang in ((p.url_a, p.lang_a), (p.url_b, p.lang_b))
        ]
    raise ValueError(f"mode must be 'mono' or 'bi', got {mode!r}")


def _replace_second(pairs, mode: str, method: str, choose):
    """Replace each start's second URL with ``choose(url_b, pool)``.

    The pool is every start's second URL, sorted; in ``mono`` mode only those
    of the start's own language.  Returns ``(negatives, skipped)``; a start is
    skipped when ``choose`` returns ``None``.
    """
    starts = _starts(pairs, mode)
    by_lang = mode == "mono"
    pools: dict[str | None, set[str]] = {}
    for _, url_b, _, lang_b in starts:
        pools.setdefault(lang_b if by_lang else None, set()).add(url_b)
    sorted_pools = {key: sorted(urls) for key, urls in pools.items()}
    out: list[LabeledPair] = []
    skipped = 0
    for url_a, url_b, lang_a, lang_b in starts:
        repl = choose(url_b, sorted_pools[lang_b if by_lang else None])
        if repl is None:
            skipped += 1
            continue
        out.append(LabeledPair(url_a, repl, "negative", lang_a, lang_b, method, mode))
    return out, skipped


def neg_random_match(pairs, mode: str, seed: int = 0):
    """Replace the second URL with a random one from the collection.

    Returns ``(negatives, skipped)``; a pair is skipped when no distinct
    replacement exists.
    """
    rng = random.Random(seed)

    def random_other(target: str, pool) -> str | None:
        candidates = [u for u in pool if u != target]
        return rng.choice(candidates) if candidates else None

    return _replace_second(pairs, mode, "random_match", random_other)


_MAX_REMOVALS = 3


def neg_remove_tokens(pairs, mode: str, seed: int = 0):
    """Delete random path/query tokens from both URLs of each starting pair.

    The scheme, authority, and port always survive.  Between 1 and
    ``_MAX_REMOVALS`` tokens are removed per URL.  Pairs with no removable
    tokens, or whose result equals the original pair, are skipped.
    """
    rng = random.Random(seed)
    out: list[LabeledPair] = []
    skipped = 0

    def perturb(url: str) -> str | None:
        prefix, rest = _split_protected_prefix(url)
        tokens = segment_text(rest)
        if not tokens:
            return None
        k = rng.randint(1, min(_MAX_REMOVALS, len(tokens)))
        drop = set(rng.sample(range(len(tokens)), k))
        return prefix + "".join(t for i, t in enumerate(tokens) if i not in drop)

    for url_a, url_b, lang_a, lang_b in _starts(pairs, mode):
        new_a, new_b = perturb(url_a), perturb(url_b)
        if new_a is None or new_b is None or (new_a, new_b) == (url_a, url_b):
            skipped += 1
            continue
        out.append(
            LabeledPair(new_a, new_b, "negative", lang_a, lang_b, "remove_tokens", mode)
        )
    return out, skipped


def neg_max_jaccard(pairs, mode: str):
    """Replace the second URL with the collection's most token-similar one.

    The replacement maximizes Jaccard similarity over normalized token sets
    (the URL itself excluded); ties go to the lexicographically smaller URL.
    Deterministic, no seed involved.
    """
    # Token sets are memoized per call: the scan below is O(n^2) in the pool.
    token_sets: dict[str, frozenset] = {}

    def tokens_of(url: str) -> frozenset:
        cached = token_sets.get(url)
        if cached is None:
            cached = normalize_url(url).token_set()
            token_sets[url] = cached
        return cached

    def best_match(target: str, pool) -> str | None:
        best_url = None
        best_score = -1.0
        target_tokens = tokens_of(target)
        for cand in pool:
            if cand == target:
                continue
            score = jaccard(tokens_of(cand), target_tokens)
            if score > best_score:
                best_score = score
                best_url = cand
        return best_url

    return _replace_second(pairs, mode, "max_jaccard", best_match)


# Canonical strategy order: bilingual variants first.
STRATEGIES: tuple[tuple[str, str], ...] = (
    ("random_match", "bi"),
    ("max_jaccard", "bi"),
    ("remove_tokens", "bi"),
    ("random_match", "mono"),
    ("max_jaccard", "mono"),
    ("remove_tokens", "mono"),
)

# Default preset used when no explicit strategy set is configured: every
# strategy except monolingual token removal.
DEFAULT_STRATEGIES: tuple[tuple[str, str], ...] = STRATEGIES[:5]


def generate_negatives(pairs, strategies, seed: int = 0):
    """Run several strategies and concatenate their outputs.

    Returns ``(negatives, skipped_by_strategy)``.
    """
    out: list[LabeledPair] = []
    skipped: dict[str, int] = {}
    for method, mode in strategies:
        if method == "random_match":
            negs, skip = neg_random_match(pairs, mode, seed)
        elif method == "remove_tokens":
            negs, skip = neg_remove_tokens(pairs, mode, seed)
        elif method == "max_jaccard":
            negs, skip = neg_max_jaccard(pairs, mode)
        else:
            raise ValueError(f"unknown strategy {method!r}")
        out.extend(negs)
        skipped[f"{method}:{mode}"] = skip
    return out, skipped


# ---------------------------------------------------------------------------
# Strategy-combination cross-validation

@dataclass(frozen=True)
class ComboResult:
    strategies: tuple[tuple[str, str], ...]
    pos_f1: float
    neg_f1: float
    macro_f1: float

    @property
    def key(self) -> str:
        return "+".join(f"{m}:{mode}" for m, mode in self.strategies)


def _fold_domains(positives, k: int, seed: int) -> "list[set[str]]":
    domains: dict[str, int] = {}
    for pair in positives:
        domain = parse_components(pair.url_a).registrable_domain
        domains[domain] = domains.get(domain, 0) + 1
    if k > len(domains):
        raise TooFewDomains(f"{len(domains)} domains cannot fill {k} folds")
    ordered = sorted(domains)
    rng = random.Random(seed)
    rng.shuffle(ordered)
    fold_sets: list[set[str]] = [set() for _ in range(k)]
    fold_sizes = [0] * k
    for domain in ordered:
        target = min(range(k), key=lambda i: (fold_sizes[i], i))
        fold_sets[target].add(domain)
        fold_sizes[target] += domains[domain]
    return fold_sets


def cross_validate_combos(
    positives,
    link_map,
    lang_map,
    langs,
    k: int = 10,
    seed: int = 0,
) -> "list[ComboResult]":
    """Evaluate every non-empty combination of the six negative strategies.

    Folds are split by registrable domain.  For each fold, test negatives are
    mined from the link map of the fold's gold pairs, while training negatives
    come from the combination's synthetic strategies applied to the remaining
    folds.  Metrics are averaged over folds; one row per combination.
    """
    positives = list(positives)
    fold_sets = _fold_domains(positives, k, seed)

    fold_data = []
    for i, fold_domains in enumerate(fold_sets):
        test_pos, train_pos = [], []
        for p in positives:
            in_fold = parse_components(p.url_a).registrable_domain in fold_domains
            (test_pos if in_fold else train_pos).append(p)
        gold = [(p.url_a, p.url_b) for p in test_pos]
        test = test_pos + mine_negatives_from_links(gold, link_map, lang_map, langs)
        gold_labels = [pair.label for pair in test]
        fold_seed = seed + i
        strategy_negs = {}
        for strategy in STRATEGIES:
            strategy_negs[strategy], _ = generate_negatives(train_pos, [strategy], fold_seed)
        fold_data.append((train_pos, strategy_negs, test, gold_labels, fold_seed))

    results = []
    for mask in range(1, 1 << len(STRATEGIES)):
        combo = tuple(s for i, s in enumerate(STRATEGIES) if mask & (1 << i))
        scores = []
        for train_pos, strategy_negs, test, gold_labels, fold_seed in fold_data:
            train_set = list(train_pos)
            for strategy in combo:
                train_set.extend(strategy_negs[strategy])
            scorer = FeaturePairScorer(pair_train(train_set, seed=fold_seed))
            pred_labels = []
            for pair in test:
                prob = scorer.probability(pair.url_a, pair.url_b, pair.lang_a, pair.lang_b)
                pred_labels.append("positive" if prob > 0.5 else "negative")
            cm = confusion_matrix(gold_labels, pred_labels, labels=("negative", "positive"))
            pos_f1 = prf(cm, "positive")[2]
            neg_f1 = prf(cm, "negative")[2]
            scores.append((pos_f1, neg_f1, (pos_f1 + neg_f1) / 2))
        n = len(scores)
        results.append(
            ComboResult(
                strategies=combo,
                pos_f1=sum(s[0] for s in scores) / n,
                neg_f1=sum(s[1] for s in scores) / n,
                macro_f1=sum(s[2] for s in scores) / n,
            )
        )
    return results


def write_combo_results(results, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("methods\tpos_f1\tneg_f1\tmacro_f1\n")
        for row in results:
            handle.write(
                f"{row.key}\t{row.pos_f1:.4f}\t{row.neg_f1:.4f}\t{row.macro_f1:.4f}\n"
            )
