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

from .errors import BadCap, TooFewDomains
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
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            url_a, url_b, label, lang_a, lang_b, provenance = line.split("\t")
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
    ordered_urls: list[str] = []
    seen: set[str] = set()
    for a, b in gold:
        for url in (a, b):
            if url not in seen:
                seen.add(url)
                ordered_urls.append(url)
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

_SCHEME_AUTHORITY_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*://[^/?#]*")


def _split_protected_prefix(url: str) -> tuple[str, str]:
    """Split into the untouchable scheme+authority(+port) prefix and the rest.

    The separator right after the authority is protected as well: deleting it
    would splice the next path token into the authority of the re-parsed URL.
    """
    match = _SCHEME_AUTHORITY_RE.match(url)
    if match:
        end = match.end()
    else:
        end = len(url)
        for i, ch in enumerate(url):
            if ch in "/?#":
                end = i
                break
    if end < len(url) and url[end] in "/?#":
        end += 1
    return url[:end], url[end:]


def _mono_starts(pairs):
    for pair in pairs:
        yield pair.url_a, pair.lang_a
        yield pair.url_b, pair.lang_b


def neg_random_match(pairs, mode: str, seed: int = 0):
    """Replace the second URL with a random one from the collection.

    Returns ``(negatives, skipped)``; a pair is skipped when no distinct
    replacement exists.
    """
    pairs = list(pairs)
    rng = random.Random(seed)
    out: list[LabeledPair] = []
    skipped = 0
    if mode == "bi":
        pool = sorted({p.url_b for p in pairs})
        for p in pairs:
            candidates = [u for u in pool if u != p.url_b]
            if not candidates:
                skipped += 1
                continue
            out.append(
                LabeledPair(p.url_a, rng.choice(candidates), "negative",
                            p.lang_a, p.lang_b, "random_match", "bi")
            )
    elif mode == "mono":
        pool_by_lang: dict[str, list[str]] = {}
        for url, lang in _mono_starts(pairs):
            pool_by_lang.setdefault(lang, []).append(url)
        pool_by_lang = {lang: sorted(set(urls)) for lang, urls in pool_by_lang.items()}
        for url, lang in _mono_starts(pairs):
            candidates = [u for u in pool_by_lang[lang] if u != url]
            if not candidates:
                skipped += 1
                continue
            out.append(
                LabeledPair(url, rng.choice(candidates), "negative",
                            lang, lang, "random_match", "mono")
            )
    else:
        raise ValueError(f"mode must be 'mono' or 'bi', got {mode!r}")
    return out, skipped


def neg_remove_tokens(pairs, mode: str, seed: int = 0, max_removals: int = 3):
    """Delete random path/query tokens from both URLs of each starting pair.

    The scheme, authority, and port always survive.  Between 1 and
    ``max_removals`` tokens are removed per URL.  Pairs with no removable
    tokens, or whose result equals the original pair, are skipped.
    """
    pairs = list(pairs)
    rng = random.Random(seed)
    out: list[LabeledPair] = []
    skipped = 0

    def perturb(url: str) -> str | None:
        prefix, rest = _split_protected_prefix(url)
        tokens = segment_text(rest)
        if not tokens:
            return None
        k = rng.randint(1, min(max_removals, len(tokens)))
        drop = set(rng.sample(range(len(tokens)), k))
        return prefix + "".join(t for i, t in enumerate(tokens) if i not in drop)

    if mode == "bi":
        for p in pairs:
            new_a, new_b = perturb(p.url_a), perturb(p.url_b)
            if new_a is None or new_b is None or (new_a, new_b) == (p.url_a, p.url_b):
                skipped += 1
                continue
            out.append(
                LabeledPair(new_a, new_b, "negative", p.lang_a, p.lang_b,
                            "remove_tokens", "bi")
            )
    elif mode == "mono":
        for url, lang in _mono_starts(pairs):
            new_a, new_b = perturb(url), perturb(url)
            if new_a is None or new_b is None or (new_a, new_b) == (url, url):
                skipped += 1
                continue
            out.append(
                LabeledPair(new_a, new_b, "negative", lang, lang,
                            "remove_tokens", "mono")
            )
    else:
        raise ValueError(f"mode must be 'mono' or 'bi', got {mode!r}")
    return out, skipped


def neg_max_jaccard(pairs, mode: str):
    """Replace the second URL with the collection's most token-similar one.

    The replacement maximizes Jaccard similarity over normalized token sets
    (the URL itself excluded); ties go to the lexicographically smaller URL.
    Deterministic, no seed involved.
    """
    pairs = list(pairs)
    out: list[LabeledPair] = []
    skipped = 0
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

    if mode == "bi":
        pool = sorted({p.url_b for p in pairs})
        for p in pairs:
            repl = best_match(p.url_b, pool)
            if repl is None:
                skipped += 1
                continue
            out.append(
                LabeledPair(p.url_a, repl, "negative", p.lang_a, p.lang_b,
                            "max_jaccard", "bi")
            )
    elif mode == "mono":
        pool_by_lang: dict[str, set[str]] = {}
        for url, lang in _mono_starts(pairs):
            pool_by_lang.setdefault(lang, set()).add(url)
        sorted_pools = {lang: sorted(urls) for lang, urls in pool_by_lang.items()}
        for url, lang in _mono_starts(pairs):
            repl = best_match(url, sorted_pools[lang])
            if repl is None:
                skipped += 1
                continue
            out.append(
                LabeledPair(url, repl, "negative", lang, lang,
                            "max_jaccard", "mono")
            )
    else:
        raise ValueError(f"mode must be 'mono' or 'bi', got {mode!r}")
    return out, skipped


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
DEFAULT_STRATEGIES: tuple[tuple[str, str], ...] = (
    ("random_match", "bi"),
    ("max_jaccard", "bi"),
    ("remove_tokens", "bi"),
    ("random_match", "mono"),
    ("max_jaccard", "mono"),
)


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


def default_pair_trainer(train_pairs, seed: int):
    return FeaturePairScorer(pair_train(train_pairs, seed=seed))


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
    trainer=None,
    k: int = 10,
    seed: int = 0,
) -> "list[ComboResult]":
    """Evaluate every non-empty combination of the six negative strategies.

    Folds are split by registrable domain.  For each fold, test negatives are
    mined from the link map of the fold's gold pairs, while training negatives
    come from the combination's synthetic strategies applied to the remaining
    folds.  Metrics are averaged over folds; one row per combination.
    """
    if trainer is None:
        trainer = default_pair_trainer
    positives = list(positives)
    fold_sets = _fold_domains(positives, k, seed)

    fold_data = []
    for i, fold_domains in enumerate(fold_sets):
        in_fold = [
            p for p in positives
            if parse_components(p.url_a).registrable_domain in fold_domains
        ]
        train_pos = [
            p for p in positives
            if parse_components(p.url_a).registrable_domain not in fold_domains
        ]
        gold = [(p.url_a, p.url_b) for p in in_fold]
        test_neg = mine_negatives_from_links(gold, link_map, lang_map, langs)
        fold_seed = seed + i
        strategy_negs = {}
        for method, mode in STRATEGIES:
            negs, _ = generate_negatives(train_pos, [(method, mode)], fold_seed)
            strategy_negs[(method, mode)] = negs
        fold_data.append((in_fold, train_pos, test_neg, strategy_negs, fold_seed))

    results = []
    for mask in range(1, 1 << len(STRATEGIES)):
        combo = tuple(s for i, s in enumerate(STRATEGIES) if mask & (1 << i))
        scores = []
        for test_pos, train_pos, test_neg, strategy_negs, fold_seed in fold_data:
            train_set = list(train_pos)
            for strategy in combo:
                train_set.extend(strategy_negs[strategy])
            scorer = trainer(train_set, fold_seed)
            gold_labels = []
            pred_labels = []
            for pair in list(test_pos) + list(test_neg):
                gold_labels.append(pair.label)
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
