import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifocal import datasets
from bifocal.datasets import (
    DEFAULT_STRATEGIES,
    STRATEGIES,
    LabeledUrl,
    cross_validate_combos,
    generate_negatives,
    mine_negatives_from_links,
    neg_max_jaccard,
    neg_random_match,
    neg_remove_tokens,
    read_labeled_pairs,
    read_labeled_urls,
    split_by_domain,
    write_labeled_pairs,
    write_labeled_urls,
)
from bifocal.errors import ConfigError
from bifocal.pairscore import FEATURE_NAMES, PairFeatureModel
from bifocal.urls import jaccard, normalize_url, parse_components

from references import cross_validate_combos_reference, fold_domains_reference, max_jaccard_reference
from synthdata import gold_pair, parallel_pair_corpus


def _corpus(groups):
    """groups: list of (domain, lang, count) -> LabeledUrl list."""
    out = []
    for domain, lang, count in groups:
        for i in range(count):
            out.append(LabeledUrl(f"https://{domain}/{lang}/{i}", lang))
    return out


# ---------------------------------------------------------------------------
# Domain-disjoint splits

def test_even_split():
    corpus = _corpus([(f"d{i}.com", "eng", 10) for i in range(10)])
    train, dev, test = split_by_domain(corpus, (0.8, 0.1, 0.1), seed=0)
    domains = lambda part: {rec.domain for rec in part}
    assert len(domains(train)) == 8
    assert len(domains(dev)) == 1
    assert len(domains(test)) == 1


def test_domains_never_straddle_splits():
    rng = random.Random(2)
    corpus = _corpus([(f"d{i}.com", "eng", rng.randint(1, 30)) for i in range(12)])
    parts = split_by_domain(corpus, (0.5, 0.3, 0.2), seed=4)
    seen = {}
    for idx, part in enumerate(parts):
        for rec in part:
            assert seen.setdefault(rec.domain, idx) == idx


def test_two_way_split_preset():
    corpus = _corpus([(f"d{i}.net", "eng", 5) for i in range(5)])
    train, dev = split_by_domain(corpus, (0.6, 0.4), seed=0)
    assert len(train) + len(dev) == len(corpus)


def test_too_few_domains():
    corpus = _corpus([("only.com", "eng", 5), ("two.com", "eng", 5)])
    with pytest.raises(ConfigError, match="domains cannot fill"):
        split_by_domain(corpus, (0.8, 0.1, 0.1))


def _greedy_reference_sizes(sizes, ratios):
    """Independent greedy assignment over an explicit domain order."""
    total = sum(sizes)
    counts = [0] * len(ratios)
    for size in sizes:
        deficits = [r * total - c for r, c in zip(ratios, counts)]
        best = max(range(len(ratios)), key=lambda i: (deficits[i], -i))
        counts[best] += size
    return counts


def test_greedy_bound_over_all_permutations():
    # Skewed domain sizes: split-vs-target gap stays within one largest domain.
    sizes = (17, 9, 5, 3, 1)
    ratios = (0.6, 0.4)
    total = sum(sizes)
    for perm in itertools.permutations(sizes):
        counts = _greedy_reference_sizes(perm, ratios)
        for count, ratio in zip(counts, ratios):
            assert abs(count - ratio * total) <= max(sizes)


def test_split_sizes_within_bound():
    rng = random.Random(11)
    corpus = _corpus([(f"d{i}.com", "eng", rng.randint(1, 25)) for i in range(9)])
    sizes = {}
    for rec in corpus:
        sizes[rec.domain] = sizes.get(rec.domain, 0) + 1
    largest = max(sizes.values())
    for seed in range(6):
        parts = split_by_domain(corpus, (0.7, 0.2, 0.1), seed=seed)
        for part, ratio in zip(parts, (0.7, 0.2, 0.1)):
            assert abs(len(part) - ratio * len(corpus)) <= largest


# ---------------------------------------------------------------------------
# Mined negatives

def test_mining_rule_trace():
    gold = [("u", "v")]
    link_map = {"u": ("v", "w", "x"), "v": ()}
    lang_map = {"u": "eng", "v": "fra", "w": "fra", "x": "eng"}
    negatives = mine_negatives_from_links(gold, link_map, lang_map, {"eng", "fra"})
    assert {(n.url_a, n.url_b) for n in negatives} == {("u", "w"), ("u", "x")}
    assert all(n.label == "negative" and n.method == "mined" for n in negatives)


def test_mining_discards_sets_without_gold():
    gold = [("u", "v")]
    link_map = {"u": ("w", "x"), "v": ()}
    lang_map = {"u": "eng", "v": "fra", "w": "fra", "x": "eng"}
    assert mine_negatives_from_links(gold, link_map, lang_map, {"eng", "fra"}) == []


def test_mining_filters_other_languages():
    gold = [("u", "v")]
    link_map = {"u": ("v", "w", "z"), "v": ()}
    lang_map = {"u": "eng", "v": "fra", "w": "fra", "z": "deu"}
    negatives = mine_negatives_from_links(gold, link_map, lang_map, {"eng", "fra"})
    assert {(n.url_a, n.url_b) for n in negatives} == {("u", "w")}


def test_mining_matches_independent_enumeration():
    positives, link_map, lang_map = parallel_pair_corpus(n_sites=4, pairs_per_site=5, seed=3)
    gold = [(p.url_a, p.url_b) for p in positives]
    got = {(n.url_a, n.url_b) for n in mine_negatives_from_links(gold, link_map, lang_map, {"eng", "fra"})}

    # Re-derive the rule with separate bookkeeping.
    gold_lookup = set()
    for a, b in gold:
        gold_lookup.add((a, b))
        gold_lookup.add((b, a))
    expected = set()
    for url in {u for pair in gold for u in pair}:
        cands = [v for v in link_map.get(url, ()) if lang_map.get(v) in ("eng", "fra")]
        if any((url, v) in gold_lookup for v in cands):
            expected.update((url, v) for v in cands if (url, v) not in gold_lookup)
    assert got == expected


# ---------------------------------------------------------------------------
# Synthetic negative strategies

def _positives(n=6, seed=0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        out.append(
            gold_pair(
                f"https://s{i}.com/en/doc-{rng.randint(0, 99)}",
                f"https://s{i}.com/fr/doc-{rng.randint(0, 99)}",
                "eng",
                "fra",
            )
        )
    return out


def test_random_match_bi_two_pairs():
    pairs = _positives(2)
    negatives, skipped = neg_random_match(pairs, "bi", seed=0)
    assert skipped == 0
    for neg, pos in zip(negatives, pairs):
        assert neg.url_a == pos.url_a
        assert neg.url_b != pos.url_b
        assert neg.url_b in {p.url_b for p in pairs}


def test_random_match_mono_same_language():
    negatives, _ = neg_random_match(_positives(4), "mono", seed=1)
    assert negatives
    for neg in negatives:
        assert neg.lang_a == neg.lang_b
        assert neg.mode == "mono"
        assert neg.url_a != neg.url_b


def test_random_match_deterministic():
    pairs = _positives(20)
    out1, _ = neg_random_match(pairs, "bi", seed=5)
    out2, _ = neg_random_match(pairs, "bi", seed=5)
    assert out1 == out2


def test_random_match_skips_when_no_candidate():
    pairs = _positives(1)
    negatives, skipped = neg_random_match(pairs, "bi", seed=0)
    assert negatives == [] and skipped == 1


def test_remove_tokens_preserves_protected_prefix():
    pairs = _positives(10, seed=2)
    prefix_re = re.compile(r"^[a-z][a-z0-9+.\-]*://[^/?#]*")
    for seed in range(20):
        negatives, _ = neg_remove_tokens(pairs, "bi", seed=seed)
        for neg, pos in zip(negatives, pairs):
            assert prefix_re.match(neg.url_a).group(0) == prefix_re.match(pos.url_a).group(0)
            assert prefix_re.match(neg.url_b).group(0) == prefix_re.match(pos.url_b).group(0)


@pytest.mark.parametrize("url_a, url_b, prefix_a, prefix_b", [
    ("a.com/x/y", "b.com?q=1&r=2", "a.com/", "b.com?"),  # no scheme
    ("https://a.com:8080/x-y", "http://b.com#frag-x", "https://a.com:8080/", "http://b.com#"),
])
def test_remove_tokens_keeps_authority_and_its_separator(url_a, url_b, prefix_a, prefix_b):
    pairs = [gold_pair(url_a, url_b, "eng", "fra")]
    for seed in range(20):
        negatives, _ = neg_remove_tokens(pairs, "bi", seed=seed)
        for neg in negatives:
            assert neg.url_a.startswith(prefix_a) and neg.url_b.startswith(prefix_b)


def test_remove_tokens_single_removable_token():
    pairs = [gold_pair("https://a.com/x", "https://b.com/y", "eng", "fra")]
    negatives, skipped = neg_remove_tokens(pairs, "bi", seed=0)
    # rest is "/x": either the slash or the word can go, never the authority.
    assert skipped == 0
    assert negatives[0].url_a.startswith("https://a.com")
    assert negatives[0].url_a != "https://a.com/x"


def test_remove_tokens_skips_bare_hosts():
    pairs = [gold_pair("https://a.com", "https://b.com", "eng", "fra")]
    negatives, skipped = neg_remove_tokens(pairs, "bi", seed=0)
    assert negatives == [] and skipped == 1


def test_remove_tokens_mono_two_starts_per_pair():
    pairs = _positives(3)
    negatives, skipped = neg_remove_tokens(pairs, "mono", seed=0)
    assert len(negatives) + skipped == 2 * len(pairs)
    for neg in negatives:
        assert neg.lang_a == neg.lang_b


def test_max_jaccard_picks_overlap():
    pairs = [
        gold_pair("https://h.com/x1", "https://h.com/a/b", "eng", "fra"),
        gold_pair("https://h.com/x2", "https://h.com/a/c", "eng", "fra"),
        gold_pair("https://h.com/x3", "https://h.com/z", "eng", "fra"),
    ]
    negatives, _ = neg_max_jaccard(pairs, "bi")
    assert negatives[0].url_b == "https://h.com/a/c"  # closest to /a/b


def test_max_jaccard_tie_breaks_lexicographically():
    pairs = [
        gold_pair("https://h.com/p1", "https://h.com/a", "eng", "fra"),
        gold_pair("https://h.com/p2", "https://h.com/b", "eng", "fra"),
        gold_pair("https://h.com/p3", "https://h.com/c", "eng", "fra"),
    ]
    # /b and /c are equally similar to /a; the smaller URL wins.
    negatives, _ = neg_max_jaccard(pairs, "bi")
    assert negatives[0].url_b == "https://h.com/b"


def test_max_jaccard_matches_brute_force():
    rng = random.Random(6)
    pairs = _positives(40, seed=7)
    negatives, _ = neg_max_jaccard(pairs, "bi")
    pool = sorted({p.url_b for p in pairs})
    for neg, pos in zip(negatives, pairs):
        target = frozenset(normalize_url(pos.url_b))
        best = max(
            (c for c in pool if c != pos.url_b),
            key=lambda c: (jaccard(frozenset(normalize_url(c)), target), [-ord(ch) for ch in c]),
        )
        expected_score = jaccard(frozenset(normalize_url(best)), target)
        got_score = jaccard(frozenset(normalize_url(neg.url_b)), target)
        assert got_score == pytest.approx(expected_score)


def _three_language_pairs():
    """Pairs in three languages whose URLs share their slug across languages.

    The most similar URL in the whole collection is always the partner in the
    other language, so a replacement in the own language shows the pool was
    restricted.
    """
    rng = random.Random(11)
    langs = ("eng", "fra", "deu")
    out = []
    for i in range(12):
        lang_a, lang_b = rng.sample(langs, 2)
        slug = f"{rng.choice(['news', 'shop', 'team'])}-{i}"
        out.append(gold_pair(f"https://s{i % 3}.com/a/{slug}", f"https://s{i % 3}.com/b/{slug}",
                             lang_a, lang_b))
    return out


def _mono_starts(pairs):
    return [(url, lang) for p in pairs for url, lang in ((p.url_a, p.lang_a), (p.url_b, p.lang_b))]


@pytest.mark.parametrize("strategy", [
    lambda pairs: neg_random_match(pairs, "mono", seed=3),
    lambda pairs: neg_max_jaccard(pairs, "mono"),
], ids=["random_match", "max_jaccard"])
def test_mono_replacement_comes_from_own_language(strategy):
    pairs = _three_language_pairs()
    lang_of = dict(_mono_starts(pairs))
    negatives, skipped = strategy(pairs)
    assert skipped == 0 and len(negatives) == 2 * len(pairs)
    for neg, (url, lang) in zip(negatives, _mono_starts(pairs)):
        assert (neg.url_a, neg.lang_a, neg.lang_b) == (url, lang, lang)
        assert neg.url_b != url
        assert lang_of[neg.url_b] == lang


def test_max_jaccard_mono_matches_brute_force():
    pairs = _three_language_pairs()
    starts = _mono_starts(pairs)
    negatives, _ = neg_max_jaccard(pairs, "mono")
    assert len(negatives) == len(starts)
    for neg, (url, lang) in zip(negatives, starts):
        target = frozenset(normalize_url(url))
        pool = {u for u, other in starts if other == lang and u != url}
        # Highest Jaccard first, then the lexicographically smallest URL.
        best = min(pool, key=lambda c: (-jaccard(frozenset(normalize_url(c)), target), c))
        assert neg.url_b == best


def _max_jaccard_expected(pairs, mode):
    """Brute-force ``neg_max_jaccard``: ``(url_a, url_b, lang_b)`` rows and the skip count."""
    if mode == "bi":
        starts = [(p.url_a, p.url_b, p.lang_b) for p in pairs]
    else:
        starts = [(url, url, lang) for url, lang in _mono_starts(pairs)]
    rows = []
    for url_a, url_b, lang in starts:
        pool = [b for _, b, other in starts if mode == "bi" or other == lang]
        best = max_jaccard_reference(url_b, pool)
        if best is not None:
            rows.append((url_a, best, lang))
    return rows, len(starts) - len(rows)


# Few tokens, so that shared tokens, ties and empty token sets ("http://") are common.
_JACCARD_URLS = st.builds(
    lambda prefix, words: prefix + "/".join(words),
    st.sampled_from(["http://", "https://", "x-", "https://h.com/"]),
    st.lists(st.sampled_from(["a", "b", "c", "a-b"]), max_size=3),
)
_JACCARD_PAIRS = st.lists(
    st.tuples(_JACCARD_URLS, _JACCARD_URLS, st.sampled_from(["eng", "fra", "deu"]),
              st.sampled_from(["eng", "fra", "deu"])),
    min_size=1, max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(rows=_JACCARD_PAIRS, mode=st.sampled_from(["bi", "mono"]))
@example(rows=[("https://l.com/1", "https://h.com/a", "eng", "fra"),
               ("https://l.com/2", "https://h.com/c", "eng", "fra"),
               ("https://l.com/3", "https://h.com/b", "eng", "fra")], mode="bi")  # tie
@example(rows=[("https://l.com/1", "http://", "eng", "fra"),
               ("https://l.com/2", "https://h.com/a", "eng", "fra"),
               ("https://l.com/3", "https://", "eng", "fra")], mode="bi")  # empty token sets
@example(rows=[("https://l.com/1", "https://h.com/a", "eng", "fra")], mode="bi")  # pool of one
@example(rows=[("https://l.com/1", "x-c", "eng", "fra"),
               ("https://l.com/2", "a", "eng", "fra"),
               ("https://l.com/3", "b", "eng", "fra")], mode="bi")  # no overlap
@example(rows=[("https://h.com/a", "https://h.com/b", "eng", "fra"),
               ("https://h.com/a/b", "https://h.com/c", "eng", "deu"),
               ("https://h.com/c", "https://h.com/a", "fra", "eng")], mode="mono")
def test_max_jaccard_matches_brute_force_scan(rows, mode):
    pairs = [gold_pair(*row) for row in rows]
    negatives, skipped = neg_max_jaccard(pairs, mode)
    assert ([(n.url_a, n.url_b, n.lang_b) for n in negatives], skipped) == _max_jaccard_expected(pairs, mode)


@pytest.mark.parametrize("pool, target, expected", [
    (["https://h.com/a", "https://h.com/c", "https://h.com/b"], "https://h.com/a", "https://h.com/b"),
    (["http://", "https://h.com/a", "https://"], "http://", "https://"),
    (["https://h.com/a", "http://"], "http://", "https://h.com/a"),
    (["x-c", "b", "a"], "x-c", "a"),
    (["x-c", "b", "a"], "a", "b"),
    (["https://h.com/a"], "https://h.com/a", None),
], ids=["tie goes to the smaller URL", "two empty sets score 1", "empty against non-empty",
        "no overlap takes the first URL", "no overlap skips the target", "pool of one"])
def test_max_jaccard_explicit_cases(pool, target, expected):
    pairs = [gold_pair(f"https://left.com/{i}", url, "eng", "fra") for i, url in enumerate(pool)]
    negatives, skipped = neg_max_jaccard(pairs, "bi")
    replacement = {n.url_a: n.url_b for n in negatives}.get(f"https://left.com/{pool.index(target)}")
    assert replacement == expected
    assert skipped == (len(pool) if expected is None else 0)


@pytest.mark.parametrize("strategy", [neg_random_match, neg_max_jaccard, neg_remove_tokens])
def test_unknown_mode_is_rejected(strategy):
    with pytest.raises(ValueError, match="mode must be 'mono' or 'bi'"):
        strategy(_positives(3), "tri")


def test_all_strategies_label_and_provenance():
    pairs = _positives(8)
    for method, mode in STRATEGIES:
        negatives, _ = generate_negatives(pairs, [(method, mode)], seed=1)
        for neg in negatives:
            assert neg.label == "negative"
            assert neg.method == method
            assert neg.mode == mode
            if mode == "mono":
                assert neg.lang_a == neg.lang_b


def test_default_strategy_preset():
    assert ("remove_tokens", "mono") not in DEFAULT_STRATEGIES
    assert len(DEFAULT_STRATEGIES) == 5


# ---------------------------------------------------------------------------
# TSV round trips

def test_labeled_url_tsv_round_trip(tmp_path):
    corpus = _corpus([("a.com", "eng", 3), ("b.org", "fra", 2)])
    path = tmp_path / "urls.tsv"
    write_labeled_urls(corpus, path)
    assert read_labeled_urls(path) == corpus


@pytest.mark.parametrize("row", ["https://a.com/x", "https://a.com/x\t"])
def test_labeled_url_row_without_label_is_rejected(tmp_path, row):
    path = tmp_path / "urls.tsv"
    path.write_text(f"https://a.com/en\teng\n\n{row}\n")
    with pytest.raises(ConfigError, match=r"urls.tsv:3: "):
        read_labeled_urls(path)


def test_labeled_pair_tsv_round_trip(tmp_path):
    pairs = _positives(4)
    negatives, _ = neg_random_match(pairs, "bi", seed=0)
    path = tmp_path / "pairs.tsv"
    write_labeled_pairs(pairs + negatives, path)
    assert read_labeled_pairs(path) == pairs + negatives


# ---------------------------------------------------------------------------
# Combination cross-validation

def test_cv_combos_small_fixture():
    positives, link_map, lang_map = parallel_pair_corpus(n_sites=6, pairs_per_site=4, seed=1)
    results = cross_validate_combos(
        positives, link_map, lang_map, {"eng", "fra"}, k=3, seed=0
    )
    assert len(results) == 63
    keys = [row.key for row in results]
    assert len(set(keys)) == 63
    for row in results:
        for value in (row.pos_f1, row.neg_f1, row.macro_f1):
            assert 0.0 <= value <= 1.0
        assert row.macro_f1 == pytest.approx((row.pos_f1 + row.neg_f1) / 2)


def test_cv_combos_deterministic():
    positives, link_map, lang_map = parallel_pair_corpus(n_sites=5, pairs_per_site=3, seed=2)
    r1 = cross_validate_combos(positives, link_map, lang_map, {"eng", "fra"}, k=3, seed=4)
    r2 = cross_validate_combos(positives, link_map, lang_map, {"eng", "fra"}, k=3, seed=4)
    assert r1 == r2


def test_cv_combos_too_few_domains():
    positives, link_map, lang_map = parallel_pair_corpus(n_sites=3, pairs_per_site=3, seed=2)
    with pytest.raises(ConfigError, match="domains cannot fill"):
        cross_validate_combos(positives, link_map, lang_map, {"eng", "fra"}, k=10, seed=0)


def test_cv_combos_equals_one_reference_fit_per_combination():
    positives, link_map, lang_map = parallel_pair_corpus(n_sites=6, pairs_per_site=4, seed=1)
    rows = cross_validate_combos(positives, link_map, lang_map, {"eng", "fra"}, k=3, seed=2)
    expected = cross_validate_combos_reference(positives, link_map, lang_map, {"eng", "fra"}, k=3, seed=2)
    assert [(r.key, r.pos_f1, r.neg_f1, r.macro_f1) for r in rows] == expected


def _cv_folds(positives, k, seed):
    """The registrable domains of each fold's test positives, as
    ``cross_validate_combos`` forms them; fitting and features are stubbed."""
    folds = []

    def record_fold(gold, *_):
        folds.append({parse_components(url_a).registrable_domain for url_a, _ in gold})
        return []

    zero_model = PairFeatureModel(weights=(0.0,) * len(FEATURE_NAMES), bias=0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "mine_negatives_from_links", record_fold)
        mp.setattr(datasets, "generate_negatives", lambda *_: ([], {}))
        mp.setattr(datasets.pairscore, "pair_train", lambda rows, masks: [zero_model] * masks.shape[1])
        mp.setattr(datasets.pairscore, "pair_feature_vector", lambda *_: (0.0,) * len(FEATURE_NAMES))
        cross_validate_combos(positives, {}, {}, {"eng", "fra"}, k=k, seed=seed)
    return folds


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.integers(1, 3), st.integers(1, 200)), min_size=2, max_size=40),
    st.integers(2, 12),
    st.integers(0, 2**16),
)
@example([200] + [1] * 39, 12, 0)
@example([1] * 11 + [200], 12, 5)
@example([3, 1], 2, 1)
def test_cv_combos_folds_equal_the_reference(sizes, k, seed):
    k = min(k, len(sizes))
    positives = [
        gold_pair(f"https://www.site{d}.com/en/p{i}", f"https://www.site{d}.com/fr/p{i}", "eng", "fra")
        for d, size in enumerate(sizes)
        for i in range(size)
    ]
    assert _cv_folds(positives, k, seed) == fold_domains_reference(positives, k, seed)


def test_cv_combos_fits_each_fold_once(monkeypatch):
    positives, link_map, lang_map = parallel_pair_corpus(n_sites=5, pairs_per_site=3, seed=2)
    calls = []
    real_train = datasets.pairscore.pair_train

    def counting_train(*args, **kwargs):
        calls.append(kwargs.get("masks"))
        return real_train(*args, **kwargs)

    monkeypatch.setattr(datasets.pairscore, "pair_train", counting_train)
    cross_validate_combos(positives, link_map, lang_map, {"eng", "fra"}, k=3, seed=4)
    assert len(calls) == 3
    assert all(masks.shape[1] == 63 for masks in calls)


def test_cv_combos_combination_without_negatives_is_degenerate():
    # Every gold pair shares its second URL, so the bilingual pool has one URL
    # and random_match:bi and max_jaccard:bi produce no negatives.
    positives = [gold_pair(f"https://site{i}.com/en/page-{i}", "https://shared.org/fr/page", "eng", "fra")
                 for i in range(6)]
    assert neg_random_match(positives, "bi")[0] == []
    with pytest.raises(ConfigError, match="pair training needs both positive and negative samples"):
        cross_validate_combos(positives, {}, {}, {"eng", "fra"}, k=2, seed=0)
