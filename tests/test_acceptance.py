"""Acceptance suite: one test per shipped criterion.

Each test prints a PASS/FAIL line; run with ``pytest tests/test_acceptance.py
-v -s`` to see them.  Tolerances are pinned here, not configurable.
"""
import random
import time
from contextlib import contextmanager

from bifocal.datasets import (
    cross_validate_combos,
    neg_max_jaccard,
    neg_remove_tokens,
)
from bifocal.errors import FrontierEmpty
from bifocal.frontier import SEED, Frontier
from bifocal.langid import (
    NgramHyperparams,
    ngram_predict,
    ngram_train,
    rule_langid,
)
from bifocal.metrics import ConfusionMatrix, decile_curve, macro_prf, prf, site_curves
from bifocal.crawler import STORED, CrawlConfig, CrawlState, GraphFetcher, run_crawl, simulate
from bifocal.pairscore import baseline_align
from bifocal.urls import normalize_url, parse_components

from golden import GOLDEN_NORMALIZATIONS, RULE_ORDER_CASES
from references import ReferenceFrontier, bfs_reference, brute_force_prf, sgd_step_gradient_check
from synthdata import (
    NEUTRAL_WORDS,
    OracleLangScorer,
    OraclePairScorer,
    gold_pair,
    lang_url_corpus,
    parallel_pair_corpus,
    planted_graph,
    random_site_graph,
    transform_pair_suite,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def test_criterion_01_normalization_golden_suite():
    with criterion(1, "30-URL normalization golden suite, bit-exact, < 1 s"):
        normalize_url.cache_clear()
        start = time.monotonic()
        for raw, expected in GOLDEN_NORMALIZATIONS:
            assert normalize_url(raw) == tuple(expected[1:-1]), raw
        elapsed = time.monotonic() - start
        assert len(GOLDEN_NORMALIZATIONS) == 30
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_rule_baseline_ordering():
    with criterion(2, "12-case component-order contradiction fixture, exact"):
        assert len(RULE_ORDER_CASES) == 12
        for url, expected in RULE_ORDER_CASES:
            assert rule_langid(parse_components(url)) == expected, url


def test_criterion_03_ngram_classifier_hundred_f1():
    with criterion(3, "n-gram classifier macro F1 >= 0.90 on held-out synthetic corpus, train < 60 s"):
        corpus = lang_url_corpus(5000, seed=42)
        rng = random.Random(7)
        rng.shuffle(corpus)
        split = int(len(corpus) * 0.8)
        train, held = corpus[:split], corpus[split:]

        start = time.monotonic()
        model = ngram_train(train, NgramHyperparams(), seed=0)
        train_time = time.monotonic() - start
        assert train_time < 60.0, f"training took {train_time:.1f}s"

        labels = model.labels
        index = {lab: i for i, lab in enumerate(labels)}
        counts = [[0] * len(labels) for _ in labels]
        for url, lang in held:
            dist = ngram_predict(model, url)
            predicted = max(dist, key=dist.get)
            counts[index[lang]][index[predicted]] += 1
        cm = ConfusionMatrix(labels, tuple(tuple(row) for row in counts))
        macro_f1 = macro_prf(cm)[2]
        print(f"  [criterion 3] train {train_time:.1f}s, held-out macro F1 {macro_f1:.4f}")
        assert macro_f1 >= 0.90


def test_criterion_04_gradient_check():
    with criterion(4, "analytic vs central-difference gradients within 1e-3 relative error"):
        hp = NgramHyperparams(n_min=2, n_max=2, dim=4, bucket_count=8, epochs=2)
        data = [
            ("https://aa.com/x", "deu"),
            ("https://bb.org/y", "fra"),
            ("https://ab.net/z", "deu"),
        ]
        model = ngram_train(data, hp, seed=1)
        assert sgd_step_gradient_check(model, data) > 10


def test_criterion_05_token_removal_baseline():
    with criterion(5, "token-removal baseline: 50/50 transform pairs align, 0/50 others"):
        aligned, unaligned = transform_pair_suite()
        assert ("https://www.un.org/en/", "https://www.un.org/fr/") in aligned
        assert len(aligned) == 50 and len(unaligned) == 50
        for a, b in aligned:
            assert baseline_align(a, b, "eng", "fra"), (a, b)
        for a, b in unaligned:
            assert not baseline_align(a, b, "eng", "fra"), (a, b)


def _removal_fixture():
    rng = random.Random(12)
    pairs = []
    for i in range(50):
        word_a, word_b = rng.sample(NEUTRAL_WORDS, 2)
        port = f":{8000 + i}" if i % 5 == 0 else ""
        url_a = f"https://h{i}.example.com{port}/{word_a}/doc-{i}?id={i}&ref=home"
        url_b = f"https://h{i}.example.org/{word_b}/doc-{i}"
        pairs.append(gold_pair(url_a, url_b, "eng", "fra"))
    return pairs


def test_criterion_06_negative_sampling_properties():
    with criterion(6, "remove-tokens never alters scheme/authority/port (1000 trials); max-Jaccard equals brute force (100 pools)"):
        pairs = _removal_fixture()

        def authority_key(url):
            c = parse_components(url)
            return c.scheme, c.host, c.port

        for seed in range(1000):
            negatives, skipped = neg_remove_tokens(pairs, "bi", seed=seed)
            assert skipped == 0
            assert len(negatives) == len(pairs)
            for neg, pos in zip(negatives, pairs):
                assert authority_key(neg.url_a) == authority_key(pos.url_a)
                assert authority_key(neg.url_b) == authority_key(pos.url_b)

        rng = random.Random(99)
        for trial in range(100):
            size = rng.randint(5, 200)
            pool = []
            for i in range(size):
                w1, w2 = rng.choice(NEUTRAL_WORDS), rng.choice(NEUTRAL_WORDS)
                pool.append(f"https://pool{trial}.com/{w1}/{w2}-{i}")
            trial_pairs = [
                gold_pair(f"https://left{trial}.com/{i}", url, "eng", "fra")
                for i, url in enumerate(pool)
            ]
            negatives, skipped = neg_max_jaccard(trial_pairs, "bi")
            assert skipped == 0
            token_sets = {url: frozenset(normalize_url(url)) for url in pool}
            for neg, pos in zip(negatives, trial_pairs):
                target = token_sets[pos.url_b]
                # Independent similarity: shared-count arithmetic, then argmin
                # over URLs achieving the maximum.
                def sim(candidate):
                    cand = token_sets[candidate]
                    inter = sum(1 for t in cand if t in target)
                    return inter / (len(cand) + len(target) - inter)

                candidates = [c for c in pool if c != pos.url_b]
                best_score = max(sim(c) for c in candidates)
                expected = min(c for c in candidates if sim(c) == best_score)
                assert neg.url_b == expected


def test_criterion_07_strategy_combination_harness():
    with criterion(7, "cv-combos: 63 rows on the 500-pair fixture, deterministic, < 5 min"):
        start = time.monotonic()
        positives, link_map, lang_map = parallel_pair_corpus()
        assert len(positives) == 500
        rows_a = cross_validate_combos(positives, link_map, lang_map, {"eng", "fra"}, k=10, seed=0)
        rows_b = cross_validate_combos(positives, link_map, lang_map, {"eng", "fra"}, k=10, seed=0)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.0f}s"
        assert len(rows_a) == 63
        assert len({row.key for row in rows_a}) == 63
        for row in rows_a:
            assert 0.0 <= row.pos_f1 <= 1.0
            assert 0.0 <= row.neg_f1 <= 1.0
            assert 0.0 <= row.macro_f1 <= 1.0
        assert rows_a == rows_b
        best = max(rows_a, key=lambda r: r.macro_f1)
        singles = [r for r in rows_a if len(r.strategies) == 1]
        assert all(best.macro_f1 >= s.macro_f1 for s in singles)
        print(f"  [criterion 7] {elapsed:.0f}s, best combo {best.key} macro F1 {best.macro_f1:.3f}")


def test_criterion_08_metric_oracles():
    with criterion(8, "macro P/R/F1 matches brute force to 1e-12"):
        rng = random.Random(2023)
        for _ in range(200):
            n = rng.randint(2, 6)
            labels = tuple(f"l{i}" for i in range(n))
            counts = tuple(tuple(rng.randint(0, 25) for _ in range(n)) for _ in range(n))
            cm = ConfusionMatrix(labels, counts)
            rows = [brute_force_prf(counts, list(labels), lab) for lab in labels]
            expected = tuple(sum(r[i] for r in rows) / n for i in range(3))
            got = macro_prf(cm)
            for g, e in zip(got, expected):
                assert abs(g - e) <= 1e-12
            for lab in labels:
                for g, e in zip(prf(cm, lab), brute_force_prf(counts, list(labels), lab)):
                    assert abs(g - e) <= 1e-12


def test_criterion_09_frontier_semantics():
    with criterion(9, "randomized 1000-op frontier sequences match the reference exactly"):
        for seq_seed in range(5):
            rng = random.Random(seq_seed)
            real, ref = Frontier(), ReferenceFrontier()
            trace_real, trace_ref = [], []
            urls = [f"u{i}" for i in range(300)]
            for _ in range(1000):
                if rng.random() < 0.65:
                    url = rng.choice(urls)
                    priority = SEED if rng.random() < 0.08 else round(rng.random(), 3)
                    real.push_or_raise(url, priority)
                    ref.push_or_raise(url, priority)
                else:
                    try:
                        entry = real.pop_max()
                        got = (entry.url, SEED if entry.priority is SEED else entry.priority)
                    except FrontierEmpty:
                        got = None
                    try:
                        expected = ref.pop_max()
                    except FrontierEmpty:
                        expected = None
                    trace_real.append(got)
                    trace_ref.append(expected)
            while True:
                try:
                    entry = real.pop_max()
                    trace_real.append((entry.url, SEED if entry.priority is SEED else entry.priority))
                except FrontierEmpty:
                    break
            while True:
                try:
                    trace_ref.append(ref.pop_max())
                except FrontierEmpty:
                    break
            assert trace_real == trace_ref


def _uniform_cfg(seeds, budget):
    return CrawlConfig(
        lang_a="eng", lang_b="fra", seeds=tuple(seeds), budget=budget,
        lang_scorer="uniform", pair_scorer="uniform",
    )


def test_criterion_10_bfs_reduction():
    with criterion(10, "uniform scorers reproduce breadth-first traces on 10 random graphs"):
        for seed in range(10):
            graph, seeds = random_site_graph(100 + seed)
            budget = len(graph.pages)
            log = simulate(graph, _uniform_cfg(seeds, budget))
            assert [e.url for e in log] == bfs_reference(graph, seeds, budget)


def test_criterion_11_oracle_upper_bound():
    with criterion(11, "oracle scorers store every parallel page within |seeds| + 2P fetches"):
        graph, seeds = planted_graph()
        assert len(graph.pages) == 20 * 200
        pair_count = sum(len(p.parallel_with) for p in graph.pages.values()) // 2
        cfg = _uniform_cfg(seeds, budget=len(graph.pages))
        log = run_crawl(CrawlState(
            cfg, GraphFetcher(graph), OracleLangScorer(graph), OraclePairScorer(graph)))
        stored_seq = {e.url: e.seq for e in log if e.outcome == STORED}
        bound = len(seeds) + 2 * pair_count
        for url, page in graph.pages.items():
            if page.parallel_with:
                assert url in stored_seq and stored_seq[url] <= bound, url
        print(f"  [criterion 11] bound {bound}, last parallel page at fetch "
              f"{max(stored_seq[u] for u, p in graph.pages.items() if p.parallel_with)}")


def test_criterion_12_smart_beats_bfs_on_planted_benchmark():
    with criterion(12, "smart crawl >= BFS at every decile and >= 1.5x at 30%, < 2 min"):
        start = time.monotonic()
        graph, seeds = planted_graph()
        budget = len(graph.pages)
        smart_cfg = CrawlConfig(
            lang_a="eng", lang_b="fra", seeds=tuple(seeds), budget=budget,
            lang_scorer="rule", pair_scorer="baseline",
        )
        smart_log = simulate(graph, smart_cfg)
        bfs_log = simulate(graph, _uniform_cfg(seeds, budget))
        smart = decile_curve(site_curves(smart_log.download_events(graph)).values())
        bfs = decile_curve(site_curves(bfs_log.download_events(graph)).values())
        elapsed = time.monotonic() - start
        print(f"  [criterion 12] smart {smart}")
        print(f"  [criterion 12] bfs   {bfs} ({elapsed:.0f}s)")
        assert elapsed < 120.0, f"took {elapsed:.0f}s"
        for s, b in zip(smart, bfs):
            assert s >= b
        assert smart[3] >= 1.5 * bfs[3]
        assert smart[-1] == bfs[-1]  # both eventually find everything
