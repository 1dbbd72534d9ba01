import contextlib
import dataclasses
import json
import logging
import math
import re
import socket
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifocal import crawler
from bifocal.crawler import (
    DISCARDED_LANGUAGE,
    ERROR,
    STORED,
    CrawlConfig,
    CrawlLog,
    CrawlState,
    GraphFetcher,
    LiveFetcher,
    PolitenessGate,
    SiteGraph,
    SitePage,
    StopwordLanguageDetector,
    UniformScorer,
    build_seed_list,
    crawl_live,
    crawl_step,
    extract_links,
    run_crawl,
    score_links,
    simulate,
    site_of,
)
from bifocal.errors import ConfigError, FetchFailed, ScorerUnavailable
from bifocal.external import ExternalLanguageScorer, ExternalPairScorer
from bifocal.frontier import SEED, Frontier
from bifocal.langid import (
    NgramHyperparams,
    RuleLanguageScorer,
    ngram_predict,
    ngram_train,
    save_model,
)
from bifocal.pairscore import (
    BaselinePairScorer,
    PairFeatureModel,
    build_language_tokens,
    save_pair_model,
)

from loopback import DROP, bad_url, hard_timeout, ok, serve_graph
from references import bfs_reference, pair_features_reference, score_links_reference
from synthdata import (
    OracleLangScorer,
    OraclePairScorer,
    dense_planted_graph,
    lang_url_corpus,
    planted_graph,
    random_site_graph,
    write_graph,
)


def _graph(page_rows):
    pages = {
        url: SitePage(
            lang=lang,
            links=tuple(links),
            parallel_with=frozenset(partners),
        )
        for url, (lang, links, partners) in page_rows.items()
    }
    return SiteGraph(pages)


def _cfg(seeds, budget=100, **kwargs):
    defaults = dict(lang_a="eng", lang_b="fra", lang_scorer="uniform", pair_scorer="uniform")
    defaults.update(kwargs)
    return CrawlConfig(seeds=tuple(seeds), budget=budget, **defaults)


def _crawl_with(graph, cfg, lang_scorer, pair_scorer):
    """A crawl of ``graph`` with the caller's scorers, which stay open."""
    return run_crawl(CrawlState(cfg, GraphFetcher(graph), lang_scorer, pair_scorer))


# ---------------------------------------------------------------------------
# SiteGraph

def test_graph_rejects_asymmetric_partners():
    with pytest.raises(ConfigError):
        _graph({
            "https://a/1": ("eng", [], ["https://a/2"]),
            "https://a/2": ("fra", [], []),
        })


def test_graph_rejects_same_language_partners():
    with pytest.raises(ConfigError):
        _graph({
            "https://a/1": ("eng", [], ["https://a/2"]),
            "https://a/2": ("eng", [], ["https://a/1"]),
        })


def test_graph_json_round_trip(tmp_path):
    graph, _ = random_site_graph(1)
    path = tmp_path / "graph.json"
    write_graph(graph, path)
    loaded = SiteGraph.load(path)
    assert loaded.pages == graph.pages


@pytest.mark.parametrize("size", ["x", None])
def test_graph_loader_ignores_size_bytes(tmp_path, size):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"pages": {"https://a.com/": {"lang": "eng", "size_bytes": size}}}))
    assert SiteGraph.load(path).pages == {"https://a.com/": SitePage("eng", (), frozenset())}


# ---------------------------------------------------------------------------
# score_links

class _FailingScorer:
    def probability(self, *args, **kwargs):
        raise ScorerUnavailable("down")


def test_score_links_product():
    class HalfLang:
        def probability(self, url, target):
            return 0.8

    class HalfPair:
        def probability(self, a, b, lang_a=None, lang_b=None):
            return 0.5

    cfg = _cfg(["https://s/"])
    scored = score_links("https://s/", "eng", ["https://s/x"], cfg, HalfLang(), HalfPair())
    assert scored == [("https://s/x", pytest.approx(0.4))]


def test_score_links_target_flips():
    seen = []

    class SpyLang:
        def probability(self, url, target):
            seen.append(target)
            return 1.0

    cfg = _cfg(["https://s/"])
    score_links("https://s/", "eng", ["https://s/x"], cfg, SpyLang(), UniformScorer())
    score_links("https://s/", "fra", ["https://s/y"], cfg, SpyLang(), UniformScorer())
    assert seen == ["fra", "eng"]


def test_score_links_failure_gives_zero():
    cfg = _cfg(["https://s/"])
    scored = score_links("https://s/", "eng", ["https://s/x"], cfg, _FailingScorer(), UniformScorer())
    assert scored == [("https://s/x", 0.0)]


@pytest.mark.parametrize("p_lang", [float("nan"), 1.5, -0.5])
def test_score_links_priority_outside_0_1_gives_zero(p_lang, caplog):
    class BrokenLang:
        def probability(self, url, target):
            return p_lang

    links = ["https://s/x", "https://s/y"]
    scored = score_links("https://s/", "eng", links, _cfg(["https://s/"]), BrokenLang(), UniformScorer())
    assert scored == [(link, 0.0) for link in links]
    assert _warned_links(caplog) == links


def test_nan_language_model_does_not_end_a_crawl(crawl_models, caplog):
    lang_model, pair_model = crawl_models
    broken = dataclasses.replace(lang_model, rows=lang_model.rows * float("nan"))
    graph, seeds = dense_planted_graph()
    log = _crawl_with(graph, _cfg(seeds, budget=50), broken, pair_model)
    assert len(log) == 50
    assert {e.priority for e in log if e.priority is not SEED} == {0.0}
    assert _warned_links(caplog)


def test_score_links_rule_unknown_language_is_zero():
    cfg = _cfg(["https://s/"])
    scored = score_links(
        "https://s/", "eng", ["https://plain.com/page"], cfg,
        RuleLanguageScorer(), BaselinePairScorer(),
    )
    assert scored[0][1] == 0.0


# ---------------------------------------------------------------------------
# crawl_step / simulate semantics

def test_discarded_page_contributes_no_links():
    graph = _graph({
        "https://a/": ("eng", ["https://a/c"], []),
        "https://a/c": ("deu", ["https://a/b"], []),   # off-pair hub
        "https://a/b": ("fra", [], []),
    })
    log = simulate(graph, _cfg(["https://a/"], budget=10))
    urls = [e.url for e in log]
    outcomes = {e.url: e.outcome for e in log}
    assert outcomes["https://a/c"] == DISCARDED_LANGUAGE
    assert "https://a/b" not in urls  # only reachable through the discarded page


def test_stored_page_pushes_each_link():
    graph = _graph({
        "https://a/": ("eng", ["https://a/1", "https://a/2", "https://a/3"], []),
        "https://a/1": ("eng", [], []),
        "https://a/2": ("fra", [], []),
        "https://a/3": ("eng", [], []),
    })
    log = simulate(graph, _cfg(["https://a/"], budget=10))
    assert len(log) == 4
    assert {e.outcome for e in log} == {STORED}


def test_budget_halts_crawl():
    graph, seeds = random_site_graph(3, n_pages=30)
    log = simulate(graph, _cfg(seeds, budget=7))
    assert len(log) == 7


def test_a_budget_of_0_is_a_config_error():
    with pytest.raises(ConfigError, match="budget must be positive"):
        _cfg(["https://a/"], budget=0)


def test_crawl_step_by_step():
    graph = _graph({
        "https://a/": ("eng", ["https://a/1", "https://a/2"], []),
        "https://a/1": ("fra", [], []),
        "https://a/2": ("eng", [], []),
    })
    cfg = _cfg(["https://a/"], budget=10)
    state = CrawlState(cfg, GraphFetcher(graph), UniformScorer(), UniformScorer())
    first = crawl_step(state)
    assert first.url == "https://a/" and first.outcome == STORED
    assert len(state.frontier) == 2  # both links pushed
    second = crawl_step(state)
    assert second.url == "https://a/1"
    crawl_step(state)
    from bifocal.errors import FrontierEmpty

    with pytest.raises(FrontierEmpty):
        crawl_step(state)


def test_fetch_error_is_logged_and_crawl_continues():
    graph = _graph({
        "https://a/": ("eng", ["https://a/missing", "https://a/ok"], []),
        "https://a/ok": ("fra", [], []),
    })
    log = simulate(graph, _cfg(["https://a/"], budget=10))
    outcomes = {e.url: e.outcome for e in log}
    assert outcomes["https://a/missing"] == ERROR
    assert outcomes["https://a/ok"] == STORED


def test_fetch_error_counts_against_the_budget():
    graph = _graph({
        "https://a/": ("eng", ["https://a/missing", "https://a/ok"], []),
        "https://a/ok": ("fra", [], []),
    })
    log = simulate(graph, _cfg(["https://a/"], budget=2))
    assert [(e.seq, e.url, e.outcome) for e in log] == [
        (1, "https://a/", STORED), (2, "https://a/missing", ERROR)]


class _PredictEveryLink:
    """Reference language scorer: one ``ngram_predict`` per call, no memo."""

    def __init__(self, model):
        self.model = model
        self.urls = []

    def probability(self, url, target):
        self.urls.append(url)
        return ngram_predict(self.model, url).get(target, 0.0)


class _FeaturesEveryLink:
    """Reference pair scorer: the features computed from scratch per call, no
    memo, and the model's sigmoid."""

    def __init__(self, model):
        self.model = model

    def probability(self, url_a, url_b, lang_a=None, lang_b=None):
        feats = pair_features_reference(
            url_a, url_b, build_language_tokens(lang_a), build_language_tokens(lang_b))
        z = self.model.bias + sum(w * f for w, f in zip(self.model.weights, feats))
        try:
            return 1.0 / (1.0 + math.exp(-z))
        except OverflowError:
            return 0.0


@pytest.fixture(scope="module")
def crawl_models():
    """A small trained n-gram language model and a fixed pair model."""
    hp = NgramHyperparams(dim=8, bucket_count=4096, epochs=3)
    lang_model = ngram_train(lang_url_corpus(200, seed=2, langs=("eng", "fra")), hp, seed=1)
    pair_model = PairFeatureModel(weights=(1.0, 0.5, -2.0, 3.0, -0.5, 1.0, 0.2), bias=-1.0)
    return lang_model, pair_model


def test_memoizing_scorers_crawl_like_unmemoized_ones(crawl_models):
    graph, seeds = dense_planted_graph()
    lang_model, pair_model = crawl_models
    cfg = _cfg(seeds, budget=50)

    memoized = _crawl_with(graph, cfg, lang_model, pair_model)
    reference_lang = _PredictEveryLink(lang_model)
    reference = _crawl_with(graph, cfg, reference_lang, _FeaturesEveryLink(pair_model))

    assert len(reference_lang.urls) > 2 * len(set(reference_lang.urls))
    assert len({e.priority for e in reference}) > 10
    assert memoized.events == reference.events


@pytest.fixture(scope="module")
def trained_scorers(crawl_models):
    """Factories for each crawl scorer pairing; a fresh pair per call, except
    for the trained models, which are shared."""
    lang_model, pair_model = crawl_models
    return {
        "rule+baseline": lambda graph: (RuleLanguageScorer(), BaselinePairScorer()),
        "ngram+model": lambda graph: (lang_model, pair_model),
        "uniform": lambda graph: (UniformScorer(), UniformScorer()),
        "oracle": lambda graph: (OracleLangScorer(graph), OraclePairScorer(graph)),
    }


class _NeverFetchedFrontier(Frontier):
    """Reports no URL as fetched, so the crawl scores every link of a page."""

    def is_fetched(self, url):
        return False


def _log_rows(log):
    return [(e.seq, e.url, e.outcome, e.lang, repr(e.priority)) for e in log]


def _simulate_with(graph, seeds, scorers):
    """A crawl with ``scorers(graph)``, or with both scorers at the scorer
    spec ``scorers``."""
    if isinstance(scorers, str):
        return simulate(graph, _cfg(seeds, budget=len(graph.pages),
                                    lang_scorer=scorers, pair_scorer=scorers))
    return _crawl_with(graph, _cfg(seeds, budget=len(graph.pages)), *scorers(graph))


@pytest.mark.parametrize("make_graph", [
    lambda: planted_graph(n_sites=2, pages_per_site=30, seed=5), dense_planted_graph,
], ids=["planted", "dense"])
@pytest.mark.parametrize("kind", ["rule+baseline", "ngram+model", "uniform", "oracle", "external"])
def test_crawl_logs_equal_full_scoring(monkeypatch, request, trained_scorers, make_graph, kind):
    graph, seeds = make_graph()
    if kind == "external":
        scorers = request.getfixturevalue("scorer_server")().spec
    else:
        scorers = trained_scorers[kind]
    log = _simulate_with(graph, seeds, scorers)
    monkeypatch.setattr(crawler, "score_links", score_links_reference)
    monkeypatch.setattr(crawler, "Frontier", _NeverFetchedFrontier)
    reference = _simulate_with(graph, seeds, scorers)
    assert len(log) == len(graph.pages)
    assert _log_rows(log) == _log_rows(reference)


class _AskedLang:
    """Records each language question and its answer; fails on a fetched URL."""

    def __init__(self, inner, frontiers):
        self.inner = inner
        self.frontiers = frontiers
        self.answers = []

    def probability(self, url, target):
        entry = self.frontiers[-1].entry(url)
        assert entry is None or not entry.fetched, url
        p_lang = self.inner.probability(url, target)
        self.answers.append(((url, target), p_lang))
        return p_lang


class _AskedPair:
    """Records each pair question; fails on a fetched URL or a zero P(lang)."""

    def __init__(self, inner, frontiers, lang):
        self.inner = inner
        self.frontiers = frontiers
        self.lang = lang
        self.asked = []

    def probability(self, url_a, url_b, lang_a=None, lang_b=None):
        entry = self.frontiers[-1].entry(url_b)
        assert entry is None or not entry.fetched, url_b
        assert dict(self.lang.answers)[(url_b, lang_b)] != 0.0, url_b
        self.asked.append((url_b, lang_b))
        return self.inner.probability(url_a, url_b, lang_a, lang_b)


@pytest.mark.parametrize("kind", ["rule+baseline", "oracle"])
def test_scorers_are_asked_only_about_links_that_can_move_the_frontier(
        monkeypatch, trained_scorers, kind):
    frontiers = []

    class RecordingFrontier(Frontier):
        def __init__(self):
            super().__init__()
            frontiers.append(self)

    monkeypatch.setattr(crawler, "Frontier", RecordingFrontier)
    graph, seeds = dense_planted_graph()
    inner_lang, inner_pair = trained_scorers[kind](graph)
    lang = _AskedLang(inner_lang, frontiers)
    pair = _AskedPair(inner_pair, frontiers, lang)
    log = _crawl_with(graph, _cfg(seeds, budget=len(graph.pages)), lang, pair)

    fetched_at = {e.url: e.seq for e in log}
    links = [link for e in log if e.outcome == STORED for link in graph.pages[e.url].links]
    unfetched = [link for e in log if e.outcome == STORED for link in graph.pages[e.url].links
                 if fetched_at.get(link, e.seq + 1) > e.seq]
    nonzero = [question for question, p_lang in lang.answers if p_lang != 0.0]
    assert len(unfetched) < len(links)
    assert [url for (url, _), _ in lang.answers] == unfetched
    assert len(nonzero) < len(lang.answers)
    assert pair.asked == nonzero


def test_unknown_seed_rejected():
    graph, _ = random_site_graph(4)
    with pytest.raises(ConfigError, match="is not in the graph"):
        simulate(graph, _cfg(["https://nowhere/"]))


def test_simulation_is_deterministic():
    graph, seeds = random_site_graph(5)
    cfg = _cfg(seeds, budget=len(graph.pages))
    log1 = simulate(graph, cfg)
    log2 = simulate(graph, cfg)
    as_tuples = lambda log: [(e.seq, e.url, e.outcome, e.lang, repr(e.priority)) for e in log]
    assert as_tuples(log1) == as_tuples(log2)


def test_accounting_identity():
    graph, seeds = random_site_graph(6)
    log = simulate(graph, _cfg(seeds, budget=len(graph.pages) + 10))
    counts = log.outcome_counts()
    assert sum(counts.values()) == len(log)
    assert len(log) <= len(graph.pages)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_uniform_scorers_reduce_to_bfs(seed):
    graph, seeds = random_site_graph(seed)
    budget = len(graph.pages)
    log = simulate(graph, _cfg(seeds, budget=budget))
    assert [e.url for e in log] == bfs_reference(graph, seeds, budget)


def test_max_depth_limits_extraction():
    graph = _graph({
        "https://a/": ("eng", ["https://a/1"], []),
        "https://a/1": ("eng", ["https://a/2"], []),
        "https://a/2": ("eng", [], []),
    })
    log = simulate(graph, _cfg(["https://a/"], budget=10, max_depth=1))
    assert [e.url for e in log] == ["https://a/", "https://a/1"]


def test_seed_priority_recorded_in_log():
    graph = _graph({"https://a/": ("eng", [], [])})
    log = simulate(graph, _cfg(["https://a/"], budget=2))
    assert log.events[0].priority is SEED


def test_oracle_scorers_on_small_planted_graph():
    graph, seeds = planted_graph(n_sites=2, pages_per_site=20, seed=5)
    pairs = sum(len(p.parallel_with) for p in graph.pages.values()) // 2
    cfg = _cfg(seeds, budget=len(graph.pages))
    log = _crawl_with(graph, cfg, OracleLangScorer(graph), OraclePairScorer(graph))
    stored_seq = {e.url: e.seq for e in log if e.outcome == STORED}
    parallel_pages = [u for u, p in graph.pages.items() if p.parallel_with]
    bound = len(seeds) + 2 * pairs
    assert all(stored_seq[u] <= bound for u in parallel_pages)


# ---------------------------------------------------------------------------
# External scorers in the crawl

def _warned_links(caplog):
    return [record.args[0] for record in caplog.records
            if record.levelno == logging.WARNING and record.name == "bifocal.crawler"]


@pytest.mark.parametrize("bad_scorer", ["lang", "pair"])
def test_malformed_reply_zeroes_only_its_link(bad_scorer, caplog, scorer_server):
    bad = "https://s/fr/bad"
    clients = {kind: scorer_server(bad_url(bad) if kind == bad_scorer else ok).client()
               for kind in ("lang", "pair")}
    scored = score_links("https://s/en/a", "eng", ["https://s/fr/a", bad, "https://s/en/b"],
                         _cfg(["https://s/"]), ExternalLanguageScorer(clients["lang"]),
                         ExternalPairScorer(clients["pair"]))
    assert scored == [("https://s/fr/a", 0.9 * 0.75), (bad, 0.0), ("https://s/en/b", 0.1 * 0.25)]
    assert _warned_links(caplog) == [bad]


def test_link_with_a_line_break_is_zeroed_alone(caplog, scorer_server):
    bad = "https://s/fr/a\nPAIR\tx"
    server = scorer_server()
    scored = score_links("https://s/en/a", "eng", [bad, "https://s/fr/a", "https://s/en/b"],
                         _cfg(["https://s/"]), ExternalLanguageScorer(server.client()),
                         ExternalPairScorer(server.client()))
    assert scored == [(bad, 0.0), ("https://s/fr/a", 0.9 * 0.75), ("https://s/en/b", 0.1 * 0.25)]
    assert _warned_links(caplog) == [bad]


def test_dead_scorer_zeroes_every_later_link(caplog, scorer_server):
    # Three replies: both of page 1's, then one of page 2's three.
    lang = ExternalLanguageScorer(scorer_server(close_after=3).client())
    pair = ExternalPairScorer(scorer_server().client())
    pages = [["https://s/fr/a", "https://s/en/b"],
             ["https://s/en/c", "https://s/fr/d", "https://s/fr/e"],
             ["https://s/fr/f"]]
    cfg = _cfg(["https://s/"])
    scored = [score_links("https://s/en/a", "eng", links, cfg, lang, pair) for links in pages]
    assert scored[0] == [("https://s/fr/a", 0.9 * 0.75), ("https://s/en/b", 0.1 * 0.25)]
    later = pages[1] + pages[2]
    assert scored[1] + scored[2] == [(link, 0.0) for link in later]
    assert _warned_links(caplog) == later


class _ProbabilityOnly:
    """Exposes only ``probability``, as a timing wrapper does."""

    def __init__(self, inner):
        self.inner = inner

    def probability(self, *args):
        return self.inner.probability(*args)


def test_external_scorers_crawl_alike_without_prefetch(tmp_path, scorer_server):
    server = scorer_server()
    graph, seeds = dense_planted_graph()
    cfg = _cfg(seeds, budget=50)
    logs = []
    for wrap in (lambda scorer: scorer, _ProbabilityOnly):
        log = _crawl_with(graph, cfg, wrap(ExternalLanguageScorer(server.client())),
                          wrap(ExternalPairScorer(server.client())))
        path = tmp_path / f"log{len(logs)}.tsv"
        log.to_tsv(path)
        logs.append(path.read_bytes())
    assert len({e.priority for e in log}) > 3
    assert logs[0] == logs[1]


# ---------------------------------------------------------------------------
# Parallel hits

def test_hits_flag_pair_completion_only():
    graph = _graph({
        "https://a/": ("eng", ["https://a/en", "https://a/x"], []),
        "https://a/en": ("eng", ["https://a/fr"], ["https://a/fr"]),
        "https://a/fr": ("fra", [], ["https://a/en"]),
        "https://a/x": ("eng", [], []),
    })
    log = simulate(graph, _cfg(["https://a/"], budget=10))
    events = log.download_events(graph)
    assert len(events) == len(log)  # no fetch failed, so every event is a download
    hits = {e.url: hit for e, (_, hit) in zip(log, events)}
    assert hits["https://a/fr"] is True   # second member completes the pair
    assert hits["https://a/en"] is False  # first member alone is not yet usable
    assert hits["https://a/x"] is False
    assert hits["https://a/"] is False


# ---------------------------------------------------------------------------
# CrawlLog TSV

def test_crawl_log_tsv_round_trip(tmp_path):
    graph, seeds = random_site_graph(8)
    log = simulate(graph, _cfg(seeds, budget=15))
    path = tmp_path / "log.tsv"
    log.to_tsv(path)
    loaded = CrawlLog.from_tsv(path)
    assert [(e.seq, e.url, e.outcome, e.lang) for e in loaded] == [
        (e.seq, e.url, e.outcome, e.lang) for e in log
    ]
    assert loaded.events[0].priority is SEED


# ---------------------------------------------------------------------------
# Page languages

def test_graph_fetcher_gives_the_page_language_or_unknown():
    # Through the graph file's reader, which takes "" as a language string.
    fetcher = GraphFetcher(SiteGraph.from_dict({"pages": {
        "https://a/": {"lang": "fra", "links": ["https://a/x"]},
        "https://a/x": {"lang": ""},
    }}))
    assert fetcher.fetch("https://a/").lang == "fra"
    assert fetcher.fetch("https://a/x").lang == "unk"


def test_stopword_detector_self_consistency():
    import random as rnd

    detector = StopwordLanguageDetector()
    rng = rnd.Random(1)
    for lang in ("eng", "deu", "fra", "isl"):
        words = sorted(detector.profiles[lang])
        sample = " ".join(rng.choice(words) for _ in range(200)).encode("utf-8")
        assert detector.detect(sample) == lang


def test_stopword_detector_counts_only_text_outside_markup():
    links = "".join(f'<a href="/p{i}">p{i}</a>' for i in range(20))
    page = f"<html><body><p>The cat is on the mat and it is in the house.</p>{links}</body></html>"
    detector = StopwordLanguageDetector()
    assert detector.detect(page.encode("utf-8")) == "eng"
    # Script and style bodies are not text; entities are decoded.
    hidden = "<script>var a = de la le</script><style>a { color: red }</style>"
    assert detector.detect(f"{hidden}<p>der&nbsp;und die&#32;das</p>".encode("utf-8")) == "deu"


def test_stopword_detector_empty_is_unknown():
    assert StopwordLanguageDetector().detect(b"") == "unk"
    assert StopwordLanguageDetector().detect(b"zzz qqq xxx") == "unk"


# ---------------------------------------------------------------------------
# Seeds

def test_seed_ranking_and_home_pages():
    url_to_site = {}
    for i in range(5):
        url_to_site[f"https://big.example.com/p{i}"] = "big.example.com"
    for i in range(3):
        url_to_site[f"https://mid.example.org/p{i}"] = "mid.example.org"
    url_to_site["https://small.example.net/only"] = "small.example.net"
    seeds = build_seed_list(url_to_site, n=2)
    assert seeds == ["https://big.example.com/", "https://mid.example.org/"]


def test_seed_home_page_strips_resources():
    seeds = build_seed_list({"https://en.wikipedia.org/wiki/X": "wikipedia"}, n=1)
    assert seeds == ["https://en.wikipedia.org/"]
    # The scheme's default port is the same origin as none (RFC 3986 6.2.3).
    assert build_seed_list({"https://h.com:443/x": "h.com"}, n=1) == ["https://h.com/"]


def test_seed_liveness_filter():
    url_to_site = {
        "https://dead.com/a": "dead.com",
        "https://dead.com/b": "dead.com",
        "https://live.com/a": "live.com",
    }
    alive = {"https://dead.com/a": False, "https://dead.com/b": False, "https://live.com/a": True}
    assert build_seed_list(url_to_site, n=5, alive=alive) == ["https://live.com/"]


def test_seed_empty_input():
    with pytest.raises(ConfigError, match="no URLs to build seeds from"):
        build_seed_list({})
    with pytest.raises(ConfigError, match="no URLs to build seeds from"):
        build_seed_list({"https://a.com/x": "a"}, alive={"https://a.com/x": False})


# ---------------------------------------------------------------------------
# Link extraction / politeness / live fetcher plumbing

def test_extract_links():
    html = '''
      <a href="/about">a</a>
      <a href='https://other.com/x#frag'>b</a>
      <a href="mailto:x@y.z">c</a>
      <a href="/about">dup</a>
    '''
    links = extract_links(html, "https://base.com/page")
    assert links == ("https://base.com/about", "https://other.com/x")


def test_politeness_gate_spacing():
    now = [0.0]
    sleeps = []

    def clock():
        return now[0]

    def sleeper(duration):
        sleeps.append(duration)
        now[0] += duration

    gate = PolitenessGate(1000, clock=clock, sleeper=sleeper)
    gate.wait("https://h.com/a")
    now[0] += 0.2
    gate.wait("https://h.com/b")   # same host: must sleep 0.8s
    gate.wait("https://other.com/c")  # different host: no sleep
    assert sleeps == [pytest.approx(0.8)]


class _Requests(list):
    """A site's ``paths``, each recorded with the fake clock's time."""

    def __init__(self, now):
        super().__init__()
        self.now = now

    def append(self, path):
        super().append((path, self.now[0]))


def test_robots_fetch_waits_at_the_politeness_gate(web_site):
    now = [0.0]
    sleeps = []

    def sleeper(duration):
        sleeps.append(duration)
        now[0] += duration

    h, o = web_site(), web_site()
    for site in (h, o):
        site.paths = _Requests(now)
        site.default = (200, {"Content-Type": "text/html"}, b"")
        site.routes["/robots.txt"] = (404, {}, b"")
    fetcher = LiveFetcher(per_host_delay_ms=1000, clock=lambda: now[0], sleeper=sleeper)
    for url in (h.base + "/a", h.base + "/b", o.base + "/c"):
        fetcher.fetch(url)
    assert h.paths == [("/robots.txt", 0.0), ("/a", 1.0), ("/b", 2.0)]
    # The gate is per host, and both sites are on 127.0.0.1.
    assert o.paths == [("/robots.txt", 3.0), ("/c", 4.0)]
    assert sleeps == [pytest.approx(1.0)] * 4


def test_robots_rules_are_kept_per_scheme_host_and_port(web_site):
    # RFC 9309 2.3: robots.txt applies to the scheme, host and port it came from.
    a, b = web_site(), web_site()
    for site in (a, b):
        site.default = (200, {"Content-Type": "text/html"}, b"")
    a.routes["/robots.txt"] = (200, {"Content-Type": "text/plain"}, b"User-agent: *\nDisallow: /x\n")
    b.routes["/robots.txt"] = (404, {}, b"")
    fetcher = LiveFetcher(per_host_delay_ms=0)
    with pytest.raises(FetchFailed, match="robots.txt disallows"):
        fetcher.fetch(a.base + "/x")
    fetcher.fetch(a.base + "/y")
    fetcher.fetch(b.base + "/x")
    assert a.paths == ["/robots.txt", "/y"]
    assert b.paths == ["/robots.txt", "/x"]


def test_live_fetcher_fetches_and_extracts(web_site):
    site = web_site()
    site.routes["/page"] = (200, {"Content-Type": "text/html"}, b'<a href="/x">x</a>')
    result = LiveFetcher(per_host_delay_ms=0).fetch(site.base + "/page")
    assert result.links == (site.base + "/x",)
    assert site.paths == ["/robots.txt", "/page"]


def test_live_fetcher_respects_robots(web_site):
    site = web_site()
    site.routes["/robots.txt"] = (200, {"Content-Type": "text/plain"},
                                  b"User-agent: *\nDisallow: /private\n")
    site.default = (200, {"Content-Type": "text/html"}, b"")
    fetcher = LiveFetcher(per_host_delay_ms=0)
    with pytest.raises(FetchFailed, match="robots.txt disallows"):
        fetcher.fetch(site.base + "/private/x")
    assert fetcher.fetch(site.base + "/open").lang == "unk"
    assert site.paths == ["/robots.txt", "/open"]


def test_live_fetcher_non_200_fails(web_site):
    site = web_site()
    with pytest.raises(FetchFailed, match="returned 404"):
        LiveFetcher(per_host_delay_ms=0).fetch(site.base + "/gone")
    assert site.paths == ["/robots.txt", "/gone"]


@pytest.mark.parametrize("status", [500, 503, 599])
def test_robots_server_error_disallows_the_host(web_site, status):
    # RFC 9309 2.3.1.4: an unreachable robots.txt means complete disallow.
    site = web_site()
    site.routes["/robots.txt"] = (status, {"Content-Type": "text/plain"}, b"User-agent: *\nAllow: /\n")
    site.routes["/page"] = (200, {"Content-Type": "text/html"}, b"")
    fetcher = LiveFetcher(per_host_delay_ms=0)
    for url in (site.base + "/page", site.base + "/"):
        with pytest.raises(FetchFailed, match="robots.txt disallows"):
            fetcher.fetch(url)
    assert site.paths == ["/robots.txt"]


def test_robots_unreachable_disallows_the_host(web_site):
    site = web_site()
    site.routes["/robots.txt"] = DROP
    site.routes["/private"] = (200, {"Content-Type": "text/html"}, b"")
    with pytest.raises(FetchFailed, match="robots.txt disallows"):
        LiveFetcher(per_host_delay_ms=0).fetch(site.base + "/private")
    assert site.paths == ["/robots.txt"]


@pytest.mark.parametrize("status", [400, 401, 403, 404, 410, 499])
def test_robots_client_error_allows_everything(web_site, status):
    site = web_site()
    site.routes["/robots.txt"] = (status, {"Content-Type": "text/plain"}, b"User-agent: *\nDisallow: /\n")
    site.routes["/page"] = (200, {"Content-Type": "text/html"}, b"")
    assert LiveFetcher(per_host_delay_ms=0).fetch(site.base + "/page").lang == "unk"


def test_a_body_over_the_cap_fails_the_fetch(monkeypatch, web_site):
    monkeypatch.setattr(crawler, "_MAX_BODY_BYTES", 64)
    monkeypatch.setattr(crawler, "_FETCH_TIMEOUT_S", 4.0)
    page = b"<p>the page is for you</p>".ljust(64)
    site = web_site()
    # "/" sends 65 bytes of its longer body and then holds: only a read of
    # more than the cap + 1 bytes would wait for the rest.
    site.routes["/"] = (200, {"Content-Type": "text/html"}, page + b'<a href="/big">big</a>', 65)
    site.routes["/fit"] = (200, {"Content-Type": "text/html"}, page)
    cfg = CrawlConfig(lang_a="eng", lang_b="fra", seeds=(site.base + "/", site.base + "/fit"),
                      budget=5, per_host_delay_ms=0)
    with hard_timeout(2):
        fetcher = LiveFetcher(per_host_delay_ms=0)
        with pytest.raises(FetchFailed, match="longer than 64 bytes"):
            fetcher.fetch(site.base + "/")
        assert fetcher.fetch(site.base + "/fit") == crawler.FetchResult("eng", ())
        log = crawl_live(cfg)
    assert [(e.url, e.outcome) for e in log] == [
        (site.base + "/", ERROR),
        (site.base + "/fit", STORED),
    ]


def test_live_links_resolve_against_the_url_a_redirect_ends_at(web_site):
    site = web_site()
    site.routes["/fr"] = (301, {"Location": "/fr/"}, b"")
    site.routes["/fr/"] = (200, {"Content-Type": "text/html; charset=utf-8"},
                           b'<p>le site est pour vous</p><a href="page.html">page</a>')
    result = LiveFetcher(per_host_delay_ms=0).fetch(site.base + "/fr")
    assert result == crawler.FetchResult("fra", (site.base + "/fr/page.html",))


def test_a_redirect_to_another_origin_asks_that_origins_robots_txt(web_site):
    a, b = web_site(), web_site()
    secret = b.base + "/secret"
    a.routes["/go"] = (301, {"Location": secret}, b"")
    b.routes["/robots.txt"] = (200, {"Content-Type": "text/plain"}, b"User-agent: *\nDisallow: /\n")
    b.routes["/secret"] = (200, {"Content-Type": "text/html"}, b"<p>the secret is for you</p>")
    with pytest.raises(FetchFailed, match=f"robots.txt disallows {re.escape(secret)}$"):
        LiveFetcher(per_host_delay_ms=0).fetch(a.base + "/go")
    assert a.paths == ["/robots.txt", "/go"]
    assert b.paths == ["/robots.txt"]


def test_a_redirect_loop_fails_the_fetch(web_site):
    site = web_site()
    # A header's name may come in any case.
    site.routes["/loop"] = (302, {"location": "/loop"}, b"")
    with pytest.raises(FetchFailed, match="more than 10 redirects"):
        LiveFetcher(per_host_delay_ms=0).fetch(site.base + "/loop")
    assert site.paths == ["/robots.txt"] + ["/loop"] * 11


def test_each_redirect_hop_waits_at_the_gate_and_resolves_against_its_sender(web_site):
    now = [0.0]

    def sleeper(duration):
        now[0] += duration

    h, o = web_site(), web_site()
    h.paths, o.paths = _Requests(now), _Requests(now)
    h.routes["/a"] = (301, {"Location": "/b/"}, b"")
    h.routes["/b/"] = (302, {"Location": o.base + "/c/"}, b"")
    # o's robots.txt is a redirect too, and it is followed.
    o.routes["/robots.txt"] = (301, {"Location": h.base + "/o-robots"}, b"")
    h.routes["/o-robots"] = (200, {}, b"User-agent: *\nDisallow: /x\n")
    o.routes["/c/"] = (307, {"Location": "d"}, b"")
    o.routes["/c/d"] = (200, {"Content-Type": "text/html"}, b'<a href="e">e</a>')
    fetcher = LiveFetcher(per_host_delay_ms=1000, clock=lambda: now[0], sleeper=sleeper)
    assert fetcher.fetch(h.base + "/a").links == (o.base + "/c/e",)
    # Both sites are on 127.0.0.1, so every request waits behind the one before.
    assert h.paths == [("/robots.txt", 0.0), ("/a", 1.0), ("/b/", 2.0), ("/o-robots", 4.0)]
    assert o.paths == [("/robots.txt", 3.0), ("/c/", 5.0), ("/c/d", 6.0)]
    with pytest.raises(FetchFailed, match=f"robots.txt disallows {re.escape(o.base)}/x"):
        fetcher.fetch(o.base + "/x")


def test_a_redirect_off_http_fails_without_a_request(web_site):
    site = web_site()
    site.routes["/a"] = (302, {"Location": "file:///etc/passwd"}, b"")
    with pytest.raises(FetchFailed, match="non-HTTP URL: file:///etc/passwd"):
        LiveFetcher(per_host_delay_ms=0).fetch(site.base + "/a")
    assert site.paths == ["/robots.txt", "/a"]


def test_a_redirect_urljoin_cannot_parse_fails_the_fetch(web_site):
    site = web_site()
    site.routes["/a"] = (302, {"Location": "http://[::1/x"}, b"")
    with pytest.raises(FetchFailed, match="Invalid IPv6 URL"):
        LiveFetcher(per_host_delay_ms=0).fetch(site.base + "/a")
    assert site.paths == ["/robots.txt", "/a"]


def test_robots_body_over_the_cap_allows_everything(monkeypatch, web_site):
    monkeypatch.setattr(crawler, "_MAX_BODY_BYTES", 64)
    site = web_site()
    site.routes["/robots.txt"] = (200, {}, b"User-agent: *\nDisallow: /\n".ljust(65, b"#"))
    site.routes["/page"] = (200, {"Content-Type": "text/html"}, b"<p>the page is for you</p>")
    assert LiveFetcher(per_host_delay_ms=0).fetch(site.base + "/page").lang == "eng"


def _html(text, *links):
    anchors = "".join(f'<a href="{link}"></a>' for link in links)
    return 200, {"Content-Type": "text/html"}, f"<p>{text}</p>{anchors}".encode()


# An English home page, a French and a German page, and a page robots.txt
# forbids; the German page's link is reachable through it alone.
_LIVE_SITE = {
    "/robots.txt": (200, {"Content-Type": "text/plain"}, b"User-agent: *\nDisallow: /private\n"),
    "/": _html("the site is in english and it is for you and for all of them",
               "/fr/page", "/de/seite", "/private/x"),
    "/fr/page": _html("le site est pour vous et les autres, il est à nous", "/"),
    "/de/seite": _html("die seite ist nicht für dich und das", "/en/next"),
    "/en/next": _html("the next page is for them"),
    "/private/x": _html("the private page is not for you"),
}


@pytest.mark.parametrize("budget, fetched", [(10, 4), (2, 2)])
def test_crawl_live_over_a_fake_site(web_site, budget, fetched):
    site = web_site()
    site.routes = dict(_LIVE_SITE)
    cfg = CrawlConfig(lang_a="eng", lang_b="fra", seeds=(site.base + "/",), budget=budget,
                      per_host_delay_ms=0)
    log = crawl_live(cfg)
    assert [(e.url.removeprefix(site.base), e.outcome, e.lang) for e in log] == [
        ("/", STORED, "eng"),
        ("/fr/page", STORED, "fra"),
        ("/de/seite", DISCARDED_LANGUAGE, "deu"),
        ("/private/x", ERROR, "unk"),
    ][:fetched]
    assert log.events[0].priority is SEED


def test_crawl_live_logs_a_link_without_a_host_as_an_error(web_site):
    # The link passes as http(s), but it names no host whose robots.txt to ask.
    site = web_site()
    site.routes["/"] = _html("the site is in english and it is for you", "http://:80/y")
    cfg = CrawlConfig(lang_a="eng", lang_b="fra", seeds=(site.base + "/",), budget=5,
                      per_host_delay_ms=0)
    assert [(e.url, e.outcome) for e in crawl_live(cfg)] == [
        (site.base + "/", STORED),
        ("http://:80/y", ERROR),
    ]


def test_every_href_of_a_page_fetches_or_fails_the_fetch(monkeypatch, web_site):
    site = web_site()
    site.default = (200, {"Content-Type": "text/html"}, b"")
    resolve = socket.getaddrinfo

    def loopback_only(host, *args, **kwargs):
        # A link to any other host must not leave the machine.
        if host != "127.0.0.1":
            raise OSError(f"{host!r} is not the loopback site's host")
        return resolve(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", loopback_only)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(), max_size=4))
    def fetch_each_link(hrefs):
        anchors = "".join(f'<a href="{href}"></a>' for href in hrefs)
        site.routes["/"] = (200, {"Content-Type": "text/html"}, anchors.encode("utf-8"))
        fetcher = LiveFetcher(per_host_delay_ms=0)
        for link in fetcher.fetch(site.base + "/").links:
            with contextlib.suppress(FetchFailed):
                fetcher.fetch(link)

    with hard_timeout(20):
        fetch_each_link()


@pytest.mark.parametrize("lang_scorer, pair_scorer",
                         [("rule", "baseline"), ("ngram", "model"), ("uniform", "uniform")])
def test_crawl_live_logs_what_simulate_logs(tmp_path, web_site, crawl_models, lang_scorer,
                                            pair_scorer):
    planted, seeds = dense_planted_graph()
    home = seeds[0]
    # An off-pair page with a link found only through it, and a link to a
    # page the graph lacks, which its site answers with DROP.
    pages = dict(planted.pages)
    pages[home] = dataclasses.replace(
        pages[home], links=pages[home].links + (f"{home}de/seite", f"{home}en/gone"))
    pages[f"{home}de/seite"] = SitePage("deu", (f"{home}en/hidden",), frozenset())
    pages[f"{home}en/hidden"] = SitePage("eng", (), frozenset())
    graph, seeds = serve_graph(web_site, SiteGraph(pages), seeds)
    lang_model, pair_model = crawl_models
    save_model(lang_model, tmp_path / "lang.bin")
    save_pair_model(pair_model, tmp_path / "pair.json")
    cfg = _cfg(seeds, budget=len(graph.pages) + 10, lang_scorer=lang_scorer,
               pair_scorer=pair_scorer, lang_model_path=str(tmp_path / "lang.bin"),
               pair_model_path=str(tmp_path / "pair.json"), per_host_delay_ms=0)
    live = crawl_live(cfg)
    assert _log_rows(live) == _log_rows(simulate(graph, cfg))
    outcomes = {e.url: e.outcome for e in live}
    served_home = seeds[0]
    assert outcomes.pop(f"{served_home}de/seite") == DISCARDED_LANGUAGE
    assert outcomes.pop(f"{served_home}en/gone") == ERROR
    assert f"{served_home}en/hidden" not in outcomes
    assert list(outcomes.values()) == [STORED] * (len(graph.pages) - 2)


def test_every_crawl_config_field_is_read_by_the_crawler():
    source = Path(crawler.__file__).read_text(encoding="utf-8")
    unread = [field.name for field in dataclasses.fields(CrawlConfig)
              if not re.search(rf"\bcfg\.{field.name}\b", source)]
    assert unread == []


def test_site_of():
    assert site_of("https://en.example.co.uk/x") == "en.example.co.uk"
    assert site_of("garbage") == "garbage"
