import collections
import gc
import logging
import socket
import time
import warnings

import pytest

from bifocal import external
from bifocal.crawler import STORED, CrawlConfig, crawl_live, simulate
from bifocal.errors import ScorerUnavailable
from bifocal.external import (
    WINDOW,
    ExternalLanguageScorer,
    ExternalPairScorer,
    ScorerClient,
    parse_distribution,
    parse_pair,
)
from loopback import bad_url, ok, serve_graph
from synthdata import dense_planted_graph, random_site_graph


def test_tcp_transport(scorer_server):
    client = scorer_server().client()
    lang_reply, *pair_replies = client.roundtrips([
        "LANG\thttps://a.com/fr/page",
        "PAIR\thttps://a.com/en/x\thttps://a.com/fr/x",
        "PAIR\thttps://a.com/en/x\thttps://a.com/fr/y",
    ])
    dist = parse_distribution(lang_reply)
    assert dist == {"fra": 0.9, "eng": 0.05, "unk": 0.05}
    assert sum(dist.values()) == pytest.approx(1.0)
    assert [parse_pair(reply) for reply in pair_replies] == [0.75, 0.25]


def test_scorer_wrappers(scorer_server):
    client = scorer_server().client()
    lang = ExternalLanguageScorer(client)
    assert lang.probability("https://a.com/fr/p", "fra") == 0.9
    assert lang.probability("https://a.com/fr/p", "zzz") == 0.0
    pair = ExternalPairScorer(client)
    assert pair.probability("https://a/x", "https://b/x") == 0.75


def test_malformed_response_raises(scorer_server):
    client = scorer_server(lambda request: "not a number at all").client()
    reply = client.roundtrips(["PAIR\thttps://a/x\thttps://b/y"])[0]
    with pytest.raises(ScorerUnavailable, match="malformed"):
        parse_pair(reply)


def test_closed_stream_raises(scorer_server):
    client = scorer_server(close_after=0).client()
    with pytest.raises(ScorerUnavailable):
        client.roundtrips(["LANG\thttps://a.com/x"])


def test_close_ends_the_connection(scorer_server):
    server = scorer_server()
    client = server.client()
    assert client.roundtrips(["PAIR\ta\tb"]) == ["0.25"]
    client.close()
    assert server.hung_up.wait(1)


@pytest.mark.parametrize("parse, reply", [
    *(pytest.param(parse_distribution, reply, id=reply) for reply in [
        "fra\tnan eng\t1.5 deu\t-2", "fra\tnan", "eng\t1.5", "fra\t0.5 eng\t-0.1",
        "fra\tinf", "fra\t-inf", "fra\t1.0000001"]),
    pytest.param(parse_pair, "1.5", id="PAIR 1.5"),
])
def test_distribution_parsing_rejects_out_of_range_probabilities(parse, reply):
    with pytest.raises(ScorerUnavailable, match="out of range"):
        parse(reply)


@pytest.mark.parametrize("reply, message", [
    ("fra\tabc", "malformed probability 'abc'"),
    ("", "empty distribution response"),
    ("  ", "empty distribution response"),
    ("fra 0.9", "malformed distribution unit"),
])
def test_distribution_parsing_rejects_malformed_replies(reply, message):
    with pytest.raises(ScorerUnavailable, match=message):
        parse_distribution(reply)


def test_distribution_parsing_skips_empty_units():
    assert parse_distribution("fra\t0.25  eng\t0.75") == {"fra": 0.25, "eng": 0.75}


def test_distribution_parsing_accepts_the_bounds():
    assert parse_distribution("fra\t0 eng\t1.0 deu\t-0.0") == {"fra": 0.0, "eng": 1.0, "deu": 0.0}


def test_tcp_connect_refused():
    with pytest.raises(ScorerUnavailable):
        ScorerClient.connect_tcp("127.0.0.1", 1, timeout=0.2)


_MANY = [f"PAIR\thttps://a.com/{i}\thttps://b.com/{i % 7}" for i in range(200)]


def test_roundtrips_keep_order_over_tcp(scorer_server):
    assert len(_MANY) > 3 * WINDOW
    server = scorer_server(lambda request: request)
    client = server.client()
    assert client.roundtrips(_MANY) == _MANY
    assert client.roundtrips([]) == []
    assert server.requests == _MANY


def test_client_stays_broken_after_a_transport_failure(scorer_server):
    server = scorer_server(hold=True)
    client = server.client(timeout=0.2)
    with pytest.raises(ScorerUnavailable, match="timed out"):
        client.roundtrips(["PAIR\thttps://a/x\thttps://b/x"])
    # The late reply to the failed request must not answer the next one,
    # and the next one must not be sent.
    server.released.set()
    with pytest.raises(ScorerUnavailable, match="timed out"):
        client.roundtrips(["PAIR\thttps://a/y\thttps://b/y"])
    client.close()
    assert server.hung_up.wait(1)
    assert server.requests == ["PAIR\thttps://a/x\thttps://b/x"]


def test_client_stays_broken_after_a_short_window(scorer_server):
    client = scorer_server(close_after=1).client()
    with pytest.raises(ScorerUnavailable, match="closed"):
        client.roundtrips(["PAIR\ta\tb", "PAIR\tc\td"])
    with pytest.raises(ScorerUnavailable, match="closed"):
        client.roundtrips(["PAIR\te\tf"])
    # A call that sends nothing still fails: the client remembers the break.
    with pytest.raises(ScorerUnavailable, match="closed"):
        client.roundtrips([])


def test_language_scorer_memoizes_parsed_answers_only(scorer_server):
    lang = ExternalLanguageScorer(scorer_server(bad_url("https://a.com/bad")).client())
    lang.prefetch(["https://a.com/fr/x", "https://a.com/bad", "https://a.com/fr/x"])
    assert lang.probability("https://a.com/fr/x", "fra") == 0.9
    with pytest.raises(ScorerUnavailable):
        lang.probability("https://a.com/bad", "fra")
    lang.prefetch(["https://a.com/fr/x", "https://a.com/bad"])
    assert lang._pending.keys() == {"https://a.com/bad"}
    assert lang.probability("https://a.com/fr/x", "eng") == 0.05


def test_language_memo_forgets_its_oldest_url_when_full(monkeypatch, scorer_server):
    monkeypatch.setattr(external, "CACHE_SIZE", 2)
    lang = ExternalLanguageScorer(scorer_server().client())
    for url in ("https://a.com/fr/1", "https://a.com/en/2", "https://a.com/fr/3"):
        lang.probability(url, "fra")
    assert list(lang._memo) == ["https://a.com/en/2", "https://a.com/fr/3"]


def test_crawl_asks_each_url_language_once(scorer_server):
    server = scorer_server()
    graph, seeds = dense_planted_graph()
    cfg = CrawlConfig(lang_a="eng", lang_b="fra", seeds=seeds, budget=len(graph.pages),
                      lang_scorer=server.spec, pair_scorer=server.spec)
    log = simulate(graph, cfg)

    # A page's links that were fetched before it was stored are not scored.
    fetched_at = {e.url: e.seq for e in log}
    scored = [link for e in log if e.outcome == STORED for link in graph.pages[e.url].links
              if fetched_at.get(link, e.seq + 1) > e.seq]
    asked = collections.Counter(
        request.split("\t")[1] for request in server.requests if request.startswith("LANG\t")
    )
    assert len(scored) > 2 * len(set(scored))
    assert asked == collections.Counter(set(scored))


def test_out_of_range_language_reply_zeroes_only_its_link(scorer_server, caplog):
    graph, seeds = dense_planted_graph()
    bad = sorted(url for url in graph.pages if "/fr/" in url)[0]

    def crawl(bad_reply):
        def reply(request):
            return bad_reply if request == f"LANG\t{bad}" else ok(request)

        spec = scorer_server(reply).spec
        cfg = CrawlConfig(lang_a="eng", lang_b="fra", seeds=seeds, budget=len(graph.pages),
                          lang_scorer=spec, pair_scorer=spec)
        caplog.clear()
        log = simulate(graph, cfg)
        warned = {record.args[0] for record in caplog.records
                  if record.levelno == logging.WARNING and record.name == "bifocal.crawler"}
        return [(e.url, e.outcome, repr(e.priority)) for e in log], warned

    zeroed, warned = crawl("unk\t1.0")  # a well-formed answer that gives priority 0
    assert warned == set()
    out_of_range, warned = crawl("fra\tnan eng\t1.5 deu\t-2")
    assert warned == {bad}
    assert out_of_range == zeroed
    assert len(zeroed) == len(graph.pages)


@pytest.mark.parametrize("crawl", ["simulate", "crawl_live"])
def test_crawl_closes_the_clients_it_opens(scorer_server, web_site, crawl):
    spec = scorer_server().spec
    graph, seeds = random_site_graph(21, n_pages=30)
    if crawl == "crawl_live":
        graph, seeds = serve_graph(web_site, graph, seeds)
    cfg = CrawlConfig(lang_a="eng", lang_b="fra", seeds=seeds, budget=30,
                      lang_scorer=spec, pair_scorer=spec, per_host_delay_ms=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        log = simulate(graph, cfg) if crawl == "simulate" else crawl_live(cfg)
        gc.collect()
    assert len(log) > 1
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="no TCP_QUICKACK")
def test_windows_do_not_wait_for_delayed_acks(scorer_server):
    # The server leaves Nagle's algorithm on: without an immediate ACK of its
    # first reply it holds the rest of each window for ~40 ms.
    client = scorer_server(lambda request: "0.5").client()
    start = time.perf_counter()
    for _ in range(50):
        assert client.roundtrips(_MANY[:12]) == ["0.5"] * 12
    assert time.perf_counter() - start < 1.0
