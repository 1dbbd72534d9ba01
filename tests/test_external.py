import collections
import gc
import io
import logging
import socket
import threading
import time
import warnings

import pytest

import stub_scorer
from bifocal import external
from bifocal.crawler import STORED, CrawlConfig, GraphFetcher, crawl_live, simulate
from bifocal.errors import ScorerUnavailable
from bifocal.external import (
    WINDOW,
    ExternalLanguageScorer,
    ExternalPairScorer,
    ScorerClient,
    parse_distribution,
    parse_pair,
)
from synthdata import dense_planted_graph, random_site_graph

def test_language_distribution_over_pipes():
    client = stub_scorer.client()
    try:
        dist = parse_distribution(client.roundtrips(["LANG\thttps://a.com/fr/page"])[0])
        assert dist == {"fra": 0.9, "eng": 0.05, "unk": 0.05}
        assert sum(dist.values()) == pytest.approx(1.0)
    finally:
        client.close()


def test_pair_probability_over_pipes():
    client = stub_scorer.client()
    try:
        replies = client.roundtrips(["PAIR\thttps://a.com/en/x\thttps://a.com/fr/x",
                                     "PAIR\thttps://a.com/en/x\thttps://a.com/fr/y"])
        assert [parse_pair(reply) for reply in replies] == [0.75, 0.25]
    finally:
        client.close()


def test_scorer_wrappers():
    client = stub_scorer.client()
    try:
        lang = ExternalLanguageScorer(client)
        assert lang.probability("https://a.com/fr/p", "fra") == 0.9
        assert lang.probability("https://a.com/fr/p", "zzz") == 0.0
        pair = ExternalPairScorer(client)
        assert pair.probability("https://a/x", "https://b/x") == 0.75
    finally:
        client.close()


def test_malformed_response_raises():
    client = stub_scorer.client("garbage")
    try:
        reply = client.roundtrips(["PAIR\thttps://a/x\thttps://b/y"])[0]
        with pytest.raises(ScorerUnavailable, match="malformed"):
            parse_pair(reply)
    finally:
        client.close()


def test_closed_stream_raises():
    client = stub_scorer.client("truncate")
    try:
        with pytest.raises(ScorerUnavailable):
            client.roundtrips(["LANG\thttps://a.com/x"])
    finally:
        client.close()


def test_out_of_range_pair_probability():
    reader = io.StringIO("1.5\n")
    writer = io.StringIO()
    client = ScorerClient(reader, writer)
    reply = client.roundtrips(["PAIR\ta\tb"])[0]
    with pytest.raises(ScorerUnavailable, match="out of range"):
        parse_pair(reply)


def test_distribution_parsing_rejects_missing_tab():
    reader = io.StringIO("fra 0.9\n")
    client = ScorerClient(reader, io.StringIO())
    reply = client.roundtrips(["LANG\thttps://a.com/"])[0]
    with pytest.raises(ScorerUnavailable, match="malformed"):
        parse_distribution(reply)


@pytest.mark.parametrize("reply", [
    "fra\tnan eng\t1.5 deu\t-2", "fra\tnan", "eng\t1.5", "fra\t0.5 eng\t-0.1",
    "fra\tinf", "fra\t-inf", "fra\t1.0000001",
])
def test_distribution_parsing_rejects_out_of_range_probabilities(reply):
    with pytest.raises(ScorerUnavailable, match="out of range"):
        parse_distribution(reply)


@pytest.mark.parametrize("reply, message", [
    ("fra\tabc", "malformed probability 'abc'"),
    ("", "empty distribution response"),
    ("  ", "empty distribution response"),
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


class _LineServer:
    """Loopback scorer that answers ``reply(request)`` and records every request."""

    def __init__(self, reply):
        self.reply = reply
        self.requests = []
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.sock.bind(("127.0.0.1", 0))
        except OSError:
            self.sock.close()
            pytest.skip("loopback sockets unavailable in this environment")
        self.sock.listen(2)
        self.port = self.sock.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        # Separate streams: writing to a read-write text stream drops the
        # requests it has read ahead.
        with conn, conn.makefile("r", encoding="utf-8", newline="\n") as reader, \
                conn.makefile("w", encoding="utf-8", newline="\n") as writer:
            for line in reader:
                request = line.rstrip("\n")
                self.requests.append(request)
                writer.write(self.reply(request) + "\n")
                writer.flush()


@pytest.fixture
def line_server():
    servers = []

    def start(reply):
        servers.append(_LineServer(reply))
        return servers[-1]

    yield start
    for server in servers:
        server.sock.close()


def test_tcp_transport(line_server):
    server = line_server(
        lambda request: "eng\t0.6 fra\t0.4" if request.startswith("LANG") else "0.5"
    )
    client = ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5)
    try:
        lang_reply, pair_reply = client.roundtrips(
            ["LANG\thttps://x.com/", "PAIR\thttps://a\thttps://b"]
        )
        assert parse_distribution(lang_reply) == {"eng": 0.6, "fra": 0.4}
        assert parse_pair(pair_reply) == 0.5
    finally:
        client.close()


_MANY = [f"PAIR\thttps://a.com/{i}\thttps://b.com/{i % 7}" for i in range(200)]


def test_roundtrips_keep_order_over_pipes():
    assert len(_MANY) > 3 * WINDOW
    client = stub_scorer.client("echo")
    try:
        assert client.roundtrips(_MANY) == _MANY
        assert client.roundtrips([]) == []
    finally:
        client.close()


def test_roundtrips_keep_order_over_tcp(line_server):
    server = line_server(lambda request: request)
    client = ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5)
    try:
        assert client.roundtrips(_MANY) == _MANY
    finally:
        client.close()
    assert server.requests == _MANY


class _ReaderFailingOnce:
    """A stream whose first read fails; the reply it held arrives later."""

    def __init__(self):
        self.reads = 0

    def readline(self):
        self.reads += 1
        if self.reads == 1:
            raise TimeoutError("timed out")
        return "0.5\n"


def test_client_stays_broken_after_a_transport_failure():
    reader = _ReaderFailingOnce()
    client = ScorerClient(reader, io.StringIO())
    with pytest.raises(ScorerUnavailable, match="timed out"):
        client.roundtrips(["PAIR\thttps://a/x\thttps://b/x"])
    # The late reply to the failed request must not answer the next one.
    with pytest.raises(ScorerUnavailable, match="timed out"):
        client.roundtrips(["PAIR\thttps://a/y\thttps://b/y"])
    assert reader.reads == 1


def test_client_stays_broken_after_a_short_window():
    client = ScorerClient(io.StringIO("0.5\n"), io.StringIO())
    with pytest.raises(ScorerUnavailable, match="closed"):
        client.roundtrips(["PAIR\ta\tb", "PAIR\tc\td"])
    with pytest.raises(ScorerUnavailable, match="closed"):
        client.roundtrips(["PAIR\te\tf"])


def test_language_scorer_memoizes_parsed_answers_only():
    client = stub_scorer.client("bad-url", "https://a.com/bad")
    lang = ExternalLanguageScorer(client)
    try:
        lang.prefetch(["https://a.com/fr/x", "https://a.com/bad", "https://a.com/fr/x"])
        assert lang.probability("https://a.com/fr/x", "fra") == 0.9
        with pytest.raises(ScorerUnavailable):
            lang.probability("https://a.com/bad", "fra")
        lang.prefetch(["https://a.com/fr/x", "https://a.com/bad"])
        assert lang._pending.keys() == {"https://a.com/bad"}
        assert lang.probability("https://a.com/fr/x", "eng") == 0.05
    finally:
        client.close()


def test_language_memo_forgets_its_oldest_url_when_full(monkeypatch):
    monkeypatch.setattr(external, "CACHE_SIZE", 2)
    client = stub_scorer.client()
    lang = ExternalLanguageScorer(client)
    try:
        for url in ("https://a.com/fr/1", "https://a.com/en/2", "https://a.com/fr/3"):
            lang.probability(url, "fra")
        assert list(lang._memo) == ["https://a.com/en/2", "https://a.com/fr/3"]
    finally:
        client.close()


def test_crawl_asks_each_url_language_once(line_server):
    server = line_server(lambda request: stub_scorer.respond(request, "ok"))
    graph, seeds = dense_planted_graph()
    spec = f"external:127.0.0.1:{server.port}"
    cfg = CrawlConfig(lang_a="eng", lang_b="fra", seeds=seeds, budget=len(graph.pages),
                      lang_scorer=spec, pair_scorer=spec)
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


def test_out_of_range_language_reply_zeroes_only_its_link(line_server, caplog):
    graph, seeds = dense_planted_graph()
    bad = sorted(url for url in graph.pages if "/fr/" in url)[0]

    def crawl(bad_reply):
        def reply(request):
            if request == f"LANG\t{bad}":
                return bad_reply
            return stub_scorer.respond(request, "ok")

        spec = f"external:127.0.0.1:{line_server(reply).port}"
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


def _graph_crawl_live(graph, cfg, *scorers):
    return crawl_live(cfg, *scorers, fetcher=GraphFetcher(graph))


@pytest.mark.parametrize("crawl", [simulate, _graph_crawl_live])
def test_crawl_closes_the_clients_it_opens(line_server, crawl):
    server = line_server(lambda request: stub_scorer.respond(request, "ok"))
    graph, seeds = random_site_graph(21, n_pages=30)
    spec = f"external:127.0.0.1:{server.port}"
    cfg = CrawlConfig(lang_a="eng", lang_b="fra", seeds=seeds, budget=30,
                      lang_scorer=spec, pair_scorer=spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        log = crawl(graph, cfg)
        gc.collect()
    assert len(log) > 1
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("crawl", [simulate, _graph_crawl_live])
def test_crawl_leaves_the_callers_scorers_open(line_server, crawl):
    server = line_server(lambda request: stub_scorer.respond(request, "ok"))
    graph, seeds = random_site_graph(21, n_pages=30)
    cfg = CrawlConfig(lang_a="eng", lang_b="fra", seeds=seeds, budget=30)
    client = ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5)
    try:
        crawl(graph, cfg, ExternalLanguageScorer(client), ExternalPairScorer(client))
        assert client.roundtrips(["PAIR\thttps://a\thttps://b"]) == [
            stub_scorer.respond("PAIR\thttps://a\thttps://b", "ok")]
    finally:
        client.close()


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="no TCP_QUICKACK")
def test_windows_do_not_wait_for_delayed_acks(line_server):
    # The server leaves Nagle's algorithm on: without an immediate ACK of its
    # first reply it holds the rest of each window for ~40 ms.
    server = line_server(lambda request: "0.5")
    client = ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5)
    start = time.perf_counter()
    try:
        for _ in range(50):
            assert client.roundtrips(_MANY[:12]) == ["0.5"] * 12
    finally:
        client.close()
    assert time.perf_counter() - start < 1.0
