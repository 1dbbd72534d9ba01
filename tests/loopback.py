"""One loopback fake for each outside service a crawl reaches.

* ``scorer_server`` starts :class:`ScorerServer`s: scorer processes on
  127.0.0.1 TCP, reached as ``external:127.0.0.1:PORT`` or through
  :meth:`ScorerServer.client`.
* ``web_site`` starts :class:`WebSite`s: HTTP origins on 127.0.0.1, with the
  ``*_proxy`` variables cleared so that urllib reaches them directly;
  :func:`serve_graph` serves a site graph from them.

Each fixture closes every server it started, and every client those servers
opened.  A test skips where a loopback socket cannot be bound.
``hard_timeout`` fails a block that hangs.
"""
import contextlib
import http.server
import os
import signal
import socket
import socketserver
import threading

import pytest

from bifocal.crawler import SiteGraph, SitePage, StopwordLanguageDetector
from bifocal.external import ScorerClient
from bifocal.urls import parse_components

# A web route (or a site's ``default``) that answers nothing: the connection
# closes without a reply.
DROP = None


def ok(request: str) -> str:
    """A well-formed reply derived from the request's URLs."""
    kind, _, rest = request.partition("\t")
    if kind == "LANG":
        if "/fr/" in rest:
            return "fra\t0.9 eng\t0.05 unk\t0.05"
        return "eng\t0.8 fra\t0.1 unk\t0.1"
    if kind == "PAIR":
        url_a, _, url_b = rest.partition("\t")
        return "0.75" if url_a.split("/")[-1] == url_b.split("/")[-1] else "0.25"
    return "?"


def bad_url(url: str):
    """Replies like ``ok``, but garbage to requests about ``url``: the URL of
    a ``LANG`` request, or the second URL of a ``PAIR`` request."""
    return lambda request: "garbage" if request.rsplit("\t", 1)[-1] == url else ok(request)


class _Server(socketserver.ThreadingTCPServer):
    """Serves on 127.0.0.1 from its own thread; ``close`` stops it and joins
    every handler.  A handler that holds waits on ``released``."""

    daemon_threads = False  # so that server_close joins each handler

    def __init__(self, handler):
        super().__init__(("127.0.0.1", 0), handler)
        self.port = self.server_address[1]
        self.released = threading.Event()
        self._connections = []
        # A short poll: shutdown() waits up to one poll interval.
        self._thread = threading.Thread(target=self.serve_forever, args=(0.01,))
        self._thread.start()

    def process_request(self, request, client_address):
        self._connections.append(request)
        super().process_request(request, client_address)

    def close(self):
        self.released.set()
        self.shutdown()
        self._thread.join()
        for connection in self._connections:
            # Wakes a handler still reading from a client that stays open.
            with contextlib.suppress(OSError):
                connection.shutdown(socket.SHUT_RDWR)
        self.server_close()


class _ScorerHandler(socketserver.StreamRequestHandler):
    def handle(self):
        server = self.server
        replies = 0
        try:
            while replies != server.close_after:
                line = self.rfile.readline()
                if not line:
                    server.hung_up.set()
                    return
                request = line.decode("utf-8").rstrip("\n")
                server.requests.append(request)
                server.released.wait()
                self.wfile.write(f"{server.reply(request)}\n".encode("utf-8"))
                replies += 1
        except ConnectionResetError:
            server.hung_up.set()
        except OSError:
            pass  # the client is gone, or the server is closing


class ScorerServer(_Server):
    """A scorer that answers each request line with ``reply(request)`` and
    records every request in ``requests``.

    Connection faults: ``close_after=K`` closes each connection after K
    replies (0: at once); ``hold=True`` holds every reply until
    ``released`` is set.  ``hung_up`` is set once a client closes its end.
    """

    def __init__(self, reply=ok, close_after=None, hold=False):
        self.reply = reply
        self.close_after = close_after
        self.requests = []
        self.hung_up = threading.Event()
        self._clients = []
        super().__init__(_ScorerHandler)
        self.spec = f"external:127.0.0.1:{self.port}"
        if not hold:
            self.released.set()

    def client(self, timeout: float = 5.0) -> ScorerClient:
        """A client on a new connection, closed with the server."""
        self._clients.append(ScorerClient.connect_tcp("127.0.0.1", self.port, timeout=timeout))
        return self._clients[-1]

    def close(self):
        for client in self._clients:
            client.close()
        super().close()


class _WebHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        site = self.server
        site.paths.append(self.path)
        route = site.routes.get(self.path, site.default)
        if route is DROP:
            return  # no reply: the connection closes
        if isinstance(route, bytes):
            self.wfile.write(route)
            return
        status, headers, body, *sent = route
        self.send_response_only(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if not sent:
            self.wfile.write(body)
            return
        self.wfile.write(body[:sent[0]])
        site.released.wait()

    def log_message(self, *args):
        pass


class WebSite(_Server):
    """One HTTP origin, ``base``, that answers ``routes[path]``, a
    ``(status, headers, body)``, or ``default`` for a path it has no route
    for; ``paths`` records every path asked for.

    Route faults: ``DROP`` closes the connection without a reply; a
    ``bytes`` route is the whole reply, written as it is; a fourth item ``n``
    sends only the first ``n`` bytes of the body under the whole body's
    ``Content-Length`` and then holds until the site closes.
    """

    def __init__(self):
        self.routes = {}
        self.default = (404, {}, b"")
        self.paths = []
        super().__init__(_WebHandler)
        self.base = f"http://127.0.0.1:{self.port}"


def serve_graph(start, graph, seeds):
    """``(graph, seeds)`` moved onto loopback sites, one that ``start`` (the
    ``web_site`` fixture) opens for each origin of the graph.

    Each page is HTML: its links, and words that only its language's
    stopword profile holds, so a live crawl finds the graph's languages.
    robots.txt allows everything, and a path with no page is ``DROP``.
    """
    profiles = StopwordLanguageDetector().profiles
    sites = {}

    def served(url):
        origin = parse_components(url).origin
        assert url.startswith(origin), url
        if origin not in sites:
            sites[origin] = start()
            sites[origin].routes["/robots.txt"] = (404, {}, b"")
            sites[origin].default = DROP
        return sites[origin], url[len(origin):]

    def moved(url):
        site, path = served(url)
        return site.base + path

    pages = {}
    for url, page in graph.pages.items():
        links = tuple(map(moved, page.links))
        pages[moved(url)] = SitePage(page.lang, links, frozenset(map(moved, page.parallel_with)))
        others = set().union(*(words for lang, words in profiles.items() if lang != page.lang))
        text = " ".join(sorted(profiles[page.lang] - others))
        anchors = "".join(f'<a href="{link}"></a>' for link in links)
        site, path = served(url)
        site.routes[path] = (200, {"Content-Type": "text/html; charset=utf-8"},
                             f"<html><body><p>{text}</p>{anchors}</body></html>".encode())
    return SiteGraph(pages), [moved(seed) for seed in seeds]


@contextlib.contextmanager
def _serving(kind):
    """A function that starts a ``kind`` server; each one is closed on exit."""
    servers = []

    def start(*args, **kwargs):
        try:
            servers.append(kind(*args, **kwargs))
        except OSError as exc:
            pytest.skip(f"cannot serve on a loopback socket: {exc}")
        return servers[-1]

    try:
        yield start
    finally:
        for server in servers:
            server.close()


@pytest.fixture
def scorer_server():
    """``start(reply=ok, close_after=None, hold=False)`` -> a ScorerServer."""
    with _serving(ScorerServer) as start:
        yield start


@pytest.fixture
def web_site(monkeypatch):
    """``start()`` -> a WebSite with no routes yet."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    with _serving(WebSite) as start:
        yield start


@contextlib.contextmanager
def hard_timeout(seconds):
    """Fail the test from the main thread if the block runs ``seconds`` or
    more, so that a hang fails instead of stalling the suite."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
