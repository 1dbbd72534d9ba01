"""Client for external scorer processes.

Wire protocol (newline-delimited UTF-8, over TCP):

* request ``LANG<TAB>url``: response is one line of space-separated
  ``lang_code<TAB>probability`` units describing a distribution;
* request ``PAIR<TAB>url_a<TAB>url_b``: response is one line holding a
  single decimal probability.

The client pipelines its requests: it writes up to ``WINDOW`` request lines
at once on one connection and then reads their replies, so the server must
answer every request with exactly one line, in the order the requests came,
and must keep the requests it has read ahead.  The replies to one window fit
in any socket buffer, so a server that writes each reply as soon as it has
read the request never blocks while the client is still sending.  The client
acknowledges each reply as soon as it has read it, where the platform allows
(``TCP_QUICKACK``), so a server that leaves Nagle's algorithm on does not
hold its next reply for the client's delayed ACK (~40 ms a window).  A
crawl's language scorer memoizes each URL's answer, so a server must answer
the same URL the same way for the length of a crawl.

A transport failure or a closed stream raises
:class:`~bifocal.errors.ScorerUnavailable` and marks the client broken: every
later call raises at once, so a reply is never matched to the wrong request.
A malformed reply, including one whose probability is not a number in
[0, 1], raises the same error when it is parsed.  A client serves one
thread; open several for concurrency.
"""
from __future__ import annotations

import contextlib
import socket

from .errors import ScorerUnavailable
from .urls import CACHE_SIZE

# Requests in flight on one connection.
WINDOW = 64
# Where the platform has it: acknowledge a reply at once (see above).
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


def parse_distribution(line: str) -> dict[str, float]:
    """The ``code -> probability`` map of a ``LANG`` reply.

    Raises:
        ScorerUnavailable: the reply is empty, a unit is malformed, or a
            probability is not a number in [0, 1].
    """
    dist: dict[str, float] = {}
    for unit in line.split(" "):
        if not unit:
            continue
        code, sep, prob_text = unit.partition("\t")
        if not sep or not code:
            raise ScorerUnavailable(f"malformed distribution unit {unit!r}")
        try:
            prob = float(prob_text)
        except ValueError as exc:
            raise ScorerUnavailable(f"malformed probability {prob_text!r}") from exc
        if not 0.0 <= prob <= 1.0:
            raise ScorerUnavailable(f"language probability out of range: {unit!r}")
        dist[code] = prob
    if not dist:
        raise ScorerUnavailable("empty distribution response")
    return dist


def parse_pair(line: str) -> float:
    """The probability of a ``PAIR`` reply.

    Raises:
        ScorerUnavailable: the reply is not a number in [0, 1].
    """
    try:
        prob = float(line)
    except ValueError as exc:
        raise ScorerUnavailable(f"malformed pair response {line!r}") from exc
    if not 0.0 <= prob <= 1.0:
        raise ScorerUnavailable(f"pair probability out of range: {prob}")
    return prob


class ScorerClient:
    """One TCP connection to a scorer process, opened by :meth:`connect_tcp`."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._reader = sock.makefile("r", encoding="utf-8", newline="\n")
        self._writer = sock.makefile("w", encoding="utf-8", newline="\n")
        self._broken: str | None = None

    @classmethod
    def connect_tcp(cls, host: str, port: int, timeout: float = 10.0) -> "ScorerClient":
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            # A window is written at once; its tail must not wait for an ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise ScorerUnavailable(f"cannot connect to {host}:{port}: {exc}") from exc
        return cls(sock)

    def close(self) -> None:
        """Close both streams, then the socket: each stream holds it open."""
        with contextlib.suppress(OSError):  # the unsent requests of a failed call
            self._writer.close()
        self._reader.close()
        self._sock.close()

    def roundtrips(self, requests: "list[str]") -> "list[str]":
        """One reply line per request, in order, ``WINDOW`` requests at a time.

        Raises:
            ScorerUnavailable: a request holds a line break (nothing is
                sent), or the transport failed or the stream closed, now or
                on an earlier call.
        """
        if self._broken is not None:
            raise ScorerUnavailable(self._broken)
        for request in requests:
            if "\n" in request or "\r" in request:
                # It would reach the server as two requests and shift every
                # later reply onto the wrong request.
                raise ScorerUnavailable(f"request holds a line break: {request!r}")
        replies = []
        for start in range(0, len(requests), WINDOW):
            window = requests[start:start + WINDOW]
            try:
                self._writer.write("".join(f"{request}\n" for request in window))
                self._writer.flush()
                for _ in window:
                    line = self._reader.readline()
                    if not line:
                        self._broken = "scorer closed the connection"
                        raise ScorerUnavailable(self._broken)
                    if _QUICKACK is not None:
                        self._sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
                    replies.append(line.rstrip("\n"))
            except (OSError, ValueError) as exc:
                self._broken = f"scorer transport failed: {exc}"
                raise ScorerUnavailable(self._broken) from exc
        return replies


class ExternalLanguageScorer:
    """Language scorer backed by a :class:`ScorerClient`.

    A crawl reaches the same URL from many parents, so each instance memoizes
    the distribution of up to ``CACHE_SIZE`` URLs.  A malformed reply is not
    memoized: the URL is asked again the next time it is scored.
    """

    def __init__(self, client: ScorerClient):
        self.client = client
        self._memo: dict[str, dict[str, float]] = {}
        self._pending: dict[str, str] = {}  # prefetched replies, not yet parsed

    def close(self) -> None:
        self.client.close()

    def prefetch(self, urls) -> None:
        """Ask, in one pipelined batch, for the URLs not answered yet.

        Raises:
            ScorerUnavailable: the transport failed.
        """
        todo = list(dict.fromkeys(url for url in urls if url not in self._memo))
        self._pending = {}
        if todo:
            replies = self.client.roundtrips([f"LANG\t{url}" for url in todo])
            self._pending = dict(zip(todo, replies))

    def probability(self, url: str, target: str) -> float:
        dist = self._memo.get(url)
        if dist is None:
            line = self._pending.pop(url, None)
            if line is None:
                line = self.client.roundtrips([f"LANG\t{url}"])[0]
            dist = parse_distribution(line)
            if len(self._memo) >= CACHE_SIZE:
                del self._memo[next(iter(self._memo))]
            self._memo[url] = dist
        return dist.get(target, 0.0)


class ExternalPairScorer:
    """Pair scorer backed by a :class:`ScorerClient`."""

    def __init__(self, client: ScorerClient):
        self.client = client
        self._pending: dict[tuple[str, str], str] = {}  # this page's replies

    def close(self) -> None:
        self.client.close()

    def prefetch(self, url: str, links) -> None:
        """Ask, in one pipelined batch, for the pairs of ``url`` and its distinct links.

        Raises:
            ScorerUnavailable: the transport failed.
        """
        distinct = list(dict.fromkeys(links))
        self._pending = {}
        replies = self.client.roundtrips([f"PAIR\t{url}\t{link}" for link in distinct])
        self._pending = {(url, link): reply for link, reply in zip(distinct, replies)}

    def probability(self, url_a: str, url_b: str, lang_a=None, lang_b=None) -> float:
        line = self._pending.get((url_a, url_b))
        if line is None:
            line = self.client.roundtrips([f"PAIR\t{url_a}\t{url_b}"])[0]
        return parse_pair(line)
