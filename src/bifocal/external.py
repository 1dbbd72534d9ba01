"""Client for external scorer processes.

Wire protocol (newline-delimited UTF-8, over a stream socket or pipes):

* request ``LANG<TAB>url``: response is one line of space-separated
  ``lang_code<TAB>probability`` units describing a distribution;
* request ``PAIR<TAB>url_a<TAB>url_b``: response is one line holding a
  single decimal probability.

Any transport failure or malformed response raises
:class:`~bifocal.errors.ScorerUnavailable`.  Requests on one connection are
serialized; open several clients for concurrency.
"""
from __future__ import annotations

import socket
import subprocess
import threading

from .errors import ScorerUnavailable


class ScorerClient:
    def __init__(self, reader, writer, closer=None):
        self._reader = reader
        self._writer = writer
        self._closer = closer
        self._lock = threading.Lock()

    @classmethod
    def connect_tcp(cls, host: str, port: int, timeout: float = 10.0) -> "ScorerClient":
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ScorerUnavailable(f"cannot connect to {host}:{port}: {exc}") from exc
        reader = sock.makefile("r", encoding="utf-8", newline="\n")
        writer = sock.makefile("w", encoding="utf-8", newline="\n")
        return cls(reader, writer, closer=sock.close)

    @classmethod
    def spawn(cls, command: "list[str]") -> "ScorerClient":
        try:
            proc = subprocess.Popen(
                command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                encoding="utf-8",
                bufsize=1,
            )
        except OSError as exc:
            raise ScorerUnavailable(f"cannot spawn {command!r}: {exc}") from exc

        def closer():
            proc.stdin.close()
            proc.wait(timeout=10)

        return cls(proc.stdout, proc.stdin, closer=closer)

    def close(self) -> None:
        if self._closer is not None:
            self._closer()

    def _roundtrip(self, request: str) -> str:
        with self._lock:
            try:
                self._writer.write(request + "\n")
                self._writer.flush()
                line = self._reader.readline()
            except (OSError, ValueError) as exc:
                raise ScorerUnavailable(f"scorer transport failed: {exc}") from exc
        if not line:
            raise ScorerUnavailable("scorer closed the connection")
        return line.rstrip("\n")

    def language_distribution(self, url: str) -> dict[str, float]:
        line = self._roundtrip(f"LANG\t{url}")
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
            dist[code] = prob
        if not dist:
            raise ScorerUnavailable("empty distribution response")
        return dist

    def pair_probability(self, url_a: str, url_b: str) -> float:
        line = self._roundtrip(f"PAIR\t{url_a}\t{url_b}")
        try:
            prob = float(line)
        except ValueError as exc:
            raise ScorerUnavailable(f"malformed pair response {line!r}") from exc
        if not 0.0 <= prob <= 1.0:
            raise ScorerUnavailable(f"pair probability out of range: {prob}")
        return prob


class ExternalLanguageScorer:
    """Language scorer backed by a :class:`ScorerClient`."""

    def __init__(self, client: ScorerClient):
        self.client = client

    def probability(self, url: str, target: str) -> float:
        return self.client.language_distribution(url).get(target, 0.0)


class ExternalPairScorer:
    """Pair scorer backed by a :class:`ScorerClient`."""

    def __init__(self, client: ScorerClient):
        self.client = client

    def probability(self, url_a: str, url_b: str, lang_a=None, lang_b=None) -> float:
        return self.client.pair_probability(url_a, url_b)
