"""URL normalization, pre-tokenization, component parsing, and set similarity.

Normalization mirrors what the scorers expect: the protocol is stripped,
percent escapes and HTML entities are decoded once, the text is case-folded,
and it is segmented into maximal alphabetic runs with every other character
emitted as its own single-character token.  ``bifocal normalize`` prints the
tokens between the ``<s>``/``</s>`` sentinels.

Everything here is pure; results are cached and safe to share across threads.
"""
from __future__ import annotations

import html
import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotAUrl
from .psl import default_psl

# The bound of every memo of per-URL or per-token work, here and in the scorers.
CACHE_SIZE = 1 << 16

START_TOKEN = "<s>"
END_TOKEN = "</s>"

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*://")
_PCT_RUN_RE = re.compile(r"(?:%[0-9A-Fa-f]{2})+")
_DEFAULT_PORTS = {"http": 80, "https": 443}


@dataclass(frozen=True)
class UrlComponents:
    scheme: str
    subdomain: str
    registrable_domain: str
    public_suffix: str
    port: int | None
    path_segments: tuple[str, ...]
    query_params: tuple[tuple[str, str], ...]

    @property
    def host(self) -> str:
        if self.subdomain:
            return f"{self.subdomain}.{self.registrable_domain}"
        return self.registrable_domain

    @property
    def origin(self) -> str:
        """Scheme, host and port, as ``scheme://host[:port]``; the scheme's
        default port names the same origin as none (RFC 3986 §6.2.3)."""
        port = "" if self.port in (None, _DEFAULT_PORTS.get(self.scheme)) else f":{self.port}"
        return f"{self.scheme}://{self.host}{port}"


def _decode_percent_once(text: str) -> str:
    # Runs of %XX escapes are decoded together as one UTF-8 byte string so
    # multi-byte characters survive.  Undecodable runs are kept verbatim.
    def repl(match: re.Match) -> str:
        data = bytes.fromhex(match.group(0).replace("%", ""))
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError:
            return match.group(0)

    return _PCT_RUN_RE.sub(repl, text)


def segment_text(text: str) -> list[str]:
    """Maximal alphabetic runs; every other character is its own token."""
    tokens: list[str] = []
    run: list[str] = []
    for ch in text:
        if ch.isalpha():
            run.append(ch)
        else:
            if run:
                tokens.append("".join(run))
                run = []
            tokens.append(ch)
    if run:
        tokens.append("".join(run))
    return tokens


@lru_cache(maxsize=CACHE_SIZE)
def normalize_url(raw: str) -> tuple[str, ...]:
    """Preprocess and pre-tokenize a URL.

    Raises:
        NotAUrl: if ``raw`` is empty.
    """
    if not raw:
        raise NotAUrl("cannot normalize an empty URL")
    text = _SCHEME_RE.sub("", raw, count=1)
    text = _decode_percent_once(text)
    text = html.unescape(text)
    # Literal angle brackets cannot occur in a valid URL; treating them as
    # blanks keeps the sentinels that ``bifocal normalize`` prints unambiguous.
    text = text.replace("<", " ").replace(">", " ")
    text = text.casefold()
    return tuple(segment_text(text))


@lru_cache(maxsize=CACHE_SIZE)
def parse_components(raw: str) -> UrlComponents:
    """Split a URL into scheme, host parts, path segments, and query pairs.

    The public suffix is resolved against the bundled snapshot; hosts with an
    unlisted suffix fall back to their last dot-separated label.

    Raises:
        NotAUrl: if the URL has no scheme or no host.
    """
    match = _SCHEME_RE.match(raw)
    if match is None:
        raise NotAUrl(f"no scheme/authority in {raw!r}")
    scheme = match.group(0)[:-3].lower()
    rest = raw[match.end():]

    cut_positions = [i for i in (rest.find(c) for c in "/?#") if i != -1]
    if cut_positions:
        idx = min(cut_positions)
        authority, rest = rest[:idx], rest[idx:]
    else:
        authority, rest = rest, ""
    if "@" in authority:
        authority = authority.rsplit("@", 1)[1]
    port: int | None = None
    if ":" in authority:
        authority, _, port_text = authority.rpartition(":")
        if port_text.isdigit():
            port = int(port_text)
        else:
            authority = f"{authority}:{port_text}" if authority else port_text
    host = authority.lower().strip(".")
    if not host:
        raise NotAUrl(f"empty authority in {raw!r}")

    subdomain, registrable, suffix = default_psl().split(host)

    rest = rest.partition("#")[0]
    path, _, query = rest.partition("?")
    segments = tuple(seg for seg in path.split("/") if seg)
    params = []
    for chunk in query.split("&"):
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        params.append((key, value))

    return UrlComponents(
        scheme=scheme,
        subdomain=subdomain,
        registrable_domain=registrable,
        public_suffix=suffix,
        port=port,
        path_segments=segments,
        query_params=tuple(params),
    )


def jaccard(a: set | frozenset, b: set | frozenset) -> float:
    """Set similarity |a∩b| / |a∪b|; two empty sets count as identical (1.0)."""
    if not a and not b:
        return 1.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)
