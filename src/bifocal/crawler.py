"""The focused bilingual crawl loop.

One step: pop the best frontier entry, fetch the document and its content
language; documents outside the configured pair are discarded without link
extraction, stored documents have their outlinks scored with
``P(link is in the other language) * P(pair is parallel)`` and pushed with the
max-update rule.  Seeds always download first.

Two fetchers drive the one loop: ``simulate`` crawls a site-graph fixture
with the graph's languages, deterministically; ``crawl_live`` does plain
HTTP GETs honoring robots exclusion and detects each page's language from
its text.  Only the live fetcher imports the HTTP stack.
"""
from __future__ import annotations

import contextlib
import json
import logging
import re
import time
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType
from urllib.parse import quote, urlsplit

from . import langid, pairscore
from .errors import BifocalError, ConfigError, FetchFailed, FrontierEmpty, NotAUrl
from .frontier import SEED, Frontier
from .inputs import read_json, rows, url_list
from .isodata import UNKNOWN_LANG, bundled_languages
from .urls import parse_components, split_url

logger = logging.getLogger(__name__)

STORED = "stored"
DISCARDED_LANGUAGE = "discarded_language"
ERROR = "error"
OUTCOMES = (STORED, DISCARDED_LANGUAGE, ERROR)


def _breaks_a_log_row(text: str) -> bool:
    """Whether ``text``, a URL or a language, holds a tab or line break, which
    would split its crawl log row."""
    return "\t" in text or "\n" in text or "\r" in text


# ---------------------------------------------------------------------------
# Offline site-graph fixture

@dataclass(frozen=True)
class SitePage:
    lang: str
    links: tuple[str, ...]
    parallel_with: frozenset[str]


class SiteGraph:
    """Pages with ground-truth language, outlinks, and parallel partners."""

    def __init__(self, pages: "dict[str, SitePage]"):
        self.pages = pages
        self._validate()

    def _validate(self) -> None:
        for url, page in self.pages.items():
            for partner in page.parallel_with:
                other = self.pages.get(partner)
                if other is None or url not in other.parallel_with:
                    raise ConfigError(f"parallel_with is not symmetric for {url} / {partner}")
                if other.lang == page.lang:
                    raise ConfigError(f"parallel partners {url} / {partner} share a language")

    @classmethod
    def from_dict(cls, data: dict) -> "SiteGraph":
        """The graph in ``data["pages"]``; a page key it does not know is ignored.

        Raises:
            TypeError: a language is not a string, or links or partners are
                not a list of strings.
            ValueError: a page's URL, language, link or partner holds a tab or
                line break.
        """
        pages = {}
        for url, record in data["pages"].items():
            lang = record["lang"]
            if not isinstance(lang, str):
                raise TypeError(f"expected a language code string, got {lang!r:.80}")
            links = url_list(record.get("links", []))
            parallel_with = url_list(record.get("parallel_with", []))
            if _breaks_a_log_row("".join((url, lang, *links, *parallel_with))):
                raise ValueError(f"page {url!r:.80} has a tab or line break in its URL, "
                                 "language, links or partners")
            pages[url] = SitePage(lang=lang, links=links, parallel_with=frozenset(parallel_with))
        return cls(pages)

    @classmethod
    def load(cls, path) -> "SiteGraph":
        data = read_json(path, "site graph")
        try:
            return cls.from_dict(data)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: not a site graph: {exc!r}") from None


# ---------------------------------------------------------------------------
# Config, events, log

@dataclass
class CrawlConfig:
    lang_a: str
    lang_b: str
    seeds: tuple[str, ...]
    budget: int
    lang_scorer: str = "rule"
    pair_scorer: str = "baseline"
    per_host_delay_ms: int = 1000  # live crawls only; the simulator never waits
    max_depth: int | None = None
    user_agent: str = "bifocal/0.1"
    lang_model_path: str | None = None
    pair_model_path: str | None = None

    def __post_init__(self):
        if self.lang_a == self.lang_b:
            raise ConfigError("crawl needs two distinct languages")
        if self.budget <= 0:
            raise ConfigError("budget must be positive")
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError(f"max_depth must be at least 0, got {self.max_depth}")
        if self.per_host_delay_ms < 0:
            raise ConfigError(f"per_host_delay_ms must be at least 0, got {self.per_host_delay_ms}")
        self.seeds = tuple(self.seeds)
        if not self.seeds:
            raise ConfigError("crawl needs at least one seed URL")
        for seed_url in self.seeds:
            if _breaks_a_log_row(seed_url):
                raise ConfigError(f"seed URL {seed_url!r:.80} holds a tab or line break")


@dataclass
class CrawlEvent:
    seq: int
    url: str
    outcome: str  # stored | discarded_language | error
    lang: str
    priority: float  # SEED (+inf) for a seed


def site_of(url: str) -> str:
    """Website identity of a URL (its host); falls back to the raw string."""
    try:
        return parse_components(url).host
    except NotAUrl:
        return url


class CrawlLog:
    def __init__(self, events: "list[CrawlEvent]"):
        self.events = events

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.outcome] = counts.get(event.outcome, 0) + 1
        return counts

    def download_events(self, graph: SiteGraph) -> "list[tuple[str, bool]]":
        """(site, hit) rows for decile curves; failed fetches downloaded nothing.

        A stored document is a hit when one of its partners in ``graph`` was
        stored earlier, so each completed pair contributes exactly one hit at
        the moment it becomes usable.
        """
        stored_seq = {e.url: e.seq for e in self.events if e.outcome == STORED}
        rows = []
        for e in self.events:
            if e.outcome == ERROR:
                continue
            page = graph.pages.get(e.url) if e.outcome == STORED else None
            hit = page is not None and any(
                stored_seq.get(partner, e.seq) < e.seq for partner in page.parallel_with
            )
            rows.append((site_of(e.url), hit))
        return rows

    def to_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for e in self.events:
                priority = "SEED" if e.priority is SEED else repr(float(e.priority))
                handle.write(f"{e.seq}\t{e.url}\t{e.outcome}\t{e.lang}\t{priority}\n")

    @classmethod
    def from_tsv(cls, path) -> "CrawlLog":
        """The log that ``to_tsv`` wrote.  A row is a ``ConfigError`` unless it has
        five fields, an integer sequence number, an outcome in ``OUTCOMES``
        and a priority that is ``SEED`` or a number in [0, 1]."""
        events = []
        for lineno, (seq, url, outcome, lang, priority) in rows(path, 5, "crawl log"):
            try:
                value = SEED if priority == "SEED" else float(priority)
                if outcome not in OUTCOMES:
                    raise ValueError(f"outcome {outcome!r} is not one of {', '.join(OUTCOMES)}")
                if value is not SEED and not 0.0 <= value <= 1.0:
                    raise ValueError(f"priority {priority!r} is neither SEED nor in [0, 1]")
                events.append(CrawlEvent(int(seq), url, outcome, lang, value))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad crawl log row: {exc}") from None
        return cls(events)


# ---------------------------------------------------------------------------
# Content-language detection

class StopwordLanguageDetector:
    """Counts bundled function words per language in a page's text, as
    ``read_page`` gives it; most matches wins."""

    def __init__(self):
        text = resources.files("bifocal").joinpath("data/stopword_profiles.json").read_text("utf-8")
        self.profiles = {lang: frozenset(words) for lang, words in json.loads(text).items()}

    def detect(self, text: str) -> str:
        words = re.findall(r"[^\W\d_]+", text.casefold())
        best_lang = UNKNOWN_LANG
        best_score = 0
        for lang in sorted(self.profiles):
            score = sum(1 for w in words if w in self.profiles[lang])
            if score > best_score:
                best_score = score
                best_lang = lang
        return best_lang


# ---------------------------------------------------------------------------
# Fetchers

@dataclass(frozen=True)
class FetchResult:
    lang: str  # the page's content language, or ``unk``
    links: tuple[str, ...]


class GraphFetcher:
    def __init__(self, graph: SiteGraph):
        self.graph = graph

    def fetch(self, url: str) -> FetchResult:
        page = self.graph.pages.get(url)
        if page is None:
            raise FetchFailed(f"{url} is not in the site graph")
        return FetchResult(page.lang or UNKNOWN_LANG, page.links)


# One attribute of a tag, as the HTML tokenizer splits them: its name and its
# value, double-quoted, single-quoted, unquoted or missing.  A quoted value
# without its closing quote runs to the end of the page.
_ATTRIBUTE = (r"""[\t\n\f\r /]*+([^\t\n\f\r />][^\t\n\f\r />=]*+)"""
              r"""(?:[\t\n\f\r ]*+=[\t\n\f\r ]*+("[^"]*+"?|'[^']*+'?|[^\t\n\f\r >]*+))?+""")
_ATTRIBUTE_RE = re.compile(_ATTRIBUTE)
# What the HTML tokenizer reads at a "<": a comment, a bogus comment (a
# doctype or "<?...>" among them), or a start or end tag with its attributes.
# Each runs to its end or to the end of the page; a "<" that begins none of
# them is text.
_MARKUP_RE = re.compile(rf"""<!--(?:-?>|.*?--!?>|.*)
                           |<(?:[!?]|/(?![a-zA-Z]))[^>]*+>?
                           |<(?P<close>/?)(?P<tag>[a-zA-Z][^\t\n\f\r />]*+)
                            (?P<attributes>(?:{_ATTRIBUTE})*+)[\t\n\f\r /]*+(?P<end>>?)""",
                        re.DOTALL | re.VERBOSE)
# Elements whose content is text up to their end tag, so holds no tags.
_RAW_TEXT = frozenset({"iframe", "noembed", "noframes", "script", "style", "textarea",
                       "title", "xmp"})
# A character reference, as ``html.unescape`` finds one.
_CHARREF_RE = re.compile(r"&(#[0-9]+;?|#[xX][0-9a-fA-F]+;?|[^\t\n\f <&#;]{1,32};?)")
# What a URL parser strips from both ends of a URL, C0 controls and space,
# and what it removes everywhere in it, tabs and line breaks.
_C0_OR_SPACE = "".join(map(chr, range(0x21)))
_TAB_OR_NEWLINE = dict.fromkeys(map(ord, "\t\n\r"))


def _attribute_value(raw: str) -> str:
    """An attribute value as written, with its character references decoded
    as an HTML parser decodes them there.  Unlike in text, a named reference
    without ``;`` that ``=`` or an ASCII letter or digit follows is left as it
    is: ``?a=1&copy=2`` stays, where ``html.unescape`` gives ``?a=1©=2``."""
    import html
    from html.entities import html5

    def decode(match):
        ref = match.group(1)
        if ref.startswith("#"):
            return html.unescape(match.group())
        # The longest name the table holds, as ``html.unescape`` looks for it.
        for end in range(len(ref), 1, -1):
            name, after = ref[:end], ref[end : end + 1]
            if name in html5:
                if not name.endswith(";") and (after == "=" or after.isascii() and after.isalnum()):
                    break
                return html5[name] + ref[end:]
        return match.group()

    return _CHARREF_RE.sub(decode, raw)


def _remove_dot_segments(path: str) -> str:
    """``path`` as RFC 3986 §5.2.4 removes its dot segments: ``/a/./b/../c``
    is ``/a/c``.  The path is split once, so the time is linear in its length."""
    first, *segments = re.sub(r"\A(?:\.\.?/)*(?:\.\.?\Z)?", "", path).split("/")
    out = [first]
    for segment in segments:
        if segment == "..":
            del out[-1:]
        if segment not in (".", ".."):
            out.append("/" + segment)
    return "".join(out) + ("/" if segments[-1:] in (["."], [".."]) else "")


def _resolve(base: str, ref: str) -> str:
    """``ref`` resolved against ``base``, a URL with an authority, as RFC 3986
    §5.2 resolves it, with schemes lower-cased and a scheme equal to the
    base's read as none (§5.4.2).  ``ref`` is first cleaned as a URL parser
    cleans it: without tabs and line breaks, which would split a crawl log
    row, and with its ends stripped.

    Raises:
        ValueError: urllib cannot parse the result, such as ``http://[::1/x``.
    """
    ref = ref.translate(_TAB_OR_NEWLINE).strip(_C0_OR_SPACE)
    scheme, authority, path, query, fragment = split_url(ref)
    base_scheme, base_authority, base_path, base_query, _ = split_url(base)
    scheme, base_scheme = (scheme or base_scheme).lower(), base_scheme.lower()
    if scheme != base_scheme or authority is not None:
        path = _remove_dot_segments(path)
    elif not path:
        authority, path = base_authority, base_path
        query = base_query if query is None else query
    else:
        if not path.startswith("/"):  # merged with the base path (§5.2.3)
            path = (base_path[: base_path.rfind("/") + 1] or "/") + path
        authority, path = base_authority, _remove_dot_segments(path)
    if authority is None and path.startswith("//"):  # not to be read as an authority
        path = "/." + path
    link = scheme + ":" + ("" if authority is None else "//" + authority) + path
    link += ("" if query is None else "?" + query) + ("" if fragment is None else "#" + fragment)
    urlsplit(link)
    return link


def read_page(page: str, base_url: str) -> tuple[str, tuple[str, ...]]:
    """The text and the links of an HTML page, from one walk of its markup.

    The text is what lies outside comments and tags, without the bodies of
    ``script`` and ``style`` elements, with its character references
    decoded; the body of another raw-text element, such as ``title``, is
    text.  The links are the absolute http(s) URLs, without fragments, of
    the ``href`` values of start tags, in order and each once.  Each value
    is read as an HTML parser reads it, quoted or not and with its character
    references decoded, and then resolved against ``base_url`` by
    ``_resolve``.  A tag that the page ends inside counts for nothing, and a
    tag's first ``href`` is its only one, as in an HTML parser.
    """
    import html

    text = []
    links = {}
    pos = 0
    while match := _MARKUP_RE.search(page, pos):
        text.append(page[pos:match.start()])
        pos = match.end()
        if not match["tag"] or match["close"] or not match["end"]:
            continue
        for name, value in _ATTRIBUTE_RE.findall(match["attributes"]):
            if name.lower() == "href":
                value = value[1:-1] if value[:1] in ("'", '"') else value
                with contextlib.suppress(ValueError):  # urllib cannot parse it, such as "http://[::1/x"
                    link = _resolve(base_url, _attribute_value(value))
                    if link.startswith(("http://", "https://")):
                        links.setdefault(link.split("#", 1)[0])
                break
        tag = match["tag"].lower()
        if tag in _RAW_TEXT:
            end = re.compile(rf"</{tag}[\t\n\f\r />]", re.IGNORECASE).search(page, pos)
            body_end = end.start() if end else len(page)
            if tag not in ("script", "style"):
                text.append(page[pos:body_end])
            pos = body_end
    text.append(page[pos:])
    return html.unescape(" ".join(text)), tuple(links)


class PolitenessGate:
    """Enforces a minimum delay between requests to one host."""

    def __init__(self, delay_ms: int, clock=time.monotonic, sleeper=time.sleep):
        self.delay = delay_ms / 1000.0
        self.clock = clock
        self.sleeper = sleeper
        self._last: dict[str, float] = {}

    def wait(self, url: str) -> None:
        if self.delay <= 0:
            return
        host = site_of(url)
        now = self.clock()
        last = self._last.get(host)
        if last is not None and now - last < self.delay:
            self.sleeper(self.delay - (now - last))
            now = self.clock()
        self._last[host] = now


# Seconds a live fetch (page or robots.txt) may wait for the server.
_FETCH_TIMEOUT_S = 20.0
# Largest response body a live fetch reads; a longer one fails the fetch.
_MAX_BODY_BYTES = 10 * 1024 * 1024
# Redirects one fetch follows, as many as urllib's own redirect handler.
_MAX_REDIRECTS = 10
_REDIRECT_STATUSES = frozenset({301, 302, 303, 307, 308})


# Characters a request target may hold as they are: printable ASCII but the
# space, which ends the target in the request line.
_PRINTABLE_ASCII = "".join(map(chr, range(0x21, 0x7F)))


def _sendable(url: str) -> str:
    """``url`` with each character of its path and query that is a space or
    outside printable ASCII percent-encoded as UTF-8, as a browser sends it:
    ``/café`` is ``/caf%C3%A9`` and ``/a b`` is ``/a%20b``.  The host is
    left to urllib, which sends IDNA."""
    scheme, sep, rest = url.partition("://")
    authority = re.match(r"[^/?#]*", rest).group()
    return scheme + sep + authority + quote(rest[len(authority):], safe=_PRINTABLE_ASCII)


def _hop(opener, url: str):
    """``(status, headers, body)`` of one GET through ``opener``, a
    ``LiveFetcher``'s.  A redirect is not followed and an HTTP error is not
    raised: each comes back as its status and headers.

    Raises:
        FetchFailed: urllib cannot request the URL, or the body is longer
            than ``_MAX_BODY_BYTES``.
        OSError: the server could not be reached.
        http.client.HTTPException: HTTP cannot send the URL, or the reply is
            not HTTP.
    """
    import urllib.error

    try:
        response = opener.open(url, timeout=_FETCH_TIMEOUT_S)
    except urllib.error.HTTPError as exc:
        exc.close()
        return exc.code, exc.headers, b""
    except ValueError as exc:  # such as "Invalid IPv6 URL", or a host IDNA cannot encode
        raise FetchFailed(f"cannot GET {url}: {exc}") from None
    with response:
        body = response.read(_MAX_BODY_BYTES + 1)
        if len(body) > _MAX_BODY_BYTES:
            raise FetchFailed(f"GET {url}: body is longer than {_MAX_BODY_BYTES} bytes")
        return response.status, response.headers, body


class LiveFetcher:
    """Plain HTTP GET fetcher with robots exclusion and politeness delays; a
    page's language is what ``StopwordLanguageDetector`` finds in the text
    that ``read_page`` reads from its body."""

    def __init__(
        self,
        user_agent: str = CrawlConfig.user_agent,
        per_host_delay_ms: int = CrawlConfig.per_host_delay_ms,
        clock=time.monotonic,
        sleeper=time.sleep,
    ):
        import urllib.request

        class Unfollowed(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args):
                return None  # so urllib raises the 3xx as an HTTPError, which _hop returns

        # One opener for every hop; it reads the *_proxy variables once, here.
        self._opener = urllib.request.build_opener(Unfollowed)
        self._opener.addheaders = [("User-Agent", user_agent)]
        self.user_agent = user_agent
        self.gate = PolitenessGate(per_host_delay_ms, clock=clock, sleeper=sleeper)
        self.detector = StopwordLanguageDetector()
        self._robots: dict[str, urllib.robotparser.RobotFileParser] = {}

    def _robots_for(self, url: str) -> urllib.robotparser.RobotFileParser:
        """The robots.txt rules of the URL's origin, fetched once for each
        origin (RFC 9309 §2.3).

        A 5xx answer, a reply that is not HTTP or an unreachable server means
        the whole origin is disallowed; any other non-200 answer, a body over
        the size cap, a URL urllib cannot request or a redirect that cannot
        be followed allows all.  Its redirects are followed, across origins
        too (RFC 9309 §2.3.1.2).
        """
        import http.client
        import urllib.robotparser

        try:
            parts = parse_components(url)
        except NotAUrl as exc:
            raise FetchFailed(f"cannot fetch {url}: {exc}") from exc
        origin = parts.origin
        parser = self._robots.get(origin)
        if parser is None:
            parser = urllib.robotparser.RobotFileParser()
            try:
                status, _, body, _ = self._get(f"{origin}/robots.txt", obey_robots=False)
            except (OSError, http.client.HTTPException):
                parser.disallow_all = True
            except FetchFailed:
                parser.allow_all = True
            else:
                if status == 200:
                    parser.parse(body.decode("utf-8", "replace").splitlines())
                elif 500 <= status < 600:
                    parser.disallow_all = True
                else:
                    parser.allow_all = True
            self._robots[origin] = parser
        return parser

    def _get(self, url: str, obey_robots: bool = True):
        """``(status, headers, body, final URL)`` of a GET that follows up to
        ``_MAX_REDIRECTS`` redirects.  Each hop's URL is first made
        ``_sendable``; then, if ``obey_robots``, its own origin's robots.txt
        must allow it, and it waits at the politeness gate.  A ``Location``
        resolves against the hop that sent it.

        Raises:
            FetchFailed: robots.txt disallows a hop, urllib cannot request a
                URL, a redirect leaves HTTP or cannot be parsed, there are
                too many redirects, or a body is over the cap.
            OSError: a server could not be reached.
            http.client.HTTPException: HTTP cannot send the URL, or a reply
                is not HTTP.
        """
        for _ in range(_MAX_REDIRECTS + 1):
            url = _sendable(url)
            if obey_robots and not self._robots_for(url).can_fetch(self.user_agent, url):
                raise FetchFailed(f"robots.txt disallows {url}")
            self.gate.wait(url)
            status, headers, body = _hop(self._opener, url)
            location = headers.get("Location")
            if status not in _REDIRECT_STATUSES or location is None:
                return status, headers, body, url
            try:
                url = _resolve(url, location)
            except ValueError as exc:
                raise FetchFailed(f"redirect from {url} to {location!r:.80}: {exc}") from None
            if not url.startswith(("http://", "https://")):
                raise FetchFailed(f"redirect to a non-HTTP URL: {url}")
        raise FetchFailed(f"more than {_MAX_REDIRECTS} redirects, the last to {url}")

    def fetch(self, url: str) -> FetchResult:
        import http.client

        try:
            status, headers, body, served_url = self._get(url)
        except (OSError, http.client.HTTPException) as exc:
            raise FetchFailed(f"GET {url} failed: {exc}") from exc
        if status != 200:
            raise FetchFailed(f"GET {served_url} returned {status}")
        try:
            page = body.decode(headers.get_content_charset() or "utf-8", "replace")
        except (LookupError, UnicodeError):  # unknown, not a text codec, or no "replace" (idna)
            page = body.decode("utf-8", "replace")
        # Relative links resolve against the URL after any redirect.
        text, links = read_page(page, served_url)
        content_type = str(headers.get("Content-Type", "")).lower()
        if "html" not in content_type and content_type:
            links = ()
        return FetchResult(self.detector.detect(text), links)


# ---------------------------------------------------------------------------
# Scorer plumbing

class UniformScorer:
    """Constant 1.0 for any question; as both scorers, the crawl is breadth-first."""

    def probability(self, *question) -> float:
        return 1.0


def _external_scorer(spec: str, kind: str):
    """The scorer ``external.<kind>`` on a connection to ``external:HOST:PORT``."""
    from . import external

    host, _, port = spec.removeprefix("external:").partition(":")
    try:
        port_number = int(port)
    except ValueError:
        raise ConfigError(f"scorer {spec!r} needs an integer port: external:HOST:PORT") from None
    return getattr(external, kind)(external.ScorerClient.connect_tcp(host, port_number))


def build_lang_scorer(cfg):
    """The language scorer that ``cfg.lang_scorer`` names, once it is known
    that it can answer for ``cfg.lang_a`` and ``cfg.lang_b``.

    Raises:
        ConfigError: unknown name, ``ngram`` without ``lang_model_path``, an
            ``external:HOST:PORT`` whose port is not an integer, ``rule`` with
            a code other than a canonical three-letter one, or ``ngram`` with
            a code that is not a label of the model.
    """
    langs = (cfg.lang_a, cfg.lang_b)
    if cfg.lang_scorer == "rule":
        for code in langs:
            canonical = bundled_languages().canonical(code)
            if canonical != code:
                hint = f"; write {canonical!r}" if canonical else ""
                raise ConfigError(f"lang_scorer 'rule' answers canonical three-letter codes, "
                                  f"not {code!r}{hint}")
        return langid.RuleLanguageScorer()
    if cfg.lang_scorer == "ngram":
        if not cfg.lang_model_path:
            raise ConfigError("lang_scorer 'ngram' needs lang_model_path")
        model = langid.load_model(cfg.lang_model_path)
        for code in langs:
            if code not in model.labels:
                raise ConfigError(f"{cfg.lang_model_path}: {code!r} is not a label of the "
                                  f"language model, whose labels are {', '.join(model.labels)}")
        return model
    if cfg.lang_scorer == "uniform":
        return UniformScorer()
    if cfg.lang_scorer.startswith("external:"):
        return _external_scorer(cfg.lang_scorer, "ExternalLanguageScorer")
    raise ConfigError(f"unknown language scorer {cfg.lang_scorer!r}")


def build_pair_scorer(cfg):
    """The pair scorer that ``cfg.pair_scorer`` names.

    Raises:
        ConfigError: unknown name, ``model`` without ``pair_model_path``, or an
            ``external:HOST:PORT`` whose port is not an integer.
    """
    if cfg.pair_scorer == "baseline":
        return pairscore.BaselinePairScorer()
    if cfg.pair_scorer == "model":
        if not cfg.pair_model_path:
            raise ConfigError("pair_scorer 'model' needs pair_model_path")
        return pairscore.load_pair_model(cfg.pair_model_path)
    if cfg.pair_scorer == "uniform":
        return UniformScorer()
    if cfg.pair_scorer.startswith("external:"):
        return _external_scorer(cfg.pair_scorer, "ExternalPairScorer")
    raise ConfigError(f"unknown pair scorer {cfg.pair_scorer!r}")


def _prefetch(scorer, url: str, *args) -> None:
    """``scorer.prefetch(*args)`` if it has one; on failure each link is asked alone."""
    prefetch = getattr(scorer, "prefetch", None)
    if prefetch is not None:
        try:
            prefetch(*args)
        except BifocalError as exc:
            logger.debug("prefetch for %s failed (%s)", url, exc)


def score_links(url: str, lang_u: str, links, cfg: CrawlConfig, lang_scorer, pair_scorer):
    """Priorities for the outlinks of a stored document.

    The language target flips to the other member of the configured pair.
    Every link gets its language probability first; the pair scorer is asked
    only about links whose language probability is not 0, since the product
    is 0 whatever the pair scores.  A scorer failure, or a priority outside
    [0, 1] (a NaN from a broken model), zeroes that link's priority and the
    crawl continues.  A scorer with a ``prefetch`` method is
    first asked about all of the page's links it will score, at once; if that
    fails, each link is still asked on its own, so each failed link gets its
    own warning.
    """
    target = cfg.lang_b if lang_u == cfg.lang_a else cfg.lang_a
    _prefetch(lang_scorer, url, links)
    p_langs = []
    for link in links:
        try:
            p_langs.append(lang_scorer.probability(link, target))
        except BifocalError as exc:
            logger.warning("scoring %s failed (%s); priority 0", link, exc)
            p_langs.append(0.0)
    _prefetch(pair_scorer, url, url, [link for link, p_lang in zip(links, p_langs) if p_lang])
    scored = []
    for link, p_lang in zip(links, p_langs):
        priority = p_lang
        if p_lang:
            try:
                priority = p_lang * pair_scorer.probability(url, link, lang_u, target)
            except BifocalError as exc:
                logger.warning("scoring %s failed (%s); priority 0", link, exc)
                priority = 0.0
        if not 0.0 <= priority <= 1.0:
            logger.warning("scoring %s failed (priority %r); priority 0", link, priority)
            priority = 0.0
        scored.append((link, priority))
    return scored


# ---------------------------------------------------------------------------
# Crawl loop

class CrawlState:
    def __init__(self, cfg: CrawlConfig, fetcher, lang_scorer, pair_scorer):
        self.cfg = cfg
        self.fetcher = fetcher
        self.lang_scorer = lang_scorer
        self.pair_scorer = pair_scorer
        self.frontier = Frontier()
        self.events: list[CrawlEvent] = []
        self.depths: dict[str, int] = {}
        for seed_url in cfg.seeds:
            self.frontier.push_or_raise(seed_url, SEED)
            self.depths[seed_url] = 0


def crawl_step(state: CrawlState) -> CrawlEvent:
    """One pop-fetch-score-push cycle; returns the logged event.

    Raises:
        FrontierEmpty: nothing left to fetch.
    """
    entry = state.frontier.pop_max()
    try:
        result = state.fetcher.fetch(entry.url)
    except FetchFailed as exc:
        logger.info("fetch failed: %s", exc)
        outcome, lang = ERROR, UNKNOWN_LANG
    else:
        lang = result.lang
        # Off-language documents end here: no link extraction.
        outcome = STORED if lang in (state.cfg.lang_a, state.cfg.lang_b) else DISCARDED_LANGUAGE
    event = CrawlEvent(len(state.events) + 1, entry.url, outcome, lang, entry.priority)
    state.events.append(event)
    depth = state.depths.get(entry.url, 0)
    if outcome == STORED and (state.cfg.max_depth is None or depth < state.cfg.max_depth):
        # A fetched URL is terminal in the frontier and already has its depth.
        is_fetched = state.frontier.is_fetched
        links = [link for link in result.links if not is_fetched(link)]
        for link, priority in score_links(
            entry.url, lang, links, state.cfg, state.lang_scorer, state.pair_scorer
        ):
            state.depths.setdefault(link, depth + 1)
            state.frontier.push_or_raise(link, priority)
    return event


def run_crawl(state: CrawlState) -> CrawlLog:
    while len(state.events) < state.cfg.budget:
        try:
            crawl_step(state)
        except FrontierEmpty:
            break
    return CrawlLog(state.events)


def simulate(graph: SiteGraph, cfg: CrawlConfig) -> CrawlLog:
    """Deterministic offline crawl over a site-graph fixture.

    Content language comes from the fixture's ground truth; the log's parallel
    hits are ``CrawlLog.download_events(graph)``.

    Raises:
        ConfigError: a seed URL is missing from the graph.
    """
    for seed_url in cfg.seeds:
        if seed_url not in graph.pages:
            raise ConfigError(f"seed {seed_url} is not in the graph")
    return _crawl(cfg, GraphFetcher(graph))


def crawl_live(cfg: CrawlConfig) -> CrawlLog:
    """A crawl over HTTP, through a ``LiveFetcher`` with ``cfg``'s user agent
    and politeness delay.

    Raises:
        ConfigError: ``cfg.lang_a`` or ``cfg.lang_b`` has no stopword profile,
            so the fetcher's language detector can never report it.
    """
    fetcher = LiveFetcher(user_agent=cfg.user_agent, per_host_delay_ms=cfg.per_host_delay_ms)
    known = fetcher.detector.profiles
    for code in (cfg.lang_a, cfg.lang_b):
        if code not in known:
            raise ConfigError(f"a live crawl detects only {', '.join(sorted(known))}, not {code!r}")
    return _crawl(cfg, fetcher)


def _crawl(cfg: CrawlConfig, fetcher) -> CrawlLog:
    """A crawl through ``fetcher`` with the scorers ``cfg`` names; both are
    closed on exit (an external scorer holds a connection)."""
    with contextlib.ExitStack() as scorers:
        lang_scorer = build_lang_scorer(cfg)
        scorers.callback(getattr(lang_scorer, "close", lambda: None))
        pair_scorer = build_pair_scorer(cfg)
        scorers.callback(getattr(pair_scorer, "close", lambda: None))
        return run_crawl(CrawlState(cfg, fetcher, lang_scorer, pair_scorer))


# ---------------------------------------------------------------------------
# Seed lists

def build_seed_list(url_to_site, n: int = 200, alive=MappingProxyType({})) -> "list[str]":
    """Home pages of the ``n`` sites with the most unique URLs.

    ``url_to_site`` maps URLs to a website identity.  URLs that ``alive`` flags
    as dead are dropped before counting; a URL it leaves out is alive.  Sites
    are ranked by unique-URL count, ties broken lexicographically; each home
    page is the origin of the site's lexicographically first URL.

    Raises:
        ConfigError: ``n`` is below 1, or nothing to rank.
    """
    if n < 1:
        raise ConfigError(f"a seed list needs at least 1 site, got {n}")
    urls = [u for u in sorted(set(url_to_site)) if alive.get(u, True)]
    if not urls:
        raise ConfigError("no URLs to build seeds from")
    by_site: dict[str, list[str]] = {}
    for url in urls:
        by_site.setdefault(url_to_site[url], []).append(url)
    ranked = sorted(by_site.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    return [parse_components(site_urls[0]).origin + "/" for _, site_urls in ranked[:n]]
