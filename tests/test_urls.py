import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifocal.errors import NotAUrl
from bifocal.psl import PublicSuffixList, default_psl
from bifocal.urls import (
    END_TOKEN,
    START_TOKEN,
    jaccard,
    normalize_url,
    parse_components,
)

from golden import GOLDEN_NORMALIZATIONS


@pytest.mark.parametrize("raw,expected", GOLDEN_NORMALIZATIONS)
def test_golden_normalizations(raw, expected):
    assert normalize_url(raw) == tuple(expected[1:-1])


def test_empty_url_rejected():
    with pytest.raises(NotAUrl, match="cannot normalize an empty URL"):
        normalize_url("")


def test_underscore_is_its_own_token():
    assert normalize_url("http://x.org/a_b") == ("x", ".", "org", "/", "a", "_", "b")


def test_percent_decoding_matches_independent_decoder():
    # Independent oracle: urllib's percent decoder on escapes known to be valid.
    from urllib.parse import unquote

    raw = "https://s.com/p?q=caf%C3%A9&r=%2Ffoo%2F"
    decoded = unquote("s.com/p?q=caf%C3%A9&r=%2Ffoo%2F")
    assert "".join(normalize_url(raw)) == decoded.casefold()
    assert "café" in normalize_url(raw)


def test_undecodable_percent_run_stays_verbatim():
    assert normalize_url("https://a.com/%ff%fe") == (
        "a", ".", "com", "/", "%", "ff", "%", "fe")


# A URL-ish alphabet with no '%', '&', '<', '>' so decoding is the identity.
_plain_urlish = st.text(
    alphabet=string.ascii_lowercase + string.digits + "./-_?=:~",
    min_size=1,
    max_size=60,
).filter(lambda s: "://" not in s)


@given(_plain_urlish)
@settings(max_examples=200)
def test_segmentation_is_lossless(text):
    assert "".join(normalize_url(text)) == text.casefold()


@st.composite
def _encoded_urlish(draw):
    chunks = draw(
        st.lists(
            st.one_of(
                st.text(alphabet=string.ascii_lowercase + string.digits + "./-_?=", min_size=1, max_size=8),
                # A decoded '&' is never followed by a letter: "&amp;gt" is
                # "&gt" once decoded, a doubly encoded ">".
                st.sampled_from(["%20", "%2F", "%C3%A9", "&amp;-", "&#233;", "%41"]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return "https://" + "".join(chunks)


def test_entities_are_decoded_once():
    assert normalize_url("https://&amp;gt") == ("&", "gt")


@given(_encoded_urlish())
@settings(max_examples=200)
def test_normalize_idempotent_on_singly_encoded(url):
    first = normalize_url(url)
    if first:
        assert normalize_url("".join(first)) == first


@given(st.text(min_size=1, max_size=40))
@settings(max_examples=300)
def test_token_invariants_on_arbitrary_text(text):
    tokens = normalize_url(text)
    assert START_TOKEN not in tokens and END_TOKEN not in tokens
    for token in tokens:
        assert "<" not in token and ">" not in token
        assert token.isalpha() or (len(token) == 1 and not token.isalpha())


def test_parse_components_example():
    c = parse_components("https://en.example.co.uk/fr/p?lang=de")
    assert c.scheme == "https"
    assert c.subdomain == "en"
    assert c.registrable_domain == "example.co.uk"
    assert c.public_suffix == "co.uk"
    assert c.port is None
    assert c.path_segments == ("fr", "p")
    assert c.query_params == (("lang", "de"),)
    assert c.host == "en.example.co.uk"


def test_parse_components_minimal():
    c = parse_components("http://example.com")
    assert c.subdomain == ""
    assert c.path_segments == ()
    assert c.query_params == ()


@pytest.mark.parametrize("bad", ["ftp:///path", "file:///x", "not-a-url", "/de/seite", "https://"])
def test_parse_components_rejects_hostless(bad):
    with pytest.raises(NotAUrl):
        parse_components(bad)


def test_parse_components_fragment_never_leaks():
    assert parse_components("https://a.com#f?x").query_params == ()
    assert parse_components("https://a.com/p#frag?x=1").path_segments == ("p",)
    assert parse_components("https://a.com/p?q=1#frag").query_params == (("q", "1"),)


def test_origin_drops_the_schemes_default_port():
    # RFC 3986 6.2.3: "https://h.com:443/" and "https://h.com/" are one origin.
    assert parse_components("https://h.com/x").origin == "https://h.com"
    assert parse_components("https://h.com:443/x").origin == "https://h.com"
    assert parse_components("http://h.com:80/x").origin == "http://h.com"
    assert parse_components("https://h.com:8443/x").origin == "https://h.com:8443"
    assert parse_components("http://h.com:443/x").origin == "http://h.com:443"
    assert parse_components("HTTPS://user@H.com:443?q").origin == "https://h.com"


def test_parse_components_port_and_userinfo():
    c = parse_components("https://user:pw@shop.a.co.uk:8443/x?y=1&flag")
    assert c.port == 8443
    assert c.subdomain == "shop"
    assert c.registrable_domain == "a.co.uk"
    assert c.query_params == (("y", "1"), ("flag", ""))


def test_psl_wildcard_and_exception():
    c = parse_components("https://www.ck/x")
    assert c.public_suffix == "ck"
    assert c.registrable_domain == "www.ck"
    c = parse_components("https://bar.foo.ck/")
    assert c.public_suffix == "foo.ck"
    assert c.registrable_domain == "bar.foo.ck"


def test_psl_unknown_suffix_fallback():
    c = parse_components("https://x.zzinternal/")
    assert c.public_suffix == "zzinternal"
    assert c.registrable_domain == "x.zzinternal"


def _independent_psl_split(host: str) -> tuple[str, str]:
    """Second opinion on suffix resolution, parsing the snapshot directly."""
    from importlib import resources

    text = resources.files("bifocal").joinpath("data/public_suffix_list.dat").read_text("utf-8")
    rules = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    labels = host.split(".")
    matches = []
    for rule in rules:
        exception = rule.startswith("!")
        pattern = rule[1:] if exception else rule
        plabels = pattern.split(".")
        if len(plabels) > len(labels):
            continue
        tail = labels[-len(plabels):]
        if all(p == "*" or p == t for p, t in zip(plabels, tail)):
            matches.append((exception, plabels))
    exceptions = [m for m in matches if m[0]]
    if exceptions:
        suffix_len = len(exceptions[0][1]) - 1
    elif matches:
        suffix_len = max(len(p) for _, p in matches)
    else:
        suffix_len = 1
    suffix_len = min(suffix_len, len(labels))
    suffix = ".".join(labels[-suffix_len:])
    reg_len = min(suffix_len + 1, len(labels))
    registrable = ".".join(labels[-reg_len:])
    return registrable, suffix


@pytest.mark.parametrize(
    "host",
    [
        "en.example.co.uk", "example.com", "a.b.c.example.org", "x.gov.uk",
        "deep.sub.example.com.au", "www.ck", "bar.foo.ck", "x.zzinternal",
        "shop.example.de", "portal.example.eus", "news.example.cat",
    ],
)
def test_psl_matches_independent_resolver(host):
    c = parse_components(f"https://{host}/")
    registrable, suffix = _independent_psl_split(host)
    assert c.registrable_domain == registrable
    assert c.public_suffix == suffix


def test_host_reconstruction():
    for url in ["https://en.example.co.uk/x", "https://example.com", "https://a.b.example.org/p"]:
        c = parse_components(url)
        host = url.split("://", 1)[1].split("/", 1)[0]
        assert c.host == host


def test_jaccard_examples():
    assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
    assert jaccard({"x", "y"}, {"x", "y"}) == 1.0
    assert jaccard(set(), set()) == 1.0


@given(
    st.sets(st.text(alphabet="abcdef", min_size=1, max_size=3), max_size=8),
    st.sets(st.text(alphabet="abcdef", min_size=1, max_size=3), max_size=8),
)
def test_jaccard_symmetric_and_bounded(a, b):
    assert jaccard(a, b) == jaccard(b, a)
    assert 0.0 <= jaccard(a, b) <= 1.0
    if a:
        assert jaccard(a, a) == 1.0


def test_psl_parses_comments_and_blank_lines():
    psl = PublicSuffixList("# comment\n\ncom\n*.ck\n!www.ck\n// alt comment\n".splitlines())
    assert psl.split("a.example.com") == ("a", "example.com", "com")
    assert psl.split("www.ck") == ("", "www.ck", "ck")


def test_default_psl_is_cached():
    assert default_psl() is default_psl()
