"""Deterministic synthetic fixtures shared across the test suite.

Everything here is a pure function of its seed so fixtures are byte-identical
across runs.
"""
from __future__ import annotations

import dataclasses
import json
import math
import random

from bifocal.crawler import SiteGraph, SitePage, site_of
from bifocal.datasets import LabeledPair
from bifocal.isodata import bundled_languages

SYNTH_LANGS = ("deu", "eng", "eus", "fin", "fra", "isl", "mlt", "spa")


def gold_pair(url_a: str, url_b: str, lang_a: str, lang_b: str) -> LabeledPair:
    """A positive pair from gold data, bilingual."""
    return LabeledPair(url_a, url_b, "positive", lang_a, lang_b, "gold", "bi")

# Slug words chosen to never collide with language-marker tokens.
NEUTRAL_WORDS = (
    "archive", "board", "bulletin", "catalog", "charter", "digest", "dossier",
    "forum", "gallery", "journal", "ledger", "manual", "minutes", "notice",
    "outline", "packet", "primer", "record", "register", "report", "review",
    "roster", "summary", "survey", "update",
)


def synth_vocab() -> "dict[str, list[str]]":
    """Disjoint syllable inventories per synthetic language."""
    consonants = "bcdfghjklmnprstvz"
    vowels = "aeiou"
    syllables = [c + v for c in consonants for v in vowels]
    random.Random(2024).shuffle(syllables)
    chunk = len(syllables) // len(SYNTH_LANGS)
    vocab = {}
    for i, lang in enumerate(SYNTH_LANGS):
        sylls = syllables[i * chunk : (i + 1) * chunk]
        rng = random.Random(1000 + i)
        words = {"".join(rng.choice(sylls) for _ in range(rng.randint(2, 3))) for _ in range(80)}
        vocab[lang] = sorted(words)
    return vocab


def lang_url_corpus(n: int, seed: int = 0, marker_prob: float = 0.8, langs=SYNTH_LANGS):
    """(url, lang) records with probabilistic language-marker tokens.

    Paths mix language-specific words with shared neutral ones, so the signal
    is strong but not trivially clean.
    """
    rng = random.Random(seed)
    vocab = synth_vocab()
    table = bundled_languages()
    out = []
    for i in range(n):
        lang = langs[i % len(langs)]
        words = vocab[lang]
        brand = rng.choice(words if rng.random() < 0.7 else NEUTRAL_WORDS)
        tld = rng.choice(("com", "org", "net"))
        segments = [
            rng.choice(words if rng.random() < 0.6 else NEUTRAL_WORDS)
            for _ in range(rng.randint(1, 3))
        ]
        query = ""
        if rng.random() < marker_prob:
            rec = table.records[lang]
            marker = rng.choice([rec.code1 or rec.code, rec.code])
            if rng.random() < 0.5:
                segments.insert(rng.randint(0, len(segments)), marker)
            else:
                query = f"?lang={marker}"
        url = f"https://{brand}.{tld}/" + "/".join(segments) + query
        out.append((url, lang))
    return out


def toy_bilingual_corpus(per_lang: int = 50, seed: int = 3):
    """Separable two-language URL set marked with /fr/ and /de/ directories."""
    rng = random.Random(seed)
    vocab = synth_vocab()
    out = []
    for i in range(per_lang):
        word = rng.choice(vocab["fra"])
        out.append((f"https://site{i}.com/fr/{word}", "fra"))
    for i in range(per_lang):
        word = rng.choice(vocab["deu"])
        out.append((f"https://seite{i}.com/de/{word}", "deu"))
    return out


def parallel_pair_corpus(
    n_sites: int = 50,
    pairs_per_site: int = 10,
    seed: int = 0,
    lang_a: str = "eng",
    lang_b: str = "fra",
    translated_frac: float = 0.4,
):
    """Gold pairs plus the link/language maps a mined-negative pass needs.

    A ``translated_frac`` share of each site's pairs translate the slug too
    (different words on the two sides), so the token-removal trick alone does
    not identify every positive.  Every left page links its own partner
    (gold), one other right page, and one same-language extra page, so each
    left member yields two mined negatives.
    """
    rng = random.Random(seed)
    positives: list[LabeledPair] = []
    link_map: dict[str, tuple[str, ...]] = {}
    lang_map: dict[str, str] = {}
    plain = pairs_per_site - round(pairs_per_site * translated_frac)
    for s in range(n_sites):
        host = f"https://w{s:02d}{rng.choice(NEUTRAL_WORDS)}.com"
        lefts, rights = [], []
        for k in range(pairs_per_site):
            if k < plain:
                slug = f"{rng.choice(NEUTRAL_WORDS)}-{k}"
                lefts.append(f"{host}/en/{slug}")
                rights.append(f"{host}/fr/{slug}")
            else:
                lefts.append(f"{host}/en/{rng.choice(NEUTRAL_WORDS)}-{k}")
                rights.append(f"{host}/fr/{rng.choice(NEUTRAL_WORDS)}-{k}")
        extras = [f"{host}/en/extra-{k}" for k in range(3)]
        for url in lefts + extras:
            lang_map[url] = lang_a
        for url in rights:
            lang_map[url] = lang_b
        for i, (left, right) in enumerate(zip(lefts, rights)):
            positives.append(gold_pair(left, right, lang_a, lang_b))
            link_map[left] = (
                right,
                rights[(i + 1) % pairs_per_site],
                extras[i % len(extras)],
            )
            link_map[right] = (left,)
        for url in extras:
            link_map[url] = ()
    return positives, link_map, lang_map


def transform_pair_suite():
    """50 token-transform pairs (several marker styles) and 50 pairs that no
    marker removal can make equal."""
    aligned = [("https://www.un.org/en/", "https://www.un.org/fr/")]
    for i in range(10):
        w = NEUTRAL_WORDS[i]
        aligned.append((f"https://site{i}.com/en/{w}", f"https://site{i}.com/fr/{w}"))
    for i in range(10):
        w = NEUTRAL_WORDS[i + 5]
        aligned.append((f"https://s{i}.org/{w}?lang=en", f"https://s{i}.org/{w}?lang=fr"))
    for i in range(10):
        w = NEUTRAL_WORDS[i + 10]
        aligned.append((f"https://en.host{i}.com/{w}", f"https://fr.host{i}.com/{w}"))
    for i in range(10):
        w = NEUTRAL_WORDS[i % 20]
        aligned.append((f"https://d{i}.net/{w}-eng", f"https://d{i}.net/{w}-fra"))
    for i in range(5):
        w = NEUTRAL_WORDS[i + 2]
        aligned.append((f"https://e{i}.com/english/{w}/1", f"https://e{i}.com/french/{w}/1"))
    for i in range(4):
        w = NEUTRAL_WORDS[i + 7]
        aligned.append((f"https://f{i}.com/en-us/{w}", f"https://f{i}.com/fr-fr/{w}"))
    assert len(aligned) == 50

    rng = random.Random(17)
    unaligned = []
    for i in range(15):  # different slugs behind the markers
        wa, wb = rng.sample(NEUTRAL_WORDS, 2)
        unaligned.append((f"https://site{i}.com/en/{wa}", f"https://site{i}.com/fr/{wb}"))
    for i in range(10):  # different numeric suffixes
        w = rng.choice(NEUTRAL_WORDS)
        unaligned.append((f"https://n{i}.com/en/{w}-1", f"https://n{i}.com/fr/{w}-2"))
    for i in range(10):  # different hosts
        w = rng.choice(NEUTRAL_WORDS)
        unaligned.append((f"https://alpha{i}.com/en/{w}", f"https://beta{i}.com/fr/{w}"))
    for i in range(10):  # swapped word order
        wa, wb = rng.sample(NEUTRAL_WORDS, 2)
        unaligned.append((f"https://o{i}.com/en/{wa}-{wb}", f"https://o{i}.com/fr/{wb}-{wa}"))
    for i in range(5):  # marker on one side only, residuals differ
        w = rng.choice(NEUTRAL_WORDS)
        unaligned.append((f"https://q{i}.com/en/{w}", f"https://q{i}.com/{w}/archive"))
    assert len(unaligned) == 50
    return aligned, unaligned


def planted_graph(
    n_sites: int = 20,
    pages_per_site: int = 200,
    parallel_frac: float = 0.3,
    seed: int = 7,
    lang_a: str = "eng",
    lang_b: str = "fra",
):
    """Site graph where parallel pages carry /en/ and /fr/ URL patterns.

    Home pages link every pair's left member first; each left member links its
    right partner plus a share of the in-language filler pages.  Returns
    ``(graph, seeds)``.
    """
    rng = random.Random(seed)
    pages: dict[str, SitePage] = {}
    seeds = []
    n_pairs = int(pages_per_site * parallel_frac) // 2
    n_filler = pages_per_site - 1 - 2 * n_pairs
    per_left = math.ceil(n_filler / n_pairs) if n_pairs else 0
    for s in range(n_sites):
        host = f"https://p{s:02d}{rng.choice(NEUTRAL_WORDS)}.org"
        home = host + "/"
        seeds.append(home)
        slugs = [f"{rng.choice(NEUTRAL_WORDS)}-{k}" for k in range(n_pairs)]
        lefts = [f"{host}/en/{slug}" for slug in slugs]
        rights = [f"{host}/fr/{slug}" for slug in slugs]
        fillers = [f"{host}/en/read-{j}" for j in range(n_filler)]
        pages[home] = SitePage(lang=lang_a, links=tuple(lefts), parallel_with=frozenset())
        for i, (left, right) in enumerate(zip(lefts, rights)):
            chunk = tuple(fillers[i * per_left : (i + 1) * per_left])
            pages[left] = SitePage(lang=lang_a, links=(right, *chunk),
                                   parallel_with=frozenset({right}))
            pages[right] = SitePage(lang=lang_b, links=(left,), parallel_with=frozenset({left}))
        for url in fillers:
            pages[url] = SitePage(lang=lang_a, links=(), parallel_with=frozenset())
    return SiteGraph(pages), seeds


def dense_planted_graph():
    """planted_graph plus links from every page to the first 12 pages of its
    site, so most URLs are scored from many parents."""
    graph, seeds = planted_graph(n_sites=2, pages_per_site=30, seed=5)
    by_site = {}
    for url in graph.pages:
        by_site.setdefault(site_of(url), []).append(url)
    graph = SiteGraph({
        url: dataclasses.replace(page, links=page.links + tuple(by_site[site_of(url)][:12]))
        for url, page in graph.pages.items()
    })
    return graph, seeds


def random_site_graph(seed: int, n_pages: int | None = None, langs=("eng", "fra")):
    """Random link structure, every page inside the language pair."""
    rng = random.Random(seed)
    n = n_pages if n_pages is not None else rng.randint(25, 60)
    urls = [f"https://r{seed:03d}.net/p{i}" for i in range(n)]
    pages = {}
    for url in urls:
        k = rng.randint(0, min(5, n - 1))
        links = tuple(rng.sample([u for u in urls if u != url], k))
        pages[url] = SitePage(lang=rng.choice(langs), links=links, parallel_with=frozenset())
    seeds = urls[: rng.randint(1, 3)]
    return SiteGraph(pages), seeds


def write_graph(graph: SiteGraph, path) -> None:
    """``graph`` as the site-graph JSON file that ``SiteGraph.load`` reads."""
    pages = {url: {"lang": page.lang, "links": list(page.links),
                   "parallel_with": sorted(page.parallel_with)}
             for url, page in graph.pages.items()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"pages": pages}, handle, indent=1, sort_keys=True)
        handle.write("\n")


class OracleLangScorer:
    """Ground-truth language membership from a site graph."""

    def __init__(self, graph: SiteGraph):
        self.graph = graph

    def probability(self, url: str, target: str) -> float:
        page = self.graph.pages.get(url)
        return 1.0 if page is not None and page.lang == target else 0.0


class OraclePairScorer:
    """Ground-truth parallelness from a site graph."""

    def __init__(self, graph: SiteGraph):
        self.graph = graph

    def probability(self, url_a: str, url_b: str, lang_a=None, lang_b=None) -> float:
        page = self.graph.pages.get(url_a)
        return 1.0 if page is not None and url_b in page.parallel_with else 0.0
