"""Seeded input generators for the benchmark workloads.

Standard library only, so the generated inputs and the time spent making them
are the same on every commit of the program.  Every function is a pure
function of its ``seed``.

The default sizes make each benchmark command take about 0.5 to 3 s, so that
a run times every leg many times over its whole length: on a shared host the
speed drifts over tens of seconds, and a median of many short commands spread
through the run is steadier than one of two or three long ones.
"""
from __future__ import annotations

import json
import random

# Slug words that are never language markers (no ISO 639 code, no language
# name), so only the /en/, /fr/, /de/ directories mark a URL's language.
NEUTRAL_WORDS = (
    "archive", "board", "bulletin", "catalog", "charter", "digest", "dossier",
    "forum", "gallery", "journal", "ledger", "manual", "minutes", "notice",
    "outline", "packet", "primer", "record", "register", "report", "review",
    "roster", "summary", "survey", "update",
)

# Slugs of translated pages that do not share the English slug, so the
# token-removal baseline cannot align them.
FRENCH_WORDS = (
    "accueil", "annonces", "bilan", "calendrier", "comptes", "dossiers",
    "equipe", "histoire", "lettres", "magasin", "nouvelles", "parcours",
    "rapports", "recettes", "services", "tarifs", "travaux", "voyages",
)
GERMAN_WORDS = (
    "aktuelles", "angebote", "berichte", "dienste", "geschichte", "kalender",
    "kontakt", "leistungen", "nachrichten", "preise", "reisen", "termine",
)

# (three-letter code, two-letter code) of the languages in the langid corpus.
CORPUS_LANGS = (
    ("deu", "de"), ("eng", "en"), ("eus", "eu"), ("fin", "fi"),
    ("fra", "fr"), ("isl", "is"), ("mlt", "mt"), ("spa", "es"),
)


def _page(lang: str, links, partners=(), size_bytes: int = 0) -> dict:
    return {
        "lang": lang,
        "links": list(links),
        "parallel_with": sorted(partners),
        "size_bytes": size_bytes,
    }


def write_graph(pages: dict, path) -> None:
    """Write pages in the site-graph JSON format that ``simulate`` reads."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"pages": pages}, handle, separators=(",", ":"))


def write_lines(lines, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


# ---------------------------------------------------------------------------
# dense-nav: navigation-heavy bilingual sites with off-language pages

NAV_LINKS = 20
RELATED_LINKS = 3
TRAIN_NEGATIVES = 4


def _dense_site(rng: random.Random, s: int, n_pairs: int, n_german: int,
                translated_frac: float) -> "tuple[dict, str, list[tuple[str, str]]]":
    host = f"https://n{s:02d}{rng.choice(NEUTRAL_WORDS)}.net"
    home = host + "/"
    en = [f"{host}/en/{rng.choice(NEUTRAL_WORDS)}-{i}" for i in range(n_pairs)]
    fr = []
    for i, url in enumerate(en):
        if rng.random() < translated_frac:
            fr.append(f"{host}/fr/{rng.choice(FRENCH_WORDS)}-{i}")
        else:
            fr.append(url.replace("/en/", "/fr/", 1))
    de = [f"{host}/de/{rng.choice(GERMAN_WORDS)}-{i}" for i in range(n_german)]
    everything = en + fr + de

    def nav(ring: list[str], i: int) -> list[str]:
        width = min(NAV_LINKS, len(ring) - 1)
        return [ring[(i + k) % len(ring)] for k in range(1, width + 1)]

    def related(own: str, taken: list[str]) -> list[str]:
        skip = set(taken) | {own}
        pool = [u for u in rng.sample(everything, RELATED_LINKS + len(skip)) if u not in skip]
        return pool[:RELATED_LINKS]

    pages = {home: _page("eng", en[:NAV_LINKS] + fr[:2], size_bytes=rng.randint(2000, 40000))}
    for ring, other, lang in ((en, fr, "eng"), (fr, en, "fra")):
        for i, url in enumerate(ring):
            links = nav(ring, i) + [other[i]]
            links += related(url, links)
            pages[url] = _page(lang, links, [other[i]], rng.randint(2000, 40000))
    for i, url in enumerate(de):
        links = nav(de, i)
        pages[url] = _page("deu", links + related(url, links), size_bytes=rng.randint(2000, 40000))
    return pages, home, list(zip(en, fr))


def dense_nav(seed: int, n_sites: int = 4, n_train_sites: int = 4, n_pairs: int = 90,
              n_german: int = 20, translated_frac: float = 0.3):
    """Crawl graph plus training data from held-out sites of the same shape.

    Every page links ~20 same-language nav pages, its translation and a few
    related pages; some translations change the slug and some pages are in
    German.  Returns ``(pages, seeds, n_pairs, lang_rows, pair_rows)`` where
    the rows are TSV lines for ``langid train`` and ``pairscore train``.
    """
    rng = random.Random(seed)
    pages: dict[str, dict] = {}
    seeds = []
    for s in range(n_sites):
        site_pages, home, _ = _dense_site(rng, s, n_pairs, n_german, translated_frac)
        pages.update(site_pages)
        seeds.append(home)

    lang_rows = []
    pair_rows = []
    for s in range(n_sites, n_sites + n_train_sites):
        site_pages, _, pairs = _dense_site(rng, s, n_pairs, n_german, translated_frac)
        lang_rows += [f"{url}\t{page['lang']}" for url, page in site_pages.items()]
        for en_url, fr_url in pairs:
            for url, lang, other_lang in ((en_url, "eng", "fra"), (fr_url, "fra", "eng")):
                # Rows shaped like what a crawl scores: (parent, link, parent
                # language, target language); the translation and a sample of
                # the other links.
                partner, = site_pages[url]["parallel_with"]
                others = [link for link in site_pages[url]["links"] if link != partner]
                pair_rows.append(f"{url}\t{partner}\tpositive\t{lang}\t{other_lang}\tgold:bi")
                for link in rng.sample(others, TRAIN_NEGATIVES):
                    pair_rows.append(f"{url}\t{link}\tnegative\t{lang}\t{other_lang}\tmined:bi")
    return pages, seeds, n_sites * n_pairs, lang_rows, pair_rows


# ---------------------------------------------------------------------------
# model-build: a multilingual URL corpus and the 500-pair fixture shape

def _syllable_vocab(rng: random.Random) -> "dict[str, list[str]]":
    syllables = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]
    rng.shuffle(syllables)
    chunk = len(syllables) // len(CORPUS_LANGS)
    vocab = {}
    for i, (lang, _) in enumerate(CORPUS_LANGS):
        sylls = syllables[i * chunk:(i + 1) * chunk]
        words = {"".join(rng.choice(sylls) for _ in range(rng.randint(2, 3))) for _ in range(80)}
        vocab[lang] = sorted(words)
    return vocab


def lang_corpus(seed: int, n_train: int = 2000, n_eval: int = 5000, marker_prob: float = 0.8):
    """``url<TAB>lang`` rows: a training set and a held-out set.

    Paths mix language-specific words with shared neutral ones and carry a
    language marker with probability ``marker_prob``.
    """
    rng = random.Random(seed)
    vocab = _syllable_vocab(rng)
    rows = []
    for i in range(n_train + n_eval):
        lang, code1 = CORPUS_LANGS[i % len(CORPUS_LANGS)]
        words = vocab[lang]
        brand = rng.choice(words if rng.random() < 0.7 else NEUTRAL_WORDS)
        segments = [
            rng.choice(words if rng.random() < 0.6 else NEUTRAL_WORDS)
            for _ in range(rng.randint(1, 3))
        ]
        query = ""
        if rng.random() < marker_prob:
            marker = rng.choice((code1, lang))
            if rng.random() < 0.5:
                segments.insert(rng.randint(0, len(segments)), marker)
            else:
                query = f"?lang={marker}"
        tld = rng.choice(("com", "org", "net"))
        rows.append(f"https://{brand}{i}.{tld}/" + "/".join(segments) + query + f"\t{lang}")
    return rows[:n_train], rows[n_train:]


def pair_fixture(seed: int, n_sites: int = 20, pairs_per_site: int = 10,
                 translated_frac: float = 0.4):
    """Gold eng/fra pairs with the link and language maps ``cv-combos`` reads.

    A ``translated_frac`` share of each site's pairs translate the slug too.
    Every left page links its partner, one other right page and one extra
    English page.  Returns ``(pair_rows, link_map, lang_rows)``.
    """
    rng = random.Random(seed)
    pair_rows = []
    link_map: dict[str, list[str]] = {}
    lang_rows = []
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
        lang_rows += [f"{url}\teng" for url in lefts + extras]
        lang_rows += [f"{url}\tfra" for url in rights]
        for i, (left, right) in enumerate(zip(lefts, rights)):
            pair_rows.append(f"{left}\t{right}\tpositive\teng\tfra\tgold:bi")
            link_map[left] = [right, rights[(i + 1) % pairs_per_site], extras[i % len(extras)]]
            link_map[right] = [left]
        for url in extras:
            link_map[url] = []
    return pair_rows, link_map, lang_rows
