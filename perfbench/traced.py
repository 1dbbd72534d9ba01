"""Run one ``bifocal`` command with timing shims and write per-layer counters.

Usage (with the package's ``src`` directory on ``PYTHONPATH``):

    python3 traced.py OUT_JSON -- <bifocal arguments>
    python3 traced.py --replay URLS_FILE OUT_JSON

The first form installs shims on public module attributes and on the scorer,
fetcher and frontier objects the crawler builds, runs the command through
``bifocal.cli.dispatch`` and writes the counters as JSON.  The program's own
code is unchanged, so the command's outputs must equal those of an untraced
run.  The second form times ``normalize_url`` and ``parse_components`` over a
list of distinct URLs with their caches cleared.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from bifocal import cli, crawler, datasets, external, langid, metrics, pairscore, urls

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self.roundtrip_us: list[float] = []
        self.distinct_urls: set = set()
        self.distinct_pairs: set = set()
        self.in_scorer = False  # inside a crawl scorer's ``probability``

    def add(self, name: str, amount: float = 1.0) -> None:
        self.values[name] += amount

    def timed(self, name: str, fn, calls: str | None = None):
        """Wrap ``fn`` so its wall time adds to ``name`` (and a call count)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.values[name] += perf() - start
                if calls:
                    self.values[calls] += 1

        return wrapper


T = Tracer()


class ScorerShim:
    """Times ``probability`` of a scorer the crawler built.

    ``own`` is the scorer's kind, ``langid`` or ``pairscore``; ``layer`` is
    ``external`` when an external process answers, else ``own``.
    """

    def __init__(self, inner, own: str, layer: str):
        self.inner = inner
        self.own = own
        self.layer = layer

    def probability(self, *args):
        start = perf()
        T.in_scorer = True
        try:
            value = self.inner.probability(*args)
        except Exception:
            T.add(f"{self.layer}.failures")
            raise
        finally:
            T.in_scorer = False
            elapsed = perf() - start
            T.add(f"{self.layer}.score_s", elapsed)
            T.add(f"{self.layer}.score_calls")
        if self.layer == "external":
            T.roundtrip_us.append(elapsed * 1e6)
        elif self.own == "langid":
            T.add("langid.inputs")
            T.distinct_urls.add(args[0])
            T.add("langid.score_nonzero", value > 0.0)
        else:
            T.add("pairscore.inputs")
            T.distinct_pairs.add(args)
            T.add("pairscore.positive", value > 0.5)
        return value


def _wrap_builder(build, own: str):
    def wrapper(cfg):
        scorer = build(cfg)
        module = type(scorer).__module__
        if module == external.__name__:
            return ScorerShim(scorer, own, "external")
        if module == f"bifocal.{own}":
            return ScorerShim(scorer, own, own)
        return scorer  # the uniform scorers that make a crawl breadth-first

    return wrapper


class TracedFetcher(crawler.GraphFetcher):
    def fetch(self, url):
        start = perf()
        try:
            return super().fetch(url)
        finally:
            T.add("crawler.fetch_s", perf() - start)
            T.add("crawler.fetches")


class TracedFrontier(crawler.Frontier):
    def __init__(self):
        super().__init__()
        self.tracked_pending = 0

    def push_or_raise(self, url, priority):
        before = self.entry(url)
        old_priority = None if before is None else before.priority
        start = perf()
        super().push_or_raise(url, priority)
        T.add("frontier.push_s", perf() - start)
        T.add("frontier.push_calls")
        if before is None:
            self.tracked_pending += 1
            T.values["frontier.peak_pending"] = max(
                T.values["frontier.peak_pending"], self.tracked_pending
            )
        elif self.entry(url).priority != old_priority:
            T.add("frontier.raised")
        else:
            T.add("frontier.ignored")

    def pop_max(self):
        start = perf()
        try:
            entry = super().pop_max()
        finally:
            T.add("frontier.pop_s", perf() - start)
            T.add("frontier.pop_calls")
        self.tracked_pending -= 1
        return entry


def _count_links(score_links):
    def wrapper(url, lang_u, links, *args):
        T.add("crawler.links_scored", len(links))
        return score_links(url, lang_u, links, *args)

    return wrapper


def _predict(ngram_predict):
    """Times predictions; counts the inputs of those made outside a crawl scorer."""
    timed = T.timed("langid.predict_s", ngram_predict)

    def wrapper(model, url):
        if not T.in_scorer:
            T.add("langid.inputs")
            T.distinct_urls.add(url if isinstance(url, str) else url.source)
        return timed(model, url)

    return wrapper


def _pair_features(pair_feature_vector):
    """Counts pair-feature inputs needed outside a crawl scorer (training, cv-combos)."""

    def wrapper(url_a, url_b, lang_a, lang_b):
        if not T.in_scorer:
            T.add("pairscore.inputs")
            T.distinct_pairs.add((url_a, url_b, lang_a, lang_b))
        return pair_feature_vector(url_a, url_b, lang_a, lang_b)

    return wrapper


def _count_negatives(name: str, fn):
    timed = T.timed(f"datasets.{name}_s", fn)

    def wrapper(*args, **kwargs):
        out, skipped = timed(*args, **kwargs)
        T.add("datasets.negatives", len(out))
        T.add("datasets.skipped", skipped)
        return out, skipped

    return wrapper


def _count_mined(fn):
    timed = T.timed("datasets.mine_s", fn)

    def wrapper(*args, **kwargs):
        out = timed(*args, **kwargs)
        T.add("datasets.negatives", len(out))
        return out

    return wrapper


def install() -> None:
    crawler.run_crawl = T.timed("crawler.crawl_s", crawler.run_crawl)
    crawler.score_links = T.timed("crawler.score_links_s", _count_links(crawler.score_links))
    crawler.GraphFetcher = TracedFetcher
    crawler.Frontier = TracedFrontier
    crawler.build_lang_scorer = _wrap_builder(crawler.build_lang_scorer, "langid")
    crawler.build_pair_scorer = _wrap_builder(crawler.build_pair_scorer, "pairscore")

    load_graph = crawler.SiteGraph.load.__func__
    crawler.SiteGraph.load = classmethod(T.timed("cli.graph_load_s", load_graph))
    crawler.CrawlLog.to_tsv = T.timed("cli.log_write_s", crawler.CrawlLog.to_tsv)
    cli.write_report = T.timed("cli.report_s", cli.write_report)

    langid.load_model = T.timed("langid.model_load_s", langid.load_model)
    langid.save_model = T.timed("langid.model_save_s", langid.save_model)
    langid.ngram_train = T.timed("langid.train_s", langid.ngram_train)
    langid.ngram_predict = _predict(langid.ngram_predict)
    pairscore.pair_feature_vector = _pair_features(pairscore.pair_feature_vector)

    pair_train = T.timed("pairscore.train_s", pairscore.pair_train, calls="pairscore.train_calls")
    pairscore.pair_train = pair_train
    datasets.pair_train = pair_train

    datasets.neg_max_jaccard = _count_negatives("neg_max_jaccard", datasets.neg_max_jaccard)
    datasets.neg_random_match = _count_negatives("neg_random_match", datasets.neg_random_match)
    datasets.neg_remove_tokens = _count_negatives("neg_remove_tokens", datasets.neg_remove_tokens)
    datasets.mine_negatives_from_links = _count_mined(datasets.mine_negatives_from_links)

    metrics.decile_curve = T.timed(
        "metrics.decile_curve_s", metrics.decile_curve, calls="metrics.decile_curve_calls"
    )
    confusion = T.timed("metrics.confusion_matrix_s", metrics.confusion_matrix)
    metrics.confusion_matrix = confusion
    datasets.confusion_matrix = confusion


def report() -> dict:
    out = dict(T.values)
    for name, fn in (("normalize", urls.normalize_url), ("parse", urls.parse_components)):
        info = fn.cache_info()
        out[f"urls.{name}_calls"] = info.hits + info.misses
        out[f"urls.{name}_misses"] = info.misses
    out["langid.distinct_urls"] = len(T.distinct_urls)
    out["pairscore.distinct_pairs"] = len(T.distinct_pairs)
    out["external.roundtrip_us"] = [round(us, 2) for us in T.roundtrip_us]
    return out


def replay(urls_file: str) -> dict:
    with open(urls_file, "r", encoding="utf-8") as handle:
        distinct = [line.rstrip("\n") for line in handle if line.strip()]
    out = {}
    for name, fn in (("normalize", urls.normalize_url), ("parse", urls.parse_components)):
        per_url = []
        for _ in range(3):
            fn.cache_clear()
            start = perf()
            for url in distinct:
                fn(url)
            per_url.append((perf() - start) / len(distinct) * 1e6)
        fn.cache_clear()
        out[f"urls.{name}_us"] = sorted(per_url)[1]
    return out


def main(argv: list[str]) -> int:
    if argv[0] == "--replay":
        counters, code = replay(argv[1]), 0
        out_path = argv[2]
    else:
        out_path = argv[0]
        if argv[1] != "--":
            raise SystemExit("usage: traced.py OUT_JSON -- <bifocal arguments>")
        install()
        code = cli.dispatch(argv[2:])
        counters = report()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(counters, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
