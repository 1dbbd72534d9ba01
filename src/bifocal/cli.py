"""Command-line entry point.

One binary, many subcommands: ``normalize``, ``langid {train,predict,eval}``,
``pairscore {train,score,align,eval}``, ``negsample``, ``splits``,
``cv-combos``, ``seeds``, ``crawl``, ``simulate``, ``report``.

Exit codes: 0 success, 1 domain error or unreadable file, 2 usage error.
Every subcommand that uses randomness accepts ``--seed``; flags override
config-file values.  numpy comes in only with what needs it: the commands
that read labeled data import :mod:`bifocal.datasets` themselves, and the
n-gram model and pair training import numpy on first use.  Importing this
module sets ``OPENBLAS_NUM_THREADS=1`` unless it is already set, so numpy
loads a BLAS with no worker threads.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing

# numpy's bundled OpenBLAS starts one worker thread per extra CPU when it
# loads, which costs about 65 ms of start-up; no product bifocal makes is
# large enough for a second thread to help.  Set before any bifocal module
# can import numpy; a value the user sets is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import crawler, langid, metrics, pairscore
from .errors import BifocalError, ConfigError, UnknownLanguage
from .inputs import numbered_lines, read_json, rows, url_list
from .urls import END_TOKEN, START_TOKEN, normalize_url

# ---------------------------------------------------------------------------
# Config file: flat `key = value` lines, '#' comments, typed values.  The keys
# are the fields of crawler.CrawlConfig, except that the seeds come from a
# file, plus the simulator's site graph.

_PATH_KEYS = {"seeds_file", "lang_model_path", "pair_model_path", "graph"}


def _config_types() -> dict[str, type]:
    types = {}
    for key, hint in typing.get_type_hints(crawler.CrawlConfig).items():
        # `int | None` and the like: the value's type is the non-None member.
        types[key] = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    del types["seeds"]
    return {**types, "seeds_file": str, "graph": str}


_CONFIG_TYPES = _config_types()

# The CrawlConfig fields without a default, with the seeds named by their file.
_REQUIRED_KEYS = [
    "seeds_file" if f.name == "seeds" else f.name
    for f in dataclasses.fields(crawler.CrawlConfig)
    if f.default is dataclasses.MISSING
]


def _parse_value(key: str, text: str):
    value = text[1:-1] if len(text) >= 2 and text[0] == text[-1] == '"' else text
    if _CONFIG_TYPES[key] is int:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"key {key!r} needs an integer, got {text!r}") from None
    return value


def load_config(path) -> dict:
    """Parse a flat typed config file into the key -> value pairs it sets.

    Raises:
        ConfigError: text that is not UTF-8, unknown key, wrong type, or a
            referenced file missing.
    """
    cfg = {}
    for lineno, line in numbered_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = _parse_value(key, value)
    base = os.path.dirname(os.path.abspath(path))
    for key in _PATH_KEYS & cfg.keys():
        value = cfg[key]
        resolved = value if os.path.isabs(value) else os.path.join(base, value)
        if not os.path.exists(resolved):
            raise ConfigError(f"config key {key!r} points to missing file {value!r}")
        cfg[key] = resolved
    return cfg


def _crawl_config(path, **flags) -> "tuple[crawler.CrawlConfig, str | None]":
    """The config file at ``path`` with the given flags over it, and its graph.

    Flags left unset (``None``) keep the file's value.
    """
    cfg = load_config(path)
    cfg.update((key, value) for key, value in flags.items() if value is not None)
    missing = [key for key in _REQUIRED_KEYS if key not in cfg]
    if missing:
        raise ConfigError(f"config is missing required keys: {', '.join(missing)}")
    graph = cfg.pop("graph", None)
    seeds = tuple(line.strip() for _, line in numbered_lines(cfg.pop("seeds_file")) if line.strip())
    return crawler.CrawlConfig(seeds=seeds, **cfg), graph


# ---------------------------------------------------------------------------
# Report writing

def write_report(log: crawler.CrawlLog, graph: crawler.SiteGraph, out_dir) -> None:
    """Decile curves (aggregate and per site) plus a totals summary of a log,
    with its parallel hits counted against ``graph``."""
    os.makedirs(out_dir, exist_ok=True)
    events = log.download_events(graph)
    metrics.write_curve_tsv(metrics.decile_curve(events), os.path.join(out_dir, "curve_aggregate.tsv"))

    with open(os.path.join(out_dir, "curve_by_site.tsv"), "w", encoding="utf-8") as handle:
        handle.write("site\tpercent\tparallel_documents\n")
        for site, curve in sorted(metrics.site_curves(events).items()):
            for percent, count in zip(metrics.DECILE_PERCENTS, curve):
                handle.write(f"{site}\t{percent}\t{count}\n")

    counts = log.outcome_counts()
    hits = sum(1 for _, hit in events if hit)
    with open(os.path.join(out_dir, "summary.tsv"), "w", encoding="utf-8") as handle:
        handle.write(f"fetch_events\t{len(log)}\n")
        handle.write(f"stored\t{counts.get(crawler.STORED, 0)}\n")
        handle.write(f"discarded_language\t{counts.get(crawler.DISCARDED_LANGUAGE, 0)}\n")
        handle.write(f"errors\t{counts.get(crawler.ERROR, 0)}\n")
        handle.write(f"downloads\t{len(events)}\n")
        handle.write(f"parallel_hits\t{hits}\n")


# ---------------------------------------------------------------------------
# Subcommand handlers

def _lines(path: str | None):
    """The non-empty lines of ``path``, or of stdin when ``path`` is ``None``."""
    return (line for _, line in numbered_lines(path))


def _print_prf_table(cm: metrics.ConfusionMatrix, first_column: str) -> None:
    """Precision, recall and F1 per label of ``cm``, then their macro averages."""
    print(f"{first_column}\tprecision\trecall\tf1")
    for label in cm.labels:
        p, r, f1 = metrics.prf(cm, label)
        print(f"{label}\t{p:.4f}\t{r:.4f}\t{f1:.4f}")
    macro_p, macro_r, macro_f1 = metrics.macro_prf(cm)
    print(f"macro\t{macro_p:.4f}\t{macro_r:.4f}\t{macro_f1:.4f}")


def _cmd_normalize(args) -> int:
    for url in args.urls or _lines(None):
        print(" ".join((START_TOKEN, *normalize_url(url), END_TOKEN)))
    return 0


def _cmd_langid_train(args) -> int:
    from . import datasets

    data = datasets.read_labeled_urls(args.data)
    fields = dataclasses.fields(langid.NgramHyperparams)
    hp = langid.NgramHyperparams(**{field.name: getattr(args, field.name) for field in fields})
    model = langid.ngram_train(data, hp, seed=args.seed)
    langid.save_model(model, args.model)
    print(f"trained on {len(data)} urls, labels: {' '.join(model.labels)}")
    return 0


def _best_label(dist: "dict[str, float]") -> str:
    """The most probable label; a tie goes to the first label in sorted order."""
    return max(sorted(dist), key=dist.__getitem__)


def _cmd_langid_predict(args) -> int:
    model = langid.load_model(args.model)
    for url in args.urls or _lines(None):
        dist = langid.ngram_predict(model, url)
        if args.full:
            ranked = sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))
            print(url + "\t" + " ".join(f"{code}\t{prob:.6f}" for code, prob in ranked))
        else:
            best = _best_label(dist)
            print(f"{url}\t{best}\t{dist[best]:.6f}")
    return 0


def _cmd_langid_eval(args) -> int:
    from . import datasets

    model = langid.load_model(args.model)
    data = datasets.read_labeled_urls(args.data)
    known = set(model.labels)
    for url, lang in data:
        if lang not in known:
            raise UnknownLanguage(
                f"gold label {lang!r} (for {url}) is not among the model labels"
            )
    gold = [lang for _, lang in data]
    predicted = [_best_label(dist)
                 for dist in langid.ngram_predict_many(model, (url for url, _ in data))]
    cm = metrics.confusion_matrix(gold, predicted, labels=model.labels)
    _print_prf_table(cm, "label")
    return 0


def _cmd_pairscore_train(args) -> int:
    from . import datasets

    data = datasets.read_labeled_pairs(args.data)
    model = pairscore.pair_train(data)
    pairscore.save_pair_model(model, args.model)
    print(f"trained on {len(data)} pairs")
    return 0


def _cmd_pairscore_score(args) -> int:
    if (args.url_a is None) != (args.url_b is None):
        raise ConfigError("--url-a and --url-b score one pair together; give both, or neither to read --pairs")
    if args.url_a is not None and args.pairs is not None:
        raise ConfigError("--pairs and --url-a/--url-b both name what to score; give one or the other")
    scorer = crawler.build_pair_scorer(args)
    if args.url_a is not None:
        pairs = [(args.url_a, args.url_b)]
    else:
        pairs = [fields for _, fields in rows(args.pairs, 2, "URL pair")]
    for url_a, url_b in pairs:
        prob = scorer.probability(url_a, url_b, args.lang_a, args.lang_b)
        print(f"{url_a}\t{url_b}\t{prob:.6f}")
    return 0


def _cmd_pairscore_align(args) -> int:
    scorer = crawler.build_pair_scorer(args)
    left = list(_lines(args.left))
    right = list(_lines(args.right))
    scores = {
        (a, b): scorer.probability(a, b, args.lang_a, args.lang_b)
        for a in left
        for b in right
    }
    for a, b in sorted(pairscore.resolve_one_to_one(scores)):
        print(f"{a}\t{b}")
    return 0


def _cmd_pairscore_eval(args) -> int:
    from . import datasets

    scorer = crawler.build_pair_scorer(args)
    data = datasets.read_labeled_pairs(args.data)
    gold = [rec.label for rec in data]
    predicted = [
        "positive" if scorer.probability(rec.url_a, rec.url_b, rec.lang_a, rec.lang_b) > 0.5
        else "negative"
        for rec in data
    ]
    cm = metrics.confusion_matrix(gold, predicted, labels=("negative", "positive"))
    _print_prf_table(cm, "class")
    return 0


def _parse_strategies(text: str):
    from . import datasets

    strategies = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        method, _, mode = chunk.partition(":")
        if (method, mode) not in datasets.STRATEGIES:
            raise ConfigError(f"unknown strategy {chunk!r}")
        strategies.append((method, mode))
    if not strategies:
        raise ConfigError("no strategies given")
    return tuple(strategies)


def _cmd_negsample(args) -> int:
    from . import datasets

    positives = [p for p in datasets.read_labeled_pairs(args.pairs) if p.label == "positive"]
    strategies = (
        _parse_strategies(args.strategies) if args.strategies else datasets.DEFAULT_STRATEGIES
    )
    negatives, skipped = datasets.generate_negatives(positives, strategies, seed=args.seed)
    datasets.write_labeled_pairs(negatives, args.out)
    for key, count in sorted(skipped.items()):
        print(f"skipped[{key}]\t{count}", file=sys.stderr)
    print(f"wrote {len(negatives)} negatives to {args.out}")
    return 0


def _cmd_splits(args) -> int:
    from . import datasets

    corpus = datasets.read_labeled_urls(args.data)
    try:
        ratios = tuple(float(r) for r in args.ratios.split(","))
        parts = datasets.split_by_domain(corpus, ratios, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(f"--ratios {args.ratios}: {exc}") from exc
    names = {2: ("train", "dev"), 3: ("train", "dev", "test")}.get(
        len(parts), tuple(f"part{i}" for i in range(len(parts)))
    )
    for name, part in zip(names, parts):
        path = f"{args.out_prefix}.{name}.tsv"
        datasets.write_labeled_urls(part, path)
        print(f"{path}\t{len(part)}")
    return 0


def _cmd_cv_combos(args) -> int:
    from . import datasets

    langs = args.langs.split(",")
    if len(langs) != 2 or not all(langs) or langs[0] == langs[1]:
        raise ConfigError(f"--langs needs two distinct codes like eng,fra, got {args.langs!r}")
    positives = [p for p in datasets.read_labeled_pairs(args.pairs) if p.label == "positive"]
    links = read_json(args.links, "link map")
    try:
        link_map = {url: url_list(targets) for url, targets in links.items()}
    except (AttributeError, TypeError) as exc:
        raise ConfigError(f"{args.links}: not a JSON object of URL lists: {exc}") from None
    lang_map = dict(datasets.read_labeled_urls(args.url_langs))
    results = datasets.cross_validate_combos(
        positives, link_map, lang_map, set(langs), k=args.folds, seed=args.seed
    )
    datasets.write_combo_results(results, args.out)
    print(f"wrote {len(results)} combination rows to {args.out}")
    return 0


def _cmd_seeds(args) -> int:
    url_to_site = {}
    alive = {}
    for line in _lines(args.urls):
        parts = line.split("\t")
        url_to_site[parts[0]] = parts[1] if len(parts) > 1 else crawler.site_of(parts[0])
        if len(parts) > 2:
            alive[parts[0]] = parts[2].lower() in ("1", "true", "ok", "yes", "200")
    seeds = crawler.build_seed_list(url_to_site, n=args.top, alive=alive)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for seed_url in seeds:
            print(seed_url, file=out)
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_simulate(args) -> int:
    crawl_cfg, config_graph = _crawl_config(
        args.config, budget=args.budget,
        lang_scorer=args.lang_scorer, pair_scorer=args.pair_scorer,
    )
    graph_path = args.graph or config_graph
    if not graph_path:
        raise ConfigError("simulate needs --graph or a 'graph' config key")
    graph = crawler.SiteGraph.load(graph_path)
    log = crawler.simulate(graph, crawl_cfg)
    log.to_tsv(args.log)
    if args.report:
        write_report(log, graph, args.report)
    counts = log.outcome_counts()
    print(
        f"fetches={len(log)} stored={counts.get(crawler.STORED, 0)} "
        f"discarded={counts.get(crawler.DISCARDED_LANGUAGE, 0)} "
        f"errors={counts.get(crawler.ERROR, 0)}"
    )
    return 0


def _cmd_crawl(args) -> int:
    crawl_cfg, _ = _crawl_config(args.config, budget=args.budget)
    log = crawler.crawl_live(crawl_cfg)
    log.to_tsv(args.log)
    print(f"fetch events: {len(log)}")
    return 0


def _cmd_report(args) -> int:
    log = crawler.CrawlLog.from_tsv(args.log)
    write_report(log, crawler.SiteGraph.load(args.graph), args.out)
    print(f"report written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifocal",
        description="Focused bilingual crawling toolkit: URL scorers, dataset "
        "builders, and crawl simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="pre-tokenize URLs")
    p.add_argument("urls", nargs="*", help="URLs (default: stdin)")
    p.set_defaults(func=_cmd_normalize)

    lang = sub.add_parser("langid", help="URL language identification")
    lang_sub = lang.add_subparsers(dest="subcommand", required=True)

    p = lang_sub.add_parser("train", help="train the n-gram classifier")
    p.add_argument("--data", required=True, help="TSV url<TAB>lang")
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=0)
    # One flag per hyperparameter, named after its field.
    for field in dataclasses.fields(langid.NgramHyperparams):
        flag = "--buckets" if field.name == "bucket_count" else "--" + field.name.replace("_", "-")
        p.add_argument(flag, dest=field.name, type=type(field.default), default=field.default)
    p.set_defaults(func=_cmd_langid_train)

    p = lang_sub.add_parser("predict", help="predict language from URLs")
    p.add_argument("urls", nargs="*", help="URLs (default: stdin)")
    p.add_argument("--model", required=True)
    p.add_argument("--full", action="store_true", help="print the whole distribution")
    p.set_defaults(func=_cmd_langid_predict)

    p = lang_sub.add_parser("eval", help="evaluate a model on labeled URLs")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_langid_eval)

    pair = sub.add_parser("pairscore", help="parallel-pair scoring")
    pair_sub = pair.add_subparsers(dest="subcommand", required=True)

    p = pair_sub.add_parser("train", help="train the logistic pair model")
    p.add_argument("--data", required=True, help="labeled pair TSV")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_pairscore_train)

    scorer_flags = argparse.ArgumentParser(add_help=False)
    scorer_flags.add_argument("--scorer", dest="pair_scorer", default="baseline",
                              choices=("baseline", "model"))
    scorer_flags.add_argument("--model", dest="pair_model_path")

    p = pair_sub.add_parser("score", help="score URL pairs", parents=[scorer_flags])
    p.add_argument("--pairs", help="TSV url_a<TAB>url_b")
    p.add_argument("--url-a")
    p.add_argument("--url-b")
    p.add_argument("--lang-a")
    p.add_argument("--lang-b")
    p.set_defaults(func=_cmd_pairscore_score)

    p = pair_sub.add_parser("align", help="1-to-1 alignment of two URL lists",
                            parents=[scorer_flags])
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--lang-a")
    p.add_argument("--lang-b")
    p.set_defaults(func=_cmd_pairscore_align)

    p = pair_sub.add_parser("eval", help="classification metrics on labeled pairs",
                            parents=[scorer_flags])
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_pairscore_eval)

    p = sub.add_parser("negsample", help="generate synthetic negative pairs")
    p.add_argument("--pairs", required=True, help="positive pair TSV")
    p.add_argument("--strategies", help="comma list like random_match:bi,max_jaccard:mono")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_negsample)

    p = sub.add_parser("splits", help="domain-disjoint corpus splits")
    p.add_argument("--data", required=True, help="labeled URL TSV")
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_splits)

    p = sub.add_parser("cv-combos", help="cross-validate negative strategy combinations")
    p.add_argument("--pairs", required=True, help="positive pair TSV")
    p.add_argument("--links", required=True, help="JSON object: url -> outlinked urls")
    p.add_argument("--url-langs", required=True, help="TSV url<TAB>lang for linked URLs")
    p.add_argument("--langs", required=True, help="two codes, e.g. eng,fra")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cv_combos)

    p = sub.add_parser("seeds", help="build a seed list from a URL inventory")
    p.add_argument("--urls", required=True, help="TSV url<TAB>site[<TAB>alive]")
    p.add_argument("--top", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_seeds)

    p = sub.add_parser("simulate", help="deterministic crawl over a site-graph fixture")
    p.add_argument("--graph", help="site graph JSON (or 'graph' config key)")
    p.add_argument("--config", required=True)
    p.add_argument("--log", required=True, help="output crawl log TSV")
    p.add_argument("--report", help="directory for decile-curve report")
    p.add_argument("--budget", type=int)
    p.add_argument("--lang-scorer", dest="lang_scorer")
    p.add_argument("--pair-scorer", dest="pair_scorer")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("crawl", help="live crawl (HTTP)")
    p.add_argument("--config", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=_cmd_crawl)

    p = sub.add_parser("report", help="decile curves and summary from a crawl log")
    p.add_argument("--log", required=True)
    p.add_argument("--graph", required=True, help="site graph for parallel ground truth")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def dispatch(argv) -> int:
    """Route argv to a subcommand; 0 success, 1 domain or file error, 2 usage error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BifocalError, OSError) as exc:
        # OSError: an input file that is missing or cannot be read.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
