"""Focused bilingual crawling toolkit.

Scores URLs for target-language membership and pairwise parallelness, and
combines both into a priority-driven crawl that surfaces parallel documents
early.  Ships the dataset builders (capping, domain-disjoint splits, negative
sampling), the evaluation metrics, and a deterministic crawl simulator.

The names below are resolved on first use, so ``import bifocal`` loads no
submodule, and numpy only comes in with the modules that need it.
"""
from importlib import import_module

_EXPORTS = {
    "errors": ("BifocalError",),
    "urls": ("NormalizedUrl", "UrlComponents", "jaccard", "normalize_url", "parse_components"),
    "langid": (
        "NgramHyperparams",
        "NgramLangModel",
        "NgramLanguageScorer",
        "RuleLanguageScorer",
        "ngram_features",
        "ngram_predict",
        "ngram_train",
        "rule_langid",
    ),
    "pairscore": (
        "BaselinePairScorer",
        "FeaturePairScorer",
        "PairFeatureModel",
        "baseline_align",
        "build_language_tokens",
        "pair_features",
        "pair_train",
        "resolve_one_to_one",
    ),
    "datasets": (
        "LabeledPair",
        "LabeledUrl",
        "cap_per_language",
        "cross_validate_combos",
        "mine_negatives_from_links",
        "neg_max_jaccard",
        "neg_random_match",
        "neg_remove_tokens",
        "split_by_domain",
    ),
    "metrics": (
        "ConfusionMatrix",
        "DecileCurve",
        "alignment_recall",
        "confusion_matrix",
        "decile_curve",
        "macro_prf",
        "prf",
        "soft_alignment_recall",
    ),
    "frontier": ("SEED", "Frontier", "FrontierEntry"),
    "crawler": (
        "CrawlConfig",
        "CrawlLog",
        "SiteGraph",
        "build_seed_list",
        "crawl_live",
        "score_links",
        "simulate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
