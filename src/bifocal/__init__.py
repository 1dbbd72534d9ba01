"""Focused bilingual crawling toolkit.

Scores URLs for target-language membership and pairwise parallelness, and
combines both into a priority-driven crawl that surfaces parallel documents
early.  Ships the dataset builders (capping, domain-disjoint splits, negative
sampling), the evaluation metrics, and a deterministic crawl simulator.
"""

from .errors import BifocalError
from .urls import NormalizedUrl, UrlComponents, jaccard, normalize_url, parse_components
from .langid import (
    NgramHyperparams,
    NgramLangModel,
    NgramLanguageScorer,
    RuleLanguageScorer,
    ngram_features,
    ngram_predict,
    ngram_train,
    rule_langid,
)
from .pairscore import (
    BaselinePairScorer,
    FeaturePairScorer,
    PairFeatureModel,
    baseline_align,
    build_language_tokens,
    pair_features,
    pair_train,
    resolve_one_to_one,
)
from .datasets import (
    LabeledPair,
    LabeledUrl,
    cap_per_language,
    cross_validate_combos,
    mine_negatives_from_links,
    neg_max_jaccard,
    neg_random_match,
    neg_remove_tokens,
    split_by_domain,
)
from .metrics import (
    ConfusionMatrix,
    DecileCurve,
    alignment_recall,
    confusion_matrix,
    decile_curve,
    macro_prf,
    prf,
    soft_alignment_recall,
)
from .frontier import SEED, Frontier, FrontierEntry
from .crawler import (
    CrawlConfig,
    CrawlLog,
    SiteGraph,
    build_seed_list,
    crawl_live,
    score_links,
    simulate,
)

__version__ = "0.1.0"
