"""Scoring the probability that two URLs link parallel documents.

Three interchangeable scorers: a token-removal baseline (two URLs align if
deleting language-marker tokens makes them the same string), a trainable
logistic model over URL-pair features, and an external scorer client.  Also
provides greedy 1-to-1 alignment resolution over a score table.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DegenerateLabels, NotAUrl, UnknownLanguage
from .isodata import UNKNOWN_LANG, bundled_languages
from .urls import NormalizedUrl, jaccard, normalize_url, parse_components

# Longest run of URL tokens that can form one language marker, e.g. a
# hyphenated code such as "en-us" tokenizes into three tokens.
_MAX_SPAN = 3
_MAX_SPANS_EXACT = 12


def build_language_tokens(lang: str) -> frozenset[str]:
    """All URL marker forms of a language.

    The set unions the English name, the endonym, the two- and three-letter
    codes, and two-letter-code/region combinations joined by a hyphen, all
    lowercased.

    Raises:
        UnknownLanguage: ``lang`` is not in the bundled table.
    """
    rec = bundled_languages().get(lang)
    if rec is None:
        raise UnknownLanguage(f"no bundled record for {lang!r}")
    tokens = {rec.name_en.lower(), rec.endonym.lower(), rec.code}
    if rec.code_b:
        tokens.add(rec.code_b)
    if rec.code1:
        tokens.add(rec.code1)
        for region in rec.regions:
            tokens.add(f"{rec.code1}-{region}")
    return frozenset(tokens)


@lru_cache(maxsize=512)
def _token_set_or_empty(lang: str | None) -> frozenset[str]:
    if lang is None or lang == UNKNOWN_LANG:
        return frozenset()
    try:
        return build_language_tokens(lang)
    except UnknownLanguage:
        return frozenset()


def _marker_spans(tokens: tuple[str, ...], marker_tokens: frozenset[str]) -> list[tuple[int, int]]:
    spans = []
    for i in range(len(tokens)):
        joined = ""
        for j in range(i, min(i + _MAX_SPAN, len(tokens))):
            joined += tokens[j]
            if joined in marker_tokens:
                spans.append((i, j + 1))
    return spans


@lru_cache(maxsize=1 << 16)
def _residuals(tokens: tuple[str, ...], marker_tokens: frozenset[str]) -> tuple[str, frozenset[str]]:
    """Full concatenation plus every residual reachable by deleting >= 1 marker.

    Enumerates subsets of pairwise-disjoint marker spans; beyond
    ``_MAX_SPANS_EXACT`` spans it falls back to single-span deletions plus the
    all-spans deletion.  Memoized: a crawl aligns each URL with many others.
    """
    full = "".join(tokens)
    spans = _marker_spans(tokens, marker_tokens)
    residuals: set[str] = set()

    def build(chosen: list[tuple[int, int]]) -> str:
        drop = set()
        for start, end in chosen:
            drop.update(range(start, end))
        return "".join(tok for k, tok in enumerate(tokens) if k not in drop)

    if len(spans) <= _MAX_SPANS_EXACT:
        def walk(idx: int, chosen: list[tuple[int, int]]) -> None:
            if idx == len(spans):
                if chosen:
                    residuals.add(build(chosen))
                return
            walk(idx + 1, chosen)
            start, end = spans[idx]
            if not chosen or start >= chosen[-1][1]:
                walk(idx + 1, chosen + [(start, end)])

        walk(0, [])
    elif spans:
        for span in spans:
            residuals.add(build([span]))
        greedy: list[tuple[int, int]] = []
        for span in spans:
            if not greedy or span[0] >= greedy[-1][1]:
                greedy.append(span)
        residuals.add(build(greedy))
    return full, frozenset(residuals)


def baseline_align(
    url_a: str,
    url_b: str,
    tokens_a: frozenset[str],
    tokens_b: frozenset[str],
) -> bool:
    """True when deleting language markers can turn both URLs into one string.

    At least one marker must actually be deleted across the pair, and marker
    matching happens only at token boundaries of the normalized sequence.
    Identical inputs never align.
    """
    if url_a == url_b:
        return False
    core_a = normalize_url(url_a).core_tokens()
    core_b = normalize_url(url_b).core_tokens()
    full_a, plus_a = _residuals(core_a, tokens_a)
    full_b, plus_b = _residuals(core_b, tokens_b)
    if plus_a & plus_b:
        return True
    return full_b in plus_a or full_a in plus_b


# ---------------------------------------------------------------------------
# Feature-based classifier

FEATURE_NAMES = (
    "token_jaccard",
    "length_ratio",
    "token_edit_distance",
    "baseline_aligned",
    "marker_mismatches",
    "path_prefix_fraction",
    "query_key_jaccard",
)

SCHEMA_VERSION = 1

# Full-batch gradient descent settings of ``pair_train``.
LEARNING_RATE = 0.5
TRAIN_STEPS = 600


def _token_edit_distance(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    # A shared prefix or suffix never changes a unit-cost Levenshtein distance,
    # and parent and link URLs share host and path, so trim both first.
    start, end_a, end_b = 0, len(a), len(b)
    while start < end_a and start < end_b and a[start] == b[start]:
        start += 1
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a, b = a[start:end_a], b[start:end_b]
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, tok_b in enumerate(b, start=1):
            cost = 0 if tok_a == tok_b else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[-1]


def pair_features(
    a: NormalizedUrl,
    b: NormalizedUrl,
    tokens_a: frozenset[str],
    tokens_b: frozenset[str],
) -> tuple[float, ...]:
    """Fixed-order feature vector for a URL pair (see ``FEATURE_NAMES``)."""
    core_a, core_b = a.core_tokens(), b.core_tokens()
    set_a, set_b = set(core_a), set(core_b)

    feat_jaccard = jaccard(set_a, set_b)

    len_a, len_b = len(core_a), len(core_b)
    if max(len_a, len_b) == 0:
        length_ratio = 1.0
    else:
        length_ratio = min(len_a, len_b) / max(len_a, len_b)

    if max(len_a, len_b) == 0:
        edit = 0.0
    else:
        edit = _token_edit_distance(core_a, core_b) / max(len_a, len_b)

    aligned = 1.0 if baseline_align(a.source, b.source, tokens_a, tokens_b) else 0.0

    mismatches = 0
    for tok_a, tok_b in zip(core_a, core_b):
        if tok_a != tok_b and (tok_a in tokens_a or tok_b in tokens_b):
            mismatches += 1

    try:
        comp_a = parse_components(a.source)
        comp_b = parse_components(b.source)
    except NotAUrl:
        prefix_frac = 0.0
        query_jaccard = 0.0
    else:
        pa, pb = comp_a.path_segments, comp_b.path_segments
        if not pa and not pb:
            prefix_frac = 1.0
        else:
            shared = 0
            for seg_a, seg_b in zip(pa, pb):
                if seg_a != seg_b:
                    break
                shared += 1
            prefix_frac = shared / max(len(pa), len(pb))
        query_jaccard = jaccard(
            {k for k, _ in comp_a.query_params},
            {k for k, _ in comp_b.query_params},
        )

    return (
        feat_jaccard,
        length_ratio,
        edit,
        aligned,
        float(mismatches),
        prefix_frac,
        query_jaccard,
    )


@lru_cache(maxsize=1 << 17)
def pair_feature_vector(
    url_a: str, url_b: str, lang_a: str | None, lang_b: str | None
) -> tuple[float, ...]:
    """Memoized features for raw URLs, marker sets derived from the languages."""
    return pair_features(
        normalize_url(url_a), normalize_url(url_b),
        _token_set_or_empty(lang_a), _token_set_or_empty(lang_b),
    )


@dataclass
class PairFeatureModel:
    weights: tuple[float, ...]
    bias: float

    def probability(self, features: "tuple[float, ...]") -> float:
        z = self.bias + sum(w * f for w, f in zip(self.weights, features))
        return 1.0 / (1.0 + math.exp(-z))


def pair_train(data, seed: int = 0, masks=None) -> "PairFeatureModel | list[PairFeatureModel]":
    """Fit the logistic pair model on labeled pairs.

    ``data`` is a sequence of records with ``url_a``, ``url_b``, ``lang_a``,
    ``lang_b`` and ``label`` attributes (see :class:`bifocal.datasets.LabeledPair`).
    Full-batch gradient descent on cross-entropy; deterministic for any seed.

    Without ``masks`` one model is fitted on every record and returned.  With
    ``masks``, a 0/1 array of one row per record and one column per model,
    each column's model is fitted on the records it selects, all in the same
    descent, and the models are returned as a list in column order.  A model's
    steps are those of a fit on its records alone; only the summation order of
    its gradients differs, by rounding.

    Raises:
        DegenerateLabels: a model's rows hold only one class.
    """
    records = list(data)
    targets = np.array([1.0 if rec.label == "positive" else 0.0 for rec in records])
    # One row per model from here on: its 0/1 selection of the records.
    if masks is None:
        selected = np.ones((1, len(records)))
    else:
        selected = np.ascontiguousarray(np.asarray(masks, dtype=float).T)
    counts = selected.sum(axis=1, keepdims=True)
    positives = selected @ targets[:, None]
    if ((positives == 0) | (positives == counts)).any():
        raise DegenerateLabels("pair training needs both positive and negative samples")
    matrix = np.array(
        [pair_feature_vector(rec.url_a, rec.url_b, rec.lang_a, rec.lang_b) for rec in records]
    )
    weights = np.zeros((len(selected), matrix.shape[1]))
    bias = np.zeros((len(selected), 1))
    err = np.empty_like(selected)
    grad = np.empty_like(weights)
    grad_bias = np.empty_like(bias)
    selected_targets = selected * targets
    for _ in range(TRAIN_STEPS):
        # err = sigmoid(weights @ matrix.T + bias) * selected - targets * selected, in place.
        np.matmul(weights, matrix.T, out=err)
        err += bias
        np.negative(err, out=err)
        np.exp(err, out=err)
        err += 1.0
        np.divide(1.0, err, out=err)
        err *= selected
        err -= selected_targets
        np.matmul(err, matrix, out=grad)
        grad *= LEARNING_RATE
        grad /= counts
        weights -= grad
        np.sum(err, axis=1, keepdims=True, out=grad_bias)
        grad_bias /= counts
        grad_bias *= LEARNING_RATE
        bias -= grad_bias
    models = [
        PairFeatureModel(weights=tuple(row.tolist()), bias=float(b))
        for row, b in zip(weights, bias[:, 0])
    ]
    return models[0] if masks is None else models


def save_pair_model(model: PairFeatureModel, path) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "feature_names": list(FEATURE_NAMES),
        "weights": list(model.weights),
        "bias": model.bias,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def load_pair_model(path) -> PairFeatureModel:
    """Read a model written by ``save_pair_model``.

    Raises:
        ConfigError: the file is not JSON, lacks a field, or is not a model
            of this schema.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: pair model is not JSON: {exc}") from None
    try:
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(f"{path}: unsupported pair model schema {payload.get('schema_version')}")
        if tuple(payload["feature_names"]) != FEATURE_NAMES:
            raise ConfigError(f"{path}: pair model feature schema mismatch")
        weights = tuple(float(w) for w in payload["weights"])
        bias = float(payload["bias"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a pair model: {exc!r}") from None
    if len(weights) != len(FEATURE_NAMES):
        raise ConfigError(f"{path}: pair model has {len(weights)} weights, not {len(FEATURE_NAMES)}")
    return PairFeatureModel(weights=weights, bias=bias)


# ---------------------------------------------------------------------------
# Scorers

class BaselinePairScorer:
    """Hard 0/1 scorer from the token-removal alignment rule."""

    def probability(self, url_a: str, url_b: str, lang_a: str | None = None, lang_b: str | None = None) -> float:
        aligned = baseline_align(url_a, url_b, _token_set_or_empty(lang_a), _token_set_or_empty(lang_b))
        return 1.0 if aligned else 0.0


class FeaturePairScorer:
    """Probability from the trained logistic feature model."""

    def __init__(self, model: PairFeatureModel):
        self.model = model

    def probability(self, url_a: str, url_b: str, lang_a: str | None = None, lang_b: str | None = None) -> float:
        return self.model.probability(pair_feature_vector(url_a, url_b, lang_a, lang_b))


def resolve_one_to_one(scores: "dict[tuple[str, str], float]") -> "set[tuple[str, str]]":
    """Greedy 1-to-1 alignment: descending score, ties by lexicographic pair.

    A pair is kept only when neither side is already matched; zero-probability
    pairs are never selected.
    """
    chosen: set[tuple[str, str]] = set()
    used_a: set[str] = set()
    used_b: set[str] = set()
    for (a, b), score in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])):
        if score <= 0.0:
            break
        if a in used_a or b in used_b:
            continue
        chosen.add((a, b))
        used_a.add(a)
        used_b.add(b)
    return chosen
