"""Scoring the probability that two URLs link parallel documents.

A crawl asks a pair scorer ``probability(url_a, url_b, lang_a, lang_b)``.
Three answer: a token-removal baseline (two URLs align if deleting
language-marker tokens makes them the same string), the trainable logistic
``PairFeatureModel`` over URL-pair features, and an external scorer client.
Also provides greedy 1-to-1 alignment resolution over a score table.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConfigError, NotAUrl, UnknownLanguage
from .inputs import read_json, replace_file
from .isodata import UNKNOWN_LANG, bundled_languages
from .urls import CACHE_SIZE, jaccard, normalize_url, parse_components

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


def _residuals(tokens: tuple[str, ...], marker_tokens: frozenset[str]) -> tuple[str, frozenset[str]]:
    """Full concatenation plus every residual reachable by deleting >= 1 marker.

    Enumerates subsets of pairwise-disjoint marker spans; beyond
    ``_MAX_SPANS_EXACT`` spans it falls back to single-span deletions plus the
    all-spans deletion.
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


@lru_cache(maxsize=CACHE_SIZE)
def _pair_view(url: str, marker_tokens: frozenset[str]) -> tuple:
    """One URL's share of the pair features under one marker set.

    The tuple ``(core, core_set, full, residuals, markers, segments,
    query_keys)`` holds the normalized tokens without the sentinels and their
    set, the two halves of ``_residuals``, the positions of the core tokens
    that are markers, and the path segments and the set of query keys (both
    ``None`` when the URL has no scheme or host).  Memoized: a crawl pairs
    each URL with many others.

    Raises:
        NotAUrl: ``url`` is empty.
    """
    core = normalize_url(url).core_tokens()
    full, residuals = _residuals(core, marker_tokens)
    markers = tuple(i for i, tok in enumerate(core) if tok in marker_tokens)
    try:
        components = parse_components(url)
    except NotAUrl:
        segments = query_keys = None
    else:
        segments = components.path_segments
        query_keys = frozenset(key for key, _ in components.query_params)
    return core, frozenset(core), full, residuals, markers, segments, query_keys


def _aligned(view_a: tuple, view_b: tuple) -> bool:
    full_a, plus_a = view_a[2:4]
    full_b, plus_b = view_b[2:4]
    return not plus_a.isdisjoint(plus_b) or full_b in plus_a or full_a in plus_b


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
    return _aligned(_pair_view(url_a, tokens_a), _pair_view(url_b, tokens_b))


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


def _token_edit_distance(a: tuple[str, ...], b: tuple[str, ...], start: int = 0) -> int:
    """Unit-cost Levenshtein distance between two token sequences.

    ``start`` is a length the caller already knows ``a`` and ``b`` share as a
    prefix.
    """
    # A shared prefix or suffix never changes a unit-cost Levenshtein distance,
    # and parent and link URLs share host and path, so trim both first.
    end_a, end_b = len(a), len(b)
    while start < end_a and start < end_b and a[start] == b[start]:
        start += 1
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    if end_a < end_b:
        a, b, end_a, end_b = b, a, end_b, end_a
    if end_b == start:
        return end_a - start
    # Myers/Hyyrö bit-parallel Levenshtein: bit i of ``vp``/``vn`` says the
    # DP column rises/falls from row i to row i + 1 of the longer sequence
    # ``a``, one column per token of ``b``.  Python ints have no width limit,
    # and no operation moves a bit downwards, so the bits above the last row
    # never reach it and need no mask.
    peq: dict[str, int] = {}  # token -> the rows of ``a`` that hold it
    bit = 1
    for tok in a[start:end_a]:
        peq[tok] = peq.get(tok, 0) | bit
        bit <<= 1
    last = bit >> 1
    vp, vn, dist = -1, 0, end_a - start
    for tok in b[start:end_b]:
        eq = peq.get(tok, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & last:
            dist += 1
        elif hn & last:
            dist -= 1
        hp = (hp << 1) | 1
        vp = (hn << 1) | ~(xv | hp)
        vn = hp & xv
    return dist


def _features(view_a: tuple, view_b: tuple, same_url: bool) -> tuple[float, ...]:
    core_a, set_a, _, _, markers_a, segments_a, keys_a = view_a
    core_b, set_b, _, _, markers_b, segments_b, keys_b = view_b
    len_a, len_b = len(core_a), len(core_b)
    longest, shortest = max(len_a, len_b), min(len_a, len_b)

    prefix = 0
    while prefix < shortest and core_a[prefix] == core_b[prefix]:
        prefix += 1
    if longest == 0:
        length_ratio, edit = 1.0, 0.0
    else:
        length_ratio = shortest / longest
        edit = _token_edit_distance(core_a, core_b, prefix) / longest

    aligned = 0.0 if same_url or not _aligned(view_a, view_b) else 1.0

    # Aligned positions that differ and hold a marker on either side; the
    # tokens before ``prefix`` are equal.
    mismatches = 0
    for i in markers_a:
        if prefix <= i < shortest and core_a[i] != core_b[i]:
            mismatches += 1
    for i in markers_b:
        if prefix <= i < shortest and core_a[i] != core_b[i] and i not in markers_a:
            mismatches += 1

    if segments_a is None or segments_b is None:
        prefix_frac = query_jaccard = 0.0
    else:
        if not segments_a and not segments_b:
            prefix_frac = 1.0
        else:
            shared = 0
            for seg_a, seg_b in zip(segments_a, segments_b):
                if seg_a != seg_b:
                    break
                shared += 1
            prefix_frac = shared / max(len(segments_a), len(segments_b))
        query_jaccard = jaccard(keys_a, keys_b)

    return (
        jaccard(set_a, set_b),
        length_ratio,
        edit,
        aligned,
        float(mismatches),
        prefix_frac,
        query_jaccard,
    )


def pair_feature_vector(
    url_a: str, url_b: str, lang_a: str | None, lang_b: str | None
) -> tuple[float, ...]:
    """Features for raw URLs, marker sets derived from the languages.

    Each URL's share of the work is memoized in its view; only the pairwise
    comparison runs per call.
    """
    return _features(
        _pair_view(url_a, _token_set_or_empty(lang_a)),
        _pair_view(url_b, _token_set_or_empty(lang_b)),
        url_a == url_b,
    )


@dataclass
class PairFeatureModel:
    weights: tuple[float, ...]
    bias: float

    def probability(self, url_a: str, url_b: str, lang_a: str | None = None, lang_b: str | None = None) -> float:
        """The sigmoid of the pair's ``pair_feature_vector``: the crawl's pair scorer."""
        features = pair_feature_vector(url_a, url_b, lang_a, lang_b)
        z = self.bias + sum(map(operator.mul, self.weights, features))
        try:
            return 1.0 / (1.0 + math.exp(-z))
        except OverflowError:  # z below about -709: the sigmoid's limit
            return 0.0


def pair_train(data, masks=None) -> "PairFeatureModel | list[PairFeatureModel]":
    """Fit the logistic pair model on labeled pairs.

    ``data`` is a sequence of records with ``url_a``, ``url_b``, ``lang_a``,
    ``lang_b`` and ``label`` attributes (see :class:`bifocal.datasets.LabeledPair`).
    Full-batch gradient descent on cross-entropy from zero weights, so
    deterministic.

    Without ``masks`` one model is fitted on every record and returned.  With
    ``masks``, a 0/1 array of one row per record and one column per model,
    each column's model is fitted on the records it selects, all in the same
    descent, and the models are returned as a list in column order.  That
    descent runs over the distinct (features, label, mask row) rows, each
    weighted by how often it occurs, so its memory and time per step are
    O(distinct rows × models), not O(records × models).  A model's steps are
    those of a fit on its records alone; only the summation order of its
    gradients differs, by rounding.  Without ``masks`` every record is its
    own row.

    Raises:
        ConfigError: a model's rows hold only one class.
    """
    import numpy as np

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
        raise ConfigError("pair training needs both positive and negative samples")
    matrix = np.array(
        [pair_feature_vector(rec.url_a, rec.url_b, rec.lang_a, rec.lang_b) for rec in records]
    )
    if masks is not None:
        # Equal (features, target, mask row) rows take equal steps: descend
        # over the distinct ones, each selected as often as it occurs.  Each
        # row is one opaque bytes key, which np.unique sorts far faster than
        # its column-by-column ``axis=0`` compare.
        rows = np.hstack([matrix, targets[:, None], selected.T])
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
        _, first, multiplicity = np.unique(keys, return_index=True, return_counts=True)
        matrix, targets = matrix[first], targets[first]
        selected = selected[:, first] * multiplicity
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
    """Write ``model`` to ``path`` as JSON, with ``replace_file``."""
    replace_file(path, lambda handle: _write_pair_model(model, handle))


def _write_pair_model(model: PairFeatureModel, handle) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "feature_names": list(FEATURE_NAMES),
        "weights": list(model.weights),
        "bias": model.bias,
    }
    handle.write(json.dumps(payload, indent=1).encode("utf-8") + b"\n")


def load_pair_model(path) -> PairFeatureModel:
    """Read a model written by ``save_pair_model``.

    Raises:
        ConfigError: the file is not JSON, lacks a field, is not a model of
            this schema, or holds a weight or bias that is not finite.
    """
    payload = read_json(path, "pair model")
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
    if not all(map(math.isfinite, (*weights, bias))):
        raise ConfigError(f"{path}: pair model weights and bias must be finite numbers")
    return PairFeatureModel(weights=weights, bias=bias)


# ---------------------------------------------------------------------------
# Scorers

class BaselinePairScorer:
    """Hard 0/1 scorer from the token-removal alignment rule."""

    def probability(self, url_a: str, url_b: str, lang_a: str | None = None, lang_b: str | None = None) -> float:
        aligned = baseline_align(url_a, url_b, _token_set_or_empty(lang_a), _token_set_or_empty(lang_b))
        return 1.0 if aligned else 0.0


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
