import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifocal.datasets import STRATEGIES, generate_negatives, neg_random_match
from bifocal.errors import ConfigError, UnknownLanguage
from bifocal.pairscore import (
    FEATURE_NAMES,
    BaselinePairScorer,
    PairFeatureModel,
    _residuals,
    _token_edit_distance,
    baseline_align,
    build_language_tokens,
    load_pair_model,
    pair_feature_vector,
    pair_train,
    resolve_one_to_one,
    save_pair_model,
)
from bifocal.urls import normalize_url

from references import (
    baseline_align_reference,
    levenshtein_reference,
    pair_features_reference,
    pair_train_reference,
    residuals_reference,
)
from synthdata import NEUTRAL_WORDS, gold_pair

ENG = build_language_tokens("eng")
FRA = build_language_tokens("fra")


def _transform_pairs(n=20, seed=1):
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        host = f"https://{rng.choice(NEUTRAL_WORDS)}{i}.com"
        slug = f"{rng.choice(NEUTRAL_WORDS)}-{i}"
        pairs.append((f"{host}/en/{slug}", f"{host}/fr/{slug}"))
    return pairs


# ---------------------------------------------------------------------------
# Language token sets

def test_albanian_token_set():
    tokens = build_language_tokens("sqi")
    assert {"albanian", "shqip", "alb", "sq", "sq-sq", "sq-ks", "sqi"} <= tokens


def test_french_token_set():
    tokens = FRA
    assert {"french", "français", "fr", "fra", "fre", "fr-fr"} <= tokens


def test_unknown_language():
    with pytest.raises(UnknownLanguage):
        build_language_tokens("zzz")


def test_token_sets_nonempty_for_all_bundled():
    from bifocal.isodata import bundled_languages

    for code in bundled_languages().records:
        assert build_language_tokens(code)


# ---------------------------------------------------------------------------
# Token-removal baseline

def test_un_org_pair_aligns():
    assert baseline_align("https://www.un.org/en/", "https://www.un.org/fr/", ENG, FRA)


def test_different_residuals_do_not_align():
    assert not baseline_align("https://a.com/en/page", "https://a.com/de/other", ENG, FRA)


def test_identical_inputs_never_align():
    url = "https://a.com/en/page"
    assert not baseline_align(url, url, ENG, ENG)


def test_alignment_is_symmetric():
    cases = _transform_pairs() + [("https://a.com/en/x", "https://a.com/fr/y")]
    for a, b in cases:
        assert baseline_align(a, b, ENG, FRA) == baseline_align(b, a, FRA, ENG)


def test_partial_removal_found():
    # Removing only the directory marker from the left side works; removing
    # every "en" occurrence would not.
    a = "https://x.com/en/about-en"
    b = "https://x.com/fr/about-en"
    assert baseline_align(a, b, ENG, FRA)


def test_hyphenated_marker_spans():
    assert baseline_align("https://a.com/en-us/p", "https://a.com/fr-fr/p", ENG, FRA)


def test_marker_matches_only_at_token_boundaries():
    # "island" contains "isl" but is a single token, so it must not be removed.
    isl = build_language_tokens("isl")
    assert not baseline_align(
        "https://a.com/island/info", "https://a.com/info", isl, ENG
    )


def test_one_sided_removal_is_enough():
    # All markers sit in one URL; the other needs zero deletions.
    assert baseline_align("https://a.com/p/en", "https://a.com/p/", ENG, FRA)


def test_transform_suite_recall_and_rejection():
    for a, b in _transform_pairs():
        assert baseline_align(a, b, ENG, FRA)
    rng = random.Random(9)
    for i in range(20):
        a = f"https://site{i}.com/en/{rng.choice(NEUTRAL_WORDS)}-a{i}"
        b = f"https://site{i}.com/fr/{rng.choice(NEUTRAL_WORDS)}-b{i}"
        assert not baseline_align(a, b, ENG, FRA)


def test_residuals_are_immutable():
    full, residuals = _residuals(normalize_url("https://a.com/en/x"), ENG)
    assert full == "a.com/en/x"
    assert isinstance(residuals, frozenset) and "a.com//x" in residuals


# Token runs with markers side by side ("en", "en-us", "english"), so that a
# draw can hold more than 12 marker runs, some overlapping.
@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["en", "-", "us", "english", "x", "/"]), max_size=18).map(tuple))
@example(("en",) * 12)
@example(("en",) * 13)
@example(("en", "-", "us") * 5)
def test_residuals_equal_the_reference(tokens):
    assert _residuals(tokens, ENG) == residuals_reference(tokens, ENG)


# ---------------------------------------------------------------------------
# Features

# A three-token alphabet, so drawn sequences often share a prefix or suffix.
_token_seqs = st.lists(st.sampled_from(["a", "b", "/"]), max_size=8).map(tuple)


@settings(max_examples=300, deadline=None)
@given(_token_seqs, _token_seqs, _token_seqs, _token_seqs)
@example((), (), (), ())
@example((), (), ("a", "b"), ())
@example((), ("a",), (), ())
@example(("a",), ("a",), ("a",), ("a",))
def test_token_edit_distance_matches_full_table(prefix, a, b, suffix):
    a, b = prefix + a + suffix, prefix + b + suffix
    assert _token_edit_distance(a, b) == levenshtein_reference(a, b)


# Longer than one 64-bit word, from two tokens, so most tokens repeat.
_long_token_seqs = st.lists(st.sampled_from(["a", "b"]), min_size=65, max_size=140).map(tuple)


@settings(max_examples=60, deadline=None)
@given(_long_token_seqs, _long_token_seqs, _token_seqs)
@example(("a",) * 65, ("b",) * 65, ())
@example(("a", "b") * 40, ("b", "a") * 40, ("/",))
def test_token_edit_distance_on_long_sequences(a, b, shared):
    assert _token_edit_distance(a, b) == levenshtein_reference(a, b)
    a, b = shared + a + shared, shared + b[:70] + shared
    assert _token_edit_distance(a, b) == levenshtein_reference(a, b)


def _markers(lang):
    return frozenset() if lang in (None, "unk") else build_language_tokens(lang)


# URL pieces that exercise every feature: marker tokens (hyphenated ones
# too), query strings, hosts with no scheme (``NotAUrl``), bare schemes
# (empty cores) and runs of markers.
_url_heads = st.sampled_from(
    ["https://a.com/", "http://en.a.org/", "https://a.com/p?", "a.com/", "/", "https://", ""]
)
_url_words = st.sampled_from(
    ["en", "fr", "english", "français", "en-us", "fr-fr", "eng", "fra", "page", "lang", "x", "1"]
)
_url_seps = st.sampled_from(["/", "-", ".", "?", "&", "=", "%20", ""])
_urls = st.builds(
    lambda head, parts: head + "".join(word + sep for word, sep in parts),
    _url_heads,
    st.lists(st.tuples(_url_words, _url_seps), max_size=16),
).filter(bool)
_lang_pairs = st.sampled_from([("eng", "fra"), ("fra", "eng"), ("eng", "eng"), (None, "fra"), ("unk", "deu")])


@settings(max_examples=300, deadline=None)
@given(_urls, _urls, _lang_pairs, st.booleans())
@example("https://a.com/" + "en/" * 14, "https://a.com/" + "fr/" * 13, ("eng", "fra"), False)
@example("https://a.com/" + "en-us/" * 7 + "x", "https://a.com/x", ("eng", "fra"), False)
@example("https://a.com/p/en", "https://a.com/p/", ("eng", "fra"), False)
@example("https://a.com/p/", "https://a.com/p/fr", ("eng", "fra"), False)
@example("https://", "https://", ("eng", "fra"), False)
@example("https://", "https://a.com/", ("eng", "fra"), False)
@example("a.com/en/x", "https://a.com/fr/x", ("eng", "fra"), False)
@example("https://a.com/p?lang=en&x=1", "https://a.com/p?lang=fr", ("eng", "fra"), False)
@example("https://a.com/en/x", "", ("eng", "fra"), True)
def test_pair_features_equal_the_reference(url_a, url_b, langs, same):
    if same:
        url_b = url_a
    markers_a, markers_b = _markers(langs[0]), _markers(langs[1])
    expected = pair_features_reference(url_a, url_b, markers_a, markers_b)
    assert pair_feature_vector(url_a, url_b, *langs) == expected
    assert baseline_align(url_a, url_b, markers_a, markers_b) == baseline_align_reference(
        url_a, url_b, markers_a, markers_b)


def test_features_identity_pair():
    url = "https://a.com/en/x"
    feats = pair_feature_vector(url, url, "eng", "fra")
    by_name = dict(zip(FEATURE_NAMES, feats))
    assert by_name["token_jaccard"] == 1.0
    assert by_name["token_edit_distance"] == 0.0
    assert by_name["length_ratio"] == 1.0


def test_features_un_org_pair():
    feats = pair_feature_vector("https://www.un.org/en/", "https://www.un.org/fr/", "eng", "fra")
    assert dict(zip(FEATURE_NAMES, feats))["baseline_aligned"] == 1.0


def test_features_jaccard_matches_brute_force():
    feats = pair_feature_vector("https://a.com/x/y", "https://b.org/z", "eng", "fra")
    sa, sb = set(normalize_url("https://a.com/x/y")), set(normalize_url("https://b.org/z"))
    expected = len(sa & sb) / len(sa | sb)
    assert feats[0] == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Trainable model

def _toy_labeled_pairs(n=60, seed=4):
    positives = [
        gold_pair(a, b, "eng", "fra") for a, b in _transform_pairs(n, seed)
    ]
    negatives, _ = neg_random_match(positives, "bi", seed=seed)
    return positives + negatives


def test_pair_train_separates_toy_data():
    data = _toy_labeled_pairs()
    random.Random(7).shuffle(data)
    train, held = data[: int(len(data) * 0.7)], data[int(len(data) * 0.7):]
    model = pair_train(train)
    tp = fp = fn = 0
    for rec in held:
        predicted = model.probability(rec.url_a, rec.url_b, rec.lang_a, rec.lang_b) > 0.5
        if predicted and rec.label == "positive":
            tp += 1
        elif predicted:
            fp += 1
        elif rec.label == "positive":
            fn += 1
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.9


def test_pair_train_deterministic():
    data = _toy_labeled_pairs()
    m1 = pair_train(data)
    m2 = pair_train(data)
    assert m1.weights == m2.weights and m1.bias == m2.bias


def test_pair_train_degenerate():
    positives = [gold_pair(a, b, "eng", "fra") for a, b in _transform_pairs(5)]
    with pytest.raises(ConfigError, match="pair training needs both positive and negative samples"):
        pair_train(positives)


def _strategy_rows(n, seed):
    """Positives, then each strategy's negatives, as ``cross_validate_combos`` lays them out."""
    positives = [gold_pair(a, b, "eng", "fra") for a, b in _transform_pairs(n, seed)]
    rows = list(positives)
    for strategy in STRATEGIES:
        rows.extend(generate_negatives(positives, [strategy], seed)[0])
    return rows


def _bits(model):
    return [w.hex() for w in model.weights], model.bias.hex()


@pytest.mark.parametrize("seed", range(6))
def test_pair_train_is_the_reference_loop_bit_for_bit(seed):
    data = _strategy_rows(5 + 7 * seed, seed) if seed % 2 else _toy_labeled_pairs(10 + 9 * seed, seed)
    random.Random(seed).shuffle(data)
    assert _bits(pair_train(data)) == _bits(pair_train_reference(data))


def _random_masks(rows, columns, seed):
    """Random 0/1 masks whose first column is all ones and whose every column
    selects both classes."""
    labels = np.array([rec.label == "positive" for rec in rows])
    masks = np.random.default_rng(seed).random((len(rows), columns)) < 0.5
    masks[:, 0] = True
    masks[labels.argmax()] = masks[labels.argmin()] = True
    return masks


def _assert_each_column_fits_like_the_reference(rows, masks):
    models = pair_train(rows, masks=masks)
    assert len(models) == masks.shape[1]
    for column, model in zip(masks.T, models):
        expected = pair_train_reference([rec for rec, keep in zip(rows, column) if keep])
        np.testing.assert_allclose(model.weights, expected.weights, rtol=0, atol=1e-12)
        assert abs(model.bias - expected.bias) <= 1e-12


def test_batched_fit_matches_a_reference_fit_per_column():
    rows = _strategy_rows(25, seed=3)
    _assert_each_column_fits_like_the_reference(rows, _random_masks(rows, 9, seed=8))


def test_batched_fit_keeps_equal_records_with_different_mask_rows_apart():
    base = _toy_labeled_pairs(20, seed=5)
    rows = base + base
    masks = _random_masks(rows, 6, seed=2)
    # Column 1: each positive twice, each negative once.
    masks[:, 1] = [rec.label == "positive" or i < len(base) for i, rec in enumerate(rows)]
    _assert_each_column_fits_like_the_reference(rows, masks)


def test_batched_fit_keeps_equal_features_with_opposite_labels_apart():
    base = _toy_labeled_pairs(20, seed=6)
    flip = {"positive": "negative", "negative": "positive"}
    rows = base + [dataclasses.replace(rec, label=flip[rec.label]) for rec in base[::3]]
    _assert_each_column_fits_like_the_reference(rows, _random_masks(rows, 6, seed=3))


def test_batched_fit_of_every_record_twice_is_the_reference_on_the_doubled_list():
    rows = _strategy_rows(15, seed=2)
    masks = _random_masks(rows, 6, seed=4)
    _assert_each_column_fits_like_the_reference(rows + rows, np.concatenate([masks, masks]))


def test_batched_fit_rejects_a_column_of_one_class():
    rows = _strategy_rows(10, seed=1)
    masks = np.ones((len(rows), 3))
    masks[[rec.label == "negative" for rec in rows], 1] = 0.0
    with pytest.raises(ConfigError, match="pair training needs both positive and negative samples"):
        pair_train(rows, masks=masks)


def test_pair_model_round_trip(tmp_path):
    model = pair_train(_toy_labeled_pairs())
    path = tmp_path / "pair.json"
    save_pair_model(model, path)
    loaded = load_pair_model(path)
    assert loaded.weights == pytest.approx(model.weights)
    assert loaded.bias == pytest.approx(model.bias)


@pytest.mark.parametrize("field, value", [
    ("bias", float("nan")),
    ("bias", float("-inf")),
    ("weights", [0.0] * (len(FEATURE_NAMES) - 1) + [float("nan")]),
])
def test_pair_model_with_a_number_that_is_not_finite_is_rejected(tmp_path, field, value):
    path = tmp_path / "pair.json"
    save_pair_model(PairFeatureModel(weights=(0.0,) * len(FEATURE_NAMES), bias=0.0), path)
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))  # as NaN or -Infinity, which json reads back
    with pytest.raises(ConfigError, match="pair.json: pair model weights and bias must be finite"):
        load_pair_model(path)


def test_pair_probability_is_0_where_exp_overflows():
    pair = ("https://a.com/en/x", "https://a.com/fr/x", "eng", "fra")
    weights = (0.5,) * len(FEATURE_NAMES)
    assert PairFeatureModel(weights, bias=-1000.0).probability(*pair) == 0.0
    assert PairFeatureModel(weights, bias=1000.0).probability(*pair) == 1.0
    z = -700.0 + sum(0.5 * feature for feature in pair_feature_vector(*pair))
    assert PairFeatureModel(weights, bias=-700.0).probability(*pair) == 1.0 / (1.0 + math.exp(-z))


# ---------------------------------------------------------------------------
# Scorer probability

def test_pair_probability_baseline():
    scorer = BaselinePairScorer()
    assert scorer.probability("https://www.un.org/en/", "https://www.un.org/fr/",
                              "eng", "fra") == 1.0
    url = "https://www.un.org/en/"
    assert scorer.probability(url, url, "eng", "fra") == 0.0


def test_pair_probability_model_positive():
    data = _toy_labeled_pairs()
    model = pair_train(data)
    prob = model.probability("https://fresh.com/en/story-9", "https://fresh.com/fr/story-9",
                             "eng", "fra")
    assert prob > 0.5


def test_pair_probability_in_range():
    data = _toy_labeled_pairs()
    model = pair_train(data)
    for rec in data:
        assert 0.0 <= model.probability(rec.url_a, rec.url_b, rec.lang_a, rec.lang_b) <= 1.0


# ---------------------------------------------------------------------------
# 1-to-1 resolution

def test_resolve_greedy_trace():
    scores = {("a1", "b1"): 0.9, ("a1", "b2"): 0.8, ("a2", "b2"): 0.7}
    assert resolve_one_to_one(scores) == {("a1", "b1"), ("a2", "b2")}


def test_resolve_all_zero():
    assert resolve_one_to_one({("a", "b"): 0.0, ("c", "d"): 0.0}) == set()


def _greedy_reference(scores):
    # Independent re-simulation of the greedy trace.
    remaining = dict(scores)
    out = set()
    while remaining:
        best = min(remaining, key=lambda k: (-remaining[k], k))
        if remaining[best] <= 0:
            break
        out.add(best)
        a, b = best
        remaining = {k: v for k, v in remaining.items() if k[0] != a and k[1] != b}
    return out


@given(st.integers(0, 10_000))
@settings(max_examples=60)
def test_resolve_matches_reference_on_random_tables(seed):
    rng = random.Random(seed)
    lefts = [f"a{i}" for i in range(3)]
    rights = [f"b{i}" for i in range(3)]
    scores = {(a, b): rng.choice([0.0, rng.random()]) for a in lefts for b in rights}
    assert resolve_one_to_one(scores) == _greedy_reference(scores)


@given(st.integers(0, 10_000))
@settings(max_examples=40)
def test_resolve_is_one_to_one(seed):
    rng = random.Random(seed)
    scores = {
        (f"a{i}", f"b{j}"): rng.random() for i in range(4) for j in range(4)
    }
    out = resolve_one_to_one(scores)
    assert len({a for a, _ in out}) == len(out)
    assert len({b for _, b in out}) == len(out)
    assert len(out) <= 4
