import dataclasses
import functools
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bifocal import langid, pairscore
from bifocal.errors import ConfigError
from bifocal.langid import (
    NgramHyperparams,
    NgramLangModel,
    RuleLanguageScorer,
    fnv1a64,
    load_model,
    model_from_bytes,
    ngram_features,
    ngram_predict,
    ngram_predict_many,
    ngram_train,
    rule_langid,
    save_model,
)
from bifocal.urls import normalize_url, parse_components

from golden import RULE_ORDER_CASES
from loopback import hard_timeout
from references import (
    feature_ids,
    ngram_predict_reference,
    ngram_train_reference,
    sgd_step_gradient_check,
)
from synthdata import lang_url_corpus, toy_bilingual_corpus

TINY_HP = NgramHyperparams(dim=8, bucket_count=4096, epochs=10, learning_rate=0.1)


@pytest.fixture(scope="module")
def toy_model():
    return ngram_train(toy_bilingual_corpus(), TINY_HP, seed=11)


# ---------------------------------------------------------------------------
# Rule baseline

@pytest.mark.parametrize("url,expected", RULE_ORDER_CASES)
def test_rule_order_fixture(url, expected):
    assert rule_langid(parse_components(url)) == expected


def test_rule_examples():
    assert rule_langid(parse_components("https://x.com/p?lang=fr")) == "fra"
    assert rule_langid(parse_components("https://en.example.de/about")) == "deu"
    assert rule_langid(parse_components("https://x.com/about")) == "unk"


def test_rule_order_matters():
    # Swapping any two stages changes the answer on the contradiction fixture;
    # spot-check with a reversed-order re-implementation.
    def reversed_rule(components):
        from bifocal.isodata import bundled_languages

        table = bundled_languages()
        for value in [components.subdomain, components.public_suffix]:
            code = table.canonical(value)
            if code:
                return code
        for segment in components.path_segments:
            code = table.canonical(segment)
            if code:
                return code
        for _, value in components.query_params:
            code = table.canonical(value)
            if code:
                return code
        return "unk"

    disagreements = sum(
        1
        for url, expected in RULE_ORDER_CASES
        if reversed_rule(parse_components(url)) != expected
    )
    assert disagreements > 0


# ---------------------------------------------------------------------------
# N-gram features

def test_ngram_features_examples():
    assert sorted(ngram_features("ab", 2, 2)) == sorted(["^a", "ab", "b$"])
    assert ngram_features("a", 2, 4) == ["^a$"]


def test_ngram_features_brute_force():
    # Independent enumeration over the marked token.
    token, n_min, n_max = "chat", 2, 4
    marked = f"^{token}$"
    expected = []
    for n in range(n_min, n_max + 1):
        expected.extend(marked[i : i + n] for i in range(len(marked) - n + 1))
    got = ngram_features(token, n_min, n_max)
    assert sorted(got) == sorted(expected)
    assert len(got) == sum(len(token) + 2 - n + 1 for n in range(n_min, n_max + 1))


def test_ngram_features_multiset():
    # Repeated substrings keep their multiplicity.
    feats = ngram_features("aaa", 2, 2)
    assert feats.count("aa") == 2


def test_fnv1a64_is_stable():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C  # published FNV-1a test vector


# ---------------------------------------------------------------------------
# Training and prediction

def test_toy_training_accuracy(toy_model):
    data = toy_bilingual_corpus()
    correct = 0
    for url, lang in data:
        dist = ngram_predict(toy_model, url)
        if max(dist, key=dist.get) == lang:
            correct += 1
    assert correct / len(data) >= 0.95


def test_toy_training_accuracy_with_default_hyperparameters():
    data = toy_bilingual_corpus()
    model = ngram_train(data, seed=2)  # stock defaults, full bucket table
    correct = sum(
        1 for url, lang in data
        if max((d := ngram_predict(model, url)), key=d.get) == lang
    )
    assert correct / len(data) >= 0.95


def test_training_is_deterministic():
    data = toy_bilingual_corpus()
    m1 = ngram_train(data, TINY_HP, seed=5)
    m2 = ngram_train(data, TINY_HP, seed=5)
    assert np.array_equal(m1.row_ids, m2.row_ids) and np.array_equal(m1.rows, m2.rows)
    assert np.array_equal(m1.output_weights, m2.output_weights)
    m3 = ngram_train(data, TINY_HP, seed=6)
    assert not np.array_equal(m1.rows, m3.rows)


def test_degenerate_labels():
    with pytest.raises(ConfigError, match="need at least 2 labels"):
        ngram_train([], TINY_HP)
    with pytest.raises(ConfigError, match="need at least 2 labels"):
        ngram_train([("https://a.com/x", "eng")] * 5, TINY_HP)


def test_predict_is_distribution(toy_model):
    for url in ["https://a.com/fr/x", "https://b.org/", "https://c.net/?q=1"]:
        dist = ngram_predict(toy_model, url)
        assert set(dist) == set(toy_model.labels)
        assert all(p >= 0 for p in dist.values())
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-6)


def test_predict_argmax_on_markers(toy_model):
    dist = ngram_predict(toy_model, "https://site.com/fr/page")
    assert max(dist, key=dist.get) == "fra"


def _hexes(dist):
    return {label: p.hex() for label, p in dist.items()}


def _unseen_urls(n, seed):
    """URLs of made-up words: their rows are drawn from the seed."""
    words = np.random.default_rng(seed).integers(ord("a"), ord("z") + 1, size=(n, 2, 7))
    return [f"https://{bytes(host.tolist()).decode()}.com/{bytes(path.tolist()).decode()}"
            for host, path in words]


@pytest.mark.parametrize("n_labels, dim", [(2, 3), (3, 16), (8, 8), (9, 5), (20, 16)])
def test_batched_predictions_are_the_per_url_reference_bit_for_bit(n_labels, dim):
    # numpy sums 8 or more numbers pairwise, so 8 and 9 labels are the edge
    # of the softmax's sum.
    labels = [f"l{i:02d}" for i in range(n_labels)]
    data = [(url, labels[i % n_labels])
            for i, (url, _) in enumerate(lang_url_corpus(10 * n_labels, seed=n_labels))]
    model = ngram_train(data, NgramHyperparams(dim=dim, bucket_count=4096, epochs=2), seed=dim)
    seen = [url for url, _ in lang_url_corpus(70, seed=n_labels + 1)]
    pool = [url for pair in zip(seen, _unseen_urls(70, seed=dim)) for url in pair]
    for size in (0, 1, 63, 64, 65, 130):
        urls = pool[:size]
        # The token-less URL at each block edge.
        for at in {0, 63, 64, 127, size - 1} & set(range(size)):
            urls[at] = "https://"
        want = [_hexes(ngram_predict_reference(model, url)) for url in urls]
        assert [_hexes(dist) for dist in ngram_predict_many(model, iter(urls))] == want, size
        assert [_hexes(ngram_predict(model, url)) for url in urls] == want, size
        assert all(list(ngram_predict(model, url)) == labels for url in urls)


@pytest.mark.parametrize("first, second", [(5, 40), (66, 100)])
def test_a_nan_row_fails_the_first_url_that_reaches_it(first, second):
    # The row of the character "z", stored and NaN: only URLs with a "z"
    # reach it.
    z_row = langid._bucket_ids("z", 1, 1, 1 << 16)[1]
    model = NgramLangModel(n_min=1, n_max=1, dim=4, bucket_count=1 << 16,
                           labels=("deu", "eng", "fra"), seed=3, row_ids=np.array([z_row]),
                           rows=np.full((1, 4), np.nan, dtype=np.float32),
                           output_weights=np.linspace(-1.0, 1.0, 12).reshape(4, 3))
    urls = [f"https://a{i}.com/x" for i in range(130)]
    urls[first], urls[second] = "https://zed.com/", "https://a.com/z"
    predictions = ngram_predict_many(model, urls)
    before = [next(predictions) for _ in range(first)]
    assert [_hexes(dist) for dist in before] == [
        _hexes(ngram_predict_reference(model, url)) for url in urls[:first]]
    with pytest.raises(ConfigError, match=re.escape(f"{urls[first]}: the language model's "
                                                    "probabilities are not finite")):
        next(predictions)
    with pytest.raises(ConfigError, match=re.escape(urls[second])):
        ngram_predict(model, urls[second])


def test_delimiter_only_input_uniform(toy_model):
    # "https://" strips to nothing, so the URL has no tokens.
    dist = ngram_predict(toy_model, "https://")
    assert set(dist) == set(toy_model.labels)
    for prob in dist.values():
        assert prob == pytest.approx(1.0 / len(toy_model.labels))


def test_gradient_check_matches_finite_differences():
    hp = NgramHyperparams(n_min=2, n_max=2, dim=4, bucket_count=8, epochs=2)
    data = [
        ("https://aa.com/x", "deu"),
        ("https://bb.org/y", "fra"),
        ("https://ab.net/z", "deu"),
    ]
    model = ngram_train(data, hp, seed=1)
    assert sgd_step_gradient_check(model, data) > 0


# A table whose size is not a power of 2.
_ODD_HP = NgramHyperparams(n_min=2, n_max=4, dim=3, bucket_count=8195, epochs=3)
# "ccxdj" has an n-gram in row 0 of that table, "kvhc" one in its last row.
_EDGE_ROWS_DATA = [("https://ccxdj.com/", "deu"), ("https://kvhc.com/", "fra"),
                   ("https://a.com/de/x", "deu"), ("https://a.com/fr/x", "fra")]


# "aaaaaaaaaa" holds the 2-gram "aa" 9 times, and in 61 buckets distinct
# n-grams share rows, so examples repeat rows up to 9 times.
_REPEATS_HP = NgramHyperparams(n_min=2, n_max=3, dim=4, bucket_count=61, epochs=3)
_REPEATS_DATA = [("https://aaaaaaaaaa.com/aa/aaaa", "deu"), ("https://ababab.fr/bababa", "fra"),
                 *lang_url_corpus(30, seed=8, langs=("deu", "fra"))]


@pytest.mark.parametrize("data, hp", [
    (toy_bilingual_corpus(), TINY_HP),
    (toy_bilingual_corpus(), NgramHyperparams()),
    (lang_url_corpus(120, seed=4, langs=("deu", "fra")), _ODD_HP),
    (_EDGE_ROWS_DATA, _ODD_HP),
    (_REPEATS_DATA, _REPEATS_HP),
    ([("https://", "deu"), *lang_url_corpus(40, seed=6, langs=("deu", "fra")), ("https://", "fra")],
     TINY_HP),
], ids=["tiny", "defaults", "odd_chunks", "edge_rows", "repeats_and_collisions", "featureless_url"])
def test_training_equals_the_full_table_reference(data, hp):
    model = ngram_train(data, hp, seed=7)
    want = ngram_train_reference(data, hp, seed=7)
    # The stored rows are the rows the data hashes to.
    assert model.row_ids.tolist() == sorted({i for url, _ in data for i in feature_ids(model, url).tolist()})
    assert model.rows.dtype == np.float32
    assert np.array_equal(model.rows, want.rows[model.row_ids].astype(np.float32))
    # Every other row is the one its seed draws, a block of the table at a
    # time; the generator is wound back after each block.
    stored = np.zeros(hp.bucket_count, dtype=bool)
    stored[model.row_ids] = True
    rng = np.random.default_rng(model.seed)
    for start in range(0, hp.bucket_count, 1 << 16):
        ids = np.arange(start, min(start + (1 << 16), hp.bucket_count))
        ids = ids[~stored[ids]]
        assert np.array_equal(langid._initial_rows(rng, hp.dim, ids), want.rows[ids])
    # Both matrices are kept at the precision the file holds.
    assert np.array_equal(model.output_weights, want.output_weights.astype(np.float32))


@pytest.mark.parametrize("field", ["n_min", "n_max", "dim", "bucket_count"])
def test_a_size_of_2_to_the_32_is_refused_before_allocating(monkeypatch, field):
    def allocate(*args):
        raise AssertionError("the embedding table was allocated before the shape was checked")

    monkeypatch.setattr(langid, "_initial_rows", allocate)
    sizes = {"n_min": 2, "n_max": 4, "dim": 1, "bucket_count": 64, field: 1 << 32}
    sizes["n_max"] = max(sizes["n_min"], sizes["n_max"])
    with pytest.raises(ConfigError, match=r"below 2\*\*32, the model file's limit"):
        ngram_train(toy_bilingual_corpus(), NgramHyperparams(**sizes))


def test_edge_rows_data_hashes_to_the_first_and_last_row():
    ids = {i for url, _ in _EDGE_ROWS_DATA for i in feature_ids(_ODD_HP, url).tolist()}
    assert {0, _ODD_HP.bucket_count - 1} <= ids


def test_repeats_data_repeats_rows_and_collides():
    hp = _REPEATS_HP
    assert max(np.bincount(feature_ids(hp, url)).max() for url, _ in _REPEATS_DATA) >= 4
    grams = {feat for url, _ in _REPEATS_DATA for token in normalize_url(url)
             for feat in ngram_features(token, hp.n_min, hp.n_max)}
    assert len({fnv1a64(gram.encode()) % hp.bucket_count for gram in grams}) < len(grams)


def test_plan_of_ids_that_are_all_equal():
    (plan,) = langid._plans([np.array([5, 5, 5, 5])])
    distinct, pos, repeats, n = plan
    assert distinct.tolist() == [5] and pos.tolist() == [0, 0, 0, 0]
    assert repeats == (1, 1, 1) and n == 4


def test_plan_of_ids_that_are_all_distinct():
    (plan,) = langid._plans([np.array([7, 2, 9])])
    distinct, pos, repeats, n = plan
    assert sorted(distinct.tolist()) == [2, 7, 9] and distinct[pos].tolist() == [7, 2, 9]
    assert repeats == () and n == 3


def test_plans_match_counting_each_example():
    rng = np.random.default_rng(3)
    # More examples than one planning block, some empty, rows up to 2**20.
    examples = [rng.integers(0, rng.choice([3, 50, 1 << 20]), size=rng.integers(0, 40))
                for _ in range(3 * langid._PLAN_EXAMPLES + 5)]
    originals = [ids.copy() for ids in examples]
    for ids, plan in zip(originals, langid._plans(examples), strict=True):
        if ids.size == 0:
            assert plan is None
            continue
        distinct, pos, repeats, n = plan
        counts = {row: ids.tolist().count(row) for row in set(ids.tolist())}
        assert sorted(distinct.tolist()) == sorted(counts) and distinct[pos].tolist() == ids.tolist()
        by_row = [counts[row] for row in distinct.tolist()]
        assert by_row == sorted(by_row, reverse=True)
        assert repeats == tuple(sum(c > k for c in by_row) for k in range(1, by_row[0]))
        assert n == ids.size


def test_training_peak_memory_stays_below_one_and_a_half_float32_tables():
    hp = NgramHyperparams()
    table_bytes = hp.bucket_count * hp.dim * 4
    tracemalloc.start()
    try:
        ngram_train(toy_bilingual_corpus(), hp, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table_bytes, peak


def test_trained_model_predicts_like_its_saved_and_loaded_self(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_model(toy_model, path)
    loaded = load_model(path)
    for url, _ in lang_url_corpus(300, seed=9, langs=("deu", "fra")):
        got = ngram_predict(toy_model, url)
        want = ngram_predict(loaded, url)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


def test_a_seed_the_model_file_cannot_hold_is_refused():
    with pytest.raises(ConfigError, match=r"below 2\*\*64, the model file's limit"):
        ngram_train(toy_bilingual_corpus(), TINY_HP, seed=1 << 64)


def test_rows_no_training_url_hashes_to_predict_like_the_reference_table(tmp_path):
    data = toy_bilingual_corpus()
    model = ngram_train(data, TINY_HP, seed=7)
    want = ngram_train_reference(data, TINY_HP, seed=7)
    # The reference's table as the model would hold it, every row stored.
    table = dataclasses.replace(want, rows=want.rows.astype(np.float32),
                                output_weights=want.output_weights.astype(np.float32).astype(np.float64))
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = path.read_bytes()
    loaded = load_model(path)
    urls = [url for url, _ in lang_url_corpus(200, seed=13, langs=("eng", "spa"))]
    # Each URL hashes to rows no training URL reaches, and to stored ones.
    stored = set(model.row_ids.tolist())
    drawn = [set(feature_ids(model, url).tolist()) - stored for url in urls]
    assert all(drawn) and len(set().union(*drawn)) > 500
    for url in urls + urls[::-1]:
        expected = {k: v.hex() for k, v in ngram_predict(table, url).items()}
        for m in (model, loaded):
            assert {k: v.hex() for k, v in ngram_predict(m, url).items()} == expected, url
    # The rows those predictions drew are not saved.
    save_model(loaded, path)
    assert path.read_bytes() == blob
    save_model(model, path)
    assert path.read_bytes() == blob


def test_rows_drawn_for_predictions_are_held_only_while_their_token_is_memoized(monkeypatch):
    # A crawl of new sites meets new tokens without end: the rows drawn for
    # them must not pile up.
    monkeypatch.setattr(langid, "CACHE_SIZE", 64)
    model = ngram_train(toy_bilingual_corpus(), dataclasses.replace(TINY_HP, bucket_count=1 << 20),
                        seed=7)
    words = np.random.default_rng(5).integers(ord("a"), ord("z") + 1, size=(1200, 9))
    urls = [f"https://{bytes(word.tolist()).decode()}.com/" for word in words]

    def numpy_bytes_held():
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        return sum(stat.size for stat in snapshot.statistics("filename"))

    tracemalloc.start()
    try:
        for url in urls[:200]:
            ngram_predict(model, url)
        before = numpy_bytes_held()
        # About 27,000 more rows drawn: 0.9 MB if they were all kept.
        for url in urls[200:]:
            ngram_predict(model, url)
        after = numpy_bytes_held()
    finally:
        tracemalloc.stop()
    assert model._token_rows.cache_info().currsize == 64
    assert after - before < 64 << 10, (before, after)


def test_the_largest_finite_numbers_predict_a_distribution(tmp_path):
    # Loading refuses a row or weight that is not finite; with finite float32
    # numbers the float64 logits cannot overflow, so a loaded model always
    # predicts a distribution.
    big = float(np.finfo(np.float32).max)
    model = NgramLangModel(n_min=1, n_max=2, dim=3, bucket_count=7, labels=("deu", "eng", "fra"),
                           seed=5, row_ids=np.arange(7), rows=np.full((7, 3), big),
                           output_weights=np.array([[big, -big, 0.0]] * 3))
    path = tmp_path / "model.bin"
    save_model(model, path)
    dist = ngram_predict(load_model(path), "https://a.com/de/x")
    assert dist == {"deu": 1.0, "eng": 0.0, "fra": 0.0}


def test_n_max_beyond_the_marked_token_adds_no_features():
    for token in ("", "a", "abc", "fr"):
        longest = len(token) + 2
        assert ngram_features(token, 1, longest + 50) == ngram_features(token, 1, longest)


# ---------------------------------------------------------------------------
# Serialization

def test_model_round_trip(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_model(toy_model, path)
    loaded = load_model(path)
    assert loaded.labels == toy_model.labels
    assert (loaded.n_min, loaded.n_max, loaded.dim, loaded.bucket_count) == (
        toy_model.n_min, toy_model.n_max, toy_model.dim, toy_model.bucket_count,
    )
    assert loaded.seed == toy_model.seed
    assert np.array_equal(loaded.row_ids, toy_model.row_ids)
    assert np.array_equal(loaded.rows, toy_model.rows)
    for url, lang in toy_bilingual_corpus()[:10]:
        d1 = ngram_predict(toy_model, url)
        d2 = ngram_predict(loaded, url)
        assert max(d1, key=d1.get) == max(d2, key=d2.get)


def _reference_bytes(model):
    """The model file format, encoded in one piece."""
    parts = [b"NGLM", struct.pack("<IIIIII", 2, model.n_min, model.n_max, model.dim,
                                  model.bucket_count, len(model.labels))]
    for label in model.labels:
        parts += [struct.pack("<I", len(label.encode())), label.encode()]
    parts.append(struct.pack("<QI", model.seed, len(model.row_ids)))
    parts += [struct.pack("<I", i) for i in model.row_ids.tolist()]
    parts += [struct.pack("<f", v) for v in model.rows.ravel().tolist()]
    parts.append(np.asarray(model.output_weights, dtype="<f4").tobytes())
    return b"".join(parts)


def _stored_rows_at(model):
    """The offset of ``model``'s stored row ids in its file."""
    return 4 + 24 + sum(4 + len(label.encode()) for label in model.labels) + 12


def _odd_sized_model():
    """A float64 model with a bucket count that is not a power of 2, a seed
    above 2**63 and stored rows that include its first and last."""
    buckets = 8195
    rng = np.random.default_rng(4)
    row_ids = np.array([0, 1, 2, 700, 4096, buckets - 1])
    return NgramLangModel(
        n_min=2, n_max=3, dim=2, bucket_count=buckets, labels=("deu", "français"),
        seed=(1 << 64) - 5, row_ids=row_ids, rows=rng.standard_normal((len(row_ids), 2)),
        output_weights=rng.standard_normal((2, 2)),
    )


@pytest.mark.parametrize("which", ["toy", "odd_sized"])
def test_streamed_save_writes_the_reference_bytes(tmp_path, toy_model, which):
    model = toy_model if which == "toy" else _odd_sized_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    expected = _reference_bytes(model)
    assert path.read_bytes() == expected
    # A loaded model saves back to the same bytes.
    save_model(load_model(path), path)
    assert path.read_bytes() == expected


def test_loaded_model_keeps_float32_embeddings(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_model(toy_model, path)
    loaded = load_model(path)
    assert loaded.rows.dtype == np.float32
    assert loaded.rows.shape == (len(toy_model.row_ids), toy_model.dim)
    assert loaded.output_weights.dtype == np.float64


def test_loaded_model_predicts_like_a_float64_copy(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_model(toy_model, path)
    loaded = load_model(path)
    upcast = dataclasses.replace(loaded, rows=loaded.rows.astype(np.float64))
    for url, _ in lang_url_corpus(300, seed=9, langs=("deu", "fra")):
        got = ngram_predict(loaded, url)
        want = ngram_predict(upcast, url)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


def test_saving_over_a_mapped_model_keeps_it_predicting(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_model(toy_model, path)
    loaded = load_model(path)
    urls = [url for url, _ in lang_url_corpus(50, seed=3, langs=("deu", "fra"))]
    before = [ngram_predict(loaded, url) for url in urls]
    other = ngram_train(toy_bilingual_corpus(), TINY_HP, seed=12)
    save_model(other, path)
    assert path.read_bytes() == _reference_bytes(other)
    assert [ngram_predict(loaded, url) for url in urls] == before


@pytest.mark.parametrize("kind", ["lang", "pair"])
def test_failed_save_keeps_the_old_file(tmp_path, toy_model, monkeypatch, kind):
    module, writer, save, model = {
        "lang": (langid, "_write_model", save_model, toy_model),
        "pair": (pairscore, "_write_pair_model", pairscore.save_pair_model,
                 pairscore.PairFeatureModel(weights=(0.5,) * len(pairscore.FEATURE_NAMES), bias=-1.0)),
    }[kind]
    path = tmp_path / "model.bin"
    save(model, path)
    expected = path.read_bytes()

    def write_half(model, handle):
        handle.write(expected[: len(expected) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(module, writer, write_half)
    with pytest.raises(OSError, match="disk full"):
        save(model, path)
    assert path.read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


@pytest.mark.parametrize("cut", ["empty", "header", "labels", "seed", "row_ids", "embedding",
                                 "weights"])
def test_load_rejects_a_cut_model_file(tmp_path, toy_model, cut):
    blob = _reference_bytes(toy_model)
    seed_at = _stored_rows_at(toy_model) - 12
    ends = {"empty": 0, "header": 10, "labels": 4 + 24 + 2, "seed": seed_at + 5,
            "row_ids": seed_at + 12 + 6, "embedding": len(blob) // 2, "weights": len(blob) - 1}
    path = tmp_path / "model.bin"
    path.write_bytes(blob[: ends[cut]])
    with pytest.raises(ConfigError, match="not a language model"):
        load_model(path)


@pytest.mark.parametrize("case, error", [
    ("version 1", "unsupported model version 1"),
    ("label repeated", r"need distinct labels, got \('deu', 'deu'\)"),
    ("ids out of order", "not strictly increasing"),
    ("id repeated", "not strictly increasing"),
    ("id past the table", "not strictly increasing and below 4096"),
    ("count too large", "need"),
    ("trailing byte", "need"),
    ("NaN row", "stored embedding rows are not all finite"),
    ("infinite row", "stored embedding rows are not all finite"),
])
def test_load_rejects_a_model_file_that_does_not_add_up(tmp_path, toy_model, case, error):
    blob = bytearray(_reference_bytes(toy_model))
    ids_at = _stored_rows_at(toy_model)
    rows_at = ids_at + 4 * len(toy_model.row_ids)
    if case == "version 1":
        # The first layout: every row of the table, then the weights.
        blob = _reference_bytes(toy_model)[: ids_at - 12] + bytes(
            4 * TINY_HP.dim * (TINY_HP.bucket_count + len(toy_model.labels)))
        blob = blob[:4] + struct.pack("<I", 1) + blob[8:]
    elif case == "label repeated":
        blob = blob.replace(b"fra", b"deu", 1)
    elif case == "ids out of order":
        blob[ids_at : ids_at + 8] = blob[ids_at + 4 : ids_at + 8] + blob[ids_at : ids_at + 4]
    elif case == "id repeated":
        blob[ids_at + 4 : ids_at + 8] = blob[ids_at : ids_at + 4]
    elif case == "id past the table":
        blob[rows_at - 4 : rows_at] = struct.pack("<I", TINY_HP.bucket_count)
    elif case == "count too large":
        blob[ids_at - 4 : ids_at] = struct.pack("<I", (1 << 32) - 1)
    elif case == "trailing byte":
        blob += b"\0"
    else:
        blob[rows_at + 4 : rows_at + 8] = struct.pack("<f", float("nan" if case == "NaN row" else "inf"))
    path = tmp_path / "model.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match=f"model.bin: not a language model: .*{error}"):
        load_model(path)


@functools.cache
def _fuzz_model():
    """A small trained model: 64 buckets of dim 2, a few dozen stored rows."""
    hp = NgramHyperparams(dim=2, bucket_count=64, epochs=1)
    return ngram_train(lang_url_corpus(12, seed=2, langs=("deu", "fra")), hp, seed=3)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_model_file_loads_or_is_a_config_error(tmp_path, data):
    model = _fuzz_model()
    blob = bytearray(_reference_bytes(model))
    ids_at, count = _stored_rows_at(model), len(model.row_ids)
    kind = data.draw(st.sampled_from(["flip", "truncate", "shuffle ids", "oversized count"]))
    if kind == "flip":
        for at, mask in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)),
                                           min_size=1, max_size=6)):
            blob[at] ^= mask
    elif kind == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    elif kind == "shuffle ids":
        ids = [blob[ids_at + 4 * i : ids_at + 4 * i + 4] for i in range(count)]
        blob[ids_at : ids_at + 4 * count] = b"".join(ids[i] for i in data.draw(st.permutations(range(count))))
    else:
        # The stored row count, a header size (n_min, n_max, dim, buckets,
        # labels) or the first label's length.
        at = data.draw(st.sampled_from([ids_at - 4, 8, 12, 16, 20, 24, 28]))
        size = data.draw(st.one_of(st.sampled_from([count + 1, 1 << 31, (1 << 32) - 1]),
                                   st.integers(0, (1 << 32) - 1)))
        blob[at : at + 4] = struct.pack("<I", size)
    path = tmp_path / "model.bin"
    path.write_bytes(bytes(blob))
    # A hang is a failure too; Hypothesis's deadline could not stop one.
    with hard_timeout(2.0):
        try:
            loaded = load_model(path)
        except ConfigError:
            return
        for url in ("https://a.com/de/x", "https://b.org/fr/y?q=1", "https://"):
            try:
                dist = ngram_predict(loaded, url)
            except ConfigError:
                continue
            assert list(dist) == list(loaded.labels)
        # What loads is what saving that model writes.
        save_model(loaded, path)
        assert path.read_bytes() == blob


def test_load_rejects_a_file_that_is_not_a_model(tmp_path):
    path = tmp_path / "model.bin"
    path.write_text("url\tlang\n" * 100, encoding="utf-8")
    with pytest.raises(ConfigError, match="not a language model"):
        load_model(path)


def test_training_hashes_each_distinct_token_once(monkeypatch):
    # The same tokens under three settings, trained in turn: each call hashes
    # each of its distinct tokens once, and stores the rows they hash to.
    data = lang_url_corpus(60, seed=5, langs=("deu", "fra"))
    tokens = {token for url, _ in data for token in normalize_url(url)}
    hashed = []

    def counted(token, *shape):
        hashed.append(token)
        return bucket_ids(token, *shape)

    bucket_ids = langid._bucket_ids
    monkeypatch.setattr(langid, "_bucket_ids", counted)
    for n_min, n_max, buckets in [(2, 4, 4096), (1, 3, 4096), (2, 4, 1021)]:
        hp = NgramHyperparams(n_min=n_min, n_max=n_max, dim=2, bucket_count=buckets, epochs=1)
        hashed.clear()
        model = ngram_train(data, hp, seed=3)
        assert sorted(hashed) == sorted(tokens), hp
        want = sorted({i for url, _ in data for i in feature_ids(hp, url).tolist()})
        assert model.row_ids.tolist() == want, hp


def test_model_bytes_reject_bad_magic(toy_model):
    blob = _reference_bytes(toy_model)
    with pytest.raises(ValueError):
        model_from_bytes(b"XXXX" + blob[4:])


# ---------------------------------------------------------------------------
# Scorer probability

def test_lang_probability_rule():
    scorer = RuleLanguageScorer()
    assert scorer.probability("https://x.com/p?lang=fr", "fra") == 1.0
    assert scorer.probability("https://x.com/p?lang=fr", "deu") == 0.0
    assert scorer.probability("https://x.com/none", "fra") == 0.0  # unk maps to 0
    assert scorer.probability("https://x.com/none", "unk") == 0.0
    assert scorer.probability("/de/seite", "deu") == 0.0  # hostless: unk


def test_ngram_scorer_memo_answers_like_predict(toy_model):
    urls = ["https://any.com/de/seite", "https://x.fr/fr/page", "https://any.com/de/seite"]
    for url in urls + urls[::-1]:
        for target in ("deu", "fra", "zzz"):
            assert toy_model.probability(url, target) == ngram_predict(toy_model, url).get(target, 0.0)


def test_lang_probability_ngram(toy_model):
    assert toy_model.probability("https://any.com/de/seite", "deu") >= 0.5
    assert toy_model.probability("https://any.com/de/seite", "zzz") == 0.0
