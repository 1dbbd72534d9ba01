"""Language inference from URLs alone.

A crawl asks a language scorer ``probability(url, target)``.  Three answer:
a rule baseline that scans URL components for ISO 639 codes, the trainable
``NgramLangModel``, a linear classifier over hashed character n-grams, and a
client for an external scorer process (see :mod:`bifocal.external`).

The n-gram model hashes character n-grams of each token (sentinels excluded)
into a fixed number of buckets, averages their embeddings, and applies a
softmax layer.  Training is plain SGD on cross-entropy, fully deterministic
for a fixed seed.  numpy is imported by the n-gram functions themselves, so
the rule scorer works without it.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import ConfigError, NotAUrl
from .inputs import replace_file
from .isodata import UNKNOWN_LANG, bundled_languages
from .urls import CACHE_SIZE, UrlComponents, normalize_url, parse_components

# ---------------------------------------------------------------------------
# Rule baseline


def rule_langid(components: UrlComponents) -> str:
    """Pick a language from URL components, or ``unk``.

    Components are examined in a fixed order: query parameter values first,
    then directory names (both in URL order), then the public suffix, then the
    subdomain.  The first component whose lowercased value is an ISO 639 code
    decides.
    """
    table = bundled_languages()
    for value in (*(value for _, value in components.query_params), *components.path_segments,
                  components.public_suffix, components.subdomain):
        code = table.canonical(value)
        if code:
            return code
    return UNKNOWN_LANG


# ---------------------------------------------------------------------------
# Hashed n-gram linear classifier

BOUNDARY_START = "^"
BOUNDARY_END = "$"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; the stable feature hash used by the classifier."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _FNV_MASK
    return h


def ngram_features(token: str, n_min: int, n_max: int) -> list[str]:
    """Character n-grams of a token, with boundary markers affixed first.

    Tokens shorter than ``n_min`` yield the whole marked token as a single
    feature.  Returns a multiset (a list, duplicates preserved).
    """
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    marked = BOUNDARY_START + token + BOUNDARY_END
    if len(token) < n_min:
        return [marked]
    feats = []
    # No n-gram is longer than the marked token, so a huge n_max ends here.
    for n in range(n_min, min(n_max, len(marked)) + 1):
        for i in range(len(marked) - n + 1):
            feats.append(marked[i : i + n])
    return feats


def _bucket_ids(token: str, n_min: int, n_max: int, bucket_count: int) -> tuple[int, ...]:
    """Bucket ids of a token's n-grams."""
    return tuple(
        fnv1a64(feat.encode("utf-8")) % bucket_count
        for feat in ngram_features(token, n_min, n_max)
    )


@dataclass
class NgramHyperparams:
    n_min: int = 2
    n_max: int = 4
    dim: int = 16
    bucket_count: int = 1 << 20
    epochs: int = 10
    learning_rate: float = 0.1


@dataclass
class NgramLangModel:
    """A trained classifier: ``bucket_count`` x ``dim`` embedding rows, averaged
    over a URL's n-gram buckets, then ``output_weights``.

    Only the rows training moved are stored.  Every other row is still its
    seeded initial value, ``_initial_rows`` of ``default_rng(seed)`` cast to
    float32: it is drawn when a URL's token hashes to it, kept with that
    token's rows while the token is memoized, and never saved.
    """

    n_min: int
    n_max: int
    dim: int
    bucket_count: int
    labels: tuple[str, ...]
    seed: int
    # The stored rows' bucket ids, strictly increasing, and their values:
    # len(row_ids) x dim, float32.
    row_ids: np.ndarray
    rows: np.ndarray
    # dim x len(labels), float64 holding float32 values, as the file does.
    output_weights: np.ndarray
    epoch_losses: tuple[float, ...] = field(default=())

    def __post_init__(self):
        # A token's rows: URL tokens repeat across URLs.  The memo's bound is
        # the bound of the drawn rows held, too.
        self._token_rows = lru_cache(maxsize=CACHE_SIZE)(self._rows_of)
        # A URL's distribution: a crawl reaches the same URL from many
        # parents.  ``ngram_predict`` is looked up at call time, so a rebound
        # module attribute still sees every prediction.
        self._predict = lru_cache(maxsize=CACHE_SIZE)(lambda url: ngram_predict(self, url))

    def probability(self, url: str, target: str) -> float:
        """P(``target`` | ``url``): the crawl's language scorer."""
        return self._predict(url).get(target, 0.0)

    @cached_property
    def _rng(self) -> np.random.Generator:
        """``default_rng(seed)``, which draws the rows no stored row holds.
        Made at the first draw: ``numpy.random`` costs 6 MiB to import."""
        import numpy as np

        return np.random.default_rng(self.seed)

    def _rows_of(self, token: str) -> np.ndarray:
        """The rows of ``token``'s n-grams in order, read-only and of the
        stored rows' dtype: each row is stored or drawn from the seed."""
        import numpy as np

        ids = np.array(_bucket_ids(token, self.n_min, self.n_max, self.bucket_count),
                       dtype=np.int64)
        out = np.empty((ids.size, self.dim), dtype=self.rows.dtype)
        at = np.searchsorted(self.row_ids, ids)
        if len(self.row_ids):
            stored = self.row_ids.take(at, mode="clip") == ids
            out[stored] = self.rows[at[stored]]
        else:
            stored = np.zeros(ids.size, dtype=bool)
        if not stored.all():
            missing = ids[~stored]
            order = missing.argsort()
            drawn = np.empty((missing.size, self.dim), dtype=out.dtype)
            drawn[order] = _initial_rows(self._rng, self.dim, missing[order]).astype(np.float32)
            out[~stored] = drawn
        out.flags.writeable = False
        return out


def _softmax(z: np.ndarray) -> np.ndarray:
    """The softmax of the logits ``z``, computed in ``z`` itself."""
    import numpy as np

    z -= np.maximum.reduce(z)
    np.exp(z, out=z)
    z /= np.add.reduce(z)
    return z


# Examples that ``_plans`` plans together: enough to keep numpy's per-call
# cost small, few enough to keep its temporaries small.
_PLAN_EXAMPLES = 32


def _plans(examples: "list[np.ndarray]") -> list:
    """The update plan of each example, given as an array of its ids:
    ``None`` for an example with no ids, else ``(distinct, pos, repeats, n)``.

    ``distinct`` holds the example's distinct rows, most repeated first, and
    ``pos`` each id's position among them, so ``distinct[pos]`` gives the ids
    back in order.  ``repeats[k - 1]`` counts the rows that occur more than
    ``k`` times; they are the first ``repeats[k - 1]`` rows of ``distinct``.
    ``n`` is the id count.

    Each example's array is overwritten with its positions and becomes its
    ``pos``, so the plans hold little more than the ids did.
    """
    import numpy as np

    plans = []
    for start in range(0, len(examples), _PLAN_EXAMPLES):
        block = examples[start : start + _PLAN_EXAMPLES]
        lengths = [ids.size for ids in block]
        ids = np.concatenate(block)
        id_example = np.repeat(np.arange(len(block)), lengths)
        # One group per distinct (example, row) pair, sorted by example, then
        # row; example i has the groups from edges[i] to edges[i + 1].
        width = int(ids.max(initial=0)) + 1
        keys, group, counts = np.unique(id_example * width + ids, return_inverse=True,
                                        return_counts=True)
        group_example = keys // width
        edges = np.searchsorted(group_example, np.arange(len(block) + 1))
        # Within each example, the most repeated rows first; equal counts keep row order.
        top = int(counts.max(initial=1))
        order = np.argsort(group_example * (top + 1) + (top - counts), kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        pos = rank[group] - edges[id_example]
        distinct = (keys % width)[order]
        # Column k - 1: how many rows of each example occur more than k times.
        layers = np.zeros((len(block), top - 1), dtype=np.intp)
        for k in range(1, top):
            layers[:, k - 1] = np.bincount(group_example[counts > k], minlength=len(block))
        edges = edges.tolist()
        end = 0
        for i, (example, layer) in enumerate(zip(block, layers.tolist())):
            n = example.size
            example[:] = pos[end : end + n]
            end += n
            plans.append((distinct[edges[i] : edges[i + 1]], example,
                          tuple(size for size in layer if size), n) if n else None)
    return plans


def _sgd_step(emb: np.ndarray, weights: np.ndarray, plan, y: int, lr: float) -> float:
    """One SGD step on the cross-entropy of the example ``(plan, y)``, in place.

    ``plan`` is the example's update plan from ``_plans``.  The step gathers
    the example's distinct rows of ``emb`` once, sums them in id order, and
    writes them back once.  A row that occurs k times gets its update added k
    times in sequence, a repeat layer at a time, as ``np.add.at`` over the ids
    would: every float operation is the plain step's, in the same order.
    ``weights`` and the rows move by ``lr`` times their gradient, so with
    ``lr = 1`` the change is the gradient itself and with ``lr = 0`` nothing
    moves.  Returns the loss before the step.
    """
    import numpy as np

    distinct, pos, repeats, n = plan
    rows = emb.take(distinct, axis=0)
    # The sum and the division of ``mean`` over the ids' rows.
    hidden = np.add.reduce(rows.take(pos, axis=0), axis=0)
    hidden /= n
    dz = _softmax(hidden @ weights)
    loss = -float(np.log(max(dz[y], 1e-300)))
    dz[y] -= 1.0
    grad = weights @ dz
    outer = np.multiply.outer(hidden, dz)
    outer *= lr
    weights -= outer
    grad *= -lr
    grad /= n
    rows += grad
    for size in repeats:
        rows[:size] += grad
    emb[distinct] = rows
    return loss


def _check_shape(n_min: int, n_max: int, dim: int, bucket_count: int, labels) -> None:
    """Raise ``ConfigError`` unless the shape is one ``ngram_train`` makes;
    ``model_from_bytes`` checks each file's header with it too."""
    if not (1 <= n_min <= n_max and bucket_count >= 1 and dim >= 1):
        raise ConfigError(f"need 1 <= n_min <= n_max, bucket_count >= 1 and dim >= 1, got "
                          f"n_min={n_min}, n_max={n_max}, bucket_count={bucket_count}, dim={dim}")
    if max(n_min, n_max, dim, bucket_count) >= 1 << 32:
        raise ConfigError(f"need n_min, n_max, bucket_count and dim below 2**32, the model file's "
                          f"limit, got n_min={n_min}, n_max={n_max}, bucket_count={bucket_count}, "
                          f"dim={dim}")
    if len(labels) < 2:
        raise ConfigError(f"need at least 2 labels, got {tuple(labels)}")
    if len(set(labels)) < len(labels):
        raise ConfigError(f"need distinct labels, got {tuple(labels)}")


def _initial_rows(rng: np.random.Generator, dim: int, ids) -> np.ndarray:
    """Rows ``ids`` of the seeded initial embedding, in float64.

    ``rng`` is ``default_rng(seed)`` at its start, and is wound back there
    afterwards.  Row ``r`` of the ``bucket_count`` x ``dim`` table that
    ``(rng.random((bucket_count, dim)) * 2.0 - 1.0) / dim`` draws is made of
    draws ``r * dim`` to ``(r + 1) * dim - 1``: the generator skips to them
    with ``advance``, so no other row is drawn.  The ids may repeat and come
    in any order, but increasing ids are cheapest: each skip is forward.
    """
    import numpy as np

    ids = np.asarray(ids, dtype=np.int64).tolist()
    out = np.empty((len(ids), dim))
    advance = rng.bit_generator.advance
    passed = 0  # rows the generator has drawn or skipped
    for i, row in enumerate(ids):
        # PCG64 advances modulo its period, so a negative skip goes back.
        advance((row - passed) * dim)
        rng.random(out=out[i])
        passed = row + 1
    advance(-passed * dim)
    out *= 2.0
    out -= 1.0
    out /= dim
    return out


def ngram_train(
    data,
    hp: NgramHyperparams | None = None,
    seed: int = 0,
) -> NgramLangModel:
    """Train the classifier on ``(url, lang)`` pairs.

    Deterministic for a fixed seed: the seed drives both embedding
    initialization and per-epoch shuffling.  The learning rate decays linearly
    to zero over all updates.

    Raises:
        ConfigError: ``hp`` breaks epochs >= 1 or a finite learning_rate > 0,
            ``seed`` is negative or 2**64 or more (the model file's limit), the
            model would break ``_check_shape``, or
            training diverged: a trained row or an output weight is not
            finite in float32.
    """
    import numpy as np

    if hp is None:
        hp = NgramHyperparams()
    if not (hp.epochs >= 1 and 0.0 < hp.learning_rate < float("inf")):
        raise ConfigError(f"need epochs >= 1 and a finite learning_rate > 0, got {hp}")
    if seed < 0:
        raise ConfigError(f"need a seed >= 0, got {seed}")
    if seed >= 1 << 64:
        raise ConfigError(f"need a seed below 2**64, the model file's limit, got {seed}")
    pairs = list(data)
    labels = tuple(sorted({lang for _, lang in pairs}))
    _check_shape(hp.n_min, hp.n_max, hp.dim, hp.bucket_count, labels)
    label_index = {lab: i for i, lab in enumerate(labels)}

    # URL tokens repeat across training URLs: each distinct one is hashed once.
    token_ids: dict[str, tuple[int, ...]] = {}
    examples = []
    for url, _ in pairs:
        ids = []
        for token in normalize_url(url).core_tokens():
            if token not in token_ids:
                token_ids[token] = _bucket_ids(token, hp.n_min, hp.n_max, hp.bucket_count)
            ids.extend(token_ids[token])
        examples.append(np.array(ids, dtype=np.int64))
    # SGD reads and writes only the rows the examples hash to: train a float64
    # copy of those rows, with each example's ids renumbered onto it in place.
    rows, compact = np.unique(np.concatenate(examples), return_inverse=True)
    end = 0
    for ids in examples:
        ids[:] = compact[end : end + ids.size]
        end += ids.size
    del compact
    plans = _plans(examples)
    ys = [label_index[lang] for _, lang in pairs]
    rng = np.random.default_rng(seed)
    emb = _initial_rows(rng, hp.dim, rows)
    # The epochs' permutations come after the whole table's draws.
    rng.bit_generator.advance(hp.bucket_count * hp.dim)
    weights = np.zeros((hp.dim, len(labels)))

    total_updates = hp.epochs * len(plans)
    step = 0
    losses = []
    # A run that diverges overflows: it is one error, raised below, instead of
    # numpy warnings at every step.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hp.epochs):
            order = rng.permutation(len(plans))
            epoch_loss = 0.0
            seen = 0
            for idx in order.tolist():
                plan = plans[idx]
                lr = hp.learning_rate * (1.0 - step / total_updates)
                step += 1
                if plan is None:
                    continue
                epoch_loss += _sgd_step(emb, weights, plan, ys[idx], lr)
                seen += 1
            losses.append(epoch_loss / max(seen, 1))
        emb = emb.astype(np.float32)
        # The file holds the weights in float32 too: round them as saving does, so
        # that a trained model predicts bit for bit like its saved-and-loaded self.
        weights = weights.astype(np.float32).astype(np.float64)
    if not (np.isfinite(emb).all() and np.isfinite(weights).all()):
        raise ConfigError(f"training diverged: a trained embedding row or output weight is not "
                          f"finite in float32; try a learning_rate below {hp.learning_rate}")
    return NgramLangModel(n_min=hp.n_min, n_max=hp.n_max, dim=hp.dim, bucket_count=hp.bucket_count,
                          labels=labels, seed=seed, row_ids=rows, rows=emb, output_weights=weights,
                          epoch_losses=tuple(losses))


def ngram_predict(model: NgramLangModel, url: str) -> dict[str, float]:
    """Probability distribution over the model's labels.

    The softmax reads the mean of the embedding rows of ``url``'s n-grams,
    taken in float64.  Only the gathered rows are cast, so float32 rows give
    the same bits as their float64 copy would.  A URL with no features
    (sentinels only) yields the uniform distribution.

    Raises:
        ConfigError: a probability is not finite (the URL hashes to an
            embedding row that holds a NaN or an infinity, which no loaded
            model has).
    """
    import numpy as np

    parts = [model._token_rows(token) for token in normalize_url(url).core_tokens()]
    if not parts:
        p = 1.0 / len(model.labels)
        return {label: p for label in model.labels}
    rows = np.concatenate(parts) if len(parts) > 1 else parts[0]
    probs = _softmax(rows.astype(np.float64).mean(axis=0) @ model.output_weights).tolist()
    if not all(map(math.isfinite, probs)):
        raise ConfigError(f"{url}: the language model's probabilities are not finite")
    return dict(zip(model.labels, probs))


# ---------------------------------------------------------------------------
# Serialization: versioned binary container, little-endian.
#
# Version 2: "NGLM"; u32 version, n_min, n_max, dim, bucket_count, label
# count; each label as a u32 length and UTF-8 bytes; the u64 seed; the u32
# count of stored rows; their bucket ids as u32, strictly increasing; their
# values as float32, row by row; the dim x labels output weights as float32.

_MAGIC = b"NGLM"
_VERSION = 2


def _write_model(model: NgramLangModel, handle) -> None:
    """Write ``model`` to a binary file object: the header, then the arrays."""
    import numpy as np

    handle.write(_MAGIC)
    handle.write(struct.pack(
        "<IIIIII",
        _VERSION,
        model.n_min,
        model.n_max,
        model.dim,
        model.bucket_count,
        len(model.labels),
    ))
    for label in model.labels:
        encoded = label.encode("utf-8")
        handle.write(struct.pack("<I", len(encoded)))
        handle.write(encoded)
    handle.write(struct.pack("<QI", model.seed, len(model.row_ids)))
    handle.write(np.ascontiguousarray(model.row_ids, dtype="<u4"))
    for matrix in (model.rows, model.output_weights):
        handle.write(np.ascontiguousarray(matrix, dtype="<f4"))


def model_from_bytes(blob) -> NgramLangModel:
    """The model in ``blob``.  A header that ``_check_shape`` rejects is a
    ``ConfigError``; another bad blob, such as a length that does not add up,
    row ids out of order or a stored row or output weight that is not finite,
    is a ``ValueError`` or ``struct.error``."""
    import numpy as np

    if blob[:4] != _MAGIC:
        raise ValueError("not a classifier model file")
    version, n_min, n_max, dim, buckets, n_labels = struct.unpack_from("<IIIIII", blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported model version {version}")
    offset = 4 + 24
    labels = []
    for _ in range(n_labels):
        (length,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        labels.append(blob[offset : offset + length].decode("utf-8"))
        offset += length
    _check_shape(n_min, n_max, dim, buckets, labels)
    seed, count = struct.unpack_from("<QI", blob, offset)
    offset += 12
    # Checked before any array is made, so a count or size too large for the
    # blob allocates nothing.
    size = offset + 4 * count * (1 + dim) + 4 * dim * n_labels
    if len(blob) != size:
        raise ValueError(f"{count} stored rows of dim {dim} and {n_labels} labels need "
                         f"{size} bytes, not {len(blob)}")
    row_ids = np.frombuffer(blob, dtype="<u4", count=count, offset=offset).astype(np.int64)
    offset += 4 * count
    if count and not ((row_ids[1:] > row_ids[:-1]).all() and row_ids[-1] < buckets):
        raise ValueError(f"stored row ids are not strictly increasing and below {buckets}")
    rows = np.frombuffer(blob, dtype="<f4", count=count * dim, offset=offset)
    offset += rows.nbytes
    if not np.isfinite(rows).all():
        raise ValueError("stored embedding rows are not all finite")
    weights = np.frombuffer(blob, dtype="<f4", offset=offset)
    if not np.isfinite(weights).all():
        raise ValueError("output weights are not all finite")
    return NgramLangModel(
        n_min=n_min,
        n_max=n_max,
        dim=dim,
        bucket_count=buckets,
        labels=tuple(labels),
        seed=seed,
        row_ids=row_ids,
        rows=rows.reshape(count, dim),
        output_weights=weights.reshape(dim, n_labels).astype(np.float64),
    )


def save_model(model: NgramLangModel, path) -> None:
    """Write ``model``, without the rows its predictions drew, to ``path``."""
    replace_file(path, lambda handle: _write_model(model, handle))


def load_model(path) -> NgramLangModel:
    """Read a model written by ``save_model``.

    Raises:
        ConfigError: the file is not a classifier model of this version, is
            cut short or too long, or holds a number that is not finite.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    try:
        return model_from_bytes(blob)
    except (ConfigError, ValueError, struct.error) as exc:
        raise ConfigError(f"{path}: not a language model: {exc}") from None


# ---------------------------------------------------------------------------
# Scorers

class RuleLanguageScorer:
    """Wraps the rule baseline: probability 1 for the matched language."""

    def probability(self, url: str, target: str) -> float:
        try:
            code = rule_langid(parse_components(url))
        except NotAUrl:
            return 0.0
        return 1.0 if code == target != UNKNOWN_LANG else 0.0

