"""Language inference from URLs alone.

Three interchangeable scorers:

* a rule baseline that scans URL components for ISO 639 codes,
* a trainable linear classifier over hashed character n-grams,
* a client for an external scorer process (see :mod:`bifocal.external`).

The n-gram model hashes character n-grams of each token (sentinels excluded)
into a fixed number of buckets, averages their embeddings, and applies a
softmax layer.  Training is plain SGD on cross-entropy, fully deterministic
for a fixed seed.  numpy is imported by the n-gram functions themselves, so
the rule scorer works without it.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ConfigError, NotAUrl
from .isodata import UNKNOWN_LANG, bundled_languages
from .urls import CACHE_SIZE, NormalizedUrl, UrlComponents, normalize_url, parse_components

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
    for _, value in components.query_params:
        code = table.canonical(value)
        if code:
            return code
    for segment in components.path_segments:
        code = table.canonical(segment)
        if code:
            return code
    code = table.canonical(components.public_suffix)
    if code:
        return code
    code = table.canonical(components.subdomain)
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


@lru_cache(maxsize=CACHE_SIZE)
def _token_bucket_ids(token: str, n_min: int, n_max: int, bucket_count: int) -> tuple[int, ...]:
    """Bucket ids of a token's n-grams; URL tokens repeat across URLs."""
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
    n_min: int
    n_max: int
    dim: int
    bucket_count: int
    labels: tuple[str, ...]
    # bucket_count x dim, float32: the table ``ngram_train`` builds, or a
    # read-only view of the file's bytes once loaded.
    embeddings: np.ndarray
    # dim x len(labels), float64 holding float32 values, as the file does.
    output_weights: np.ndarray
    epoch_losses: tuple[float, ...] = field(default=())

    def feature_ids(self, url: "str | NormalizedUrl") -> np.ndarray:
        import numpy as np

        norm = normalize_url(url) if isinstance(url, str) else url
        ids = []
        for token in norm.core_tokens():
            ids.extend(_token_bucket_ids(token, self.n_min, self.n_max, self.bucket_count))
        return np.asarray(ids, dtype=np.int64)


def _softmax(z: np.ndarray) -> np.ndarray:
    """The softmax of the logits ``z``, computed in ``z`` itself."""
    import numpy as np

    z -= np.maximum.reduce(z)
    np.exp(z, out=z)
    z /= np.add.reduce(z)
    return z


def _mean_embedding(emb: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mean of the rows ``ids`` of ``emb``, in float64.

    Only the gathered rows are cast, so a float32 table gives the same bits as
    its float64 copy would.
    """
    import numpy as np

    return emb[ids].astype(np.float64, copy=False).mean(axis=0)


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


# Rows per chunk of the initial embedding that training draws in float64.
_CHUNK_ROWS = 1 << 12


def _init_embeddings(rng, bucket_count: int, dim: int, rows: np.ndarray):
    """The seeded initial embedding as a float32 table, and a float64 copy of
    its ``rows`` (sorted ids).

    The table is drawn a chunk at a time, with the same draws and the same
    arithmetic per element as ``(rng.random((bucket_count, dim)) * 2.0 - 1.0)
    / dim``, so ``rng`` ends in the same state and the float64 rows are that
    expression's.
    """
    import numpy as np

    table = np.empty((bucket_count, dim), dtype=np.float32)
    copy = np.empty((len(rows), dim))
    chunk = np.empty((min(_CHUNK_ROWS, bucket_count), dim))
    for start in range(0, bucket_count, _CHUNK_ROWS):
        part = chunk[: min(_CHUNK_ROWS, bucket_count - start)]
        rng.random(out=part)
        part *= 2.0
        part -= 1.0
        part /= dim
        table[start : start + len(part)] = part
        lo, hi = np.searchsorted(rows, (start, start + len(part)))
        copy[lo:hi] = part[rows[lo:hi] - start]
    return table, copy


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
            ``seed`` is negative, the model would break ``_check_shape``, or
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
    pairs = list(data)
    labels = tuple(sorted({lang for _, lang in pairs}))
    _check_shape(hp.n_min, hp.n_max, hp.dim, hp.bucket_count, labels)
    label_index = {lab: i for i, lab in enumerate(labels)}

    model = NgramLangModel(
        n_min=hp.n_min,
        n_max=hp.n_max,
        dim=hp.dim,
        bucket_count=hp.bucket_count,
        labels=labels,
        embeddings=None,
        output_weights=None,
    )
    examples = [model.feature_ids(url) for url, _ in pairs]
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
    table, emb = _init_embeddings(rng, hp.bucket_count, hp.dim, rows)
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
        table[rows] = emb
        # The file holds the weights in float32 too: round them as saving does, so
        # that a trained model predicts bit for bit like its saved-and-loaded self.
        weights = weights.astype(np.float32).astype(np.float64)
    if not (np.isfinite(table[rows]).all() and np.isfinite(weights).all()):
        raise ConfigError(f"training diverged: a trained embedding row or output weight is not "
                          f"finite in float32; try a learning_rate below {hp.learning_rate}")
    model.embeddings = table
    model.output_weights = weights
    model.epoch_losses = tuple(losses)
    return model


def ngram_predict(model: NgramLangModel, url: "str | NormalizedUrl") -> dict[str, float]:
    """Probability distribution over the model's labels.

    A URL with no features (sentinels only) yields the uniform distribution.

    Raises:
        ConfigError: a probability is not finite (the URL hashes to an
            embedding row that holds a NaN or an infinity).
    """
    ids = model.feature_ids(url)
    if ids.size == 0:
        p = 1.0 / len(model.labels)
        return {label: p for label in model.labels}
    probs = _softmax(_mean_embedding(model.embeddings, ids) @ model.output_weights).tolist()
    if not all(map(math.isfinite, probs)):
        source = url if isinstance(url, str) else url.source
        raise ConfigError(f"{source}: the language model's probabilities are not finite")
    return dict(zip(model.labels, probs))


# ---------------------------------------------------------------------------
# Serialization: versioned binary container, little-endian float32 matrices.

_MAGIC = b"NGLM"
_VERSION = 1


def _write_model(model: NgramLangModel, handle) -> None:
    """Write ``model`` to a binary file object: the header, then the matrices."""
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
    for matrix in (model.embeddings, model.output_weights):
        # An array is a bytes-like object: ``write`` takes its buffer as is,
        # and a float32 table, trained or loaded, is written without a copy.
        handle.write(np.ascontiguousarray(matrix, dtype="<f4"))


def model_from_bytes(blob) -> NgramLangModel:
    """The model in ``blob`` (bytes or a mapping); its embedding is a float32
    view of ``blob``, not scanned for NaN, which would read all of it.  A header
    that ``_check_shape`` rejects is a ``ConfigError``; another bad blob, such
    as non-finite output weights, is a ``ValueError`` or ``struct.error``."""
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
    emb = np.frombuffer(blob, dtype="<f4", count=buckets * dim, offset=offset)
    offset += emb.nbytes
    weights = np.frombuffer(blob, dtype="<f4", count=dim * n_labels, offset=offset)
    if not np.isfinite(weights).all():
        raise ValueError("output weights are not all finite")
    return NgramLangModel(
        n_min=n_min,
        n_max=n_max,
        dim=dim,
        bucket_count=buckets,
        labels=tuple(labels),
        embeddings=emb.reshape(buckets, dim),
        output_weights=weights.reshape(dim, n_labels).astype(np.float64),
    )


def save_model(model: NgramLangModel, path) -> None:
    """Write ``model`` to ``path`` atomically.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``.  A model loaded from ``path`` maps the old file, which
    stays intact; truncating it in place would kill that reader.  If writing
    fails, ``path`` is left as it was and the temporary file is removed.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp_path = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    handle = open(tmp_path, "xb")
    try:
        with handle:
            _write_model(model, handle)
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def load_model(path) -> NgramLangModel:
    """Map a model written by ``save_model``.

    The file is mapped read-only, not read: the embedding is a view of the
    mapping, and no copy of it is made.

    Raises:
        ConfigError: the file is not a classifier model or is cut short.
    """
    import mmap

    with open(path, "rb") as handle:
        try:
            blob = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # an empty file cannot be mapped
            raise ConfigError(f"{path}: not a language model: {exc}") from None
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


class NgramLanguageScorer:
    """Scorer backed by a trained n-gram model.

    A crawl reaches the same URL from many parents, so each instance memoizes
    the distribution of up to ``CACHE_SIZE`` URLs.
    """

    def __init__(self, model: NgramLangModel):
        self.model = model
        # ``ngram_predict`` is looked up at call time, so a rebound module
        # attribute still sees every prediction.
        self._predict = lru_cache(maxsize=CACHE_SIZE)(lambda url: ngram_predict(model, url))

    def probability(self, url: str, target: str) -> float:
        return self._predict(url).get(target, 0.0)
