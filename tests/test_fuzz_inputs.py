"""Mutated input files end a command with an exit code, never a crash or a hang.

Each case runs one ``bifocal`` command through ``cli.dispatch`` on small,
valid inputs, one of which is mutated first: bytes flipped, the file cut
short, its lines shuffled, or, in a JSON file, a node replaced by a value of
the wrong type.  Whatever the mutation, the command must return 0, 1 or 2.
"""
import contextlib
import functools
import io
import json
import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bifocal.cli import dispatch
from bifocal.datasets import write_labeled_pairs

from loopback import hard_timeout
from synthdata import lang_url_corpus, parallel_pair_corpus, planted_graph

# Every command here takes well under a second on these inputs.
_TIMEOUT_S = 5.0

# Values put in place of a JSON node whose type differs from theirs.
_WRONG_TYPES = [None, True, 0, -1, 2.5, 1e308, float("nan"), "", "x", [], ["x"], {}, {"x": 1}]


def _node_paths(node, path=()):
    """The path of ``node`` and of every node below it in a JSON document."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, (*path, key))


def _replaced(node, path, value):
    """``node`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    node[path[0]] = _replaced(node[path[0]], path[1:], value)
    return node


@st.composite
def _mutated(draw, data: bytes, is_json: bool):
    """``data`` after one to three mutations."""
    kinds = ["flip", "truncate", "shuffle", *(["node"] if is_json else [])]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
        elif kind == "truncate":
            data = data[: draw(st.integers(0, len(data)))]
        elif kind == "shuffle":
            data = b"".join(draw(st.permutations(data.splitlines(keepends=True))))
        elif kind == "node":
            try:
                doc = json.loads(data)
            except ValueError:
                continue
            path = draw(st.sampled_from(list(_node_paths(doc))))
            old = functools.reduce(operator.getitem, path, doc)
            new = draw(st.sampled_from([v for v in _WRONG_TYPES if type(v) is not type(old)]))
            data = json.dumps(_replaced(doc, path, new)).encode()
    return data


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of valid inputs, named as ``_CASES`` names them; the
    mutated file goes to ``mutant/`` and commands write to ``out/``."""
    base = tmp_path_factory.mktemp("inputs")
    (base / "mutant").mkdir()
    (base / "out").mkdir()
    urls = lang_url_corpus(40, seed=1, langs=("eng", "fra"))
    (base / "urls.tsv").write_text("".join(f"{url}\t{lang}\n" for url, lang in urls))
    (base / "inventory.tsv").write_text("".join(f"{url}\tsite{i % 3}\n"
                                                for i, (url, _) in enumerate(urls)))
    assert dispatch(["langid", "train", "--data", str(base / "urls.tsv"),
                     "--model", str(base / "lang.bin"), "--buckets", "256", "--dim", "2",
                     "--epochs", "1"]) == 0

    positives, links, url_langs = parallel_pair_corpus(n_sites=3, pairs_per_site=2, seed=2)
    write_labeled_pairs(positives, base / "positives.tsv")
    (base / "links.json").write_text(json.dumps({url: list(out) for url, out in links.items()}))
    (base / "url_langs.tsv").write_text("".join(f"{u}\t{lang}\n" for u, lang in url_langs.items()))
    (base / "url_pairs.tsv").write_text("".join(f"{p.url_a}\t{p.url_b}\n" for p in positives))
    assert dispatch(["negsample", "--pairs", str(base / "positives.tsv"),
                     "--out", str(base / "negatives.tsv")]) == 0
    (base / "pairs.tsv").write_text((base / "positives.tsv").read_text()
                                    + (base / "negatives.tsv").read_text())
    assert dispatch(["pairscore", "train", "--data", str(base / "pairs.tsv"),
                     "--model", str(base / "pair.json")]) == 0

    graph, seeds = planted_graph(n_sites=2, pages_per_site=10, seed=3)
    graph.save(base / "graph.json")
    (base / "seeds.txt").write_text("".join(f"{seed}\n" for seed in seeds))
    for name, seeds_file in (("crawl.cfg", "seeds.txt"), ("mutant_seeds.cfg", "mutant/seeds.txt")):
        (base / name).write_text(f'lang_a = "eng"\nlang_b = "fra"\nseeds_file = "{base / seeds_file}"\n'
                                 f'budget = 20\ngraph = "{base / "graph.json"}"\n')
    assert dispatch(["simulate", "--config", str(base / "crawl.cfg"),
                     "--log", str(base / "log.tsv")]) == 0
    return base


# (case, the input it mutates, argv from the input directory ``b`` and the
# mutated file ``m``)
_CASES = [
    ("langid train", "urls.tsv", lambda b, m: [
        "langid", "train", "--data", m, "--model", b / "out/lang.bin", "--buckets", "256",
        "--dim", "2", "--epochs", "1"]),
    ("langid eval", "urls.tsv", lambda b, m: [
        "langid", "eval", "--model", b / "lang.bin", "--data", m]),
    ("splits", "urls.tsv", lambda b, m: [
        "splits", "--data", m, "--ratios", "0.5,0.5", "--out-prefix", b / "out/split"]),
    ("seeds", "inventory.tsv", lambda b, m: ["seeds", "--urls", m, "--top", "2"]),
    ("pairscore train", "pairs.tsv", lambda b, m: [
        "pairscore", "train", "--data", m, "--model", b / "out/pair.json"]),
    ("pairscore eval", "pairs.tsv", lambda b, m: ["pairscore", "eval", "--data", m]),
    ("negsample", "positives.tsv", lambda b, m: [
        "negsample", "--pairs", m, "--out", b / "out/negatives.tsv"]),
    ("pairscore score --pairs", "url_pairs.tsv", lambda b, m: [
        "pairscore", "score", "--pairs", m, "--lang-a", "eng", "--lang-b", "fra"]),
    ("pairscore score --model", "pair.json", lambda b, m: [
        "pairscore", "score", "--scorer", "model", "--model", m, "--url-a", "https://a.com/en/x",
        "--url-b", "https://a.com/fr/x", "--lang-a", "eng", "--lang-b", "fra"]),
    ("cv-combos --links", "links.json", lambda b, m: [
        "cv-combos", "--pairs", b / "positives.tsv", "--links", m,
        "--url-langs", b / "url_langs.tsv", "--langs", "eng,fra", "--folds", "2",
        "--out", b / "out/combos.tsv"]),
    ("simulate --config", "crawl.cfg", lambda b, m: [
        "simulate", "--config", m, "--log", b / "out/log.tsv", "--report", b / "out/report"]),
    ("simulate seeds file", "seeds.txt", lambda b, m: [
        "simulate", "--config", b / "mutant_seeds.cfg", "--log", b / "out/log.tsv"]),
    ("simulate --graph", "graph.json", lambda b, m: [
        "simulate", "--config", b / "crawl.cfg", "--graph", m, "--log", b / "out/log.tsv"]),
    ("report --graph", "graph.json", lambda b, m: [
        "report", "--log", b / "log.tsv", "--graph", m, "--out", b / "out/report"]),
    ("report --log", "log.tsv", lambda b, m: [
        "report", "--log", m, "--graph", b / "graph.json", "--out", b / "out/report"]),
]


@pytest.mark.parametrize("name, argv", [case[1:] for case in _CASES],
                         ids=[case[0] for case in _CASES])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_input_ends_with_an_exit_code(inputs, name, argv, data):
    mutant = inputs / "mutant" / name
    mutant.write_bytes(data.draw(_mutated((inputs / name).read_bytes(), name.endswith(".json"))))
    out, err = io.StringIO(), io.StringIO()
    with hard_timeout(_TIMEOUT_S), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch([str(arg) for arg in argv(inputs, mutant)])
    assert code in (0, 1, 2), err.getvalue()
