import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from bifocal.cli import dispatch, load_config
from bifocal.crawler import CrawlLog, SiteGraph
from bifocal.datasets import read_labeled_pairs, write_labeled_pairs, write_labeled_urls, LabeledUrl
from bifocal.errors import ConfigError
from bifocal.pairscore import FEATURE_NAMES

from golden import GOLDEN_NORMALIZATIONS
from loopback import hard_timeout, serve_graph
from synthdata import lang_url_corpus, parallel_pair_corpus, planted_graph, write_graph


@pytest.fixture()
def sim_setup(tmp_path):
    graph, seeds = planted_graph(n_sites=2, pages_per_site=20, seed=3)
    graph_path = tmp_path / "graph.json"
    write_graph(graph, graph_path)
    seeds_path = tmp_path / "seeds.txt"
    seeds_path.write_text("\n".join(seeds) + "\n")
    config_path = tmp_path / "crawl.cfg"
    config_path.write_text(
        "# crawl settings\n"
        'lang_a = "eng"\n'
        'lang_b = "fra"\n'
        f'seeds_file = "{seeds_path}"\n'
        "budget = 40\n"
        'lang_scorer = "rule"\n'
        'pair_scorer = "baseline"\n'
    )
    return tmp_path, graph_path, config_path


# ---------------------------------------------------------------------------
# dispatch basics

def test_unknown_subcommand_is_usage_error(capsys):
    assert dispatch(["definitely-not-a-command"]) == 2


def test_unknown_flag_is_usage_error():
    assert dispatch(["normalize", "--bogus"]) == 2


def test_no_arguments_is_usage_error():
    assert dispatch([]) == 2


def test_module_entry_point_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bifocal.cli", "simulate"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: bifocal simulate")


# Runs one command in a fresh interpreter, then prints which of the heavy
# modules it loaded and how many threads the process has (null where
# /proc/self/task does not exist).
_HEAVY = ("numpy", "numpy.random", "urllib.request", "bifocal.datasets", "bifocal.external")
_TASKS = "/proc/self/task"
_PROBE = (
    "import json, os, sys\n"
    "from bifocal.cli import dispatch\n"
    "code = dispatch(sys.argv[1:])\n"
    f"threads = len(os.listdir({_TASKS!r})) if os.path.isdir({_TASKS!r}) else None\n"
    f"print(json.dumps([code, [m for m in {_HEAVY!r} if m in sys.modules], threads]))\n"
)


def _probe(argv, openblas_threads=None):
    """(exit code, heavy modules loaded, threads at the end) of ``bifocal
    argv`` in a fresh interpreter, whose ``OPENBLAS_NUM_THREADS`` is
    ``openblas_threads`` or unset."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # Importing bifocal.cli in this process has set it, and children inherit it.
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(openblas_threads)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded, threads = json.loads(proc.stdout.splitlines()[-1])
    return code, loaded, threads


def test_commands_without_models_load_no_numpy_nor_http(sim_setup):
    tmp, graph, config = sim_setup
    log = tmp / "rule.log.tsv"
    urls = _write(tmp, "urls.tsv", "https://a.com/x\ta.com\nhttps://b.com/\tb.com\n")
    commands = [
        ["simulate", "--graph", graph, "--config", config, "--log", tmp / "bfs.log.tsv",
         "--lang-scorer", "uniform", "--pair-scorer", "uniform"],
        ["simulate", "--graph", graph, "--config", config, "--log", log, "--report", tmp / "r1"],
        ["report", "--log", log, "--graph", graph, "--out", tmp / "r2"],
        ["normalize", "https://a.com/fr/page"],
        ["seeds", "--urls", urls, "--out", tmp / "seeds.out"],
    ]
    for argv in commands:
        assert _probe(argv)[:2] == (0, []), argv


def test_langid_eval_loads_numpy_itself(tmp_path):
    data = lang_url_corpus(80, seed=2, langs=("deu", "fra"))
    train_path = tmp_path / "train.tsv"
    train_path.write_text("".join(f"{u}\t{l}\n" for u, l in data))
    model_path = tmp_path / "model.bin"
    assert dispatch(["langid", "train", "--data", str(train_path), "--model", str(model_path),
                     "--buckets", "1024", "--dim", "4", "--epochs", "2"]) == 0
    code, loaded, _ = _probe(["langid", "eval", "--model", model_path, "--data", train_path])
    assert code == 0
    assert loaded == ["numpy", "bifocal.datasets"]


def _numpy_blas() -> str:
    import numpy

    config = getattr(numpy.__config__, "CONFIG", {})
    return config.get("Build Dependencies", {}).get("blas", {}).get("name", "")


@pytest.mark.skipif(not os.path.isdir(_TASKS), reason=f"needs {_TASKS}")
@pytest.mark.skipif("openblas" not in _numpy_blas(), reason="numpy is not built on OpenBLAS")
@pytest.mark.parametrize("setting, threads", [(None, 1), (2, 2)])
def test_cli_starts_openblas_with_one_thread_unless_told(tmp_path, setting, threads):
    # OpenBLAS never starts more threads than the process has CPUs.
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip(f"needs {threads} CPUs")
    data = lang_url_corpus(80, seed=2, langs=("deu", "fra"))
    train_path = tmp_path / "train.tsv"
    train_path.write_text("".join(f"{u}\t{l}\n" for u, l in data))
    model_path = tmp_path / "model.bin"
    assert dispatch(["langid", "train", "--data", str(train_path), "--model", str(model_path),
                     "--buckets", "1024", "--dim", "4", "--epochs", "2"]) == 0
    argv = ["langid", "eval", "--model", model_path, "--data", train_path]
    code, loaded, count = _probe(argv, openblas_threads=setting)
    assert (code, "numpy" in loaded, count) == (0, True, threads)


def _model_commands(tmp):
    """``langid train``, ``pairscore train`` and ``cv-combos`` on small
    fixtures, with the files they write."""
    urls = _write(tmp, "urls.tsv", "".join(
        f"{u}\t{l}\n" for u, l in lang_url_corpus(200, seed=1, langs=("deu", "fra"))))
    positives, link_map, lang_map = parallel_pair_corpus(n_sites=5, pairs_per_site=3, seed=5)
    pairs = tmp / "pos.tsv"
    write_labeled_pairs(positives, pairs)
    assert dispatch(["negsample", "--pairs", str(pairs), "--seed", "1",
                     "--out", str(tmp / "neg.tsv")]) == 0
    labeled = tmp / "labeled.tsv"
    write_labeled_pairs(positives + read_labeled_pairs(tmp / "neg.tsv"), labeled)
    links = _write(tmp, "links.json", json.dumps({u: list(v) for u, v in link_map.items()}))
    langs = _write(tmp, "url_langs.tsv", "".join(f"{u}\t{l}\n" for u, l in lang_map.items()))
    return [
        (["langid", "train", "--data", urls, "--model", tmp / "lang.bin",
          "--buckets", "4096", "--dim", "8", "--seed", "3"], tmp / "lang.bin"),
        (["pairscore", "train", "--data", labeled, "--model", tmp / "pair.json"], tmp / "pair.json"),
        (["cv-combos", "--pairs", pairs, "--links", links, "--url-langs", langs,
          "--langs", "eng,fra", "--folds", "3", "--out", tmp / "combos.tsv"], tmp / "combos.tsv"),
    ]


def test_openblas_threads_do_not_change_a_model(tmp_path, capsys):
    commands = _model_commands(tmp_path)
    outputs = {}
    for threads in (1, 2):
        for argv, path in commands:
            assert _probe(argv, openblas_threads=threads)[0] == 0, argv
            outputs.setdefault(path.name, []).append(path.read_bytes())
            path.unlink()
    for name, (one, two) in outputs.items():
        assert one == two, name


def test_normalize_output(capsys, monkeypatch):
    assert dispatch(["normalize", "https://a.com/contact-us"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "<s> a . com / contact - us </s>"
    # Without URL arguments the URLs come from stdin, one a line.
    monkeypatch.setattr(sys, "stdin", io.StringIO("https://a.com/contact-us\n\nhttps://b.org\n"))
    assert dispatch(["normalize"]) == 0
    assert capsys.readouterr().out == "<s> a . com / contact - us </s>\n<s> b . org </s>\n"
    # The golden suite: each line is the hand-derived tokens, sentinels included.
    assert dispatch(["normalize", *[raw for raw, _ in GOLDEN_NORMALIZATIONS]]) == 0
    assert capsys.readouterr().out.split("\n")[:-1] == [
        " ".join(expected) for _, expected in GOLDEN_NORMALIZATIONS]


# ---------------------------------------------------------------------------
# Config

def test_load_config_minimal(tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("https://a.com/\n")
    path = tmp_path / "c.cfg"
    path.write_text(f'lang_a = "eng"\nlang_b = "fra"\nseeds_file = "{seeds}"\nbudget = 10\n')
    cfg = load_config(path)
    assert cfg["lang_a"] == "eng" and cfg["budget"] == 10


def test_config_unknown_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("mystery_knob = 3\n")
    with pytest.raises(ConfigError, match="mystery_knob"):
        load_config(path)


def test_config_type_error(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text('budget = "lots"\n')
    with pytest.raises(ConfigError, match="budget"):
        load_config(path)


def test_config_boolean_is_not_an_integer(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("budget = true\n")
    with pytest.raises(ConfigError, match="budget"):
        load_config(path)


def test_config_missing_referenced_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text('seeds_file = "nope.txt"\n')
    with pytest.raises(ConfigError, match="seeds_file"):
        load_config(path)


def test_config_missing_lang_b_fails_simulate(sim_setup, tmp_path):
    tmp, graph_path, _ = sim_setup
    seeds = tmp / "seeds.txt"
    bad = tmp / "bad.cfg"
    bad.write_text(f'lang_a = "eng"\nseeds_file = "{seeds}"\nbudget = 10\n')
    code = dispatch([
        "simulate", "--graph", str(graph_path), "--config", str(bad),
        "--log", str(tmp / "log.tsv"),
    ])
    assert code == 1


@pytest.mark.parametrize("flags", [
    ["--lang-scorer", "no-such-scorer"],
    ["--pair-scorer", "model"],  # and no pair_model_path
    ["--lang-scorer", "external:localhost:port"],
    ["--lang-scorer", "ngram"],  # and no lang_model_path
    ["--pair-scorer", "no-such-scorer"],
])
def test_bad_scorer_choice_is_a_config_error(sim_setup, capsys, flags):
    tmp, graph_path, config_path = sim_setup
    code = dispatch([
        "simulate", "--graph", str(graph_path), "--config", str(config_path),
        "--log", str(tmp / "log.tsv"), *flags,
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def _asymmetric_graph(tmp):
    path = tmp / "asymmetric.json"
    path.write_text(json.dumps({"pages": {
        "https://a.com/en": {"lang": "eng", "parallel_with": ["https://a.com/fr"]},
        "https://a.com/fr": {"lang": "fra"},
    }}))
    return path


def _graph_page(tmp, **fields):
    """A two-page graph whose English page has ``fields`` as well."""
    path = tmp / "page.json"
    path.write_text(json.dumps({"pages": {
        "https://a.com/en": {"lang": "eng", **fields},
        "https://a.com/fr": {"lang": "fra"},
    }}))
    return path


def _short_log(tmp):
    path = tmp / "short.tsv"
    path.write_text("0\thttps://a.com/\tstored\teng\n")
    return path


def _write(tmp, name, text):
    path = tmp / name
    path.write_text(text)
    return path


def _write_bytes(tmp, name, data):
    path = tmp / name
    path.write_bytes(data)
    return path


def _schema_2_model(tmp):
    return _write(tmp, "schema2.json", json.dumps({
        "schema_version": 2, "feature_names": [], "weights": [], "bias": 0.0,
    }))


def _short_weights_model(tmp):
    return _write(tmp, "short_weights.json", json.dumps({
        "schema_version": 1, "feature_names": list(FEATURE_NAMES), "weights": [1.0], "bias": 0.0,
    }))


def _cv_combos(tmp, links):
    pairs = _write(tmp, "pairs.tsv",
                   "https://a.com/en\thttps://a.com/fr\tpositive\teng\tfra\tgold:bi\n")
    langs = _write(tmp, "langs.tsv", "https://a.com/en\teng\nhttps://a.com/fr\tfra\n")
    return ["cv-combos", "--pairs", str(pairs), "--links", str(links),
            "--url-langs", str(langs), "--langs", "eng,fra", "--out", str(tmp / "cv.tsv")]


def _ngram_config(tmp, config, model):
    """The simulate config with the n-gram language scorer reading ``model``."""
    return _write(tmp, "ngram.cfg",
                  config.read_text() + f'lang_scorer = "ngram"\nlang_model_path = "{model}"\n')


def _empty_seeds(tmp, graph, config):
    _write(tmp, "seeds.txt", "\n")
    return ["simulate", "--graph", str(graph), "--config", str(config), "--log", str(tmp / "l.tsv")]


def _splits(tmp, ratios):
    urls = _write(tmp, "urls.tsv", "https://a.com/x\teng\nhttps://b.com/y\tfra\n")
    return ["splits", "--data", str(urls), "--ratios", ratios, "--out-prefix", str(tmp / "s")]


def _simulate_with_config_line(line):
    return lambda tmp, graph, config: [
        "simulate", "--graph", str(graph), "--log", str(tmp / "l.tsv"),
        "--config", str(_write(tmp, "extra.cfg", config.read_text() + line + "\n"))]


def _report_on_first_row(first_row):
    """``report`` on a two-row log: ``first_row``, then a good stored row."""
    return lambda tmp, graph, config: [
        "report", "--out", str(tmp / "rep"), "--graph", str(graph), "--log", str(_write(
            tmp, "log.tsv", first_row + "\n2\thttps://a.com/x\tstored\teng\t0.5\n"))]


def _pair_command(command):
    """``pairscore`` ``command`` on a positive, a negative and a ``Positive`` row."""
    pairs = "".join(f"https://a.com/en\thttps://a.com/{path}\t{label}\teng\tfra\tgold:bi\n"
                    for path, label in (("fr", "positive"), ("de", "negative"), ("fr2", "Positive")))
    return lambda tmp, graph, config: [
        "pairscore", command, "--data", str(_write(tmp, "cased.tsv", pairs)),
        *(["--model", str(tmp / "p.json")] if command == "train" else [])]


def _model_file(tmp, n_min=2, n_max=4, dim=2, buckets=4, labels=("eng", "fra"), row_ids=()):
    """A language model file with this header, seed 0, the stored rows
    ``row_ids`` and all-zero rows and output weights."""
    blob = b"NGLM" + struct.pack("<IIIIII", 2, n_min, n_max, dim, buckets, len(labels))
    for label in labels:
        blob += struct.pack("<I", len(label)) + label.encode()
    blob += struct.pack(f"<QI{len(row_ids)}I", 0, len(row_ids), *row_ids)
    path = tmp / "header.bin"
    path.write_bytes(blob + bytes(4 * dim * (len(row_ids) + len(labels))))
    return path


def _predict_with_header(**header):
    return lambda tmp, graph, config: [
        "langid", "predict", "--model", str(_model_file(tmp, **header)), "https://a.com/"]


def _latin1_seeds(tmp, graph, config):
    seeds = _write_bytes(tmp, "latin1_seeds.txt", b"https://a.com/\xe9\n")
    return _simulate_with_config_line(f'seeds_file = "{seeds}"')(tmp, graph, config)


def _pair_model(tmp, bias):
    """A pair model file with zero weights and ``bias``; ``json`` writes a NaN
    as ``NaN``, which it also reads back."""
    return _write(tmp, "bias.json", json.dumps({
        "schema_version": 1, "feature_names": list(FEATURE_NAMES),
        "weights": [0.0] * len(FEATURE_NAMES), "bias": bias,
    }))


def _pair_model_config(tmp, config, model):
    """The simulate config with the model pair scorer reading ``model``."""
    return _write(tmp, "model.cfg",
                  config.read_text() + f'pair_scorer = "model"\npair_model_path = "{model}"\n')


def _nan_weight_model(tmp):
    """A language model file whose last output weight is NaN."""
    path = _model_file(tmp)
    path.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", float("nan")))
    return path


def _nan_embedding_model(tmp):
    """A language model file (eng, fra; 4 buckets, dim 2) that stores all 4
    rows, all NaN, and whose output weights are 0."""
    path = _model_file(tmp, row_ids=(0, 1, 2, 3))
    blob = path.read_bytes()
    weights = 4 * 2 * 2
    embedding = struct.pack("<8f", *[float("nan")] * 8)
    path.write_bytes(blob[:-weights - len(embedding)] + embedding + blob[-weights:])
    return path


def _negsample(strategies):
    pairs = "https://a.com/en\thttps://a.com/fr\tpositive\teng\tfra\tgold:bi\n"
    return lambda tmp, graph, config: [
        "negsample", "--pairs", str(_write(tmp, "pos.tsv", pairs)), "--strategies", strategies,
        "--out", str(tmp / "neg.tsv")]


# (case, argv from (tmp dir, graph, config), text the error line must contain)
_BAD_INPUTS = [
    ("missing config",
     lambda tmp, graph, config: ["simulate", "--graph", str(graph),
                                 "--config", str(tmp / "nope.conf"), "--log", str(tmp / "l.tsv")],
     "nope.conf"),
    ("missing graph",
     lambda tmp, graph, config: ["simulate", "--graph", str(tmp / "nope.json"),
                                 "--config", str(config), "--log", str(tmp / "l.tsv")],
     "nope.json"),
    ("asymmetric graph",
     lambda tmp, graph, config: ["simulate", "--graph", str(_asymmetric_graph(tmp)),
                                 "--config", str(config), "--log", str(tmp / "l.tsv")],
     "not symmetric"),
    ("4-column log row",
     lambda tmp, graph, config: ["report", "--log", str(_short_log(tmp)),
                                 "--graph", str(graph), "--out", str(tmp / "rep")],
     "short.tsv:1:"),
    ("5-column pair row",
     lambda tmp, graph, config: ["negsample", "--pairs", str(_write(
         tmp, "pairs5.tsv", "https://a.com/en\thttps://a.com/fr\tpositive\teng\tfra\n")),
                                 "--out", str(tmp / "neg.tsv")],
     "pairs5.tsv:1:"),
    ("malformed pair model",
     lambda tmp, graph, config: ["pairscore", "score", "--scorer", "model",
                                 "--model", str(_write(tmp, "bad.json", "{not json")),
                                 "--url-a", "https://a.com/en", "--url-b", "https://a.com/fr"],
     "bad.json"),
    ("pair model schema 2",
     lambda tmp, graph, config: ["pairscore", "score", "--scorer", "model",
                                 "--model", str(_schema_2_model(tmp)),
                                 "--url-a", "https://a.com/en", "--url-b", "https://a.com/fr"],
     "schema2.json"),
    ("malformed links",
     lambda tmp, graph, config: _cv_combos(tmp, _write(tmp, "links.json", "{not json")),
     "links.json"),
    ("links that are a list",
     lambda tmp, graph, config: _cv_combos(tmp, _write(tmp, "list_links.json", "[1, 2]")),
     "list_links.json"),
    ("link targets that are a string",
     lambda tmp, graph, config: _cv_combos(tmp, _write(
         tmp, "str_links.json", '{"https://a.com/en": "https://a.com/fr"}')),
     "str_links.json: not a JSON object of URL lists: expected a list of URL strings"),
    ("graph links that are a string",
     lambda tmp, graph, config: ["simulate", "--config", str(config), "--log", str(tmp / "l.tsv"),
                                 "--graph", str(_graph_page(tmp, links="https://a.com/fr"))],
     "page.json: not a site graph: TypeError(\"expected a list of URL strings, got 'https"),
    ("graph partners that are a string",
     lambda tmp, graph, config: ["simulate", "--config", str(config), "--log", str(tmp / "l.tsv"),
                                 "--graph", str(_graph_page(tmp, parallel_with="https://a.com/fr"))],
     "page.json: not a site graph: TypeError(\"expected a list of URL strings, got 'https"),
    ("graph lang that is a number",
     lambda tmp, graph, config: ["simulate", "--config", str(config), "--log", str(tmp / "l.tsv"),
                                 "--graph", str(_graph_page(tmp, lang=123))],
     "page.json: not a site graph: TypeError('expected a language code string, got 123')"),
    ("graph lang that is a list",
     lambda tmp, graph, config: ["simulate", "--config", str(config), "--log", str(tmp / "l.tsv"),
                                 "--graph", str(_graph_page(tmp, lang=["fra"]))],
     "page.json: not a site graph: TypeError(\"expected a language code string, got ['fra']\")"),
    ("graph link with a tab",
     lambda tmp, graph, config: ["simulate", "--config", str(_live_config(tmp, "https://a.com/en")),
                                 "--log", str(tmp / "l.tsv"),
                                 "--graph", str(_graph_page(tmp, links=["https://a.com/x\ty"]))],
     "page.json: not a site graph: ValueError(\"page 'https://a.com/en' has a tab or line break in "
     "its URL, language, links or partners"),
    ("graph partner with a carriage return",
     lambda tmp, graph, config: ["simulate", "--config", str(_live_config(tmp, "https://a.com/en")),
                                 "--log", str(tmp / "l.tsv"),
                                 "--graph", str(_graph_page(tmp, parallel_with=["https://a.com/fr\r"]))],
     "page.json: not a site graph: ValueError(\"page 'https://a.com/en' has a tab or line break in "
     "its URL, language, links or partners"),
    ("graph page URL with a line feed",
     lambda tmp, graph, config: ["simulate", "--config", str(_live_config(tmp, "https://a.com/en")),
                                 "--log", str(tmp / "l.tsv"),
                                 "--graph", str(_write(tmp, "lf.json", json.dumps({"pages": {
                                     "https://a.com/\n": {"lang": "eng"},
                                     "https://a.com/en": {"lang": "eng", "links": ["https://a.com/\n"]},
                                 }})))],
     "lf.json: not a site graph: ValueError(\"page 'https://a.com/\\\\n' has a tab or line break in "
     "its URL, language, links or partners"),
    ("graph lang with a tab",
     lambda tmp, graph, config: ["simulate", "--config", str(_live_config(tmp, "https://a.com/en")),
                                 "--log", str(tmp / "l.tsv"),
                                 "--graph", str(_write(tmp, "de.json", json.dumps({"pages": {
                                     "https://a.com/en": {"lang": "eng", "links": ["https://a.com/de"]},
                                     "https://a.com/de": {"lang": "de\tu"},
                                 }})))],
     "de.json: not a site graph: ValueError(\"page 'https://a.com/de' has a tab or line break in "
     "its URL, language, links or partners"),
    ("seed with a tab",
     lambda tmp, graph, config: ["simulate", "--graph", str(graph), "--log", str(tmp / "l.tsv"),
                                 "--config", str(_live_config(tmp, "https://a.com/x\ty"))],
     "seed URL 'https://a.com/x\\ty' holds a tab or line break"),
    ("pairscore score with only --url-a",
     lambda tmp, graph, config: ["pairscore", "score", "--url-a", "https://a.com/en"],
     "--url-a and --url-b score one pair together"),
    ("pairscore score with --pairs and a pair",
     lambda tmp, graph, config: ["pairscore", "score", "--pairs", str(_write(
         tmp, "pairs.tsv", "https://a.com/en\thttps://a.com/fr\n")),
                                 "--url-a", "https://b.com/en", "--url-b", "https://b.com/fr"],
     "--pairs and --url-a/--url-b"),
    ("pairscore score with only --url-b",
     lambda tmp, graph, config: ["pairscore", "score", "--url-b", "https://a.com/fr"],
     "--url-a and --url-b score one pair together"),
    ("malformed graph",
     lambda tmp, graph, config: ["simulate", "--graph", str(_write(tmp, "g.json", "[1, 2")),
                                 "--config", str(config), "--log", str(tmp / "l.tsv")],
     "g.json"),
    ("language model of another format",
     lambda tmp, graph, config: ["langid", "predict", "--model",
                                 str(_write(tmp, "garbage.bin", "not a model")), "https://a.com/"],
     "garbage.bin"),
    ("language model cut after its magic",
     lambda tmp, graph, config: ["langid", "predict", "--model",
                                 str(_write(tmp, "cut.bin", "NGLM\x01")), "https://a.com/"],
     "cut.bin"),
    ("simulate with a bad language model",
     lambda tmp, graph, config: ["simulate", "--graph", str(graph), "--log", str(tmp / "l.tsv"),
                                 "--config", str(_ngram_config(
                                     tmp, config, _write(tmp, "garbage.bin", "not a model")))],
     "garbage.bin"),
    ("pair model without feature names",
     lambda tmp, graph, config: ["pairscore", "score", "--scorer", "model",
                                 "--model", str(_write(tmp, "v1.json", '{"schema_version": 1}')),
                                 "--url-a", "https://a.com/en", "--url-b", "https://a.com/fr"],
     "v1.json"),
    ("pair model with too few weights",
     lambda tmp, graph, config: ["pairscore", "score", "--scorer", "model",
                                 "--model", str(_short_weights_model(tmp)),
                                 "--url-a", "https://a.com/en", "--url-b", "https://a.com/fr"],
     "short_weights.json"),
    ("graph page without lang",
     lambda tmp, graph, config: ["simulate", "--config", str(config), "--log", str(tmp / "l.tsv"),
                                 "--graph", str(_write(
                                     tmp, "nolang.json", '{"pages": {"https://a.com/": {}}}'))],
     "nolang.json"),
    ("graph that is a list",
     lambda tmp, graph, config: ["simulate", "--graph", str(_write(tmp, "list.json", "[1, 2]")),
                                 "--config", str(config), "--log", str(tmp / "l.tsv")],
     "list.json"),
    ("pair row without a tab",
     lambda tmp, graph, config: ["pairscore", "score", "--pairs", str(_write(
         tmp, "notab.tsv", "https://a.com/en\thttps://a.com/fr\nhttps://a.com/en\n"))],
     "notab.tsv:2:"),
    ("URL row without a label",
     lambda tmp, graph, config: ["langid", "train", "--data", str(_write(
         tmp, "nolabel.tsv", "https://a.com/en/x\teng\nhttps://a.com/fr/x\tfra\nhttps://a.com/x\n")),
         "--model", str(tmp / "lang.bin")],
     "nolabel.tsv:3:"),
    ("ratios that are not numbers",
     lambda tmp, graph, config: _splits(tmp, "a,b"),
     "--ratios a,b"),
    ("ratios that do not sum to 1",
     lambda tmp, graph, config: _splits(tmp, "0.5,0.4"),
     "--ratios 0.5,0.4"),
    ("empty seeds file", _empty_seeds, "at least one seed"),
    ("config with the removed seed key", _simulate_with_config_line("seed = 3"),
     "unknown key 'seed'"),
    ("config with a negative max_depth", _simulate_with_config_line("max_depth = -1"),
     "max_depth must be at least 0"),
    ("config with a negative per_host_delay_ms",
     _simulate_with_config_line("per_host_delay_ms = -5"), "per_host_delay_ms must be at least 0"),
    ("config with lang_a equal to lang_b", _simulate_with_config_line('lang_b = "eng"'),
     "crawl needs two distinct languages"),
    ("config with budget 0", _simulate_with_config_line("budget = 0"), "budget must be positive"),
    ("log row with an unknown outcome", _report_on_first_row("1\thttps://a.com/\tbogus\teng\tSEED"),
     "log.tsv:1: bad crawl log row: outcome 'bogus'"),
    *[(f"log row with priority {priority}",
       _report_on_first_row(f"1\thttps://a.com/\tstored\teng\t{priority}"),
       f"log.tsv:1: bad crawl log row: priority '{priority}'")
      for priority in ("inf", "nan", "1.5")],
    ("URL row with three fields",
     lambda tmp, graph, config: ["langid", "train", "--data", str(_write(
         tmp, "extra.tsv", "https://a.com/en/x\teng\textra\nhttps://a.com/fr/x\tfra\n")),
         "--model", str(tmp / "lang.bin")],
     "extra.tsv:1: URL row has 3 tab fields, not 2"),
    ("url-langs row with three fields",
     lambda tmp, graph, config: _cv_combos(tmp, _write(tmp, "links.json", "{}")) + [
         "--url-langs",
         str(_write(tmp, "langs3.tsv", "https://a.com/en\teng\nhttps://a.com/fr\tfra\tx\n"))],
     "langs3.tsv:2: URL row has 3 tab fields, not 2"),
    ("pair row with three fields",
     lambda tmp, graph, config: ["pairscore", "score", "--pairs", str(_write(
         tmp, "three.tsv", "https://a.com/en\thttps://a.com/fr\tpositive\n"))],
     "three.tsv:1: URL pair row has 3 tab fields, not 2"),
    ("pair label Positive in pairscore train", _pair_command("train"),
     "cased.tsv:3: pair label 'Positive' is not positive or negative"),
    ("pair label Positive in pairscore eval", _pair_command("eval"),
     "cased.tsv:3: pair label 'Positive' is not positive or negative"),
    ("language model with 0 buckets", _predict_with_header(buckets=0),
     "header.bin: not a language model: need 1 <= n_min <= n_max, bucket_count >= 1 and dim >= 1"),
    ("language model with n_min above n_max", _predict_with_header(n_min=3, n_max=2),
     "got n_min=3, n_max=2"),
    ("language model with n_min 0", _predict_with_header(n_min=0), "got n_min=0, n_max=4"),
    ("language model without labels", _predict_with_header(labels=()),
     "header.bin: not a language model: need at least 2 labels, got ()"),
    ("language model with dim 0", _predict_with_header(dim=0), "bucket_count=4, dim=0"),
    ("unknown negsample strategy", _negsample("random_match:bi,random_match:tri"),
     "unknown strategy 'random_match:tri'"),
    ("negsample strategies of only commas", _negsample(",,"), "no strategies given"),
    ("URL file that is not UTF-8",
     lambda tmp, graph, config: ["splits", "--out-prefix", str(tmp / "s"), "--data", str(
         _write_bytes(tmp, "latin1.tsv", b"https://a.com/\xe9\teng\n"))],
     "latin1.tsv: not UTF-8 text"),
    ("config that is not UTF-8",
     lambda tmp, graph, config: ["simulate", "--graph", str(graph), "--log", str(tmp / "l.tsv"),
                                 "--config", str(_write_bytes(tmp, "utf16.cfg", b"\xff\xfeb\x00"))],
     "utf16.cfg: not UTF-8 text"),
    ("seeds file that is not UTF-8", _latin1_seeds, "latin1_seeds.txt: not UTF-8 text"),
    ("pair model with a NaN bias",
     lambda tmp, graph, config: ["pairscore", "score", "--scorer", "model",
                                 "--model", str(_pair_model(tmp, float("nan"))),
                                 "--url-a", "https://a.com/en", "--url-b", "https://a.com/fr"],
     "bias.json: pair model weights and bias must be finite"),
    ("simulate with a NaN pair bias",
     lambda tmp, graph, config: ["simulate", "--graph", str(graph), "--log", str(tmp / "l.tsv"),
                                 "--config", str(_pair_model_config(
                                     tmp, config, _pair_model(tmp, float("nan"))))],
     "bias.json: pair model weights and bias must be finite"),
    ("language model with a NaN output weight",
     lambda tmp, graph, config: ["langid", "predict", "--model", str(_nan_weight_model(tmp)),
                                 "https://a.com/"],
     "header.bin: not a language model: output weights are not all finite"),
    ("simulate with a NaN output weight",
     lambda tmp, graph, config: ["simulate", "--graph", str(graph), "--log", str(tmp / "l.tsv"),
                                 "--config", str(_ngram_config(tmp, config, _nan_weight_model(tmp)))],
     "header.bin: not a language model: output weights are not all finite"),
    ("langid predict with a NaN embedding",
     lambda tmp, graph, config: ["langid", "predict", "--model", str(_nan_embedding_model(tmp)),
                                 "https://a.com/fr/x"],
     "header.bin: not a language model: stored embedding rows are not all finite"),
    ("langid eval with a NaN embedding",
     lambda tmp, graph, config: ["langid", "eval", "--model", str(_nan_embedding_model(tmp)),
                                 "--data", str(_write(tmp, "gold.tsv", "https://a.com/fr/x\tfra\n"))],
     "header.bin: not a language model: stored embedding rows are not all finite"),
    ("pair model with other feature names",
     lambda tmp, graph, config: ["pairscore", "score", "--scorer", "model",
                                 "--model", str(_write(tmp, "names.json", json.dumps({
                                     "schema_version": 1, "feature_names": ["x"], "weights": [0.0],
                                     "bias": 0.0}))),
                                 "--url-a", "https://a.com/en", "--url-b", "https://a.com/fr"],
     "names.json: pair model feature schema mismatch"),
    ("config line without =", _simulate_with_config_line("budget 40"),
     "extra.cfg:8: expected 'key = value'"),
    ("simulate without a graph",
     lambda tmp, graph, config: ["simulate", "--config", str(config), "--log", str(tmp / "l.tsv")],
     "simulate needs --graph or a 'graph' config key"),
    ("graph that is not UTF-8",
     lambda tmp, graph, config: ["simulate", "--config", str(config), "--log", str(tmp / "l.tsv"),
                                 "--graph", str(_write_bytes(tmp, "latin1.json", b'{"\xe9": 1}'))],
     "latin1.json: site graph is not JSON"),
]


@pytest.mark.parametrize("argv, expected", [case[1:] for case in _BAD_INPUTS],
                         ids=[case[0] for case in _BAD_INPUTS])
def test_bad_input_file_is_an_error_line(sim_setup, capsys, argv, expected):
    tmp, graph_path, config_path = sim_setup
    assert dispatch(argv(tmp, graph_path, config_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err
    assert err.count("\n") == 1


def _langid_train(tmp, *flags):
    data = _write(tmp, "two_langs.tsv", "https://a.com/en/x\teng\nhttps://a.com/fr/x\tfra\n")
    return ["langid", "train", "--data", str(data), "--model", str(tmp / "lang.bin"), *flags]


def _diverging_langid_train(tmp):
    """40 English and French URLs, on which a learning rate of 50 diverges."""
    rows = "".join(f"{url}\t{lang}\n" for url, lang in lang_url_corpus(40, seed=3, langs=("eng", "fra")))
    data = _write(tmp, "eng_fra.tsv", rows)
    return ["langid", "train", "--data", str(data), "--model", str(tmp / "lang.bin"),
            "--learning-rate", "50", "--buckets", "4096"]


def _seeds(tmp, top):
    urls = _write(tmp, "inventory.tsv", "https://big.com/a\tbig.com\nhttps://small.net/x\tsmall.net\n")
    return ["seeds", "--urls", str(urls), "--top", top, "--out", str(tmp / "seeds_out.txt")]


# (case, argv from the tmp dir, text the error line must contain, file that must not be written)
_BAD_NUMBERS = [
    ("langid n-min 0", lambda tmp: _langid_train(tmp, "--n-min", "0"), "n_min <= n_max", "lang.bin"),
    ("langid n-max below n-min", lambda tmp: _langid_train(tmp, "--n-min", "3", "--n-max", "2"),
     "n_min <= n_max", "lang.bin"),
    ("langid buckets 0", lambda tmp: _langid_train(tmp, "--buckets", "0"), "bucket_count >= 1",
     "lang.bin"),
    ("langid dim 0", lambda tmp: _langid_train(tmp, "--dim", "0"), "dim >= 1", "lang.bin"),
    ("langid epochs 0", lambda tmp: _langid_train(tmp, "--epochs", "0"), "epochs >= 1", "lang.bin"),
    ("langid epochs -1", lambda tmp: _langid_train(tmp, "--epochs", "-1"), "epochs >= 1",
     "lang.bin"),
    *[(f"langid learning rate {rate}", lambda tmp, rate=rate: _langid_train(
        tmp, "--learning-rate", rate), "finite learning_rate > 0", "lang.bin")
      for rate in ("0", "-5", "nan", "inf")],
    ("langid seed -1", lambda tmp: _langid_train(tmp, "--seed", "-1"), "need a seed >= 0, got -1",
     "lang.bin"),
    ("langid seed 2**64", lambda tmp: _langid_train(tmp, "--seed", str(1 << 64)),
     "need a seed below 2**64, the model file's limit", "lang.bin"),
    ("langid learning rate 50 diverges", _diverging_langid_train,
     "training diverged: a trained embedding row or output weight is not finite", "lang.bin"),
    ("cv-combos folds 1",
     lambda tmp: _cv_combos(tmp, _write(tmp, "links.json", "{}")) + ["--folds", "1"],
     "at least 2 folds", "cv.tsv"),
    ("cv-combos folds 0",
     lambda tmp: _cv_combos(tmp, _write(tmp, "links.json", "{}")) + ["--folds", "0"],
     "at least 2 folds", "cv.tsv"),
    ("cv-combos folds -2",
     lambda tmp: _cv_combos(tmp, _write(tmp, "links.json", "{}")) + ["--folds", "-2"],
     "at least 2 folds", "cv.tsv"),
    ("splits ratios nan,nan", lambda tmp: _splits(tmp, "nan,nan"), "--ratios nan,nan: ratios must",
     "s.train.tsv"),
    ("seeds top 0", lambda tmp: _seeds(tmp, "0"), "at least 1 site", "seeds_out.txt"),
    ("seeds top -1", lambda tmp: _seeds(tmp, "-1"), "at least 1 site", "seeds_out.txt"),
]


@pytest.mark.parametrize("argv, expected, output", [case[1:] for case in _BAD_NUMBERS],
                         ids=[case[0] for case in _BAD_NUMBERS])
def test_out_of_range_number_is_an_error_line(tmp_path, capsys, argv, expected, output):
    assert dispatch(argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err
    assert not (tmp_path / output).exists()


def test_langid_train_refuses_a_size_the_model_file_cannot_hold(tmp_path, capsys, monkeypatch):
    from bifocal import langid

    def allocate(*args):
        raise AssertionError("the embedding table was allocated before the shape was checked")

    monkeypatch.setattr(langid, "_initial_rows", allocate)
    assert dispatch(_langid_train(tmp_path, "--buckets", str(1 << 32), "--dim", "1")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "below 2**32" in err and "bucket_count=4294967296" in err
    assert not (tmp_path / "lang.bin").exists()


def test_langid_train_with_the_largest_table_the_model_file_holds_stays_small(tmp_path, capsys):
    # 2**32 - 1 rows of 4 float32 would be 64 GiB; only the trained rows are
    # made.  The modules are imported first, so the peak is the command's own.
    import numpy  # noqa: F401
    from bifocal import datasets, langid  # noqa: F401

    tracemalloc.start()
    try:
        assert dispatch(_langid_train(tmp_path, "--buckets", str((1 << 32) - 1), "--dim", "4")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert dispatch(["langid", "predict", "--model", str(tmp_path / "lang.bin"),
                     "https://a.com/fr/x", "https://b.org/unseen/words"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("https://a.com/fr/x\tfra\t")


def test_pair_model_with_a_huge_negative_bias_scores_0(sim_setup, capsys):
    tmp, graph, config = sim_setup
    model = _pair_model(tmp, -1000.0)
    assert dispatch(["pairscore", "score", "--scorer", "model", "--model", str(model),
                     "--url-a", "https://a.com/en", "--url-b", "https://a.com/fr"]) == 0
    assert capsys.readouterr().out == "https://a.com/en\thttps://a.com/fr\t0.000000\n"
    assert dispatch(["simulate", "--graph", str(graph), "--log", str(tmp / "l.tsv"),
                     "--config", str(_pair_model_config(tmp, config, model))]) == 0


def test_pairscore_train_has_no_seed_flag(tmp_path):
    pairs = _write(tmp_path, "pairs.tsv",
                   "https://a.com/en\thttps://a.com/fr\tpositive\teng\tfra\tgold:bi\n")
    assert dispatch(["pairscore", "train", "--data", str(pairs), "--model", str(tmp_path / "p.json"),
                     "--seed", "3"]) == 2


def test_flag_overrides_config(sim_setup):
    tmp, graph_path, config_path = sim_setup
    log_path = tmp / "log.tsv"
    assert dispatch([
        "simulate", "--graph", str(graph_path), "--config", str(config_path),
        "--log", str(log_path), "--budget", "5",
    ]) == 0
    assert len(CrawlLog.from_tsv(log_path)) == 5


# ---------------------------------------------------------------------------
# simulate + report

def test_simulate_writes_deterministic_log_and_report(sim_setup):
    tmp, graph_path, config_path = sim_setup
    log1, log2 = tmp / "log1.tsv", tmp / "log2.tsv"
    report_dir = tmp / "report"
    assert dispatch([
        "simulate", "--graph", str(graph_path), "--config", str(config_path),
        "--log", str(log1), "--report", str(report_dir),
    ]) == 0
    assert dispatch([
        "simulate", "--graph", str(graph_path), "--config", str(config_path),
        "--log", str(log2),
    ]) == 0
    assert log1.read_bytes() == log2.read_bytes()
    assert (report_dir / "curve_aggregate.tsv").exists()
    assert (report_dir / "curve_by_site.tsv").exists()
    summary = dict(
        line.split("\t") for line in (report_dir / "summary.tsv").read_text().splitlines()
    )
    assert int(summary["fetch_events"]) == 40


def test_traced_simulate_logs_what_an_untraced_one_logs(sim_setup):
    # perfbench/traced.py shims the crawl's scorers; the shims must see both
    # trained models and leave the log as it is.
    tmp, graph_path, config_path = sim_setup
    assert dispatch(_langid_train(tmp, "--buckets", "4096", "--dim", "4")) == 0
    config = _pair_model_config(tmp, _ngram_config(tmp, config_path, tmp / "lang.bin"),
                                _pair_model(tmp, -1.0))
    argv = ["simulate", "--graph", str(graph_path), "--config", str(config), "--log"]
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    counters = tmp / "counters.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced.py"), str(counters), "--",
         *argv, str(tmp / "traced.tsv")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert dispatch([*argv, str(tmp / "untraced.tsv")]) == 0
    assert (tmp / "traced.tsv").read_bytes() == (tmp / "untraced.tsv").read_bytes()
    values = json.loads(counters.read_text())
    assert values["langid.score_calls"] > 0
    assert values["pairscore.score_calls"] > 0


def test_report_command_round_trip(sim_setup):
    tmp, graph_path, config_path = sim_setup
    log_path = tmp / "log.tsv"
    out_dir = tmp / "rep"
    dispatch(["simulate", "--graph", str(graph_path), "--config", str(config_path),
              "--log", str(log_path)])
    assert dispatch(["report", "--log", str(log_path), "--graph", str(graph_path),
                     "--out", str(out_dir)]) == 0
    aggregate = (out_dir / "curve_aggregate.tsv").read_text().splitlines()
    assert aggregate[1] == "0\t0"


def test_report_command_writes_the_simulate_report(sim_setup):
    tmp, graph_path, config_path = sim_setup
    log_path = tmp / "log.tsv"
    assert dispatch(["simulate", "--graph", str(graph_path), "--config", str(config_path),
                     "--log", str(log_path), "--report", str(tmp / "sim_rep")]) == 0
    assert dispatch(["report", "--log", str(log_path), "--graph", str(graph_path),
                     "--out", str(tmp / "rep")]) == 0
    names = sorted(os.listdir(tmp / "sim_rep"))
    assert names == sorted(os.listdir(tmp / "rep"))
    for name in names:
        assert (tmp / "rep" / name).read_bytes() == (tmp / "sim_rep" / name).read_bytes()
    assert "parallel_hits\t0\n" not in (tmp / "rep" / "summary.tsv").read_text()


def test_report_needs_the_graph(sim_setup):
    tmp, graph_path, config_path = sim_setup
    log_path = tmp / "log.tsv"
    assert dispatch(["simulate", "--graph", str(graph_path), "--config", str(config_path),
                     "--log", str(log_path)]) == 0
    assert dispatch(["report", "--log", str(log_path), "--out", str(tmp / "rep")]) == 2
    assert not (tmp / "rep").exists()


def test_empty_log_report(tmp_path):
    log_path = tmp_path / "empty.tsv"
    log_path.write_text("")
    graph_path = _write(tmp_path, "graph.json", '{"pages": {}}')
    out = tmp_path / "rep"
    assert dispatch(["report", "--log", str(log_path), "--graph", str(graph_path),
                     "--out", str(out)]) == 0
    summary = dict(
        line.split("\t") for line in (out / "summary.tsv").read_text().splitlines()
    )
    assert summary["parallel_hits"] == "0"
    assert summary["fetch_events"] == "0"


# ---------------------------------------------------------------------------
# langid commands

def _model_with_huge_n_max(tmp):
    """A model trained with n_max 4 whose header then says 3,523,215,364."""
    model = tmp / "lang.bin"
    assert dispatch(_langid_train(tmp, "--buckets", "64", "--dim", "2")) == 0
    blob = bytearray(model.read_bytes())
    struct.pack_into("<I", blob, 12, 3_523_215_364)
    model.write_bytes(bytes(blob))
    return model


@pytest.mark.parametrize("argv", [
    lambda tmp: _langid_train(tmp, "--n-max", "1000000000", "--buckets", "64", "--dim", "2"),
    lambda tmp: ["langid", "predict", "--model", str(_model_with_huge_n_max(tmp)),
                 "https://a.com/en/x", "https://a.com/fr/x"],
], ids=["train", "predict"])
def test_huge_n_max_finishes(tmp_path, capsys, argv):
    argv = argv(tmp_path)
    with hard_timeout(5):
        assert dispatch(argv) == 0
    assert capsys.readouterr().out


def test_langid_train_predict_eval(tmp_path, capsys):
    data = lang_url_corpus(200, seed=1, langs=("deu", "fra"))
    train_path = tmp_path / "train.tsv"
    train_path.write_text("".join(f"{u}\t{l}\n" for u, l in data))
    model_path = tmp_path / "model.bin"
    assert dispatch([
        "langid", "train", "--data", str(train_path), "--model", str(model_path),
        "--buckets", "4096", "--dim", "8", "--seed", "3",
    ]) == 0
    capsys.readouterr()

    assert dispatch(["langid", "predict", "--model", str(model_path),
                     "https://x.com/fr/page"]) == 0
    line = capsys.readouterr().out.strip()
    url, label, prob = line.split("\t")
    assert label == "fra" and float(prob) > 0.5

    assert dispatch(["langid", "eval", "--model", str(model_path),
                     "--data", str(train_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("macro\t")


def test_langid_eval_mismatched_labels(tmp_path, capsys):
    data = lang_url_corpus(80, seed=2, langs=("deu", "fra"))
    train_path = tmp_path / "train.tsv"
    train_path.write_text("".join(f"{u}\t{l}\n" for u, l in data))
    model_path = tmp_path / "model.bin"
    dispatch(["langid", "train", "--data", str(train_path), "--model", str(model_path),
              "--buckets", "1024", "--dim", "4", "--epochs", "2"])
    bad_path = tmp_path / "bad.tsv"
    bad_path.write_text("https://a.com/x\tzho\n")
    code = dispatch(["langid", "eval", "--model", str(model_path), "--data", str(bad_path)])
    assert code == 1
    assert "zho" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pairscore / negsample / splits / cv-combos / seeds commands

def test_pairscore_pipeline(tmp_path, capsys):
    positives, _, _ = parallel_pair_corpus(n_sites=6, pairs_per_site=5, seed=4)
    pos_path = tmp_path / "pos.tsv"
    write_labeled_pairs(positives, pos_path)

    neg_path = tmp_path / "neg.tsv"
    assert dispatch(["negsample", "--pairs", str(pos_path), "--seed", "1",
                     "--out", str(neg_path)]) == 0
    negatives = read_labeled_pairs(neg_path)
    assert negatives and all(n.label == "negative" for n in negatives)

    train_path = tmp_path / "train.tsv"
    write_labeled_pairs(positives + negatives, train_path)
    model_path = tmp_path / "pair.json"
    assert dispatch(["pairscore", "train", "--data", str(train_path),
                     "--model", str(model_path)]) == 0
    capsys.readouterr()

    assert dispatch(["pairscore", "score", "--scorer", "model", "--model", str(model_path),
                     "--url-a", positives[0].url_a, "--url-b", positives[0].url_b,
                     "--lang-a", "eng", "--lang-b", "fra"]) == 0
    prob = float(capsys.readouterr().out.strip().split("\t")[2])
    assert prob > 0.5

    assert dispatch(["pairscore", "eval", "--scorer", "model", "--model", str(model_path),
                     "--data", str(train_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("macro\t")


def test_pairscore_align_command(tmp_path, capsys):
    left = tmp_path / "left.txt"
    right = tmp_path / "right.txt"
    left.write_text("https://s.com/en/a\nhttps://s.com/en/b\n")
    right.write_text("https://s.com/fr/b\nhttps://s.com/fr/a\n")
    assert dispatch(["pairscore", "align", "--left", str(left), "--right", str(right),
                     "--lang-a", "eng", "--lang-b", "fra"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sorted(out) == [
        "https://s.com/en/a\thttps://s.com/fr/a",
        "https://s.com/en/b\thttps://s.com/fr/b",
    ]


def test_splits_command(tmp_path, capsys):
    corpus = [
        LabeledUrl(f"https://d{i}.com/p{j}", "eng")
        for i in range(8)
        for j in range(5)
    ]
    data_path = tmp_path / "urls.tsv"
    write_labeled_urls(corpus, data_path)
    assert dispatch(["splits", "--data", str(data_path), "--ratios", "0.6,0.4",
                     "--out-prefix", str(tmp_path / "corpus")]) == 0
    assert (tmp_path / "corpus.train.tsv").exists()
    assert (tmp_path / "corpus.dev.tsv").exists()


def test_negsample_with_strategies(tmp_path, capsys):
    positives, _, _ = parallel_pair_corpus(n_sites=4, pairs_per_site=3, seed=4)
    pos_path = tmp_path / "pos.tsv"
    write_labeled_pairs(positives, pos_path)
    neg_path = tmp_path / "neg.tsv"
    assert dispatch(["negsample", "--pairs", str(pos_path), "--strategies",
                     "random_match:bi, max_jaccard:mono", "--out", str(neg_path)]) == 0
    negatives = read_labeled_pairs(neg_path)
    assert negatives and {n.provenance for n in negatives} == {"random_match:bi", "max_jaccard:mono"}


def test_cv_combos_command(tmp_path, capsys):
    positives, link_map, lang_map = parallel_pair_corpus(n_sites=5, pairs_per_site=3, seed=5)
    pos_path = tmp_path / "pos.tsv"
    write_labeled_pairs(positives, pos_path)
    links_path = tmp_path / "links.json"
    links_path.write_text(json.dumps({u: list(v) for u, v in link_map.items()}))
    langs_path = tmp_path / "url_langs.tsv"
    langs_path.write_text("".join(f"{u}\t{l}\n" for u, l in lang_map.items()))
    out_path = tmp_path / "combos.tsv"
    assert dispatch(["cv-combos", "--pairs", str(pos_path), "--links", str(links_path),
                     "--url-langs", str(langs_path),
                     "--langs", "eng,fra", "--folds", "3", "--out", str(out_path)]) == 0
    rows = out_path.read_text().splitlines()
    assert rows[0] == "methods\tpos_f1\tneg_f1\tmacro_f1"
    assert len(rows) == 64


@pytest.mark.parametrize("langs", ["eng", "eng,eng", "eng,fra,deu", ",fra", "eng,"])
def test_cv_combos_needs_two_distinct_languages(tmp_path, capsys, langs):
    argv = _cv_combos(tmp_path, _write(tmp_path, "links.json", "{}"))
    argv[argv.index("--langs") + 1] = langs
    assert dispatch(argv) == 1
    assert capsys.readouterr().err.startswith("error: --langs needs two distinct codes")
    assert not (tmp_path / "cv.tsv").exists()


def test_seeds_command(tmp_path, capsys):
    urls_path = tmp_path / "inventory.tsv"
    urls_path.write_text(
        "https://big.com/a\tbig.com\n"
        "https://big.com/b\tbig.com\n"
        "https://small.net/x\tsmall.net\n"
    )
    assert dispatch(["seeds", "--urls", str(urls_path), "--top", "1"]) == 0
    assert capsys.readouterr().out.strip() == "https://big.com/"
    out_path = tmp_path / "seeds.txt"
    assert dispatch(["seeds", "--urls", str(urls_path), "--top", "1", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == "https://big.com/\n"


def test_seeds_command_drops_dead_urls(tmp_path, capsys):
    urls_path = _write(tmp_path, "inventory.tsv",
                       "https://big.com/a\tbig.com\t0\n"
                       "https://big.com/b\tbig.com\tno\n"
                       "https://small.net/x\tsmall.net\t200\n")
    assert dispatch(["seeds", "--urls", str(urls_path), "--top", "1"]) == 0
    assert capsys.readouterr().out.strip() == "https://small.net/"


def test_langid_predict_full_prints_every_label(tmp_path, capsys):
    model = _model_file(tmp_path, labels=("eng", "fra", "deu"))
    assert dispatch(["langid", "predict", "--full", "--model", str(model), "https://a.com/x"]) == 0
    p = f"{1 / 3:.6f}"
    assert capsys.readouterr().out == f"https://a.com/x\tdeu\t{p} eng\t{p} fra\t{p}\n"


# ---------------------------------------------------------------------------
# crawl over a loopback site

# About 20 function words of each page language; the detector counts them.
_PAGE_WORDS = {
    "eng": "the and of to that it was for on are with as they at be this have from or by",
    "fra": "le la les et est un une dans que qui pour pas sur avec plus son par ce il elle",
}


def _small_site(base):
    """An eng/fra site under ``base`` with one German page; ``/en/gone`` is
    linked but not in the graph."""
    pages = {
        "/": ("eng", ["/en/a", "/fr/a", "/de/a", "/en/gone"], []),
        "/en/a": ("eng", ["/fr/a", "/en/b", "/fr/c"], ["/fr/a"]),
        "/fr/a": ("fra", ["/fr/b", "/en/a", "/"], ["/en/a"]),
        "/en/b": ("eng", ["/fr/b"], ["/fr/b"]),
        "/fr/b": ("fra", ["/en/b", "/en/c"], ["/en/b"]),
        "/de/a": ("deu", ["/en/c"], []),
        "/en/c": ("eng", ["/fr/c"], ["/fr/c"]),
        "/fr/c": ("fra", [], ["/en/c"]),
    }
    return SiteGraph.from_dict({"pages": {
        base + path: {"lang": lang, "links": [base + link for link in links],
                      "parallel_with": [base + partner for partner in partners]}
        for path, (lang, links, partners) in pages.items()
    }})


def _live_config(tmp, *seeds):
    """An eng/fra crawl config of budget 20 and no politeness delay."""
    seeds_file = _write(tmp, "seeds.txt", "".join(f"{seed}\n" for seed in seeds))
    return _write(tmp, "crawl.cfg", f'lang_a = "eng"\nlang_b = "fra"\n'
                  f'seeds_file = "{seeds_file}"\nbudget = 20\nper_host_delay_ms = 0\n')


def _log_rows(path):
    """(URL, outcome) of each row of a crawl log."""
    return [tuple(row.split("\t")[1:3]) for row in path.read_text().splitlines()]


def test_crawl_logs_what_simulate_logs(tmp_path, capsys, web_site):
    graph, seeds = serve_graph(web_site, _small_site("https://a.com"), ["https://a.com/"])
    graph_path = tmp_path / "graph.json"
    write_graph(graph, graph_path)
    config = _live_config(tmp_path, *seeds)
    assert dispatch(["crawl", "--config", str(config), "--log", str(tmp_path / "live.tsv")]) == 0
    assert capsys.readouterr().out == "fetch events: 9\n"
    assert dispatch(["simulate", "--graph", str(graph_path), "--config", str(config),
                     "--log", str(tmp_path / "sim.tsv")]) == 0
    live = (tmp_path / "live.tsv").read_text()
    assert live == (tmp_path / "sim.tsv").read_text()
    outcomes = [row.split("\t")[2] for row in live.splitlines()]
    assert sorted(set(outcomes)) == ["discarded_language", "error", "stored"]


def test_a_url_http_cannot_send_is_a_fetch_error(tmp_path, web_site):
    site = web_site()
    site.routes["/robots.txt"] = (404, {}, b"")
    # The pattern for href values keeps a control character, which is sent
    # percent-encoded; a space is printable, so it is sent as it is.
    site.routes["/"] = (200, {"Content-Type": "text/html"},
                        f'<p>{_PAGE_WORDS["eng"]}</p><a href="/b\x01c"></a>'.encode())
    with hard_timeout(10):
        assert dispatch(["crawl", "--config", str(_live_config(tmp_path, site.base + "/a b",
                                                                 site.base + "/")),
                         "--log", str(tmp_path / "live.tsv")]) == 0
    assert _log_rows(tmp_path / "live.tsv") == [
        (site.base + "/a b", "error"),
        (site.base + "/", "stored"),
        (site.base + "/b\x01c", "error"),
    ]
    assert site.paths == ["/robots.txt", "/", "/b%01c"]


def test_a_url_with_characters_http_cannot_send_is_sent_percent_encoded(tmp_path, web_site):
    site = web_site()
    site.routes["/robots.txt"] = (404, {}, b"")
    links = ["/café", "/a?q=é", "/b\x01c", "http://[::1/x", "/r"]
    anchors = "".join(f'<a href="{link}"></a>' for link in links)
    site.routes["/"] = (200, {"Content-Type": "text/html"},
                        f'<p>{_PAGE_WORDS["eng"]}</p>{anchors}'.encode())
    site.routes["/caf%C3%A9"] = (200, {"Content-Type": "text/html"},
                                 f'<p>{_PAGE_WORDS["fra"]}</p>'.encode())
    site.routes["/r"] = (302, {"Location": "http://[::1/y"}, b"")
    with hard_timeout(10):
        assert dispatch(["crawl", "--config", str(_live_config(tmp_path, site.base + "/",
                                                                 "http://[::1/z")),
                         "--log", str(tmp_path / "live.tsv")]) == 0
    # "http://[::1/x" is not a URL that urljoin can parse, so it is no link.
    assert sorted(_log_rows(tmp_path / "live.tsv")) == sorted([
        (site.base + "/", "stored"),
        ("http://[::1/z", "error"),
        (site.base + "/café", "stored"),
        (site.base + "/a?q=é", "error"),
        (site.base + "/b\x01c", "error"),
        (site.base + "/r", "error"),
    ])
    assert sorted(site.paths) == sorted(
        ["/robots.txt", "/", "/caf%C3%A9", "/a?q=%C3%A9", "/b%01c", "/r"])


def test_a_reply_that_is_not_http_is_a_fetch_error(tmp_path, web_site):
    site, broken = web_site(), web_site()
    garbage = b"garbage\r\n\r\n"
    site.routes["/robots.txt"] = (404, {}, b"")
    site.routes["/"] = (200, {"Content-Type": "text/html"},
                        f'<p>{_PAGE_WORDS["eng"]}</p><a href="/garbage"></a>'.encode())
    site.routes["/garbage"] = garbage
    # Its robots.txt answers garbage too, so the whole origin is disallowed,
    # once for both of its pages.
    broken.default = garbage
    with hard_timeout(10):
        assert dispatch(["crawl", "--config", str(_live_config(tmp_path, broken.base + "/",
                                                                 broken.base + "/x",
                                                                 site.base + "/")),
                         "--log", str(tmp_path / "live.tsv")]) == 0
    assert _log_rows(tmp_path / "live.tsv") == [
        (broken.base + "/", "error"),
        (broken.base + "/x", "error"),
        (site.base + "/", "stored"),
        (site.base + "/garbage", "error"),
    ]
    assert broken.paths == ["/robots.txt"]
    assert site.paths == ["/robots.txt", "/", "/garbage"]
