import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bifocal.cli import dispatch, load_config
from bifocal.crawler import CrawlLog
from bifocal.datasets import read_labeled_pairs, write_labeled_pairs, write_labeled_urls, LabeledUrl
from bifocal.errors import ConfigError
from bifocal.pairscore import FEATURE_NAMES

from synthdata import lang_url_corpus, parallel_pair_corpus, planted_graph


@pytest.fixture()
def sim_setup(tmp_path):
    graph, seeds = planted_graph(n_sites=2, pages_per_site=20, seed=3)
    graph_path = tmp_path / "graph.json"
    graph.save(graph_path)
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


def test_normalize_output(capsys):
    assert dispatch(["normalize", "https://a.com/contact-us"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "<s> a . com / contact - us </s>"


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


def _short_log(tmp):
    path = tmp / "short.tsv"
    path.write_text("0\thttps://a.com/\tstored\teng\n")
    return path


def _write(tmp, name, text):
    path = tmp / name
    path.write_text(text)
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


def _splits(tmp, ratios):
    urls = _write(tmp, "urls.tsv", "https://a.com/x\teng\nhttps://b.com/y\tfra\n")
    return ["splits", "--data", str(urls), "--ratios", ratios, "--out-prefix", str(tmp / "s")]


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
                                 "--out", str(tmp / "rep")],
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
]


@pytest.mark.parametrize("argv, expected", [case[1:] for case in _BAD_INPUTS],
                         ids=[case[0] for case in _BAD_INPUTS])
def test_bad_input_file_is_an_error_line(sim_setup, capsys, argv, expected):
    tmp, graph_path, config_path = sim_setup
    assert dispatch(argv(tmp, graph_path, config_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err


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


def test_empty_log_report(tmp_path):
    log_path = tmp_path / "empty.tsv"
    log_path.write_text("")
    out = tmp_path / "rep"
    assert dispatch(["report", "--log", str(log_path), "--out", str(out)]) == 0
    summary = dict(
        line.split("\t") for line in (out / "summary.tsv").read_text().splitlines()
    )
    assert summary["parallel_hits"] == "0"
    assert summary["fetch_events"] == "0"


# ---------------------------------------------------------------------------
# langid commands

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


def test_seeds_command(tmp_path, capsys):
    urls_path = tmp_path / "inventory.tsv"
    urls_path.write_text(
        "https://big.com/a\tbig.com\n"
        "https://big.com/b\tbig.com\n"
        "https://small.net/x\tsmall.net\n"
    )
    assert dispatch(["seeds", "--urls", str(urls_path), "--top", "1"]) == 0
    assert capsys.readouterr().out.strip() == "https://big.com/"
