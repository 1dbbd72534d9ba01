"""Benchmark of the ``bifocal`` command-line tool.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is ``dense-nav``, ``model-build`` or ``all``.  Each
workload generates its inputs from ``--seed``, sets up, then runs cycles of
CLI commands ("legs" a, b and c), one command at a time, until ``--seconds``
have passed (at least one cycle).  Every command is a fresh interpreter, so
the program's caches start cold as they do for a user.

* ``dense-nav``: ``simulate`` on a navigation-heavy graph where each URL is
  linked ~20 times, with (a) n-gram and feature-model scorers trained during
  set-up by ``langid train`` and ``pairscore train``, (b) uniform scorers,
  i.e. breadth-first, and (c) both scorers external, answered by
  ``oracle.py`` from ground truth.
* ``model-build``: (a) ``langid train``, (b) ``langid eval`` and (c)
  ``cv-combos`` with 2 folds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Every workload reports every metric; see README.md for what
each one means on each workload.  Lines before it print the same figures
under their per-workload names.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up runs at least SETUP_MIN_REPS times; a cheap one repeats until
# SETUP_MIN_S seconds are measured, so that its median is steady.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 25
COMMAND_TIMEOUT_S = 150.0
CLI_MAIN = "import sys; sys.argv[0] = 'bifocal'; from bifocal.cli import main; main()"
CV_FOLDS = 2
CV_COMBOS = 63
LANGID_EPOCHS = 10
LANGID_F1_FLOOR = 0.8


class BenchError(Exception):
    """A command or the oracle failed, so the run cannot report figures."""


# ---------------------------------------------------------------------------
# Running commands

@dataclass
class Run:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_cli(argv, cwd: Path, trace_to: Path | None = None) -> Run:
    """Run one ``bifocal`` command in a fresh interpreter and time it."""
    if trace_to is None:
        cmd = [sys.executable, "-c", CLI_MAIN, *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced.py"), str(trace_to), "--", *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = cwd / "cmd.stdout", cwd / "cmd.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, usage.ru_maxrss / 1024.0, proc.returncode,
               out_path.read_text("utf-8"), err_path.read_text("utf-8"))


class Oracle:
    """The bench-owned ground-truth scorer process for one crawl."""

    def __init__(self, graph: Path, cwd: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "oracle.py"), str(graph)],
            cwd=cwd, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise BenchError(f"oracle scorer did not start: {line!r}")
        self.scorer = f"external:127.0.0.1:{int(line.split()[1])}"

    def finish(self) -> float:
        """Wait for the exit that follows the crawl; returns its serving CPU s."""
        try:
            line = self.proc.stdout.readline()
            self.proc.wait(timeout=30)
        finally:
            self.stop()
        return float(json.loads(line)["cpu_s"])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class DigestStore:
    """Output digests per (program source, workload, seed), kept across runs.

    A later run of the same seed on the same source must reproduce them.
    """

    def __init__(self, path: Path, key: str):
        self.path = path
        self.key = key
        try:
            self.data = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError):
            self.data = {}

    def same_as_before(self, name: str, digest: str) -> bool:
        recorded = self.data.setdefault(f"{self.key}:{name}", digest)
        return recorded == digest

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=0, sort_keys=True), "utf-8")
        os.replace(tmp, self.path)


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Output checks for crawls

def read_log(path: Path) -> "list[tuple[int, str, str]]":
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            seq, url, outcome, _lang, _priority = line.rstrip("\n").split("\t")
            rows.append((int(seq), url, outcome))
    return rows


def recount(rows, pages: dict) -> dict:
    """Parallel hits and the aggregate decile curve, from the log and graph.

    A stored page is a hit when one of its partners was stored earlier; the
    curve sums, per site, the hits within each decile of that site's
    downloads.  Also counts the links the crawl had to score.
    """
    stored_seq = {url: seq for seq, url, outcome in rows if outcome == "stored"}
    per_site: dict[str, list[bool]] = {}
    hits = links = errors = 0
    for seq, url, outcome in rows:
        if outcome == "error":
            errors += 1
            continue
        hit = outcome == "stored" and any(
            stored_seq.get(partner, seq) < seq for partner in pages[url]["parallel_with"]
        )
        if outcome == "stored":
            links += len(pages[url]["links"])
        hits += hit
        per_site.setdefault(urlsplit(url).hostname, []).append(hit)
    curve = [0] * 11
    for site_hits in per_site.values():
        for i in range(11):
            curve[i] += sum(site_hits[: (i * 10 * len(site_hits)) // 100])
    return {"hits": hits, "curve": curve, "links": links, "errors": errors}


def read_report(report_dir: Path) -> "tuple[dict, list[int]]":
    summary = {}
    for line in (report_dir / "summary.tsv").read_text("utf-8").splitlines():
        key, value = line.split("\t")
        summary[key] = int(value)
    curve = [
        int(line.split("\t")[1])
        for line in (report_dir / "curve_aggregate.tsv").read_text("utf-8").splitlines()
        if not line.startswith("#")
    ]
    return summary, curve


def scorer_failures(stderr: str) -> int:
    return sum(1 for line in stderr.splitlines() if line.startswith("scoring ") and "failed" in line)


# ---------------------------------------------------------------------------
# Workloads

@dataclass
class Leg:
    label: str  # a, b or c; its rate is reported as leg_<label>_per_s
    name: str  # the rate's name on this workload
    repeat: int = 1  # runs per untraced cycle, so that short legs measure more


@dataclass
class Outcome:
    """What one leg of one cycle produced."""

    rate: float
    digest: str
    values: dict = field(default_factory=dict)
    attempted: int = 1
    failed: int = 0
    problems: list = field(default_factory=list)


class Workload:
    name = ""
    legs: "tuple[Leg, ...]" = ()
    quality_names: "tuple[str, str]" = ("", "")
    uses_oracle = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir

    def prepare(self) -> None:
        """Generate and write the inputs."""
        raise NotImplementedError

    def setup_commands(self) -> "list[tuple[list[str], str]]":
        """(argv, output file) of CLI commands that set-up runs."""
        return []

    def urls(self) -> "list[str]":
        """The workload's distinct URLs, for the cold-cache replay."""
        raise NotImplementedError

    def argv(self, leg: Leg, oracle: Oracle | None) -> "list[str]":
        raise NotImplementedError

    def evaluate(self, leg: Leg, run: Run) -> Outcome:
        raise NotImplementedError

    def quality(self, outcomes: "dict[str, Outcome]") -> "tuple[float, float]":
        raise NotImplementedError


class DenseNav(Workload):
    """Trained scorers on a graph where each URL is scored ~15 times.

    Caching or batching per-link work shows here; the uniform leg (b) and
    ``model-build`` bypass the crawl scorers.
    """

    name = "dense-nav"
    legs = (Leg("a", "pages_per_s"), Leg("b", "bfs_pages_per_s", repeat=3),
            Leg("c", "oracle_pages_per_s"))
    quality_names = ("harvest_auc, % of parallel pairs", "hits_at_50pct, % of parallel pairs")
    uses_oracle = True

    def prepare(self) -> None:
        self.pages, seeds, self.n_pairs, lang_rows, pair_rows = gen.dense_nav(self.seed)
        self.budget = len(self.pages) // 2
        gen.write_lines(lang_rows, self.dir / "lang_train.tsv")
        gen.write_lines(pair_rows, self.dir / "pair_train.tsv")
        gen.write_graph(self.pages, self.dir / "graph.json")
        gen.write_lines(seeds, self.dir / "seeds.txt")
        gen.write_lines(
            ["lang_a = eng", "lang_b = fra", "seeds_file = seeds.txt", "graph = graph.json",
             f"budget = {self.budget}", "lang_scorer = ngram", "pair_scorer = model",
             "lang_model_path = lang.bin", "pair_model_path = pair.json"],
            self.dir / "crawl.conf",
        )

    def setup_commands(self):
        return [
            (["langid", "train", "--data", "lang_train.tsv", "--model", "lang.bin"], "lang.bin"),
            (["pairscore", "train", "--data", "pair_train.tsv", "--model", "pair.json"],
             "pair.json"),
        ]

    def urls(self):
        return list(self.pages)

    def argv(self, leg, oracle):
        argv = ["simulate", "--config", "crawl.conf", "--log", f"{leg.label}.log.tsv",
                "--report", f"report_{leg.label}"]
        if leg.label == "b":
            argv += ["--lang-scorer", "uniform", "--pair-scorer", "uniform"]
        elif leg.label == "c":
            argv += ["--lang-scorer", oracle.scorer, "--pair-scorer", oracle.scorer]
        return argv

    def evaluate(self, leg, run):
        log_path = self.dir / f"{leg.label}.log.tsv"
        rows = read_log(log_path)
        counted = recount(rows, self.pages)
        summary, curve = read_report(self.dir / f"report_{leg.label}")
        problems = []
        if len(rows) != self.budget or summary["fetch_events"] != len(rows):
            problems.append(f"{len(rows)} log rows, {summary['fetch_events']} fetch events, "
                            f"budget {self.budget}")
        if summary["parallel_hits"] != counted["hits"]:
            problems.append(f"summary has {summary['parallel_hits']} parallel hits, "
                            f"log and graph give {counted['hits']}")
        if curve != counted["curve"]:
            problems.append(f"aggregate curve {curve} != recount {counted['curve']}")
        failures = counted["errors"] + scorer_failures(run.stderr)
        prefix = {"a": "", "b": "bfs_", "c": "oracle_"}[leg.label]
        return Outcome(
            rate=len(rows) / run.wall_s,
            digest=sha256_file(log_path),
            values={f"{prefix}hits_at_10pct": curve[1], f"{prefix}hits_at_50pct": curve[5],
                    f"{prefix}harvest_auc": sum(curve[1:]) / 10},
            attempted=len(rows) + counted["links"],
            failed=failures,
            problems=problems,
        )

    def quality(self, outcomes):
        values = outcomes["a"].values
        return (100.0 * values["harvest_auc"] / self.n_pairs,
                100.0 * values["hits_at_50pct"] / self.n_pairs)


class ModelBuild(Workload):
    """How a user builds the scorers offline: langid train and eval, cv-combos.

    The only workload that runs the datasets layer and training.
    """

    name = "model-build"
    legs = (
        Leg("a", "langid_train_urls_per_s"),
        Leg("b", "langid_predict_urls_per_s"),
        Leg("c", "cv_combos_fits_per_s"),
    )
    quality_names = ("best_macro_f1 x 100", "langid_macro_f1 x 100")

    def prepare(self):
        train, held_out = gen.lang_corpus(self.seed)
        pair_rows, link_map, lang_rows = gen.pair_fixture(self.seed)
        gen.write_lines(train, self.dir / "lang_train.tsv")
        gen.write_lines(held_out, self.dir / "lang_eval.tsv")
        gen.write_lines(pair_rows, self.dir / "pairs.tsv")
        gen.write_lines(lang_rows, self.dir / "url_langs.tsv")
        with open(self.dir / "links.json", "w", encoding="utf-8") as handle:
            json.dump(link_map, handle)
        self.n_train, self.n_eval = len(train), len(held_out)
        self.all_urls = [row.split("\t")[0] for row in train + held_out + lang_rows]

    def urls(self):
        return self.all_urls

    def argv(self, leg, oracle):
        if leg.label == "a":
            return ["langid", "train", "--data", "lang_train.tsv", "--model", "lang.bin"]
        if leg.label == "b":
            return ["langid", "eval", "--model", "lang.bin", "--data", "lang_eval.tsv"]
        return ["cv-combos", "--pairs", "pairs.tsv", "--links", "links.json",
                "--url-langs", "url_langs.tsv", "--langs", "eng,fra",
                "--folds", str(CV_FOLDS), "--out", "combos.tsv"]

    def evaluate(self, leg, run):
        if leg.label == "a":
            return Outcome(rate=self.n_train * LANGID_EPOCHS / run.wall_s,
                           digest=sha256_file(self.dir / "lang.bin"))
        if leg.label == "b":
            macro = [line for line in run.stdout.splitlines() if line.startswith("macro\t")]
            f1 = float(macro[0].split("\t")[3]) if macro else 0.0
            problems = [] if f1 > LANGID_F1_FLOOR else [
                f"langid macro F1 {f1} is not above {LANGID_F1_FLOOR}"]
            return Outcome(rate=self.n_eval / run.wall_s,
                           digest=hashlib.sha256(run.stdout.encode()).hexdigest(),
                           values={"langid_macro_f1": f1}, problems=problems)
        path = self.dir / "combos.tsv"
        rows = [line.split("\t") for line in path.read_text("utf-8").splitlines()[1:]]
        f1s = [float(v) for row in rows for v in row[1:]]
        problems = []
        if len(rows) != CV_COMBOS:
            problems.append(f"cv-combos wrote {len(rows)} rows, not {CV_COMBOS}")
        if not f1s or not all(0.0 <= v <= 1.0 for v in f1s):
            problems.append("cv-combos wrote an F1 outside [0, 1]")
        return Outcome(rate=CV_COMBOS * CV_FOLDS / run.wall_s, digest=sha256_file(path),
                       values={"cv_combos_s": run.wall_s,
                               "best_macro_f1": max((float(r[3]) for r in rows), default=0.0)},
                       problems=problems)

    def quality(self, outcomes):
        return (100.0 * outcomes["c"].values["best_macro_f1"],
                100.0 * outcomes["b"].values["langid_macro_f1"])


WORKLOADS = {cls.name: cls for cls in (DenseNav, ModelBuild)}


# ---------------------------------------------------------------------------
# The measuring loop

class BenchRun:
    """One benchmark run of one workload: set-up, cycles, checks, figures."""

    def __init__(self, workload: Workload, seconds: float, trace: bool, store: DigestStore):
        self.w = workload
        self.seconds = seconds
        self.trace = trace
        self.store = store
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.rss_mb = 0.0
        self.oracle: Oracle | None = None
        self.setup_layers: dict = {}  # traced set-up commands' counters
        self.layers: list[dict] = []  # per traced cycle, summed counters
        self.overheads: list[tuple[float, float]] = []

    def close(self) -> None:
        if self.oracle is not None:
            self.oracle.stop()
            self.oracle = None

    def check_digest(self, name: str, digest: str) -> None:
        if self.digests.setdefault(name, digest) != digest:
            self.problem(f"{name}: output differs between cycles or set-ups of one run")
        if not self.store.same_as_before(name, digest):
            self.problem(f"{name}: output differs from an earlier run of this seed")

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def command(self, argv, trace_to: Path | None = None) -> Run:
        self.attempted += 1
        run = run_cli(argv, self.w.dir, trace_to)
        self.rss_mb = max(self.rss_mb, run.rss_mb)
        if run.returncode != 0:
            raise BenchError(f"`bifocal {' '.join(argv)}` exited with {run.returncode}: "
                             f"{run.stderr.strip()[-500:]}")
        return run

    def setup(self) -> "list[float]":
        times: list[float] = []
        while not times or not self.trace and (
                len(times) < SETUP_MIN_REPS
                or sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
            self.close()
            start = time.perf_counter()
            self.w.prepare()
            for argv, output in self.w.setup_commands():
                self.command(argv)
                self.check_digest(f"setup:{output}", sha256_file(self.w.dir / output))
            if self.w.uses_oracle:
                self.oracle = Oracle(self.w.dir / "graph.json", self.w.dir)
            times.append(time.perf_counter() - start)
        if self.trace:
            counters: dict = {}
            for argv, output in self.w.setup_commands():
                trace_file = self.w.dir / "trace.json"
                self.command(argv, trace_file)
                self.check_digest(f"setup:{output}", sha256_file(self.w.dir / output))
                add_counters(counters, json.loads(trace_file.read_text("utf-8")))
            self.setup_layers = counters
        return times

    def leg(self, leg: Leg, trace_to: Path | None = None) -> "tuple[Run, Outcome, float]":
        if self.w.uses_oracle and leg.label == "c" and self.oracle is None:
            self.oracle = Oracle(self.w.dir / "graph.json", self.w.dir)
        oracle = self.oracle if leg.label == "c" else None
        run = self.command(self.w.argv(leg, oracle), trace_to)
        server_cpu = 0.0
        if oracle is not None:
            self.oracle = None
            server_cpu = oracle.finish()
        outcome = self.w.evaluate(leg, run)
        self.attempted += outcome.attempted - 1
        self.failed += outcome.failed + bool(outcome.problems)
        for text in outcome.problems:
            self.problem(f"leg {leg.label} ({leg.name}): {text}")
        self.check_digest(f"leg:{leg.label}", outcome.digest)
        return run, outcome, server_cpu

    def cycles(self) -> "list[dict[str, list[Outcome]]]":
        """Cycles until ``seconds`` have passed, give or take half a cycle.

        An untraced cycle runs each leg ``repeat`` times; a traced cycle runs
        each leg once untraced and once traced.
        """
        done = []
        start = time.perf_counter()
        while not done or (elapsed := time.perf_counter() - start) + elapsed / len(done) / 2 \
                < self.seconds:
            cycle: dict[str, list[Outcome]] = {}
            counters: dict = {}
            untraced_s = traced_s = 0.0
            for leg in self.w.legs:
                for _ in range(1 if self.trace else leg.repeat):
                    run, outcome, _ = self.leg(leg)
                    cycle.setdefault(leg.label, []).append(outcome)
                if self.trace:
                    trace_file = self.w.dir / "trace.json"
                    traced, _, server_cpu = self.leg(leg, trace_file)
                    add_counters(counters, json.loads(trace_file.read_text("utf-8")))
                    counters["external.server_cpu_s"] = (
                        counters.get("external.server_cpu_s", 0.0) + server_cpu)
                    untraced_s += run.wall_s
                    traced_s += traced.wall_s
            if self.trace:
                self.layers.append(counters)
                self.overheads.append((traced_s - untraced_s, untraced_s))
            done.append(cycle)
        return done


def add_counters(total: dict, more: dict) -> None:
    for key, value in more.items():
        if isinstance(value, list):
            total.setdefault(key, []).extend(value)
        elif key == "frontier.peak_pending":
            total[key] = max(total.get(key, 0.0), value)
        else:
            total[key] = total.get(key, 0.0) + value


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(samples: "list[float]", q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# Per-layer metrics that are not a counter of one traced command.
REPLAYED = ("urls.normalize_us", "urls.parse_us")
OVERHEAD = ("trace.overhead_s", "trace.overhead_ratio")


def layer_figures(c: dict, names) -> dict:
    """Per-layer metrics ``names`` from one traced cycle's summed counters.

    A metric is its counter unless it is derived below; a counter that no
    shim recorded is 0.
    """
    g = lambda key: float(c.get(key, 0.0))  # noqa: E731
    roundtrips = c.get("external.roundtrip_us", [])
    derived = {
        "crawler.self_s": max(0.0, g("crawler.crawl_s") - g("crawler.fetch_s")
                              - g("crawler.score_links_s") - g("frontier.push_s")
                              - g("frontier.pop_s")),
        "langid.score_nonzero_ratio": ratio(g("langid.score_nonzero"), g("langid.score_calls")),
        "langid.distinct_url_ratio": ratio(g("langid.distinct_urls"), g("langid.inputs")),
        "pairscore.positive_ratio": ratio(g("pairscore.positive"), g("pairscore.score_calls")),
        "pairscore.distinct_pair_ratio": ratio(g("pairscore.distinct_pairs"),
                                               g("pairscore.inputs")),
        "external.roundtrips": float(len(roundtrips)),
        "external.roundtrip_p50_us": percentile(roundtrips, 0.50),
        "external.roundtrip_p99_us": percentile(roundtrips, 0.99),
    }
    return {name: derived[name] if name in derived else g(name) for name in names}


def median_of(dicts: "list[dict]") -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def measure(bench: BenchRun) -> "tuple[dict, dict, dict]":
    """Run the benchmark.

    Returns the declared metrics by name, their per-workload names, and
    further figures printed but not declared (hit counts, F1, cv-combos s).
    """
    w = bench.w
    setup_times = bench.setup()
    cycles = bench.cycles()
    if not bench.trace:
        outcomes = [{k: v[0] for k, v in c.items()} for c in cycles]
        figures = {"setup_s": statistics.median(setup_times)}
        aliases = {}
        for leg in w.legs:
            rates = [o.rate for c in cycles for o in c[leg.label]]
            figures[f"leg_{leg.label}_per_s"] = statistics.median(rates)
            aliases[f"leg_{leg.label}_per_s"] = leg.name
        qualities = [w.quality(o) for o in outcomes]
        for i, label in enumerate("ab"):
            figures[f"quality_{label}_pct"] = statistics.median(q[i] for q in qualities)
            aliases[f"quality_{label}_pct"] = w.quality_names[i]
        figures["peak_rss_mb"] = bench.rss_mb
        extras = median_of([{k: v for leg in o.values() for k, v in leg.values.items()}
                            for o in outcomes])
        return figures, aliases, extras

    names = [n for n in declared_metrics()["per_layer"] if n not in REPLAYED + OVERHEAD]
    per_cycle = []
    for counters in bench.layers:
        merged = dict(counters)
        add_counters(merged, bench.setup_layers)
        per_cycle.append(layer_figures(merged, names))
    figures = median_of(per_cycle)
    urls_file = w.dir / "urls.txt"
    gen.write_lines(dict.fromkeys(w.urls()), urls_file)
    replay_file = w.dir / "replay.json"
    replay = subprocess.run(
        [sys.executable, str(HERE / "traced.py"), "--replay", str(urls_file), str(replay_file)],
        cwd=w.dir, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=COMMAND_TIMEOUT_S,
    )
    if replay.returncode != 0:
        raise BenchError("the cold-cache URL replay failed")
    figures.update(json.loads(replay_file.read_text("utf-8")))
    overhead = statistics.median(o for o, _ in bench.overheads)
    untraced = statistics.median(u for _, u in bench.overheads)
    figures["trace.overhead_s"] = overhead
    figures["trace.overhead_ratio"] = ratio(overhead, untraced)
    return figures, {}, {}


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    store = DigestStore(WORK / "digests.json", f"{source_digest()}:{name}:{seed}")
    bench = BenchRun(WORKLOADS[name](seed, workdir), seconds, trace, store)
    try:
        figures, aliases, extras = measure(bench)
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
    store.save()

    if set(figures) != set(declared):
        raise BenchError(f"measured {sorted(set(figures) ^ set(declared))} "
                         "differently from BENCHMARK.json")
    for metric, unit in declared.items():
        print(f"{name}\t{metric}\t{figures[metric]:.6g}\t{unit}\t{aliases.get(metric, '')}")
    for metric, value in extras.items():
        counted = "hits" in metric or "auc" in metric
        unit = "s" if metric.endswith("_s") else "count" if counted else "F1"
        print(f"{name}\t{metric}\t{value:.6g}\t{unit}")
    print(f"{name}\tfailed_ratio\t{ratio(bench.failed, bench.attempted):.6g}\t"
          f"({bench.failed}/{bench.attempted})")
    for problem in bench.problems:
        print(f"{name}\tCHECK FAILED\t{problem}")
    return {
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": figures[k], "unit": unit} for k, unit in declared.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bifocal" / "cli.py").is_file():
        print(f"error: no bifocal sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # A terminated run unwinds, so it stops its commands and the oracle.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
