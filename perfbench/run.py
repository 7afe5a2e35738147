#!/usr/bin/env python3
"""Pipeline benchmark for wikicat.

Generates a workload's fixture from a seed, then runs the six subcommands
build-graph, map, label, train, predict and evaluate as separate
processes, one after another, and checks their outputs.  Without tracing
it reports the end-to-end metrics; with tracing it runs the pipeline once
plainly and once through ``shim.py``, which records spans around every
layer call, and reports the per-layer metrics.  Everything runs pinned to
one CPU, and every time is scaled to the speed that probe.py measures on
that CPU meanwhile.  See README.md here.

    python3 perfbench/run.py --workload fine-svm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
appends its metrics, checks, output digests and environment (git SHA, CPU
count, Python and numpy versions, workload sizes) to
``.perfbench_out/results.jsonl`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import fixtures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

STEPS = ("build_graph", "map", "label", "train", "predict", "evaluate")
LAYERS = (
    "graph_store",
    "taxonomy_mapper",
    "labeler",
    "textproc",
    "classifiers",
    "evaluation",
    "cli",
)
SETUPS = 3  # fixture generations per run; setup_s is their median
# The CPU speed that end-to-end times are scaled to.  probe.py times a fixed
# unit of work on the benchmark's CPU; a time measured while the probe took
# probe_s is reported as time * PROBE_REF_S / probe_s, the seconds it would
# have taken at the speed where the probe takes PROBE_REF_S.
PROBE_REF_S = 400e-6
STARTUPS = 5  # `wikicat --version` runs per traced run
FLOORS = {"label_precision": 0.8, "accuracy": 0.5, "predict_accuracy": 0.5}


@dataclass(frozen=True)
class Workload:
    scheme: str
    kind: str
    n_per_class: int | None
    make: Callable[[Path, int], dict]
    make_tiny: Callable[[Path, int], dict]


WORKLOADS = {
    "scale-coarse": Workload(
        "coarse",
        "svm",
        500,
        lambda d, s: fixtures.make_scale(d, s),
        lambda d, s: fixtures.make_scale(
            d, s, n_categories=2_400, n_pages=2_000, n_edges=20_000,
            n_eval=200, n_predict=200,
        ),
    ),
    "fine-svm": Workload(
        "fine",
        "svm",
        50,
        lambda d, s: fixtures.make_two_tier(d, s, 10, 20, "fine"),
        lambda d, s: fixtures.make_two_tier(
            d, s, 3, 4, "fine", pages_per_child=20, n_eval=120, n_predict=100
        ),
    ),
    "coarse-centroid-predict": Workload(
        "coarse",
        "centroid",
        None,
        lambda d, s: fixtures.make_two_tier(d, s, 100, 2, "coarse"),
        lambda d, s: fixtures.make_two_tier(
            d, s, 4, 2, "coarse", pages_per_child=20, n_eval=120
        ),
    ),
}


# ----------------------------------------------------------------- metrics

# (name, unit, better); BENCHMARK.json lists the same names.  Single step
# wall times swing by a third from run to run on a shared 2-core machine,
# so they are per-layer numbers (cli.<step>.wall_s); their sum is steadier.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy", "ratio", "higher"),
    ("macro_f1", "ratio", "higher"),
    ("assigned_share", "ratio", "higher"),
    ("label_precision", "ratio", "higher"),
]

PER_LAYER = [
    *((f"{layer}.busy_s", "s", "lower") for layer in LAYERS),
    ("graph_store.load_graph_s", "s", "lower"),
    ("graph_store.save_snapshot_s", "s", "lower"),
    ("graph_store.load_snapshot_s", "s", "lower"),
    ("graph_store.edges", "count", "higher"),
    ("graph_store.edges_per_s", "1/s", "higher"),
    ("graph_store.snapshot_bytes", "B", "lower"),
    ("taxonomy_mapper.map_taxonomy_s", "s", "lower"),
    ("taxonomy_mapper.jw_calls", "count", "lower"),
    ("taxonomy_mapper.query_parts", "count", "higher"),
    ("taxonomy_mapper.jw_calls_per_part", "count", "lower"),
    ("labeler.label_corpus_s", "s", "lower"),
    ("labeler.traversals", "count", "higher"),
    ("labeler.pages_per_s", "1/s", "higher"),
    ("labeler.assigned_ratio", "ratio", "higher"),
    ("labeler.write_labels_s", "s", "lower"),
    ("labeler.read_labels_s", "s", "lower"),
    ("labeler.labels_bytes", "B", "lower"),
    ("textproc.fit_tfidf_s", "s", "lower"),
    ("textproc.transform_s", "s", "lower"),
    ("textproc.transform_calls", "count", "higher"),
    ("textproc.transform_us_per_doc", "us", "lower"),
    ("textproc.vocab_size", "count", "higher"),
    ("classifiers.train_svm_s", "s", "lower"),
    ("classifiers.sgd_pairs", "count", "higher"),
    ("classifiers.sgd_us_per_pair", "us", "lower"),
    ("classifiers.train_centroid_s", "s", "lower"),
    ("classifiers.sample_balance_s", "s", "lower"),
    ("classifiers.predict_s", "s", "lower"),
    ("classifiers.predict_calls", "count", "higher"),
    ("classifiers.predict_us_per_doc_class", "us", "lower"),
    ("classifiers.save_model_s", "s", "lower"),
    ("classifiers.load_model_s", "s", "lower"),
    ("classifiers.model_bytes", "B", "lower"),
    ("evaluation.evaluate_grouped_self_s", "s", "lower"),
    ("evaluation.load_eval_s", "s", "lower"),
    ("evaluation.instances", "count", "higher"),
    ("cli.startup_s", "s", "lower"),
    *((f"cli.{step}.self_s", "s", "lower") for step in STEPS),
    *((f"cli.{step}.wall_s", "s", "lower") for step in STEPS),
    *((f"cli.{step}.peak_rss_mb", "MB", "lower") for step in STEPS),
]

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


# ----------------------------------------------------------------- running


@dataclass
class Pass:
    """One run of the six subcommands in its own directory."""

    dir: Path
    walls: dict[str, float] = field(default_factory=dict)
    probes: dict[str, float] = field(default_factory=dict)
    rss_mb: dict[str, float] = field(default_factory=dict)
    exits: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return len(self.exits) == len(STEPS) and not any(self.exits.values())

    def scale(self, step: str) -> float:
        """Factor that turns seconds measured during step into scaled seconds."""
        return PROBE_REF_S / self.probes[step]

    def wall_s(self, step: str) -> float:
        return self.walls[step] * self.scale(step) if step in self.walls else 0.0

    @property
    def pipeline_s(self) -> float:
        """Summed step wall times, each scaled to the CPU's probed speed."""
        return sum(self.wall_s(step) for step in self.walls)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin() -> int:
    """Pin this process, and so launch.py and every step, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Helper:
    """A helper script here, started once per run, that answers one JSON
    line per JSON request line."""

    def __init__(self, script: str) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.name = script
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ask(self, req: dict | list) -> dict | float:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.name} exited early")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Launcher:
    """launch.py, through which every step is spawned, and probe.py, which
    times the CPU's speed meanwhile."""

    def __init__(self) -> None:
        self.probe = Helper("probe.py")
        self.launch = Helper("launch.py")

    def run(self, cmd: list[str], cwd: Path, log: Path) -> tuple[int, float, float, float]:
        """Run cmd to completion: exit code, wall seconds, peak RSS in MB and
        the mean probe seconds while it ran."""
        t0 = time.monotonic()
        reply = self.launch.ask({"cmd": cmd, "cwd": str(cwd), "log": str(log)})
        probe_s = self.probe_s(t0, time.monotonic())
        return reply["exit"], reply["wall_s"], reply["maxrss_kb"] / 1024.0, probe_s

    def probe_s(self, t0: float, t1: float) -> float:
        """Mean probe seconds between two time.monotonic() readings."""
        return self.probe.ask([t0, t1])

    def close(self) -> None:
        self.launch.close()
        self.probe.close()



def _step_args(w: Workload, manifest: dict) -> list[tuple[str, list[str]]]:
    """Subcommand arguments, relative to a pass directory next to fixture/."""
    fx = "../fixture/"
    tax = fx + "taxonomy.json"
    train = [
        "train", "--labels", "labels.jsonl", "--corpus", fx + "corpus.jsonl",
        "--taxonomy", tax, "--scheme", w.scheme, "--kind", w.kind,
        "--seed", "0", "--out-dir", "models",
    ]
    if w.n_per_class is not None:
        train += ["--n-per-class", str(w.n_per_class)]
    return [
        ("build_graph", [
            "build-graph", "--categories", fx + "categories.tsv",
            "--pages", fx + "pages.tsv", "--edges", fx + "edges.tsv",
            "--out", "graph.bin",
        ]),
        ("map", [
            "map", "--graph", "graph.bin", "--taxonomy", tax, "--out", "mapping.json",
        ]),
        ("label", [
            "label", "--graph", "graph.bin", "--taxonomy", tax,
            "--mapping", "mapping.json", "--scheme", w.scheme,
            "--workers", str(_nproc()), "--out", "labels.jsonl",
        ]),
        ("train", train),
        ("predict", [
            "predict", "--model", f"models/{manifest['predict_model']}.{w.kind}.json",
            "--corpus", fx + manifest["predict_input"], "--out", "predictions.jsonl",
        ]),
        ("evaluate", [
            "evaluate", "--eval", fx + "eval.jsonl", "--models-dir", "models",
            "--kind", w.kind, "--taxonomy", tax, "--out", "report.json",
        ]),
    ]


def run_pass(
    launcher: Launcher,
    work: Path,
    name: str,
    steps: list[tuple[str, list[str]]],
    traced: bool,
) -> Pass:
    p = Pass(work / name)
    p.dir.mkdir()
    for step, argv in steps:
        if traced:
            cmd = [sys.executable, str(HERE / "shim.py"), f"trace.{step}.json", *argv]
        else:
            cmd = [sys.executable, "-m", "wikicat.cli", *argv]
        log = p.dir / f"{step}.log"
        code, p.walls[step], p.rss_mb[step], p.probes[step] = launcher.run(
            cmd, p.dir, log
        )
        p.exits[step] = code
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"step {step} exited {code}:\n{tail}", file=sys.stderr)
            break
    return p


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _digests(root: Path, names: list[str]) -> dict[str, str]:
    out = {}
    for name in names:
        path = root / name
        if path.is_dir():
            for sub in sorted(path.iterdir()):
                out[f"{name}/{sub.name}"] = _sha256(sub)
        elif path.exists():
            out[name] = _sha256(path)
    return out


OUTPUTS = ["mapping.json", "labels.jsonl", "models", "predictions.jsonl", "report.json"]
FIXTURE_FILES = [
    "categories.tsv", "pages.tsv", "edges.tsv", "taxonomy.json",
    "corpus.jsonl", "eval.jsonl", "predict.jsonl",
]


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quality(p: Pass, manifest: dict) -> dict[str, float]:
    """Scores read from one pass's output files; missing files score 0."""
    q = {"records": 0, "assigned_share": 0.0, "label_precision": 0.0,
         "accuracy": 0.0, "macro_f1": 0.0, "eval_n": 0,
         "predictions": 0, "predict_accuracy": 0.0}
    labels = p.dir / "labels.jsonl"
    if labels.exists():
        records = _read_jsonl(labels)
        assigned = [r for r in records if r["assignments"]]
        planted = manifest["planted"]
        hits = sum(
            planted.get(r["page"]) == r["assignments"][0]["label"] for r in assigned
        )
        q["records"] = len(records)
        q["assigned_share"] = len(assigned) / max(len(records), 1)
        q["label_precision"] = hits / max(len(assigned), 1)
    report = p.dir / "report.json"
    if report.exists():
        pooled = json.loads(report.read_text(encoding="utf-8"))["pooled"]
        q["accuracy"], q["macro_f1"] = pooled["accuracy"], pooled["macro_f1"]
        q["eval_n"] = pooled["n"]
    preds = p.dir / "predictions.jsonl"
    if preds.exists():
        rows = _read_jsonl(preds)
        gold = manifest["predict_gold"]
        q["predictions"] = len(rows)
        hits = sum(gold.get(r["id"]) == r["label"] for r in rows)
        q["predict_accuracy"] = hits / max(len(rows), 1)
    return q


class Checks:
    """Named pass/fail output checks; `failed` over `attempted` is the failed share."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool]] = []

    def add(self, name: str, ok: bool) -> None:
        self.results.append((name, bool(ok)))
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok in self.results)


def check_pass(checks: Checks, p: Pass, manifest: dict) -> dict[str, float]:
    for step in STEPS:
        checks.add(f"{p.dir.name}: {step} exits 0", p.exits.get(step) == 0)
    q = quality(p, manifest)
    sizes = manifest["sizes"]
    where = p.dir.name
    expected = manifest["expected_records"]
    checks.add(f"{where}: labels.jsonl has {expected} records", q["records"] == expected)
    checks.add(f"{where}: predictions cover the predict file",
               q["predictions"] == sizes["predict"])
    checks.add(f"{where}: report scores every eval instance",
               q["eval_n"] == sizes["eval"])
    for name, floor in FLOORS.items():
        checks.add(f"{where}: {name} {q[name]:.4f} >= {floor}", q[name] >= floor)
    return q


def check_determinism(checks: Checks, passes: list[Pass], key: str) -> dict[str, str]:
    """Digests agree across this run's passes and with earlier same-seed runs."""
    digests = _digests(passes[0].dir, OUTPUTS)
    for p in passes[1:]:
        checks.add(f"{p.dir.name}: outputs byte-identical to {passes[0].dir.name}",
                   _digests(p.dir, OUTPUTS) == digests)
    store = OUT / "digests" / f"{key}.json"
    if store.exists():
        before = json.loads(store.read_text(encoding="utf-8"))
        checks.add("outputs byte-identical to an earlier run of this seed",
                   before == digests)
    elif passes[0].ok:
        store.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
        store.write_text(text, encoding="utf-8")
    return digests


def setup(
    w: Workload, fixture: Path, seed: int, tiny: bool, checks: Checks,
    launcher: Launcher,
) -> tuple[float, dict]:
    """Generate the fixture SETUPS times; median scaled seconds and the manifest."""
    make = w.make_tiny if tiny else w.make
    times, digests = [], []
    for _ in range(SETUPS):
        shutil.rmtree(fixture, ignore_errors=True)
        m0, t0 = time.monotonic(), time.perf_counter()
        manifest = make(fixture, seed)
        wall = time.perf_counter() - t0
        times.append(wall * PROBE_REF_S / launcher.probe_s(m0, time.monotonic()))
        digests.append(_digests(fixture, FIXTURE_FILES))
    checks.add("fixture is byte-identical across generations",
               all(d == digests[0] for d in digests))
    return statistics.median(times), manifest


# ----------------------------------------------------------------- tracing


def _self_times(spans: list) -> Counter:
    """Per span name: summed duration minus the time child spans cover."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: Counter = Counter()
    for i, (name, t0, t1, _) in enumerate(spans):
        out[name] += (t1 - t0) - child[i]
    return out


def _startup_s(launcher: Launcher, work: Path) -> float:
    cmd = [sys.executable, "-m", "wikicat.cli", "--version"]
    log = work / "version.log"
    launcher.run(cmd, work, log)  # warm the bytecode cache
    runs = [launcher.run(cmd, work, log) for _ in range(STARTUPS)]
    return statistics.median(wall * PROBE_REF_S / probe for _, wall, _, probe in runs)


def layer_metrics(plain: Pass, traced: Pass, startup_s: float) -> dict[str, float]:
    """Per-layer metrics from the traced pass's span files; times are scaled."""
    selfs: Counter = Counter()  # span name -> summed self seconds
    calls: Counter = Counter()  # span name -> number of spans
    counts: Counter = Counter()  # shim counters
    m: dict[str, float] = {}
    for step in STEPS:
        path = traced.dir / f"trace.{step}.json"
        doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        step_selfs = _self_times(doc.get("spans", []))
        if step in traced.probes:
            step_selfs = Counter({k: v * traced.scale(step) for k, v in step_selfs.items()})
        m[f"cli.{step}.self_s"] = step_selfs["cli.main"]
        selfs.update(step_selfs)
        calls.update(span[0] for span in doc.get("spans", []))
        counts.update(doc.get("counts", {}))

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    for layer in LAYERS:
        m[f"{layer}.busy_s"] = sum(
            s for name, s in selfs.items() if name.startswith(layer + ".")
        )
    gs = "graph_store."
    m[gs + "load_graph_s"] = selfs[gs + "load_graph"]
    m[gs + "save_snapshot_s"] = selfs[gs + "save_snapshot"]
    m[gs + "load_snapshot_s"] = selfs[gs + "load_snapshot"]
    m[gs + "edges"] = counts["edges"]
    m[gs + "edges_per_s"] = per(m[gs + "edges"], m[gs + "load_graph_s"])
    m[gs + "snapshot_bytes"] = _size(plain.dir / "graph.bin")

    tm = "taxonomy_mapper."
    m[tm + "map_taxonomy_s"] = selfs[tm + "map_taxonomy"]
    m[tm + "jw_calls"] = counts["jw_calls"]
    m[tm + "query_parts"] = counts["query_parts"]
    m[tm + "jw_calls_per_part"] = per(m[tm + "jw_calls"], m[tm + "query_parts"])

    lb = "labeler."
    m[lb + "label_corpus_s"] = selfs[lb + "label_corpus"]
    m[lb + "traversals"] = counts["traversals"]
    m[lb + "pages_per_s"] = per(counts["records"], m[lb + "label_corpus_s"])
    m[lb + "assigned_ratio"] = per(counts["assigned"], counts["records"])
    m[lb + "write_labels_s"] = selfs[lb + "write_labels"]
    m[lb + "read_labels_s"] = selfs[lb + "read_labels"]
    m[lb + "labels_bytes"] = _size(plain.dir / "labels.jsonl")

    tp = "textproc."
    m[tp + "fit_tfidf_s"] = selfs[tp + "fit_tfidf"]
    m[tp + "transform_s"] = selfs[tp + "transform"]
    m[tp + "transform_calls"] = calls[tp + "transform"]
    m[tp + "transform_us_per_doc"] = per(
        m[tp + "transform_s"], m[tp + "transform_calls"], 1e6
    )
    m[tp + "vocab_size"] = counts["vocab"]

    cl = "classifiers."
    m[cl + "train_svm_s"] = selfs[cl + "train_svm"]
    m[cl + "sgd_pairs"] = counts["sgd_pairs"]
    m[cl + "sgd_us_per_pair"] = per(m[cl + "train_svm_s"], m[cl + "sgd_pairs"], 1e6)
    m[cl + "train_centroid_s"] = selfs[cl + "train_centroid"]
    m[cl + "sample_balance_s"] = selfs[cl + "sample_balance"]
    m[cl + "predict_s"] = selfs[cl + "predict_svm"] + selfs[cl + "predict_centroid"]
    m[cl + "predict_calls"] = calls[cl + "predict_svm"] + calls[cl + "predict_centroid"]
    m[cl + "predict_us_per_doc_class"] = per(
        m[cl + "predict_s"], counts["doc_classes"], 1e6
    )
    m[cl + "save_model_s"] = selfs[cl + "save_model"]
    m[cl + "load_model_s"] = selfs[cl + "load_model"]
    m[cl + "model_bytes"] = sum(_size(f) for f in (plain.dir / "models").glob("*.json")
                                if f.name != "train_summary.json")

    ev = "evaluation."
    m[ev + "evaluate_grouped_self_s"] = selfs[ev + "evaluate_grouped"]
    m[ev + "load_eval_s"] = selfs[ev + "load_eval"]
    m[ev + "instances"] = counts["instances"]

    m["cli.startup_s"] = startup_s
    for step in STEPS:
        m[f"cli.{step}.wall_s"] = plain.wall_s(step)
        m[f"cli.{step}.peak_rss_mb"] = plain.rss_mb.get(step, 0.0)
    return m


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


# -------------------------------------------------------------------- main


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    w = WORKLOADS[workload]
    size = "tiny" if tiny else "full"
    work = OUT / "work" / f"{workload}-{size}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()
    cpu = _pin()
    launcher = Launcher()
    try:
        setup_s, manifest = setup(w, work / "fixture", seed, tiny, checks, launcher)
        steps = _step_args(w, manifest)
        passes = []
        if trace:
            startup_s = _startup_s(launcher, work)
            passes.append(run_pass(launcher, work, "plain", steps, traced=False))
            passes.append(run_pass(launcher, work, "traced", steps, traced=True))
        else:
            t0 = time.perf_counter()
            while not passes or (passes[-1].ok and time.perf_counter() - t0 < seconds):
                name = f"pass{len(passes)}"
                passes.append(run_pass(launcher, work, name, steps, traced=False))
        qualities = [check_pass(checks, p, manifest) for p in passes]
        digests = check_determinism(checks, passes, f"{workload}-{size}-seed{seed}")
        q = qualities[0]
        if trace:
            metrics = layer_metrics(passes[0], passes[1], startup_s)
        else:
            metrics = {
                "setup_s": setup_s,
                "pipeline_s": statistics.median(p.pipeline_s for p in passes),
                "peak_rss_mb": statistics.median(
                    max(p.rss_mb.values()) for p in passes
                ),
                "accuracy": q["accuracy"],
                "macro_f1": q["macro_f1"],
                "assigned_share": q["assigned_share"],
                "label_precision": q["label_precision"],
            }
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    env = {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "label_workers": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload,
        "size": size,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "sizes": manifest["sizes"],
    }
    record = {
        "env": env,
        "metrics": metrics,
        "step_walls": [p.walls for p in passes],
        "step_probes": [p.probes for p in passes],
        "checks": checks.results,
        "digests": digests,
        "predict_accuracy": q["predict_accuracy"],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return {
        "env": env,
        "result": {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        },
    }


def print_table(out: dict) -> None:
    print("env " + json.dumps(out["env"], sort_keys=True))
    for name, m in out["result"]["metrics"].items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")


def smoke() -> int:
    """Every workload at tiny size, plain and traced; 0 when all pass."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect = {
        False: [m["name"] for m in bench["end_to_end"]],
        True: [m["name"] for m in bench["per_layer"]],
    }
    bad = 0
    for name in WORKLOADS:
        for trace in (False, True):
            out = run(name, seed=0, seconds=0, trace=trace, tiny=True)
            res = out["result"]
            print(f"== {name} trace={int(trace)}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}")
            print_table(out)
            if not res["correct"] or sorted(res["metrics"]) != sorted(expect[trace]):
                bad += 1
    runs = 2 * len(WORKLOADS)
    print(f"smoke: {runs - bad} of {runs} runs correct and list BENCHMARK.json's metrics")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="repeat the pipeline until this long has been measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny size, plain and traced")
    args = ap.parse_args(argv)
    if not (SRC / "wikicat" / "cli.py").is_file():
        print(f"error: no wikicat sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required without --smoke")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), tiny=False)
    print_table(out)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
