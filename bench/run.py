"""End-to-end benchmark of the dataeff command line on generated TOPv2-shaped corpora.

Usage::

    python3 bench/run.py --workload topv2-uniform --seed 1 --seconds 10 --trace 0

One run generates the workload's inputs from ``--seed`` (``corpus_gen.py``,
which never imports the program), then runs the workload's CLI chain
(``python -m dataeff run``, then fit/query/report/complexity/compare) as
subprocesses, the same way a user does, for about ``--seconds`` seconds and at
least once. Every command's exit code and output is checked, and the last
line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: medians over the chains run,
with sample counts printed on the lines above the JSON. ``--trace 1`` runs the
chain once untraced and once with every command under ``tracer.py`` and
reports the per-layer metrics plus the tracing overhead, and writes the
spans to ``.bench_out/``.

The closed loop is one client: each command starts when the previous one has
ended. Subprocesses get the absolute ``src`` directory on ``PYTHONPATH`` and
the interpreter's default GC settings, so the numbers are those a user sees.
Operations are the CLI commands plus the protocol runs; an operation with a
wrong exit code, a failed run or a failed output check counts as failed, and
``error_share`` = failed / attempted. Any failure makes ``correct`` false and
the exit code 1. Without the program's sources next to ``bench/`` the run
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import corpus_gen  # noqa: E402
from stub_runner import TRUTH  # noqa: E402

RUN_DEADLINE_S = 170.0  # a run must end within 180 s; commands are killed past this
QUERY_SAMPLES = 5  # query invocations timed per chain (the chain's own plus extras)
MIN_CHAINS = 2  # every run repeats the chain, so the outputs' bytes can be compared
EM_TARGET = 90.0
SVG_NS = "{http://www.w3.org/2000/svg}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: str  # file name; the extension selects TSV or JSONL
    scale: float  # corpus size relative to TOPv2 (~176k rows at 1.0)
    target: str
    runs: int  # protocol runs the ledger must hold
    invert_tolerance: float  # allowed |ln(fitted / true)| of the subset % for EM 90
    steps: tuple  # (label, dataeff arguments); "run" comes first
    predictions: bool = False


def _args(text: str) -> tuple:
    return tuple(text.split())


FIT = ("fit", _args("fit --points {out}/ledger.json --out {out}/model.json"))
QUERY = ("query", _args("query --model {out}/model.json --em 80 90 95"))
REPORT = ("report", _args(
    "report --points {out}/ledger.json --model {out}/model.json --queries 80 90 "
    "--out {out}/plot"))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="topv2-uniform",
            why="paper's headline protocol at TOPv2 scale: corpus load and frame "
                "parsing dominate run, sampling and analysis are nearly absent",
            corpus="corpus.tsv", scale=1.0, target="weather", runs=30,
            invert_tolerance=0.25,
            steps=(
                ("run", _args(
                    "run --corpus corpus.tsv --target weather --runner simulate "
                    "--seeds 0 1 2 --noise 0.5 --jobs 1 --out {out}/ledger.json")),
                FIT, QUERY, REPORT,
            ),
        ),
        Workload(
            name="topv2-spis-complexity",
            why="quarter-scale TOPv2 corpus, music, SPIS with predictions: label "
                "counting, simulator threads, a ledger read twice, per-intent analysis "
                "that reloads the corpus",
            # A quarter of TOPv2 keeps the chain near 10 s, so a run repeats it
            # several times; one 40 s chain per run spread too far between runs.
            corpus="corpus.tsv", scale=0.25, target="music", runs=27,
            # SPIS subsets stop well short of the ~36% that EM 90 needs
            invert_tolerance=0.6, predictions=True,
            steps=(
                ("run", _args(
                    "run --corpus corpus.tsv --target music --algorithm spis "
                    "--emit-predictions --seeds 0 1 2 --noise 0.5 --jobs 2 "
                    "--out {out}/ledger.json")),
                FIT, QUERY,
                ("complexity", _args(
                    "complexity --ledger {out}/ledger.json --corpus corpus.tsv "
                    "--domain music --out {out}/complexity.csv")),
            ),
        ),
        Workload(
            name="desk-exec",
            why="desk-scale JSONL corpus with an exec: runner: per-run manifest, "
                "subprocess and result parsing dominate, plus start-up, fit and report",
            corpus="corpus.jsonl", scale=5000 / 175659, target="weather", runs=30,
            invert_tolerance=0.1,
            steps=(
                ("run", _args(
                    "run --corpus corpus.jsonl --target weather --runner {stub} "
                    "--seeds 0 1 2 --jobs 2 --out {out}/ledger.json")),
                FIT,
                ("fit", _args(
                    "fit --points {out}/ledger.json --average-seeds "
                    "--out {out}/model_avg.json")),
                QUERY, REPORT,
                ("compare", _args(
                    "compare --curves joint={out}/model.json averaged={out}/model_avg.json "
                    "--em 80 90 95")),
            ),
        ),
    )
}

# outputs whose bytes must repeat exactly across the chains of one run
ARTIFACTS = ("ledger.json", "model.json", "model_avg.json", "plot.svg", "plot.csv",
             "complexity.csv", "query.out", "compare.out")


@dataclass
class Command:
    label: str
    code: int
    wall_s: float
    max_rss_mb: float
    stdout: str


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


class Runner:
    """Starts the chain's processes and waits for each; kills them past the deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        # the exec: runner's temporary manifests stay inside the checkout
        self.env["TMPDIR"] = str(workdir / "tmp")
        (workdir / "tmp").mkdir(parents=True, exist_ok=True)
        self.logs = 0

    def execute(self, label: str, argv: list[str]) -> Command:
        self.logs += 1
        out_path = self.workdir / f"cmd{self.logs}.out"
        err_path = self.workdir / f"cmd{self.logs}.err"
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out,
                                    stderr=err, start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace").strip()[-600:]
            print(f"  {label} exited {proc.returncode}: {tail}", file=sys.stderr)
        return Command(label, proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_json(path: Path):
    """A program output parsed as JSON, or None when it is missing or malformed."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def setup(workload: Workload, seed: int, workdir: Path) -> tuple[float, str]:
    """Write the workload's corpus; returns the time it took and the file's sha256."""
    path = workdir / workload.corpus
    start = time.perf_counter()
    corpus_gen.write_corpus(path, seed, workload.scale)
    return time.perf_counter() - start, _sha256(path)


def chain_argv(workload: Workload, out: str, traced_as: Path | None, step_index: int,
               iteration: str) -> tuple[str, list[str]]:
    """The label and argv of one chain step, run plainly or under the tracer."""
    stub = "exec:" + " ".join(shlex.quote(p) for p in (sys.executable, str(BENCH / "stub_runner.py")))
    label, template = workload.steps[step_index]
    args = [a.format(out=out, stub=stub) for a in template]
    if traced_as is None:
        return label, [sys.executable, "-m", "dataeff", *args]
    spans = traced_as / f"{iteration}.{step_index}.json"
    return label, [sys.executable, str(BENCH / "tracer.py"), str(spans), iteration, "--", *args]


def run_chain(workload: Workload, runner: Runner, out: str, extra_queries: int,
              traced_as: Path | None = None, iteration: str = "") -> tuple[list[Command], float]:
    """Run the workload's commands in order; returns them and the chain's wall time."""
    (runner.workdir / out).mkdir(exist_ok=True)
    commands = []
    start = time.perf_counter()
    for index in range(len(workload.steps)):
        label, argv = chain_argv(workload, out, traced_as, index, iteration)
        commands.append(runner.execute(label, argv))
    wall = time.perf_counter() - start
    for cmd in commands:
        if cmd.label in ("query", "compare"):
            (runner.workdir / out / f"{cmd.label}.out").write_text(cmd.stdout, encoding="utf-8")
    query_index = [label for label, _ in workload.steps].index("query")
    for _ in range(extra_queries):
        _, argv = chain_argv(workload, out, None, query_index, iteration)
        commands.append(runner.execute("query", argv))
    return commands, wall


def _truth_percent(em: float) -> float:
    a, b, c = TRUTH
    return ((em - c) / a) ** (-1.0 / b)


def expected_classes(workload: Workload, corpus: Path, min_count: int = 10) -> set[str]:
    """Complexity classes of the target intents with at least min_count test rows."""
    annotations = SRC / "dataeff" / "data" / "annotations" / f"{workload.target}.csv"
    classes = dict(line.split(",") for line in
                   annotations.read_text(encoding="utf-8").split()[1:])
    counts: dict[str, int] = {}
    root = re.compile(r"\[(IN:[A-Z_:]+)")
    for line in corpus.read_text(encoding="utf-8").splitlines()[1:]:
        domain, _, frame, split = line.split("\t")
        if domain == workload.target and split == "test":
            intent = root.match(frame).group(1)
            counts[intent] = counts.get(intent, 0) + 1
    return {classes[i] for i, n in counts.items() if n >= min_count and i in classes}


def check_chain(workload: Workload, commands: list[Command], out: Path, tally: Tally,
                expect: dict) -> None:
    """Count the chain's operations and record every unexpected outcome."""
    tally.attempted += len(commands) + workload.runs
    for cmd in commands:
        tally.check(cmd.code == 0, f"{cmd.label} exited {cmd.code}")

    entries = (_read_json(out / "ledger.json") or {}).get("entries", [])
    ok = [e for e in entries if e.get("result") is not None and e.get("error") is None]
    tally.check(len(entries) == workload.runs,
                f"ledger holds {len(entries)} entries, expected {workload.runs}")
    for _ in range(workload.runs - len(ok)):
        tally.check(False, "a protocol run failed or is missing")
    if workload.predictions:
        counts = [len(e["result"].get("predictions") or ()) for e in ok]
        tally.check(sum(counts) == expect["test_rows"] * workload.runs,
                    f"{sum(counts)} predictions, expected {expect['test_rows']} x {workload.runs}")

    model = _read_json(out / "model.json")
    if tally.check(isinstance(model, dict), "fit wrote no readable model"):
        ratio = (EM_TARGET - model["c"]) / model["a"] if model["a"] else -1.0
        fitted = ratio ** (-1.0 / model["b"]) if ratio > 0 and model["b"] > 0 else math.inf
        truth = _truth_percent(EM_TARGET)
        print(f"invert({EM_TARGET:g}): fitted {fitted:.3f}%, truth {truth:.3f}%, "
              f"|ln ratio| {abs(math.log(fitted / truth)):.3f} <= {workload.invert_tolerance}")
        tally.check(abs(math.log(fitted / truth)) <= workload.invert_tolerance,
                    f"invert({EM_TARGET:g}) = {fitted:.3f}%, truth {truth:.3f}%")
        for cmd in commands:
            if cmd.label == "query":
                printed = [line.split()[1] for line in cmd.stdout.splitlines()
                           if line.startswith("90 ")]
                tally.check(printed == [f"{fitted:.3f}"],
                            f"query printed {printed} for EM 90, the model gives {fitted:.3f}")

    svg = out / "plot.svg"
    if any(label == "report" for label, _ in workload.steps) and tally.check(
            svg.exists(), "report wrote no SVG"):
        try:
            tree = ElementTree.fromstring(svg.read_bytes())
            points = [c for c in tree.iter(SVG_NS + "circle") if c.get("class") == "point"]
            tally.check(tree.tag == SVG_NS + "svg" and len(points) == len(ok),
                        f"SVG has {len(points)} points for {len(ok)} runs")
        except ElementTree.ParseError as exc:
            tally.check(False, f"SVG does not parse: {exc}")
        csv_rows = (out / "plot.csv").read_text().splitlines()
        tally.check(sum(r.startswith("point,") for r in csv_rows) == len(ok),
                    "report CSV point rows do not match the runs")

    complexity = out / "complexity.csv"
    if any(label == "complexity" for label, _ in workload.steps) and tally.check(
            complexity.exists(), "complexity wrote no CSV"):
        rows = [r.split(",") for r in complexity.read_text().splitlines()[1:]]
        found = {r[0] for r in rows if len(r) == 3 and 0.0 <= float(r[2]) <= 100.0}
        tally.check(found == expect["classes"],
                    f"complexity classes {sorted(found)}, expected {sorted(expect['classes'])}")

    for cmd in commands:
        if cmd.label == "compare":
            tally.check("joint" in cmd.stdout and "averaged" in cmd.stdout,
                        "compare output lacks a model")


def digests(out: Path) -> dict[str, str]:
    return {name: _sha256(out / name) for name in ARTIFACTS if (out / name).exists()}


def check_repeats(all_digests: list[dict], tally: Tally) -> None:
    """Every repetition within a run must write byte-identical outputs."""
    for name in all_digests[0]:
        values = {d.get(name) for d in all_digests}
        tally.check(len(values) == 1, f"{name} differs between repetitions")


def info() -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "loadavg": [round(v, 2) for v in os.getloadavg()],
        "src_lines": src_lines,
    }


def report_line(name: str, value: float, unit: str, samples: int | None = None) -> None:
    count = f"  (median of {samples})" if samples is not None else ""
    print(f"{name:34s} {value:14.6f} {unit}{count}")


def expectations(workload: Workload, workdir: Path) -> dict:
    """What the checks compare against, derived from the generated corpus."""
    expect = {"test_rows": corpus_gen.split_counts(workload.scale)[workload.target]["test"]}
    if any(label == "complexity" for label, _ in workload.steps):
        expect["classes"] = expected_classes(workload, workdir / workload.corpus)
    return expect


def measure(workload: Workload, seed: int, seconds: float, workdir: Path,
            deadline: float) -> tuple[Tally, dict]:
    tally = Tally()
    setups = [setup(workload, seed, workdir)]
    expect = expectations(workload, workdir)
    runner = Runner(workdir, deadline)
    runner.execute("warm-up", [sys.executable, "-c", "import dataeff"])

    chains = []
    started = time.perf_counter()
    while True:
        out = f"rep{len(chains) + 1}"
        commands, wall = run_chain(workload, runner, out, QUERY_SAMPLES - 1)
        check_chain(workload, commands, workdir / out, tally, expect)
        chains.append((commands, wall, digests(workdir / out)))
        # one more set-up after each chain spreads its samples over the run
        setups.append(setup(workload, seed, workdir))
        elapsed = time.perf_counter() - started
        mean_chain = elapsed / len(chains)
        if time.monotonic() + 2 * mean_chain > deadline:
            break
        if len(chains) >= MIN_CHAINS and elapsed + mean_chain > seconds:
            break
    setup_times = [t for t, _ in setups]
    tally.check(len({d for _, d in setups}) == 1, "one seed generated different corpora")
    check_repeats([d for _, _, d in chains], tally)
    for name, digest in sorted(chains[0][2].items()):
        print(f"sha256 {name:16s} {digest}")

    steps = len(workload.steps)
    run_s = [c[0].wall_s for c, _, _ in chains]
    analyze_s = [sum(x.wall_s for x in c[1:steps]) for c, _, _ in chains]
    query_s = [x.wall_s for c, _, _ in chains for x in c if x.label == "query"]
    rss = [max(x.max_rss_mb for x in c[:steps]) for c, _, _ in chains]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "pipeline_s": (statistics.median([w for _, w, _ in chains]), "s", len(chains)),
        "run_s": (statistics.median(run_s), "s", len(chains)),
        "analyze_s": (statistics.median(analyze_s), "s", len(chains)),
        "query_s": (statistics.median(query_s), "s", len(query_s)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(chains)),
    }
    return tally, metrics


def _aggregate_traces(paths: list[Path]) -> tuple[dict, list]:
    """Per-layer metrics from the tracer's per-command files."""
    totals: dict[str, list] = {}
    spans, counts = [], {}
    for path in paths:
        data = json.loads(path.read_text())
        for span in data["spans"]:
            span["command"] = data["command"][0]
        spans.extend(data["spans"])
        for name, (calls, secs) in data["totals"].items():
            t = totals.setdefault(name, [0, 0.0])
            t[0] += calls
            t[1] += secs
        for name, value in data["counts"].items():
            if name in ("corpus.rows", "corpus.load_corpus.peak_mb"):
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value

    def span_calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def span_sum(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    metrics = {}
    for name in ("parse_frame", "serialize_frame", "ontology_labels"):
        calls, secs = totals.get(f"frames.{name}", (0, 0.0))
        metrics[f"frames.{name}.calls"] = (calls, "count")
        metrics[f"frames.{name}.s"] = (secs, "s")
    metrics["corpus.load_corpus.s"] = (span_sum("corpus.load_corpus"), "s")
    metrics["corpus.load_corpus.gc_s"] = (counts.get("corpus.load_corpus.gc_s", 0.0), "s")
    metrics["corpus.load_corpus.peak_mb"] = (counts.get("corpus.load_corpus.peak_mb", 0.0), "MB")
    metrics["corpus.rows"] = (counts.get("corpus.rows", 0), "count")
    for name in ("uniform_sample", "spis_sample"):
        metrics[f"sampling.{name}.calls"] = (span_calls(f"sampling.{name}"), "count")
        metrics[f"sampling.{name}.s"] = (span_sum(f"sampling.{name}"), "s")
    scanned = counts.get("sampling.spis_scanned", 0)
    metrics["sampling.spis_kept_ratio"] = (
        counts.get("sampling.spis_kept", 0) / scanned if scanned else 0.0, "ratio")
    for name in ("build_manifests", "run_protocol"):
        metrics[f"protocol.{name}.s"] = (span_sum(f"protocol.{name}"), "s")
    metrics["protocol.runner.calls"] = (span_calls("protocol.runner"), "count")
    metrics["protocol.runner.s"] = (span_sum("protocol.runner"), "s")
    metrics["protocol.runner.failed"] = (counts.get("protocol.runner.failed", 0), "count")
    for name in ("save_ledger", "load_ledger"):
        metrics[f"protocol.{name}.s"] = (span_sum(f"protocol.{name}"), "s")
    metrics["protocol.ledger_bytes"] = (counts.get("protocol.ledger_bytes", 0), "bytes")
    metrics["curve.fit_curve.s"] = (span_sum("curve.fit_curve"), "s")
    metrics["curve.fit_curve.iterations"] = (counts.get("curve.fit_curve.iterations", 0), "count")
    metrics["curve.invert.s"] = (span_sum("curve.invert"), "s")
    for name in ("per_intent_points", "per_class_curves"):
        metrics[f"analysis.{name}.s"] = (span_sum(f"analysis.{name}"), "s")
    metrics["report.write_report.s"] = (span_sum("report.write_report"), "s")
    metrics["report.svg_bytes"] = (counts.get("report.svg_bytes", 0), "bytes")
    for sub in ("run", "fit", "query", "report", "complexity", "compare"):
        metrics[f"cli.main.{sub}.s"] = (span_sum(f"cli.main.{sub}"), "s")

    self_s = {m: 0.0 for m in ("frames", "corpus", "sampling", "protocol", "curve",
                               "analysis", "report", "cli")}
    for span in spans:
        self_s[span["name"].split(".")[0]] += span["self_s"]
    self_s["frames"] += sum(secs for _, secs in totals.values())
    for module, secs in self_s.items():
        metrics[f"{module}.self_s"] = (secs, "s")
    return metrics, spans


def measure_traced(workload: Workload, seed: int, workdir: Path,
                   deadline: float) -> tuple[Tally, dict]:
    tally = Tally()
    setup(workload, seed, workdir)
    expect = expectations(workload, workdir)
    runner = Runner(workdir, deadline)
    import_s = []
    for _ in range(QUERY_SAMPLES):
        cmd = runner.execute("import", [
            sys.executable, "-c",
            "import time; t = time.perf_counter(); import dataeff; "
            "print(time.perf_counter() - t)"])
        tally.attempted += 1
        if tally.check(cmd.code == 0, "import dataeff failed"):
            import_s.append(float(cmd.stdout))

    commands, untraced = run_chain(workload, runner, "plain", 0)
    check_chain(workload, commands, workdir / "plain", tally, expect)
    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    iteration = f"{workload.name}.seed{seed}.traced1"
    commands, traced = run_chain(workload, runner, "traced", 0, spans_dir, iteration)
    check_chain(workload, commands, workdir / "traced", tally, expect)
    check_repeats([digests(workdir / "plain"), digests(workdir / "traced")], tally)

    metrics, spans = _aggregate_traces(sorted(spans_dir.glob("*.json")))
    metrics["cli.import_s"] = (statistics.median(import_s) if import_s else 0.0, "s")
    metrics["trace.pipeline_s"] = (traced, "s")
    metrics["trace.untraced_pipeline_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    with open(spans_file, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    print(f"spans: {len(spans)} written to {spans_file.relative_to(ROOT)}")
    run_s = metrics["cli.main.run.s"][0]
    run_load_s = sum(s["end"] - s["start"] for s in spans
                     if s["name"] == "corpus.load_corpus" and s["command"] == "run")
    if run_s:
        print(f"corpus.load_corpus share of cli.main.run: {run_load_s / run_s:.3f}")
    return tally, {k: (v, unit, None) for k, (v, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the dataeff CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dataeff" / "__init__.py").is_file():
        print(f"error: no dataeff sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    print(f"info {json.dumps(info())}")
    try:
        if args.trace:
            tally, metrics = measure_traced(workload, args.seed, workdir, deadline)
        else:
            tally, metrics = measure(workload, args.seed, args.seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(tally.problems)
    for problem in tally.problems:
        print(f"check failed: {problem}")
    for name, (value, unit, samples) in metrics.items():
        report_line(name, value, unit, samples)
    if not args.trace:
        report_line("error_share", failed / tally.attempted, "ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
