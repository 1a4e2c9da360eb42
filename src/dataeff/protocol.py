"""Four-stage orchestration: manifests -> runs -> ledger -> discrete curve.

A Manifest freezes one fine-tuning job: all source-domain train rows plus one
drawn target subset, with the target domain's eval/test rows for scoring. A
runner is any callable Manifest -> RunResult; two ship here. SimulatedRunner
scores h(k) + noise against a truth curve, rejecting bad settings when built,
so the whole pipeline is testable without GPUs; CommandRunner shells out to a
user command for real fine-tuning (the command gets the manifest JSON path as
its single argument and must print RunResult JSON on stdout, exiting 0).
build_manifests sizes every subset before it returns, and run_protocol takes
manifests as runs start. A Manifest's rows are made on first read, a seed's
order drawn once, so the simulator, which reads none, draws none, and a
protocol holds the train rows of the runs in flight, not of every run.

A ledger (format 2) names once, in its header, the Protocol that all its runs
share, and holds one self-checked entry per run_id; decode errors name the
entry, as in ``entries[4]``. A runner that raises, or returns no RunResult, or
a prediction list of another length than its test rows, fails only that run.
The modules only CommandRunner and a multi-job protocol need (subprocess,
shlex, tempfile, concurrent.futures) are imported where those run, so a
simulated protocol and the commands that only read a ledger do not load them.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from threading import Lock
from typing import TYPE_CHECKING

from .curve import EfficiencyPoint
from .errors import ProtocolError, RunnerError
from .jsonio import dumps, from_dict, loads, read_text, replace_file
from .rng import SplitMix64, combine, float_key
from .sampling import Schedule, SubsetSpec, sample_nested

if TYPE_CHECKING:
    from .corpus import CorpusTable

_EM_STREAM = 0x45
_PREDICTION_STREAM = 0x50
_STDERR_LINES = 10  # of a failed runner's stderr, kept in its error


class _Rows(Sequence):
    """Rows of known len() that make() makes once, under a lock, when any is first read."""

    def __init__(self, length: int, make: Callable[[], tuple[int, ...]]):
        self._length, self._make, self._lock = length, make, Lock()

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        with self._lock:
            if self._make:
                self._made, self._make = self._make(), None
        return self._made[index]  # self[:] is the made tuple itself

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other) -> bool:
        return self[:] == other  # tuple == _Rows asks _Rows.__eq__ in turn

    def __hash__(self) -> int:
        return hash(self[:])

    def __reduce__(self):  # pickle, copy and deepcopy make the rows and carry the tuple
        return tuple, (self[:],)


@dataclass(frozen=True)
class Manifest:
    """One fine-tuning job: mixed train rows, eval rows, and target test rows. From
    build_manifests, train_rows and a uniform subset_rows are made on first read."""

    run_id: str
    model_id: str
    target_domain: str
    subset: SubsetSpec
    subset_rows: tuple[int, ...]
    subset_percent: float  # nominal percent for uniform, realized percent for spis
    train_rows: tuple[int, ...]
    eval_rows: tuple[int, ...]
    test_rows: tuple[int, ...]
    test_digest: str  # CorpusTable.test_digest of the target domain


@dataclass(frozen=True)
class Protocol:
    """What every run of one ledger shares, written once as the ledger's header."""

    model_id: str
    target_domain: str
    algorithm: str
    n_source_train: int
    n_eval: int
    n_test: int
    test_digest: str  # CorpusTable.test_digest of the target domain

    @staticmethod
    def of(manifest: Manifest) -> "Protocol":
        return Protocol(manifest.model_id, manifest.target_domain, manifest.subset.algorithm,
                        len(manifest.train_rows) - len(manifest.subset_rows),
                        len(manifest.eval_rows), len(manifest.test_rows), manifest.test_digest)

    def run_id(self, size_param: float, seed: int) -> str:
        """The run name at one size and seed: the size by :g, or by repr if :g would lose it."""
        size = f"{size_param:g}" if float(f"{size_param:g}") == size_param else repr(size_param)
        return f"{self.model_id}.{self.target_domain}.{self.algorithm}{size}.s{seed}"


@dataclass(frozen=True)
class RunResult:
    """What one run measured (its run_id and seed are its manifest's). predictions, if
    given, holds one frame text per test row, item i for the manifest's test_rows[i]."""

    exact_match: float
    wall_time: float = 0.0
    predictions: tuple[str, ...] | None = None

    def __post_init__(self):
        if not 0.0 <= self.exact_match <= 100.0:
            raise ProtocolError(f"exact_match out of [0, 100]: {self.exact_match}")
        if not (math.isfinite(self.wall_time) and self.wall_time >= 0):
            raise ProtocolError(f"wall_time must be finite and >= 0, got {self.wall_time}")


def _check_predictions(result: RunResult | None, n_test: int, where: str = "") -> None:
    if result and result.predictions is not None and len(result.predictions) != n_test:
        raise ProtocolError(f"{where}{len(result.predictions)} predictions for {n_test} test rows")


@dataclass(frozen=True)
class LedgerEntry:
    """One run and its outcome; it trains on protocol.n_source_train + subset_size rows."""

    run_id: str
    size_param: float
    seed: int
    subset_percent: float
    subset_size: int
    result: RunResult | None
    error: str | None

    def __post_init__(self):
        if self.result is None and self.error is None:
            raise ProtocolError("a failed entry needs an error message")
        if self.result is not None and self.error is not None:
            raise ProtocolError("an entry has a result or an error, not both")

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass(frozen=True)
class Ledger:
    """Immutable record of one protocol's runs: self-checked entries the header names."""

    format: int
    protocol: Protocol
    entries: tuple[LedgerEntry, ...]

    def __post_init__(self):
        if self.format != 2:
            raise ProtocolError(f"format {self.format}: only format 2 is read")
        first: dict[str, int] = {}
        for i, entry in enumerate(self.entries):
            if (j := first.setdefault(entry.run_id, i)) != i:
                raise ProtocolError(f"duplicate run_id {entry.run_id!r} "
                                    f"in entries[{j}] and entries[{i}]")
            if entry.run_id != (want := self.protocol.run_id(entry.size_param, entry.seed)):
                raise ProtocolError(f"entries[{i}]: run_id {entry.run_id!r} is not the "
                                    f"header's {want!r}")
            _check_predictions(entry.result, self.protocol.n_test, f"entries[{i}]: ")

    @property
    def ok_entries(self) -> list[LedgerEntry]:
        return [e for e in self.entries if e.ok]

    @property
    def failed_entries(self) -> list[LedgerEntry]:
        return [e for e in self.entries if not e.ok]

    @staticmethod
    def from_json(text: str, source: str) -> "Ledger":
        """Decode ledger JSON text; errors name source, e.g. the file it came from."""
        return from_dict(Ledger, loads(text, source), source)


def save_ledger(ledger: Ledger, path: str | Path) -> None:
    """Write the ledger's JSON by replace_file: an old ledger at path stays whole until then.
    A symlink at path is resolved and its target replaced, so the link stays a link."""
    replace_file(os.path.realpath(path), (dumps(ledger).encode("utf-8"), b"\n"))


def load_ledger(path: str | Path) -> Ledger:
    return Ledger.from_json(read_text(path), str(path))


def build_manifests(
    table: CorpusTable,
    target_domain: str,
    schedule: Schedule,
    algorithm: str = "uniform",
    seeds: Iterable[int] = (0,),
    model_id: str = "parser",
) -> Iterator[Manifest]:
    """One manifest per (schedule size, seed), built as it is taken from the iterator.

    Every subset is sized and checked before this returns, so a bad spec raises
    here, before any run starts (a spis subset is drawn here, as its size comes from
    the draw); each Manifest is built when taken, and its rows when first read.
    Train rows are every non-target train row plus the subset;
    eval rows are all non-target eval rows plus the target domain's eval rows;
    test rows are the target domain's test split. Each seed draws one order of
    the target train rows, and each distinct schedule size is cut from it
    (sampling.sample_nested), so a seed's subsets nest. Manifests come in
    schedule order, then seed order. For spis the sizes double as the
    per-label minimums, skipping entries below 1.
    """
    seeds = tuple(seeds)
    if len(set(seeds)) != len(seeds):
        raise ProtocolError(f"seeds must be unique, got {seeds}")
    target_train = len(table.row_ids(target_domain, "train"))
    sources = [domain for domain in table.domains() if domain != target_domain]

    def source_rows(split: str) -> tuple[int, ...]:
        # each domain's positions ascend, so sorting their concatenation is a merge
        return tuple(sorted(chain.from_iterable(table.row_ids(d, split) for d in sources)))

    source_train = source_rows("train")
    source_eval = source_rows("eval")
    eval_rows = source_eval + table.row_ids(target_domain, "eval")
    test_rows = table.row_ids(target_domain, "test")
    header = Protocol(model_id, target_domain, algorithm, len(source_train), len(eval_rows),
                      len(test_rows), table.test_digest(target_domain))

    sizes = list(dict.fromkeys(schedule.sizes))  # a dense schedule repeats ceiled sizes
    if algorithm == "spis":
        sizes = [k for k in sizes if k >= 1]

    by_seed = [sample_nested(table, target_domain, algorithm, seed, sizes, _Rows) for seed in seeds]

    return (
        Manifest(
            run_id=header.run_id(subset.spec.size_param, subset.spec.seed),
            model_id=model_id,
            target_domain=target_domain,
            subset=subset.spec,
            subset_rows=subset.row_ids,
            subset_percent=(subset.spec.size_param if algorithm == "uniform"
                            else 100.0 * len(subset.row_ids) / target_train),
            train_rows=_Rows(len(source_train) + len(subset.row_ids),
                             lambda rows=subset.row_ids: source_train + rows[:]),
            eval_rows=eval_rows,
            test_rows=test_rows,
            test_digest=header.test_digest,
        )
        for subset in chain.from_iterable(zip(*by_seed))  # by size, then by seed
    )


@dataclass(frozen=True)
class SimulatedRunner:
    """Score each manifest against a configured truth curve; safe to call concurrently.

    EM for a k% subset is clamp(a / k**b + c + eps, 0, 100) with
    eps ~ Normal(0, noise_sigma^2); the 0% subset reports em_at_zero + eps
    because the curve has a pole at zero. Noise is keyed by
    (seed, run seed, k), never by execution order. Given the corpus table, it
    also predicts one frame text per test row, in test_rows order: the reference
    frame with probability EM/100, else that frame with its root intent
    rewritten; exact_match becomes the realized fraction. wall_time is 0.
    """

    truth: tuple[float, float, float] = (-27.26, 0.35, 97.79)
    noise_sigma: float = 0.0
    em_at_zero: float = 0.0
    seed: int = 0
    table: CorpusTable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.truth) != 3 or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                for v in self.truth):
            raise ProtocolError(f"truth must be three finite numbers (a, b, c), got {self.truth!r}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ProtocolError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.em_at_zero <= 100.0:
            raise ProtocolError(f"em_at_zero out of [0, 100]: {self.em_at_zero}")

    def __call__(self, manifest: Manifest) -> RunResult:
        k = manifest.subset_percent
        a, b, c = self.truth
        run_seed = manifest.subset.seed
        noise_stream = SplitMix64(combine(self.seed, run_seed, float_key(k), _EM_STREAM))
        eps = noise_stream.gauss(self.noise_sigma) if self.noise_sigma > 0 else 0.0
        em = min(max((self.em_at_zero if k == 0 else a / k ** b + c) + eps, 0.0), 100.0)

        predictions = None
        table = self.table
        if table is not None:
            stream = SplitMix64(combine(self.seed, run_seed, float_key(k), _PREDICTION_STREAM))
            frames = []
            hits = 0
            for row_id in manifest.test_rows:
                parse = table.parse[row_id]
                if stream.unit() < em / 100.0:
                    hits += 1
                    frames.append(parse)
                else:  # a rewritten root intent label guarantees a miss
                    root = table.labels[row_id][0]
                    frames.append(f"[{root}_WRONG{parse[len(root) + 1:]}")
            predictions = tuple(frames)
            if frames:
                em = 100.0 * hits / len(frames)
        return RunResult(exact_match=em, predictions=predictions)


class CommandRunner:
    """Run an external fine-tuning command once per manifest.

    The command is invoked with the manifest JSON path appended as its single
    extra argument: manifest.json, in a temporary directory of the run's own,
    so any model id is safe. It must exit 0 and print a RunResult JSON object
    ({"exact_match", optional "wall_time" and "predictions"}) on stdout, in
    UTF-8; wall_time defaults to the elapsed time. predictions is a list of
    frame texts, item i for the manifest's test_rows[i]. A run_id or seed the
    command echoes must equal the manifest's and is then dropped. Anything else
    is recorded as a run failure. Stderr only feeds a failure's detail, its
    last 10 lines, so no byte on it can fail a run.
    """

    def __init__(self, command: str | Sequence[str], timeout: float | None = None):
        import shlex

        try:
            self.argv = shlex.split(command) if isinstance(command, str) else list(command)
        except ValueError as exc:  # unbalanced quotes
            raise RunnerError(f"cannot split runner command {command!r}: {exc}") from exc
        if not self.argv:
            raise RunnerError("empty runner command")
        self.timeout = timeout

    def __call__(self, manifest: Manifest) -> RunResult:
        import subprocess
        import tempfile

        with tempfile.TemporaryDirectory(prefix="dataeff-run-") as tmp:
            manifest_path = Path(tmp) / "manifest.json"
            manifest_path.write_text(dumps(manifest) + "\n", encoding="utf-8")
            started = time.monotonic()
            try:
                proc = subprocess.run(
                    self.argv + [str(manifest_path)],
                    capture_output=True, timeout=self.timeout,
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise RunnerError(f"runner command failed to execute: {exc}") from exc
            elapsed = time.monotonic() - started
        if proc.returncode != 0:
            detail = proc.stderr.decode("utf-8", errors="replace").strip().splitlines()
            raise RunnerError(
                f"runner exited {proc.returncode}"
                + (": " + "\n".join(detail[-_STDERR_LINES:]) if detail else "")
            )
        source = f"{manifest.run_id} runner output"
        try:
            stdout = proc.stdout.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RunnerError(f"{source} is not UTF-8: {exc}") from None
        obj = loads(stdout, source)
        if isinstance(obj, dict):
            for key, want in (("run_id", manifest.run_id), ("seed", manifest.subset.seed)):
                if (type(got := obj.get(key, want)), got) != (type(want), want):  # true is not 1
                    raise RunnerError(f"{source}: {key} {got!r} is not the manifest's {want!r}")
            obj = {"wall_time": elapsed} | obj
        return from_dict(RunResult, obj, source)


Runner = Callable[[Manifest], RunResult]


def run_protocol(manifests: Iterable[Manifest], runner: Runner, jobs: int = 1) -> Ledger:
    """Execute every manifest exactly once and collect results into a ledger.

    Manifests are taken from the iterable as runs start: jobs == 1 runs each
    as it is taken, and jobs > 1 runs them in a thread pool with at most
    2 * jobs of them in flight. A runner that raises or returns no valid
    RunResult, or predictions for another number of test rows, fails only that
    run. Ledger order always follows manifest order, regardless of completion
    order. The first manifest names the ledger's protocol; a later one of
    another protocol, or one whose run_id is not Protocol.run_id of its size
    and seed, raises ProtocolError before its runner is called.
    """
    if jobs < 1:
        raise ProtocolError(f"jobs must be >= 1, got {jobs}")
    header = None

    def taken() -> Iterator[Manifest]:
        nonlocal header
        for manifest in manifests:
            protocol = Protocol.of(manifest)
            header = header or protocol
            if protocol != header:
                differ = ", ".join(k for k, v in vars(protocol).items() if vars(header)[k] != v)
                raise ProtocolError(f"manifest {manifest.run_id!r} differs from the first in {differ}")
            spec = manifest.subset
            if manifest.run_id != (want := header.run_id(spec.size_param, spec.seed)):
                raise ProtocolError(f"manifest {manifest.run_id!r} is not the protocol's {want!r}")
            yield manifest

    def attempt(manifest: Manifest) -> LedgerEntry:
        try:
            result = runner(manifest)
            if not isinstance(result, RunResult):
                raise ProtocolError(f"runner returned {type(result).__name__}, not RunResult")
            _check_predictions(result, len(manifest.test_rows))
            outcome = result, None
        except Exception as exc:  # fault isolation: one bad run must not abort the rest
            outcome = None, f"{type(exc).__name__}: {exc}"
        return LedgerEntry(manifest.run_id, manifest.subset.size_param, manifest.subset.seed,
                           manifest.subset_percent, len(manifest.subset_rows), *outcome)

    if jobs == 1:
        entries = list(map(attempt, taken()))
    else:
        from concurrent.futures import ThreadPoolExecutor

        entries = []
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            in_flight = deque()
            for manifest in taken():
                in_flight.append(pool.submit(attempt, manifest))
                if len(in_flight) == 2 * jobs:  # wait before taking the next manifest
                    entries.append(in_flight.popleft().result())
            entries.extend(future.result() for future in in_flight)
    if header is None:
        raise ProtocolError("no manifests to run")
    return Ledger(2, header, tuple(entries))


def ledger_to_curve(ledger: Ledger) -> list[EfficiencyPoint]:
    """One EfficiencyPoint per ok run, at its subset percent and seed."""
    entries = ledger.ok_entries
    if not ledger.entries:
        raise ProtocolError("empty ledger")
    if not entries:
        raise ProtocolError("all runs failed; nothing to plot")
    return [EfficiencyPoint(e.subset_percent, e.result.exact_match, e.seed) for e in entries]
