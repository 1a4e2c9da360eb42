"""Command-line surface for the four-stage workflow.

Subcommands: schedule, sample, fit, query, run, report, complexity, compare,
em. Exit codes are a stable contract: 0 success, 1 data error, 2 usage error,
3 partial protocol failure (some runs failed but a ledger was written).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from pathlib import Path

from .curve import average_points, fit_curve, invert, load_model, points_from_csv
from .errors import (AnalysisError, DataEffError, FrameParseError, InputError, ProtocolError,
                     UnknownDomainError)
from .jsonio import csv_text, dumps, read_lines, read_text, text_table

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3


def __getattr__(name: str):
    # Tracer seam: bench/tracer.py looks load_corpus, build_manifests, run_protocol and
    # save_ledger up here. Delete it once the package records its own spans.
    from . import __getattr__ as exported

    return exported(name)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_points_file(path: str):
    """Points from a ledger JSON or a points CSV; at least one."""
    text = read_text(path)
    if text.lstrip().startswith("{"):
        from .protocol import Ledger, ledger_to_curve

        try:  # the decoder's own errors name the file already
            return ledger_to_curve(Ledger.from_json(text, path))
        except ProtocolError as exc:
            raise ProtocolError(f"{path}: {exc}") from None
    points = points_from_csv(text, path)
    if not points:
        raise InputError(f"{path}: no points")
    return points


def cmd_schedule(args) -> int:
    from .sampling import make_schedule

    schedule = make_schedule(args.n)
    sys.stdout.write(dumps(schedule) + "\n")
    return EXIT_OK


def cmd_sample(args) -> int:
    from . import corpus, sampling

    table = corpus.load_corpus(args.corpus)
    spec = args.spec  # built and checked by main() before any file is read
    subset = sampling.sample(table, spec)
    _emit(dumps(subset) + "\n", args.out)
    count, total = len(subset.row_ids), len(table.row_ids(args.domain, "train"))
    percent = 100.0 * count / total  # total > 0: sample refuses a domain without train rows
    print(f"{spec.algorithm} subset: {count} rows ({percent:.2f}% of {args.domain} train)",
          file=sys.stderr)
    return EXIT_OK


def cmd_fit(args) -> int:
    points = _load_points_file(args.points)
    zeros = sum(1 for p in points if p.subset_percent == 0)
    if zeros:
        print(
            f"warning: excluding {zeros} point(s) at 0% from the fit "
            "(curve has a pole at zero)",
            file=sys.stderr,
        )
    if args.average_seeds:
        counts = Counter(p.subset_percent for p in points).values()
        if min(counts) != max(counts):
            print(f"warning: --average-seeds pools {min(counts)} to {max(counts)} points per "
                  "subset percent; percents that differ by seed, as SPIS percents do, are not "
                  "averaged together", file=sys.stderr)
        points = average_points(points)
    model = fit_curve(points)
    if not model.well_formed:
        print(
            f"warning: fit is not a well-formed saturating curve "
            f"(a={model.a:.4g}, c={model.c:.4g})",
            file=sys.stderr,
        )
    _emit(dumps(model) + "\n", args.out)
    return EXIT_OK


def cmd_query(args) -> int:
    model = load_model(args.model)
    rows = [("em", "required_subset_%", "note")]
    for y in args.em:
        percent, note = invert(model, y).cells(".3f", model.c)
        rows.append((f"{y:g}", percent or "-", note))
    sys.stdout.write(text_table(rows))
    return EXIT_OK


def _make_runner(args, table):
    from .protocol import CommandRunner, SimulatedRunner

    if args.runner != "simulate":
        return CommandRunner(args.runner[len("exec:"):])
    given = {"truth": args.truth and tuple(args.truth), "noise_sigma": args.noise,
             "em_at_zero": args.em_at_zero, "seed": args.sim_seed}
    return SimulatedRunner(**{k: v for k, v in given.items() if v is not None},  # else its default
                           table=table if args.emit_predictions else None)


def cmd_run(args) -> int:
    import os
    import tempfile

    from . import corpus, protocol, sampling

    out = Path(os.path.realpath(args.out))  # save_ledger replaces a symlink's target
    try:  # save_ledger writes a file beside OUT and renames it: fail now if it cannot
        if os.path.lexists(out) and not out.is_file():  # a directory, FIFO, device or loop
            raise OSError("Is a directory" if out.is_dir() else "not a regular file")
        tempfile.TemporaryFile(dir=out.parent).close()  # unnamed, gone when closed
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    table = corpus.load_corpus(args.corpus)
    schedule = sampling.make_schedule(args.n)
    manifests = protocol.build_manifests(
        table, args.target, schedule,
        algorithm=args.algorithm, seeds=args.seeds, model_id=args.model_id,
    )
    runner = _make_runner(args, table)
    ledger = protocol.run_protocol(manifests, runner, jobs=args.jobs)
    protocol.save_ledger(ledger, args.out)
    failed = ledger.failed_entries
    print(
        f"{len(ledger.entries)} runs: {len(ledger.ok_entries)} ok, {len(failed)} failed "
        f"-> {args.out}",
        file=sys.stderr,
    )
    for entry in failed:
        print(f"  failed {entry.run_id}: {entry.error}", file=sys.stderr)
    try:
        fit_curve(protocol.ledger_to_curve(ledger))
    except DataEffError as exc:
        print(f"warning: fit cannot fit this ledger: {exc}", file=sys.stderr)
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_report(args) -> int:
    from . import report

    points = _load_points_file(args.points)
    model = load_model(args.model) if args.model else None
    spec = report.ReportSpec(points=tuple(points), model=model, queries=tuple(args.queries))
    for path in report.write_report(spec, args.out):
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def cmd_complexity(args) -> int:
    from . import analysis, corpus, protocol

    ledger = protocol.load_ledger(args.ledger)
    try:
        domain = ledger.protocol.target_domain
        if args.domain not in (None, domain):
            raise AnalysisError(f"the ledger's runs are on domain {domain!r}, "
                                f"not on --domain {args.domain!r}")
        table = corpus.load_corpus(args.corpus)
        if args.annotations:
            classes = analysis.load_annotations(args.annotations)
        else:
            classes = analysis.packaged_annotations(args.domain)
        per_intent = analysis.per_intent_points(ledger, table, args.min_count)
    except (ProtocolError, AnalysisError, UnknownDomainError) as exc:
        raise type(exc)(f"{args.ledger}: {exc}") from None
    curves = analysis.per_class_curves(per_intent, classes)
    rows = [("class", "subset_percent", "mean_exact_match")]
    rows += [(cls, f"{p.subset_percent:.10g}", f"{p.exact_match:.10g}")
             for cls, series in curves.items() for p in series]
    _emit(csv_text(rows), args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    from . import analysis

    if args.reference is not None:
        table = analysis.reference_comparison(args.reference)
    else:
        curves = {name: load_model(path) for name, path in args.curves}
        table = analysis.compare_models(curves, args.em)
    sys.stdout.write(table.to_csv() if args.fmt == "csv" else table.to_text())
    return EXIT_OK


def _read_frames(path: str) -> dict[int, str]:
    """The canonical text of each non-blank line's frame, by line number."""
    from .frames import canonical_frame

    frames = {}
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            frames[lineno] = canonical_frame(line)[0]
        except FrameParseError as exc:
            raise InputError(str(exc), path, lineno) from exc
    if not frames:
        raise InputError(f"{path}: no frames")
    return frames


def cmd_em(args) -> int:
    from .frames import exact_match

    system = _read_frames(args.system)
    reference = _read_frames(args.reference)
    if len(system) != len(reference):
        raise InputError(f"{args.system}: {len(system)} frames, {args.reference}: {len(reference)}")
    for at_system, at_reference in zip(system, reference):
        if at_system != at_reference:  # the earlier line is blank in the other file
            line = min(at_system, at_reference)
            framed, blank = ((args.system, args.reference) if line == at_system
                             else (args.reference, args.system))
            raise InputError(f"{framed}:{line} holds a frame and {blank}:{line} is blank")
    value = exact_match(list(system.values()), list(reference.values()))
    print(f"{value:.4f}")
    return EXIT_OK


def _finite(low: float = -math.inf, high: float = math.inf):
    """argparse type of a float option: a finite number in [low, high]."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan  # reported as not finite below
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"not a number in [{low:g}, {high:g}]: {text!r}")
        return value

    return parse


def _at_least(low: int):
    """argparse type of an integer option with a lower bound."""

    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"not an integer >= {low}: {text!r}")
        return int(text)

    return parse


def _seed(text: str) -> int:
    """argparse type of a sampling seed: an unsigned 64-bit integer."""
    if not text.strip().isdecimal() or int(text) >= 2 ** 64:
        raise argparse.ArgumentTypeError(f"not an integer in [0, 2**64): {text!r}")
    return int(text)


def _named_file(text: str) -> tuple[str, str]:
    """argparse type of a --curves entry: NAME=FILE, both non-empty, NAME printable."""
    name, _, path = text.partition("=")
    if not name or not path:
        raise argparse.ArgumentTypeError(f"not NAME=FILE: {text!r}")
    if not name.isprintable():  # a line break or tab would break the text table's columns
        raise argparse.ArgumentTypeError(f"not NAME=FILE with a printable NAME: {text!r}")
    return name, path


def _runner(text: str) -> str:
    """argparse type of --runner: 'simulate', or 'exec:' and a command."""
    if text != "simulate" and not (text.startswith("exec:") and text[len("exec:"):].strip()):
        raise argparse.ArgumentTypeError(f"not 'simulate' or 'exec:COMMAND': {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dataeff",
        description="Measure and extrapolate how much target-domain data a "
        "semantic parser needs for a given exact-match level.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="print the logarithmic subset-size schedule")
    p.add_argument("--n", type=_at_least(2), default=10, help="number of schedule points (>= 2)")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("sample", help="draw a subset of a target domain's train rows")
    p.add_argument("--corpus", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--algorithm", choices=["uniform", "spis"], default="uniform")
    p.add_argument("--size", type=_finite(), required=True,
                   help="percent for uniform, per-label minimum for spis")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="subset JSON path (default: stdout)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fit", help="fit the efficiency curve to discrete points")
    p.add_argument("--points", required=True,
                   help="ledger JSON, or points CSV with columns subset_percent,exact_match")
    p.add_argument("--out", default=None, help="curve model JSON path (default: stdout)")
    p.add_argument("--average-seeds", action="store_true",
                   help="average seeds per subset percent before fitting")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("query", help="invert a fitted curve at EM targets")
    p.add_argument("--model", required=True, help="curve model JSON path")
    p.add_argument("--em", type=_finite(0, 100), nargs="+", required=True)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("run", help="run the full protocol and write a ledger")
    p.add_argument("--corpus", required=True)
    p.add_argument("--target", required=True, help="target domain")
    p.add_argument("--runner", type=_runner, default="simulate",
                   help="'simulate' or 'exec:COMMAND'")
    p.add_argument("--seeds", type=_seed, nargs="+", default=[0])
    p.add_argument("--out", required=True, help="ledger JSON path")
    p.add_argument("--n", type=_at_least(2), default=10, help="schedule points (>= 2)")
    p.add_argument("--algorithm", choices=["uniform", "spis"], default="uniform")
    p.add_argument("--model-id", default="parser")
    p.add_argument("--jobs", type=_at_least(1), default=1, help="parallel runs (>= 1); only "
                   "exec: runs overlap, as the pure-Python simulator holds the interpreter lock")
    p.add_argument("--truth", type=_finite(), nargs=3, metavar=("A", "B", "C"),
                   help="simulator only: truth curve (default -27.26 0.35 97.79)")
    p.add_argument("--noise", type=_finite(0), help="simulator only: EM noise sigma (default 0)")
    p.add_argument("--em-at-zero", type=_finite(0, 100),
                   help="simulator only: EM for the 0%% subset (default 0)")
    p.add_argument("--sim-seed", type=_seed, help="simulator only: its seed (default 0)")
    p.add_argument("--emit-predictions", action="store_true", default=None,
                   help="simulator only: also emit per-test-row predictions")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="emit SVG and CSV plots of points + curve")
    p.add_argument("--points", required=True, help="ledger JSON or points CSV")
    p.add_argument("--model", default=None, help="curve model JSON path")
    p.add_argument("--queries", type=_finite(0, 100), nargs="*", default=[],
                   help="EM targets to draw guide lines for")
    p.add_argument("--out", required=True, help="output path prefix; writes OUT.svg and OUT.csv")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("complexity", help="per-complexity-class discrete curves")
    p.add_argument("--ledger", required=True, help="ledger JSON with predictions")
    p.add_argument("--corpus", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--annotations", help="intent,class CSV path")
    group.add_argument("--domain", help="use packaged annotations for this domain")
    p.add_argument("--min-count", type=_at_least(0), default=10,
                   help="drop intents with fewer test rows than this")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("compare", help="rank models by data required per EM target")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--curves", type=_named_file, nargs="+", metavar="NAME=FILE")
    group.add_argument("--reference",
                       help="print the packaged full-scale reference table for a domain")
    p.add_argument("--em", type=_finite(0, 100), nargs="*", help="EM targets for --curves")
    p.add_argument("--fmt", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("em", help="exact match between two frame files (one per line)")
    p.add_argument("--system", required=True)
    p.add_argument("--reference", required=True)
    p.set_defaults(func=cmd_em)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare":
        if args.reference is not None and args.em is not None:
            parser.error("argument --em: not allowed with argument --reference")
        if args.curves and not args.em:
            parser.error("--curves comparison needs --em targets")
        if args.curves and len(args.curves) < 2:
            parser.error("--curves comparison needs at least 2 models")
        names = [name for name, _ in args.curves or ()]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            parser.error(f"--curves names must be unique; repeated: {', '.join(repeated)}")
    if args.command == "report" and args.queries and args.model is None:
        parser.error("argument --queries: needs --model")
    if args.command == "sample":
        from .errors import SamplingError
        from .sampling import SubsetSpec

        try:
            args.spec = SubsetSpec(args.domain, args.algorithm, args.size, args.seed)
        except SamplingError as exc:
            parser.error(f"argument --size: {exc}")
    if args.command == "run" and len(set(args.seeds)) != len(args.seeds):
        parser.error(f"argument --seeds: seeds must be unique, got {args.seeds}")
    if args.command == "run" and args.runner != "simulate":
        for option in ("truth", "noise", "em_at_zero", "sim_seed", "emit_predictions"):
            if getattr(args, option) is not None:
                parser.error(f"argument --{option.replace('_', '-')}: simulator only, not exec:")
    try:
        return args.func(args)
    except (DataEffError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
