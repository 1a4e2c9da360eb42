"""Result aggregation: model comparison and intent complexity.

A complexity class is a name in COMPLEXITY_CLASSES, which ranks how hard an intent is
to model: none < closed < semi < open, where "semi" covers named entities / date-times
/ ~100-value closed classes and "open" long free text; an intent inherits the maximum
class of its slots. Annotation files for five stock domains ship with the package, as
does a reference model-comparison table whose numbers come from full-scale fine-tuning
and are not recomputable here.

The complexity study reuses the curve path: per-intent points come from
ledger_to_curve, scored against the test split that the ledger's protocol
names, and a class curve is average_points of average_points.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .curve import EfficiencyPoint, Inversion, average_points, invert
from .errors import AnalysisError, AnnotationError
from .jsonio import csv_text, loads, read_text, text_table

if TYPE_CHECKING:
    from .corpus import CorpusTable
    from .protocol import Ledger

PACKAGED_ANNOTATION_DOMAINS = ("messaging", "music", "reminder", "timer", "weather")
COMPLEXITY_CLASSES = ("none", "closed", "semi", "open")  # least to most difficult


def load_annotations(path: str | Path) -> dict[str, str]:
    """Read a two-column CSV ``intent,class`` into {intent label: class name}."""
    classes: dict[str, str] = {}
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header != ["intent", "class"]:
        raise AnnotationError(f"{path}: expected header 'intent,class', got {header}")
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise AnnotationError(f"expected 2 columns, got {len(row)}", path, reader.line_num)
        intent, cls = row[0].strip(), row[1].strip().lower()
        if not intent.startswith("IN:"):
            raise AnnotationError(f"intent {intent!r} must be IN:-prefixed", path,
                                  reader.line_num)
        if intent in classes:
            raise AnnotationError(f"duplicate intent {intent!r}", path, reader.line_num)
        if cls not in COMPLEXITY_CLASSES:
            expected = ", ".join(COMPLEXITY_CLASSES)
            raise AnnotationError(f"unknown complexity class {row[1]!r} (expected {expected})",
                                  path, reader.line_num)
        classes[intent] = cls
    return classes


def packaged_annotations(domain: str) -> dict[str, str]:
    """Annotations shipped with the package for one of the stock domains."""
    if domain not in PACKAGED_ANNOTATION_DOMAINS:
        raise AnnotationError(
            f"no packaged annotations for {domain!r} "
            f"(have: {', '.join(PACKAGED_ANNOTATION_DOMAINS)})"
        )
    ref = resources.files("dataeff").joinpath(f"data/annotations/{domain}.csv")
    with resources.as_file(ref) as path:
        return load_annotations(path)


def per_intent_points(
    ledger: Ledger,
    table: CorpusTable,
    min_test_occurrences: int = 10,
) -> dict:
    """Break each run's exact match down by the reference frame's root intent.

    The points of ledger_to_curve are rescored per intent. The ledger's header
    names the target domain and its test_digest, which must be this corpus's
    table.test_digest(domain). Every successful run must carry predictions,
    item i for row i of that test split, each scored by frames.exact_match, so
    one that does not parse is a miss. Intents with fewer than
    min_test_occurrences rows in that split are excluded. Returns
    {intent label: [EfficiencyPoint, ...]}.
    """
    from .frames import exact_match
    from .protocol import ledger_to_curve

    points = ledger_to_curve(ledger)
    domain = ledger.protocol.target_domain
    if table.test_digest(domain) != ledger.protocol.test_digest:
        raise AnalysisError(f"the ledger's runs were scored on another {domain} test split "
                            "than this corpus's")
    test_split = table.row_ids(domain, "test")
    positions: dict[str, list[int]] = {}  # root intent -> its indexes into test_split
    for i, row_id in enumerate(test_split):
        positions.setdefault(table.labels[row_id][0], []).append(i)
    intents = {label: (idx, [table.parse[test_split[i]] for i in idx])
               for label, idx in sorted(positions.items()) if len(idx) >= min_test_occurrences}

    out: dict[str, list[EfficiencyPoint]] = {label: [] for label in intents}
    for entry, point in zip(ledger.ok_entries, points):
        if entry.result.predictions is None:
            raise AnalysisError(
                f"run {entry.run_id!r} has no per-example predictions; "
                "re-run with a prediction-emitting runner"
            )
        for label, (idx, references) in intents.items():
            em = exact_match([entry.result.predictions[i] for i in idx], references)
            out[label].append(replace(point, exact_match=em))
    return out


def per_class_curves(
    per_intent: dict,
    classes: dict[str, str],
) -> dict:
    """Average member-intent EM per subset percent within each complexity class.

    Seeds pool into a per-intent mean first (average_points), and a class
    point is the unweighted mean of its member intents' means (average_points
    again). Returns {class name: [EfficiencyPoint, ...]} in COMPLEXITY_CLASSES
    order, each sorted by percent with seed 0; a class with no member intents maps to [].
    """
    missing = [label for label in per_intent if label not in classes]
    if missing:
        raise AnalysisError(f"intents without annotations: {', '.join(sorted(missing))}")
    intent_means: dict[str, list[EfficiencyPoint]] = {c: [] for c in COMPLEXITY_CLASSES}
    for label, points in per_intent.items():
        intent_means[classes[label]] += average_points(points)
    return {cls: average_points(means) for cls, means in intent_means.items()}


def _render(cell: Inversion | None) -> str:
    """A comparison-table cell as text; None is a reference cell with no data."""
    if cell is None:
        return "-"
    percent, note = cell.cells(".2f")
    return f"{percent} ({note})" if percent and note else percent or note


@dataclass(frozen=True)
class ComparisonTable:
    """Required subset percent per (model, EM target), most data-efficient first."""

    em_targets: tuple
    rows: tuple  # ((model_id, (Inversion | None, ...)), ...)

    def _table(self, em_header: str) -> list:
        return [["model"] + [em_header.format(y) for y in self.em_targets]] + [
            [model_id] + [_render(cell) for cell in cells] for model_id, cells in self.rows]

    def to_csv(self) -> str:
        return csv_text(self._table("em_{:g}"))

    def to_text(self) -> str:
        return text_table(self._table("em={:g}%"), rule=True)


def _sorted_rows(rows: list) -> tuple:
    """Least data required at the first target first; a cell without a percent sorts last."""

    def key(row):
        first = row[1][0]
        percent = None if first is None else first.percent
        return (math.inf if percent is None else percent, row[0])

    return tuple(sorted(rows, key=key))


def compare_models(curves: dict, em_targets: list) -> ComparisonTable:
    """Inverse-query every model at every EM target.

    curves maps model id -> well-formed CurveModel. Rows are sorted by the
    data required at the first target, least first; a cell prints in the words of
    Inversion.cells, with no asymptote: 'unreachable', or a percent past 100% flagged.
    """
    if len(curves) < 2:
        raise AnalysisError("compare_models needs at least 2 models")
    if not em_targets:
        raise AnalysisError("no EM targets to compare at")
    bad = [mid for mid, m in curves.items() if not m.well_formed]
    if bad:
        raise AnalysisError(f"models are not well-formed saturating curves: {', '.join(sorted(bad))}")
    rows = [(model_id, tuple(invert(model, y) for y in em_targets))
            for model_id, model in curves.items()]
    return ComparisonTable(tuple(em_targets), _sorted_rows(rows))


def reference_comparison(domain: str) -> ComparisonTable:
    """Packaged full-scale fine-tuning results, formatted like compare_models output.

    These numbers come from GPU fine-tuning of production parsers and cannot
    be recomputed by the simulator; they ship as reference data only.
    """
    ref = resources.files("dataeff").joinpath("data/reference/model_generalizability.json")
    payload = loads(ref.read_text(encoding="utf-8"), str(ref))
    domains = payload["domains"]
    if domain not in domains:
        raise AnalysisError(
            f"no reference comparison for {domain!r} (have: {', '.join(sorted(domains))})"
        )
    block = domains[domain]
    targets = tuple(float(y) for y in block["em_targets"])
    rows = []
    for model_id, answers in block["models"].items():
        values = (answers.get(f"{y:g}") for y in targets)
        rows.append((model_id, tuple(None if v is None else Inversion(float(v)) for v in values)))
    return ComparisonTable(targets, _sorted_rows(rows))
