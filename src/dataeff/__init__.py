"""dataeff: measure and extrapolate the data efficiency of semantic parsers.

The workflow has four stages: draw target-domain subsets on a logarithmic
size schedule, run a parser (real or simulated) once per subset, fit the
resulting (subset %, exact match %) points with h(x) = a / x**b + c, and
invert the curve to answer "how much data do I need for y% exact match".

>>> from dataeff import make_schedule, fit_curve, invert, EfficiencyPoint
>>> points = [EfficiencyPoint(x, -27.26 / x**0.35 + 97.79) for x in (1, 2, 4, 7, 12)]
>>> model = fit_curve(points)
>>> round(invert(model, 80).percent, 2)
3.39
"""

from .analysis import (
    ComparisonTable,
    ComplexityAnnotations,
    ComplexityClass,
    SeedAggregate,
    aggregate_seeds,
    compare_models,
    intent_complexity_from_slots,
    load_annotations,
    packaged_annotations,
    per_class_curves,
    per_intent_points,
    reference_comparison,
)
from .corpus import CorpusTable, load_corpus, save_corpus
from .curve import (
    CurveModel,
    EfficiencyPoint,
    Inversion,
    average_points,
    evaluate,
    fit_curve,
    invert,
    load_model,
)
from .errors import DataEffError
from .frames import (
    Frame,
    FrameNode,
    exact_match,
    ontology_labels,
    parse_frame,
    serialize_frame,
)
from .protocol import (
    CommandRunner,
    Ledger,
    Manifest,
    RunResult,
    SimulatedRunner,
    SimulatedRunnerConfig,
    build_manifests,
    ledger_to_curve,
    load_ledger,
    run_protocol,
    save_ledger,
    simulated_run,
)
from .report import ReportSpec, render_csv, render_svg, write_report
from .sampling import (
    Schedule,
    SizeReport,
    Subset,
    SubsetSpec,
    make_schedule,
    spis_sample,
    subset_size_report,
    uniform_sample,
)

__version__ = "0.1.0"

__all__ = [
    "CommandRunner",
    "ComparisonTable",
    "ComplexityAnnotations",
    "ComplexityClass",
    "CorpusTable",
    "CurveModel",
    "DataEffError",
    "EfficiencyPoint",
    "Frame",
    "FrameNode",
    "Inversion",
    "Ledger",
    "Manifest",
    "ReportSpec",
    "RunResult",
    "Schedule",
    "SeedAggregate",
    "SimulatedRunner",
    "SimulatedRunnerConfig",
    "SizeReport",
    "Subset",
    "SubsetSpec",
    "aggregate_seeds",
    "average_points",
    "build_manifests",
    "compare_models",
    "evaluate",
    "exact_match",
    "fit_curve",
    "intent_complexity_from_slots",
    "invert",
    "ledger_to_curve",
    "load_annotations",
    "load_corpus",
    "load_ledger",
    "load_model",
    "make_schedule",
    "ontology_labels",
    "packaged_annotations",
    "parse_frame",
    "per_class_curves",
    "per_intent_points",
    "reference_comparison",
    "render_csv",
    "render_svg",
    "run_protocol",
    "save_corpus",
    "save_ledger",
    "serialize_frame",
    "simulated_run",
    "spis_sample",
    "subset_size_report",
    "uniform_sample",
    "write_report",
]
