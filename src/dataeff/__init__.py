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

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it. A name is loaded from its
# module on first access, so `import dataeff` loads no submodule and each
# command pays only for the modules it runs.
_SOURCE = {
    **dict.fromkeys((
        "ComparisonTable", "compare_models", "load_annotations", "packaged_annotations",
        "per_class_curves", "per_intent_points", "reference_comparison",
    ), "analysis"),
    **dict.fromkeys(("CorpusTable", "load_corpus"), "corpus"),
    **dict.fromkeys((
        "CurveModel", "EfficiencyPoint", "Inversion", "average_points", "evaluate",
        "fit_curve", "invert", "load_model",
    ), "curve"),
    "DataEffError": "errors",
    **dict.fromkeys(("canonical_frame", "exact_match"), "frames"),
    **dict.fromkeys((
        "CommandRunner", "Ledger", "Manifest", "RunResult", "SimulatedRunner",
        "build_manifests", "ledger_to_curve", "load_ledger", "run_protocol", "save_ledger",
    ), "protocol"),
    **dict.fromkeys(("ReportSpec", "render_csv", "render_svg", "write_report"), "report"),
    **dict.fromkeys((
        "Schedule", "Subset", "SubsetSpec", "make_schedule", "sample", "sample_nested",
    ), "sampling"),
}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
