"""Traced execution of one ``dataeff`` command, for the per-layer metrics.

Run as ``python3 bench/tracer.py OUT.json ITERATION -- <dataeff arguments>``.
It wraps the public functions of each module where their callers look them
up, calls ``dataeff.cli.main`` in this process and writes the recorded spans,
call totals and counts to ``OUT.json``; its exit code is the command's.

Spans carry a name, start, end, parent and the workload-iteration id. The
frame functions run hundreds of thousands of times per command, so each of
them is recorded as a call count and a total time instead of one span per
call. Self time is a span's duration minus the time its child spans cover.
Everything is kept in memory and written once, when the command ends.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import resource
import sys
import threading
import time
from collections import Counter


class _Open:
    __slots__ = ("id", "start", "parent", "leaf_s")

    def __init__(self, span_id, start, parent):
        self.id, self.start, self.parent = span_id, start, parent
        self.leaf_s = 0.0  # time inside aggregated (leaf) calls made from this span


class Tracer:
    def __init__(self, iteration: str):
        self.iteration = iteration
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}  # leaf name -> [calls, seconds]
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._main_stack: list[_Open] = []
        self._next_id = 0
        self._lock = threading.Lock()

    def _stack(self) -> list[_Open]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[_Open]) -> _Open | None:
        # a pool thread's first span belongs to whatever the main thread has open
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def wrap(self, name: str, fn, leaf: bool = False, on_result=None, failures: bool = False):
        """A wrapper of fn that records a span (or a leaf total) named name."""
        if leaf:
            totals = self.totals.setdefault(name, [0, 0.0])

            @functools.wraps(fn)
            def leaf_wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    parent = self._parent(self._stack())
                    with self._lock:
                        totals[0] += 1
                        totals[1] += elapsed
                        if parent is not None:
                            parent.leaf_s += elapsed

            return leaf_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
            frame = _Open(span_id, time.perf_counter(), parent.id if parent else None)
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append({
                    "id": span_id, "name": name, "start": frame.start, "end": end,
                    "parent": frame.parent, "iteration": self.iteration,
                    "thread": threading.current_thread().name, "leaf_s": frame.leaf_s,
                    "ok": ok,
                })
                if failures and not ok:
                    self.counts[name + ".failed"] += 1
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return wrapper

    def self_times(self) -> None:
        """Set each span's self_s: duration minus leaf time and the union of child spans."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        for span in self.spans:
            covered, cursor = 0.0, span["start"]
            for start, end in sorted(children.get(span["id"], ())):
                start, end = max(start, cursor), min(end, span["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            span["self_s"] = max(span["end"] - span["start"] - covered - span["leaf_s"], 0.0)


def _replace(owners, attr: str, wrapper_for) -> None:
    """Swap attr for its wrapper in every owner that holds the same original object."""
    original = getattr(owners[0], attr)
    wrapped = wrapper_for(original)
    for owner in owners:
        if getattr(owner, attr, None) is original:
            setattr(owner, attr, wrapped)


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public functions where the CLI and the other layers call them."""
    from dataeff import analysis, cli, corpus, frames, protocol, report, sampling

    callers = (corpus, analysis, sampling, protocol, cli)
    for name in ("parse_frame", "serialize_frame", "ontology_labels"):
        original = getattr(frames, name)
        wrapped = tracer.wrap(f"frames.{name}", original, leaf=True)
        for module in callers:
            if getattr(module, name, None) is original:
                setattr(module, name, wrapped)

    # Peak memory of a load is the growth of this process's high-water mark
    # during the call; the cyclic-GC pauses inside it come from gc.callbacks.
    gc_state = {"inside": 0, "started": 0.0}

    def on_gc(phase, info):
        if not gc_state["inside"]:
            return
        if phase == "start":
            gc_state["started"] = time.perf_counter()
        else:
            tracer.counts["corpus.load_corpus.gc_s"] += time.perf_counter() - gc_state["started"]

    gc.callbacks.append(on_gc)

    def corpus_rows(table, *args, **kwargs):
        tracer.counts["corpus.rows"] = max(tracer.counts["corpus.rows"], len(table))

    def load_corpus_wrapper(fn):
        traced = tracer.wrap("corpus.load_corpus", fn, on_result=corpus_rows)

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            gc_state["inside"] += 1
            try:
                return traced(*args, **kwargs)
            finally:
                gc_state["inside"] -= 1
                grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0
                peak = tracer.counts["corpus.load_corpus.peak_mb"]
                tracer.counts["corpus.load_corpus.peak_mb"] = max(peak, grown)

        return measured

    _replace([cli, corpus], "load_corpus", load_corpus_wrapper)

    def span(owners, attr, name, **options):
        _replace(owners, attr, lambda fn: tracer.wrap(name, fn, **options))

    def count_spis(subset, table, spec):
        tracer.counts["sampling.spis_kept"] += len(subset.row_ids)
        tracer.counts["sampling.spis_scanned"] += len(table.row_ids(spec.target_domain, "train"))

    span([sampling], "uniform_sample", "sampling.uniform_sample")
    span([sampling], "spis_sample", "sampling.spis_sample", on_result=count_spis)

    def ledger_size(result, ledger, path):
        tracer.counts["protocol.ledger_bytes"] += os.path.getsize(path)

    span([cli, protocol], "build_manifests", "protocol.build_manifests")
    span([cli, protocol], "run_protocol", "protocol.run_protocol")
    span([cli, protocol], "save_ledger", "protocol.save_ledger", on_result=ledger_size)
    # Every ledger read decodes through Ledger.from_json: load_ledger and the
    # CLI's points loader both call it.
    protocol.Ledger.from_json = staticmethod(
        tracer.wrap("protocol.load_ledger", protocol.Ledger.from_json))
    for runner in (protocol.SimulatedRunner, protocol.CommandRunner):
        runner.__call__ = tracer.wrap("protocol.runner", runner.__call__, failures=True)

    def fit_iterations(model, *args, **kwargs):
        tracer.counts["curve.fit_curve.iterations"] += model.iterations

    span([cli, analysis], "fit_curve", "curve.fit_curve", on_result=fit_iterations)
    span([cli, analysis, report], "invert", "curve.invert")

    span([analysis], "per_intent_points", "analysis.per_intent_points")
    span([analysis], "per_class_curves", "analysis.per_class_curves")

    def svg_size(paths, *args, **kwargs):
        tracer.counts["report.svg_bytes"] += sum(
            os.path.getsize(p) for p in paths if str(p).endswith(".svg"))

    span([report], "write_report", "report.write_report", on_result=svg_size)


def main(argv: list[str]) -> int:
    out_path, iteration, separator, *command = argv
    if separator != "--" or not command:
        raise SystemExit("usage: tracer.py OUT.json ITERATION -- <dataeff arguments>")
    from dataeff import cli

    tracer = Tracer(iteration)
    instrument(tracer)
    main_span = tracer.wrap(f"cli.main.{command[0]}", cli.main)
    try:
        code = main_span(command)
    finally:
        tracer.self_times()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"command": command, "spans": tracer.spans,
                       "totals": tracer.totals, "counts": tracer.counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
