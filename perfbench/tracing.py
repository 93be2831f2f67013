"""The traced run: wrappers at the program's module boundaries.

The wrappers live here, in the benchmark, and replace each public name
where its caller looks it up (``from x import f`` copies the name, so a
function is patched once per importing module).  Coarse calls record a
span: name, start, end and parent span.  Per-move calls (``peek``,
``commit``, tabu lookups) record only a count and busy time, which keeps
the tracing overhead small; their busy time is still charged to the open
span, so every self time excludes it.
"""

from __future__ import annotations

import contextlib
import functools
import re
import weakref
from collections import defaultdict
from time import perf_counter

from cviopt import cli, dataio, evaluation, geometry, nngraph, optim
from cviopt.cvi import evaluators, indices

from workloads import ALL_SPECS

# (module, attribute, span name) for every coarse boundary
SPAN_SITES = [
    (dataio, "load_dataset", "dataio.load_dataset"),
    (dataio, "load_labels", "dataio.load_labels"),
    (dataio, "save_labels", "dataio.save_labels"),
    (dataio, "preprocess", "dataio.preprocess"),
    (geometry, "pairwise", "geometry.pairwise"),
    (evaluators, "emst", "geometry.emst"),
    (nngraph, "build_knn", "nngraph.build_knn"),
    (nngraph, "knn_for", "nngraph.knn_for"),
    (evaluators, "knn_for", "nngraph.knn_for"),
    (indices, "knn_for", "nngraph.knn_for"),
    (cli, "knn_for", "nngraph.knn_for"),
    (evaluators, "edges_for", "nngraph.edges_for"),
    (indices, "edges_for", "nngraph.edges_for"),
    (cli, "connected_components", "nngraph.connected_components"),
    (optim, "make_evaluator", "cvi.make_evaluator"),
    (optim, "evaluate", "cvi.evaluate"),
    (optim, "optimise_dataset", "optim.optimise_dataset"),
    (optim, "tabu_hill_climb", "optim.tabu_hill_climb"),
    (optim, "lloyd_kmeans", "optim.lloyd_kmeans"),
    (cli, "adjusted_rand", "evaluation.adjusted_rand"),
    (evaluation, "adjusted_rand", "evaluation.adjusted_rand"),
    (cli, "method_dissimilarity", "evaluation.method_dissimilarity"),
    (cli, "complete_linkage", "evaluation.complete_linkage"),
    (cli, "run_benchmark", "cli.run_benchmark"),
    (cli, "run_job", "cli.run_job"),
    (cli, "summarize", "cli.summarize"),
    (cli, "meta_cluster", "cli.meta_cluster"),
]

# (class, method, counter name) for every per-move boundary
COUNT_SITES = [
    (evaluators.CVIEvaluator, "peek", "cvi.peek"),
    (evaluators.CVIEvaluator, "commit", "cvi.commit"),
    (optim.TabuList, "__contains__", "optim.tabu_contains"),
    (optim.TabuList, "add", "optim.tabu_add"),
]


def site_key(owner, attr: str) -> str:
    name = getattr(owner, "__name__", "")
    return f"{name.removeprefix('cviopt.')}.{attr}"


_CLIMB = [
    "optim.optimise_dataset", "optim.tabu_hill_climb", "optim.lloyd_kmeans",
    "optim.make_evaluator", "optim.evaluate", "CVIEvaluator.peek", "CVIEvaluator.commit",
    "TabuList.__contains__", "TabuList.add", "nngraph.build_knn", "nngraph.knn_for",
    "cvi.evaluators.edges_for", "cvi.indices.edges_for",
]
# Call sites each workload must reach.  A site that sees no call fails the
# run: a missed re-export must not read as zero time.
EXPECTED_SITES = {
    "climb-light": _CLIMB + ["cvi.evaluators.knn_for", "cvi.indices.knn_for"],
    "climb-heavy": _CLIMB + ["cvi.evaluators.emst", "geometry.pairwise"],
    "battery-run": [
        "cli.run_benchmark", "cli.run_job", "dataio.load_dataset", "dataio.load_labels",
        "dataio.save_labels", "dataio.preprocess", "cli.knn_for", "cli.connected_components",
        "nngraph.build_knn", "cvi.evaluators.emst", "geometry.pairwise", "cli.adjusted_rand",
        "optim.optimise_dataset", "optim.tabu_hill_climb", "optim.lloyd_kmeans",
        "optim.make_evaluator", "optim.evaluate", "CVIEvaluator.peek", "CVIEvaluator.commit",
        "TabuList.__contains__", "TabuList.add",
    ],
    "meta-cluster": [
        "cli.summarize", "cli.meta_cluster", "cli.method_dissimilarity",
        "cli.complete_linkage", "evaluation.adjusted_rand",
    ],
}


def metric_name(text: str) -> str:
    """Spec strings carry ':'; metric names allow only [A-Za-z0-9_.-]."""
    return re.sub(r"[^A-Za-z0-9_.-]", "-", text)


def _unit(name: str) -> str:
    if name.endswith("_us_mean") or ".peek_us_mean." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "optim.peeks_per_step":
        return "peeks/step"
    return "count"


_NAMES = [
    "dataio.load_dataset_s", "dataio.load_labels_s", "dataio.save_labels_s", "dataio.preprocess_s",
    "geometry.pairwise_s", "geometry.pairwise_calls", "geometry.pairwise_hit_ratio",
    "geometry.emst_s", "geometry.emst_calls",
    "nngraph.build_knn_s", "nngraph.build_knn_calls", "nngraph.knn_hit_ratio",
    "nngraph.connected_components_s",
    "cvi.make_evaluator_s", "cvi.make_evaluator_calls", "cvi.evaluate_s", "cvi.evaluate_calls",
    "cvi.peek_calls", "cvi.peek_s", "cvi.commit_calls", "cvi.commit_s",
    *[f"cvi.peek_us_mean.{metric_name(s)}" for s in ALL_SPECS],
    "optim.steps", "optim.peeks_per_step", "optim.improving_step_ratio", "optim.tabu_checks",
    "optim.tabu_hit_ratio", "optim.tabu_s", "optim.climb_self_s", "optim.candidates_s",
    "optim.kmeans_s",
    "evaluation.adjusted_rand_calls", "evaluation.adjusted_rand_s",
    "evaluation.adjusted_rand_us_mean", "evaluation.method_dissimilarity_s",
    "evaluation.complete_linkage_s",
    "cli.run_benchmark_self_s", "cli.run_job_self_s", "cli.summarize_s", "cli.meta_cluster_self_s",
    "trace.overhead_ratio",  # traced wall_s / untraced wall_s, filled in by run.py
]
#: every per-layer metric with its unit, in print order
LAYER_METRICS = {name: _unit(name) for name in _NAMES}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


class Tracer:
    """Spans and per-move counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, child seconds]
        self._open: list[int] = []
        self.site_calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.peek_by_spec: dict = defaultdict(lambda: [0, 0.0])
        self.tabu_hits = 0
        self.distinct_datasets = 0
        self._datasets: "weakref.WeakSet" = weakref.WeakSet()
        self.optim_traces: list = []

    # -- wrappers ---------------------------------------------------------

    def _charge(self, seconds: float) -> None:
        if self._open:
            self.spans[self._open[-1]][4] += seconds

    def span(self, key: str, name: str, fn):
        spans, stack, calls = self.spans, self._open, self.site_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            parent = stack[-1] if stack else None
            rec = [name, perf_counter(), None, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][4] += rec[2] - rec[1]

        return wrapper

    def counter(self, key: str, name: str, fn):
        calls, busy = self.site_calls, self.busy
        by_spec = self.peek_by_spec if name == "cvi.peek" else None
        tabu = name == "optim.tabu_contains"

        @functools.wraps(fn)
        def wrapper(obj, arg):
            t0 = perf_counter()
            result = fn(obj, arg)
            dt = perf_counter() - t0
            calls[key] += 1
            busy[name] += dt
            self._charge(dt)
            if by_spec is not None:
                slot = by_spec[obj.spec]
                slot[0] += 1
                slot[1] += dt
            elif tabu and result:
                self.tabu_hits += 1
            return result

        return wrapper

    def _pairwise(self, wrapped):
        @functools.wraps(wrapped)
        def wrapper(ds):
            if ds not in self._datasets:
                self._datasets.add(ds)
                self.distinct_datasets += 1
            return wrapped(ds)

        return wrapper

    def _optimise(self, wrapped):
        @functools.wraps(wrapped)
        def wrapper(*args, **kwargs):
            best, trace = wrapped(*args, **kwargs)
            self.optim_traces.append(trace)
            return best, trace

        return wrapper

    def patches(self):
        """(owner, attribute, replacement) for every boundary."""
        out = []
        for module, attr, name in SPAN_SITES:
            key = site_key(module, attr)
            fn = self.span(key, name, getattr(module, attr))
            if name == "geometry.pairwise":
                fn = self._pairwise(fn)
            elif name == "optim.optimise_dataset":
                fn = self._optimise(fn)
            out.append((module, attr, fn))
        for cls, attr, name in COUNT_SITES:
            out.append((cls, attr, self.counter(f"{cls.__name__}.{attr}", name, getattr(cls, attr))))
        return out

    # -- results ----------------------------------------------------------

    def missing(self, workload: str) -> list[str]:
        return [key for key in EXPECTED_SITES[workload] if self.site_calls.get(key, 0) == 0]

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_ratio``, which
        needs an untraced run to compare with."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for name, start, end, _, child in self.spans:
            total[name] += end - start
            own[name] += end - start - child
            count[name] += 1
        steps = sum(t.steps for t in self.optim_traces)
        improving = sum(
            sum(b > a for a, b in zip(t.best_history, t.best_history[1:]))
            for t in self.optim_traces
        )
        peeks = self.site_calls["CVIEvaluator.peek"]
        tabu_checks = self.site_calls["TabuList.__contains__"]
        ari_calls = count["evaluation.adjusted_rand"]
        m = {
            "dataio.load_dataset_s": total["dataio.load_dataset"],
            "dataio.load_labels_s": total["dataio.load_labels"],
            "dataio.save_labels_s": total["dataio.save_labels"],
            "dataio.preprocess_s": total["dataio.preprocess"],
            "geometry.pairwise_s": total["geometry.pairwise"],
            "geometry.pairwise_calls": count["geometry.pairwise"],
            "geometry.pairwise_hit_ratio": 1.0 - _div(self.distinct_datasets, count["geometry.pairwise"])
            if count["geometry.pairwise"] else 0.0,
            "geometry.emst_s": total["geometry.emst"],
            "geometry.emst_calls": count["geometry.emst"],
            "nngraph.build_knn_s": total["nngraph.build_knn"],
            "nngraph.build_knn_calls": count["nngraph.build_knn"],
            "nngraph.knn_hit_ratio": 1.0 - _div(count["nngraph.build_knn"], count["nngraph.knn_for"])
            if count["nngraph.knn_for"] else 0.0,
            "nngraph.connected_components_s": total["nngraph.connected_components"],
            "cvi.make_evaluator_s": total["cvi.make_evaluator"],
            "cvi.make_evaluator_calls": count["cvi.make_evaluator"],
            "cvi.evaluate_s": total["cvi.evaluate"],
            "cvi.evaluate_calls": count["cvi.evaluate"],
            "cvi.peek_calls": peeks,
            "cvi.peek_s": self.busy["cvi.peek"],
            "cvi.commit_calls": self.site_calls["CVIEvaluator.commit"],
            "cvi.commit_s": self.busy["cvi.commit"],
        }
        by_spec = {metric_name(str(spec)): v for spec, v in self.peek_by_spec.items()}
        for spec in ALL_SPECS:
            calls, secs = by_spec.get(metric_name(spec), (0, 0.0))
            m[f"cvi.peek_us_mean.{metric_name(spec)}"] = _div(secs, calls) * 1e6
        m.update({
            "optim.steps": steps,
            "optim.peeks_per_step": _div(peeks, steps),
            "optim.improving_step_ratio": _div(improving, steps),
            "optim.tabu_checks": tabu_checks,
            "optim.tabu_hit_ratio": _div(self.tabu_hits, tabu_checks),
            "optim.tabu_s": self.busy["optim.tabu_contains"] + self.busy["optim.tabu_add"],
            "optim.climb_self_s": own["optim.tabu_hill_climb"],
            "optim.candidates_s": total["optim.optimise_dataset"] - total["optim.tabu_hill_climb"],
            "optim.kmeans_s": total["optim.lloyd_kmeans"],
            "evaluation.adjusted_rand_calls": ari_calls,
            "evaluation.adjusted_rand_s": total["evaluation.adjusted_rand"],
            "evaluation.adjusted_rand_us_mean": _div(total["evaluation.adjusted_rand"], ari_calls) * 1e6,
            "evaluation.method_dissimilarity_s": total["evaluation.method_dissimilarity"],
            "evaluation.complete_linkage_s": total["evaluation.complete_linkage"],
            "cli.run_benchmark_self_s": own["cli.run_benchmark"],
            "cli.run_job_self_s": own["cli.run_job"],
            "cli.summarize_s": total["cli.summarize"],
            "cli.meta_cluster_self_s": own["cli.meta_cluster"],
        })
        return m


@contextlib.contextmanager
def installed(tracer: Tracer | None):
    """Patch every boundary for the duration of the block; no-op for None."""
    if tracer is None:
        yield
        return
    patches = tracer.patches()
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
