"""Spans around the package's layer boundaries, recorded from outside.

`Tracer.install` replaces each traced public function with a wrapper
wherever a `sentarc` module binds it, so calls through a module attribute
(`arc_mod.tokenize`) and through a re-bound name (`estimate_hurst` in
`sentarc.cli` and `sentarc.corpus`) are both seen. Each span holds a
name, start, end, parent span id, pass id and a few counts read off the
call's arguments or result. Spans stay in memory until `dump`.

Per-layer metrics are derived from the spans of one pass by `metrics`.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

# layer module -> traced functions
TRACED = {
    "lexicon": ("load_lexicon",),
    "arc": ("tokenize", "sentiment_series", "smooth", "cluster_arcs"),
    "afa": ("estimate_hurst", "profile", "global_trend", "fluctuation"),
    "stats": ("pearson", "spearman", "kendall_tau", "distance_correlation", "distance_correlation_test"),
    "synth": ("fgn",),
    "corpus": ("load_corpus", "load_ratings", "analyze_corpus", "correlate"),
    "serialize": (
        "write_arc_csv", "write_window_csv", "write_series_csv", "write_points_csv",
        "write_results_csv", "write_scatter_csv", "write_ratings_scatter_csv",
        "write_labels_csv", "write_merges_csv", "hurst_json", "reports_json",
    ),
    "cli": ("main",),
}
STATS = tuple(f"stats.{f}" for f in TRACED["stats"])


class _CountingWriter:
    """Text sink proxy that counts the UTF-8 bytes written through it."""

    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self.inner.write(text)


def _counts(name: str, bound: dict, result) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if name == "lexicon.load_lexicon":
        return {"entries": result.entry_count, "rejected": result.n_rejected}
    if name == "arc.tokenize":
        return {"tokens": len(result)}
    if name == "arc.sentiment_series":
        return {"tokens": result.n_tokens, "hits": round(result.coverage * result.n_tokens)}
    if name == "arc.cluster_arcs":
        return {"m": len(bound["arcs"])}
    if name == "afa.global_trend":
        return {"samples": len(bound["u"])}
    if name == "afa.estimate_hurst":
        return {"points": result.n_points}
    if name == "corpus.load_corpus":
        return {"bytes": sum(len(s.text.encode("utf-8")) for s in result)}
    if name == "corpus.analyze_corpus":
        mapping = bound.get("mapping") or {}
        joined = {mapping.get(s.id, s.id) for s in bound["corpus"]}
        rated = {r.id for r in bound.get("ratings") or ()}
        return {
            "stories": len(result),
            "ok": sum(r.status == "ok" for r in result),
            "unmatched": len(rated - joined),
        }
    if name == "synth.fgn":
        return {"samples": bound["spec"].n}
    if name == "stats.distance_correlation_test":
        return {"pairs": len(bound["x"]), "permutations": bound["permutations"]}
    if name in STATS:
        return {"pairs": len(bound["x"])}
    if name in ("serialize.hurst_json", "serialize.reports_json"):
        return {"bytes": len(result.encode("utf-8"))}
    return {}


class Tracer:
    """Records a span per call of a traced function while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.pass_id = 0

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        counting = name.startswith("serialize.write_")

        def traced(*args, **kwargs):
            if counting:  # every writer takes its sink last
                sink = _CountingWriter(args[-1])
                args = args[:-1] + (sink,)
            span = {
                "name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "pass": self.pass_id,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["counts"] = _counts(name, signature.bind(*args, **kwargs).arguments, result)
            if counting:
                span["counts"]["bytes"] = sink.bytes
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import sentarc.cli  # noqa: F401  (imports every layer module)

        modules = [m for n, m in sys.modules.items() if n == "sentarc" or n.startswith("sentarc.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"sentarc.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


# per-layer metric -> unit; the order is the report order
PER_LAYER_UNITS = {
    "lexicon.load_lexicon.s": "s", "lexicon.entries": "count", "lexicon.rejected": "count",
    "arc.tokenize.s": "s", "arc.tokens": "count", "arc.sentiment_series.s": "s",
    "arc.coverage": "ratio", "arc.smooth.s": "s", "arc.cluster_arcs.s": "s",
    "arc.cluster_arcs.m": "count",
    "afa.estimate_hurst.s": "s", "afa.estimate_hurst.calls": "count",
    "afa.estimate_hurst.self_s": "s", "afa.profile.s": "s", "afa.global_trend.s": "s",
    "afa.global_trend.calls": "count", "afa.samples_detrended": "count",
    "afa.fluctuation.s": "s", "afa.windows_dropped": "count",
    "corpus.load_corpus.s": "s", "corpus.bytes_read": "bytes", "corpus.load_ratings.s": "s",
    "corpus.analyze_corpus.s": "s", "corpus.analyze_corpus.self_s": "s",
    "corpus.stories": "count", "corpus.ok_ratio": "ratio", "corpus.unmatched": "count",
    "corpus.correlate.s": "s", "corpus.correlate.calls": "count",
    "stats.pearson.s": "s", "stats.spearman.s": "s", "stats.kendall_tau.s": "s",
    "stats.distance_correlation.s": "s", "stats.distance_correlation_test.s": "s",
    "stats.pairs": "count", "stats.permutations": "count",
    "synth.fgn.s": "s", "synth.samples": "count",
    "serialize.write.s": "s", "serialize.bytes": "bytes",
    "cli.main.s": "s", "cli.main.self_s": "s",
}


def metrics(spans: list[dict], pass_id: int) -> dict[str, float]:
    """Per-layer metrics of the spans of pass `pass_id`.

    `.s` sums the durations of a function's spans, `.self_s` subtracts the
    time of their direct children. `stats.pairs` counts samples entering
    the outermost statistics call only.
    """
    busy = defaultdict(float)
    child_time = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)
    mine = [(i, span) for i, span in enumerate(spans) if span["pass"] == pass_id]
    for _, span in mine:
        duration = span["end"] - span["start"]
        busy[span["name"]] += duration
        calls[span["name"]] += 1
        if span["parent"] is not None:
            child_time[span["parent"]] += duration
    self_time = defaultdict(float)
    trend_calls = defaultdict(int)
    for i, span in mine:
        name = span["name"]
        self_time[name] += span["end"] - span["start"] - child_time[i]
        parent = spans[span["parent"]] if span["parent"] is not None else None
        if name == "afa.global_trend" and parent and parent["name"] == "afa.estimate_hurst":
            trend_calls[span["parent"]] += 1
        counts = span.get("counts", {})  # absent when the call raised
        if name in STATS and (parent is None or parent["name"] not in STATS):
            total["stats.pairs"] += counts.get("pairs", 0)
        for key, value in counts.items():
            total[f"{name}:{key}"] += value
    dropped = sum(
        trend_calls[i] - span.get("counts", {}).get("points", 0)
        for i, span in mine
        if span["name"] == "afa.estimate_hurst"
    )
    tokens = total["arc.sentiment_series:tokens"]
    stories = total["corpus.analyze_corpus:stories"]
    out = {
        "lexicon.entries": total["lexicon.load_lexicon:entries"],
        "lexicon.rejected": total["lexicon.load_lexicon:rejected"],
        "arc.tokens": total["arc.tokenize:tokens"],
        "arc.coverage": total["arc.sentiment_series:hits"] / tokens if tokens else 0.0,
        "arc.cluster_arcs.m": total["arc.cluster_arcs:m"],
        "afa.estimate_hurst.calls": calls["afa.estimate_hurst"],
        "afa.estimate_hurst.self_s": self_time["afa.estimate_hurst"],
        "afa.global_trend.calls": calls["afa.global_trend"],
        "afa.samples_detrended": total["afa.global_trend:samples"],
        "afa.windows_dropped": dropped,
        "corpus.bytes_read": total["corpus.load_corpus:bytes"],
        "corpus.analyze_corpus.self_s": self_time["corpus.analyze_corpus"],
        "corpus.stories": stories,
        "corpus.ok_ratio": total["corpus.analyze_corpus:ok"] / stories if stories else 0.0,
        "corpus.unmatched": total["corpus.analyze_corpus:unmatched"],
        "corpus.correlate.calls": calls["corpus.correlate"],
        "stats.pairs": total["stats.pairs"],
        "stats.permutations": total["stats.distance_correlation_test:permutations"],
        "synth.samples": total["synth.fgn:samples"],
        "serialize.write.s": sum(v for k, v in busy.items() if k.startswith("serialize.")),
        "serialize.bytes": sum(v for k, v in total.items() if k.startswith("serialize.")),
        "cli.main.self_s": self_time["cli.main"],
    }
    for key in PER_LAYER_UNITS:
        if key.endswith(".s") and key not in out:
            out[key] = busy[key[:-2]]
    return {key: float(out[key]) for key in PER_LAYER_UNITS}
