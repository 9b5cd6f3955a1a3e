"""The four workloads: their inputs, CLI invocations and output checks.

A workload builds its inputs once per run from the seed. A pass is the
list of CLI invocations one unit of work takes; `variant` picks among
input sets when a workload has several (the long-series pairs). Checks
return one list of problems per invocation of the pass, so a bad output
counts against the invocation that wrote it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import gen
import oracles

STAT_FIELDS = (
    "pearson_r", "pearson_p", "spearman_rho", "spearman_p",
    "kendall_tau", "kendall_p", "distance_corr",
)
STAT_TOL = 1e-12  # every statistic against scipy / brute force
AFA_TOL = 1e-9  # H and r^2 against the reference estimator
HEIGHT_RTOL = 1e-9  # Ward merge heights against scipy
SYNTH_TOL = 1e-9  # synth values against the reference generator
HURST_RECOVERY = 0.07  # the paper's recovery tolerance around the target H


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _check_report(report: dict, threshold: int, x, y, permutations=None, seed=0) -> list[str]:
    """One correlation report against the oracle on the same (x, y)."""
    want = oracles.correlations(x, y, permutations, seed)
    problems = []
    if report.get("min_ratings_filter") != threshold or report.get("n") != want["n"]:
        problems.append(f"threshold {threshold}: filter/n {report.get('min_ratings_filter')}/{report.get('n')}, want {threshold}/{want['n']}")
        return problems
    for key in STAT_FIELDS:
        if not _close(float(report[key]), want[key], STAT_TOL):
            problems.append(f"threshold {threshold}: {key} {report[key]!r} != {want[key]!r}")
    got_p, want_p = report.get("distance_corr_p"), want["distance_corr_p"]
    if (got_p is None) != (want_p is None) or (want_p is not None and not _close(got_p, want_p, STAT_TOL)):
        problems.append(f"threshold {threshold}: distance_corr_p {got_p!r} != {want_p!r}")
    return problems


class Study:
    """`sentarc analyze` over the whole corpus at the CLI's default --jobs."""

    name = "study"
    why = (
        "analyze on ~600 stories of under 60 to 20k tokens at the default --jobs: "
        "the paper's main path through lexicon, arc, afa, corpus and its worker pool"
    )
    subcommands = ("analyze",)
    variants = 1
    thresholds = (0, 30)  # analyze's default --min-ratings

    def __init__(self, seed: int, root: Path):
        self.inputs = gen.make_study(seed, root)

    def commands(self, variant: int, out: Path, jobs: int | None = None):
        i = self.inputs
        argv = [
            "analyze", "--corpus", str(i.corpus), "--lexicon", str(i.lexicon),
            "--ratings", str(i.ratings), "--out", str(out),
        ]
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        files = ["results.csv", "report.json", "scatter.csv", "ratings_scatter.csv"]
        return [(argv, [out / f for f in files])]

    def check(self, variant: int, out: Path) -> list[list[str]]:
        return [self._check_analyze(out)]

    def _check_analyze(self, out: Path) -> list[str]:
        rows = _read_csv(out / "results.csv")
        if not rows or rows[0] != gen.RESULTS_HEADER:
            return ["results.csv: unexpected header"]
        stories = self.inputs.stories
        if [r[0] for r in rows[1:]] != [s.id for s in stories]:
            return ["results.csv: story ids differ from the corpus"]
        problems = []
        hurst, rating, count = [], [], []
        for row, story in zip(rows[1:], stories):
            rec = dict(zip(gen.RESULTS_HEADER, row))
            where = f"results.csv {story.id}"
            try:
                want = oracles.hurst(story.values)
                status = "ok"
            except oracles.NoEstimate as refused:
                want, status = None, refused.status
            coverage = story.hits / story.n_tokens if story.n_tokens else 0.0
            if int(rec["n_tokens"]) != story.n_tokens or not _close(float(rec["coverage"]), coverage, STAT_TOL):
                problems.append(f"{where}: n_tokens/coverage {rec['n_tokens']}/{rec['coverage']}, want {story.n_tokens}/{coverage!r}")
            if rec["status"] != status:
                problems.append(f"{where}: status {rec['status']}, want {status}")
                continue
            joined = self.inputs.ratings_by_id.get(story.id)
            got = (float(rec["avg_rating"]), int(rec["n_ratings"])) if rec["avg_rating"] else None
            if got != joined:
                problems.append(f"{where}: rating {got}, want {joined}")
            if want is None:
                if rec["hurst"] or rec["r_squared"] or rec["sweet_spot"] != "false":
                    problems.append(f"{where}: estimate reported for a {status} story")
                continue
            h, r2 = float(rec["hurst"]), float(rec["r_squared"])
            if not (_close(h, want[0], AFA_TOL) and _close(r2, want[1], AFA_TOL)):
                problems.append(f"{where}: hurst/r2 {h!r}/{r2!r}, want {want[0]!r}/{want[1]!r}")
            low, high = oracles.SWEET_SPOT
            band = {low <= want[0] + d <= high for d in (-AFA_TOL, 0.0, AFA_TOL)}
            if (rec["sweet_spot"] == "true") not in band:
                problems.append(f"{where}: sweet_spot {rec['sweet_spot']}")
            if joined is not None:
                hurst.append(h)
                rating.append(joined[0])
                count.append(joined[1])
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if len(report) != len(self.thresholds):
            return problems + [f"report.json: {len(report)} reports, want {len(self.thresholds)}"]
        hurst, rating, count = np.array(hurst), np.array(rating), np.array(count)
        for rep, threshold in zip(report, self.thresholds):
            keep = count > threshold
            problems += _check_report(rep, threshold, hurst[keep], rating[keep])
        scatter = _read_csv(out / "scatter.csv")
        if len(scatter) != 1 + hurst.size:
            problems.append(f"scatter.csv: {len(scatter) - 1} rows, want {hurst.size}")
        return problems


class Cluster:
    """`sentarc cluster --k 4 --tree-out` over ~300 arcs of ~2k tokens."""

    name = "cluster"
    why = (
        "cluster --k 4 on ~300 stories of ~2k tokens: smoothing, resampling and the "
        "Ward loop; bypasses afa, stats and analyze_corpus"
    )
    subcommands = ("cluster",)
    variants = 1

    def __init__(self, seed: int, root: Path):
        self.inputs = gen.make_cluster(seed, root)

    def commands(self, variant: int, out: Path, jobs: int | None = None):
        i = self.inputs
        argv = [
            "cluster", "--corpus", str(i.corpus), "--lexicon", str(i.lexicon),
            "--k", str(i.k), "--out", str(out / "labels.csv"), "--tree-out", str(out / "tree.csv"),
        ]
        return [(argv, [out / "labels.csv", out / "tree.csv"])]

    def check(self, variant: int, out: Path) -> list[list[str]]:
        stories = self.inputs.stories
        ids = [s.id for s in stories]
        shapes = np.array([oracles.cluster_shape(s.values) for s in stories])
        labels, merges = oracles.ward(shapes, ids, self.inputs.k)
        problems = []
        got = _read_csv(out / "labels.csv")
        want = [["id", "cluster"]] + [[sid, str(labels[sid])] for sid in sorted(labels)]
        if got != want:
            problems.append("labels.csv: labels differ from Ward reference")
        tree = _read_csv(out / "tree.csv")
        if tree[:1] != [["step", "cluster_a", "cluster_b", "height", "size"]] or len(tree) != 1 + len(merges):
            return [problems + ["tree.csv: unexpected header or merge count"]]
        for row, (a, b, height, size) in zip(tree[1:], merges):
            if row[1:3] != [a, b] or int(row[4]) != size:
                problems.append(f"tree.csv step {row[0]}: merged {row[1:3]} size {row[4]}, want {[a, b]} size {size}")
                break
            if not math.isclose(float(row[3]), height, rel_tol=HEIGHT_RTOL):
                problems.append(f"tree.csv step {row[0]}: height {row[3]}, want {height!r}")
        return [problems]


class LongSeries:
    """`sentarc synth --n 1048576` then `sentarc hurst --series` on its output."""

    name = "long-series"
    why = (
        "synth --n 2^20 then hurst --series: afa on one huge array, synth, "
        "serialize and CLI parsing; bypasses lexicon, arc and stats"
    )
    subcommands = ("synth", "hurst")

    def __init__(self, seed: int, root: Path):
        self.inputs = gen.make_long_series(seed)
        self.variants = len(self.inputs.pairs)

    def commands(self, variant: int, out: Path, jobs: int | None = None):
        h, seed = self.inputs.pairs[variant]
        series = out / "series.csv"
        synth = ["synth", "--h", repr(h), "--n", str(self.inputs.n), "--seed", str(seed), "--out", str(series)]
        hurst = [
            "hurst", "--series", str(series), "--out", str(out / "hurst.json"),
            "--points-out", str(out / "points.csv"),
        ]
        return [(synth, [series]), (hurst, [out / "hurst.json", out / "points.csv"])]

    def check(self, variant: int, out: Path) -> list[list[str]]:
        values = np.array((out / "series.csv").read_text().split(), dtype=float)
        result = json.loads((out / "hurst.json").read_text())
        n_rows = len(_read_csv(out / "points.csv")) - 1
        return [
            self.check_series(variant, values, np.arange(values.size), self.reference_series(variant)),
            self.check_hurst(variant, result, n_rows, values),
        ]

    def reference_series(self, variant: int) -> np.ndarray:
        h, seed = self.inputs.pairs[variant]
        return oracles.fgn(h, self.inputs.n, seed)

    def check_series(self, variant: int, values: np.ndarray, index: np.ndarray, want: np.ndarray) -> list[str]:
        """`values` are the synth output at positions `index`."""
        h, seed = self.inputs.pairs[variant]
        if index.size == 0 or index[-1] >= want.size or values.size != index.size:
            return [f"series.csv: H={h} seed={seed}: {values.size} values, want {want.size}"]
        if not np.all(np.abs(values - want[index]) <= SYNTH_TOL * max(1.0, float(np.abs(want).max()))):
            return [f"series.csv: H={h} seed={seed} differs from the reference generator"]
        return []

    def check_hurst(self, variant: int, result: dict, n_rows: int, series: np.ndarray) -> list[str]:
        """`result` is hurst.json for `series`, `n_rows` the data rows of points.csv."""
        h = self.inputs.pairs[variant][0]
        problems = []
        if abs(result["hurst"] - h) > HURST_RECOVERY:
            problems.append(f"hurst.json: H {result['hurst']!r} outside {h} +- {HURST_RECOVERY}")
        ref_h, ref_r2, ref_points = oracles.hurst(series)
        if not (_close(result["hurst"], ref_h, AFA_TOL) and _close(result["r_squared"], ref_r2, AFA_TOL)):
            problems.append(f"hurst.json: H/r2 {result['hurst']!r}/{result['r_squared']!r}, want {ref_h!r}/{ref_r2!r}")
        if result["n_points"] != ref_points or n_rows != ref_points:
            problems.append(f"points: json {result['n_points']}, csv {n_rows}, want {ref_points}")
        return problems


class Correlate:
    """`sentarc correlate` on a ~5000-row results table, thresholds 0 and 30."""

    name = "correlate"
    why = (
        "correlate on a ~5000-row results table with ties, thresholds 0 and 30: "
        "the stats layer, under 1% of study"
    )
    subcommands = ("correlate",)
    variants = 1

    def __init__(self, seed: int, root: Path):
        self.inputs = gen.make_correlate(seed, root)

    def commands(self, variant: int, out: Path, jobs: int | None = None):
        i = self.inputs
        argv = ["correlate", "--results", str(i.results)]
        for threshold in i.thresholds:
            argv += ["--min-ratings", str(threshold)]
        argv += [
            "--dcor-permutations", str(i.permutations), "--seed", str(i.perm_seed),
            "--out", str(out / "report.json"),
        ]
        return [(argv, [out / "report.json"])]

    def check(self, variant: int, out: Path) -> list[list[str]]:
        i = self.inputs
        reports = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if len(reports) != len(i.thresholds):
            return [[f"report.json: {len(reports)} reports, want {len(i.thresholds)}"]]
        problems = []
        for report, threshold in zip(reports, i.thresholds):
            keep = [
                k for k, (h, c) in enumerate(zip(i.hurst, i.count))
                if h is not None and c is not None and c > threshold
            ]
            x = np.array([i.hurst[k] for k in keep])
            y = np.array([i.avg[k] for k in keep])
            problems += _check_report(report, threshold, x, y, i.permutations, i.perm_seed)
        return [problems]


WORKLOADS = {w.name: w for w in (Study, Cluster, LongSeries, Correlate)}
