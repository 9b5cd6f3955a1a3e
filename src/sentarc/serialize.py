"""Writers for the tool's file formats, and the reader of results.csv.

All numbers are serialized with 17 significant digits so repeated runs and
golden files compare byte for byte; any rounding happens only at display
boundaries elsewhere.
"""

from __future__ import annotations

import csv
import math
from typing import IO, Sequence

import numpy as np

from .afa import AfaResult
from .arc import Merge, SentimentArc, WindowSummary
from .corpus import StoryRecord
from .errors import SentarcError
from .stats import CorrelationReport


# values per formatting call in write_series_csv
_SERIES_CHUNK = 16384


def fmt_float(value: float) -> str:
    return format(float(value), ".17g")


def _opt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def write_arc_csv(arc: SentimentArc, out: IO[str]) -> None:
    out.write("index,raw,smooth\n")
    for i in range(arc.n_tokens):
        out.write(f"{i},{fmt_float(arc.raw[i])},{fmt_float(arc.smooth[i])}\n")


def write_window_csv(summary: WindowSummary, out: IO[str]) -> None:
    out.write("window,mean,std\n")
    for i in range(summary.means.size):
        out.write(f"{i},{fmt_float(summary.means[i])},{fmt_float(summary.stds[i])}\n")


def write_series_csv(values: Sequence[float] | np.ndarray, out: IO[str]) -> None:
    """One value per line, in `fmt_float` form.

    Each chunk of 16k values is formatted by one `%`, so the memory held
    is a chunk's text, never the whole series'.
    """
    values = np.asarray(values, dtype=float)
    for start in range(0, values.size, _SERIES_CHUNK):
        chunk = values[start : start + _SERIES_CHUNK].tolist()
        out.write(("%.17g\n" * len(chunk)) % tuple(chunk))


def write_points_csv(result: AfaResult, out: IO[str]) -> None:
    out.write("log2_w,log2_F\n")
    for log_w, log_f in result.points:
        out.write(f"{fmt_float(log_w)},{fmt_float(log_f)}\n")


def hurst_json(result: AfaResult) -> str:
    return (
        "{"
        f'"hurst": {fmt_float(result.hurst)}, '
        f'"intercept": {fmt_float(result.intercept)}, '
        f'"r_squared": {fmt_float(result.r_squared)}, '
        f'"n_points": {result.n_points}'
        "}"
    )


def report_json(report: CorrelationReport) -> str:
    dcor_p = "null" if report.distance_corr_p is None else fmt_float(report.distance_corr_p)
    return (
        "{"
        f'"min_ratings_filter": {report.min_ratings_filter}, '
        f'"n": {report.n}, '
        f'"pearson_r": {fmt_float(report.pearson_r)}, '
        f'"pearson_p": {fmt_float(report.pearson_p)}, '
        f'"spearman_rho": {fmt_float(report.spearman_rho)}, '
        f'"spearman_p": {fmt_float(report.spearman_p)}, '
        f'"kendall_tau": {fmt_float(report.kendall_tau)}, '
        f'"kendall_p": {fmt_float(report.kendall_p)}, '
        f'"distance_corr": {fmt_float(report.distance_corr)}, '
        f'"distance_corr_p": {dcor_p}'
        "}"
    )


def reports_json(reports: list[CorrelationReport]) -> str:
    body = ",\n  ".join(report_json(r) for r in reports)
    return "[\n  " + body + "\n]\n" if reports else "[]\n"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value}")
    return value


def _optional(parse):
    return lambda text: parse(text) if text else None


# results.csv column -> parser of its text, in header order
_RESULTS_FIELDS = {
    "id": str,
    "title": str,
    "n_tokens": int,
    "coverage": _finite,
    "hurst": _optional(_finite),
    "r_squared": _optional(_finite),
    "avg_rating": _optional(_finite),
    "n_ratings": _optional(int),
    "sweet_spot": lambda text: text == "true",
    "status": str,
}

RESULTS_HEADER = list(_RESULTS_FIELDS)


def write_results_csv(records: list[StoryRecord], out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RESULTS_HEADER)
    for r in records:
        writer.writerow(
            [
                r.id,
                r.title,
                r.n_tokens,
                fmt_float(r.coverage),
                _opt(r.hurst),
                _opt(r.r_squared),
                _opt(r.avg_rating),
                _opt(r.n_ratings),
                _opt(r.sweet_spot),
                r.status,
            ]
        )


def read_results_csv(text: str, path: str) -> list[StoryRecord]:
    """Parse results.csv text back into records; `path` labels the errors.

    Blank lines are skipped. A wrong header, a row with the wrong field
    count, or an unparsable or non-finite value raises SentarcError naming
    the line and column.
    """
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != RESULTS_HEADER:
        raise SentarcError(f"{path}: not a results.csv (unexpected header)")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(_RESULTS_FIELDS):
            raise SentarcError(
                f"{path}:{lineno}: expected {len(_RESULTS_FIELDS)} fields, got {len(row)}"
            )
        fields = {}
        for (name, parse), item in zip(_RESULTS_FIELDS.items(), row):
            try:
                fields[name] = parse(item)
            except ValueError as exc:
                raise SentarcError(f"{path}:{lineno}: {name}: {exc}") from None
        records.append(StoryRecord(**fields))
    return records


def write_scatter_csv(records: list[StoryRecord], out: IO[str]) -> None:
    """Hurst/rating pairs for the stories that have both."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["hurst", "avg_rating", "n_ratings", "title"])
    for r in records:
        if r.hurst is None or r.avg_rating is None:
            continue
        writer.writerow([fmt_float(r.hurst), fmt_float(r.avg_rating), r.n_ratings, r.title])


def write_ratings_scatter_csv(records: list[StoryRecord], out: IO[str]) -> None:
    """Rating count against average rating for every rated story."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "n_ratings", "avg_rating"])
    for r in records:
        if r.avg_rating is None:
            continue
        writer.writerow([r.id, r.n_ratings, fmt_float(r.avg_rating)])


def write_labels_csv(labels: dict[str, int], out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "cluster"])
    for story_id in sorted(labels):
        writer.writerow([story_id, labels[story_id]])


def write_merges_csv(merges: list[Merge], out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["step", "cluster_a", "cluster_b", "height", "size"])
    for step, m in enumerate(merges):
        writer.writerow([step, m.a, m.b, fmt_float(m.height), m.size])
