"""Writers for the tool's file formats, and the reader of results.csv.

All numbers are serialized with 17 significant digits so repeated runs and
golden files compare byte for byte; any rounding happens only at display
boundaries elsewhere.
"""

from __future__ import annotations

import csv
import io
import math
from typing import IO, Iterable, Sequence

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


def _write_csv(out: IO[str], header: list[str], rows: Iterable[Iterable]) -> None:
    """One CSV table: the header, then each row's cells through `_opt`."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_opt, row) for row in rows)


def write_arc_csv(arc: SentimentArc, out: IO[str]) -> None:
    rows = zip(range(arc.n_tokens), arc.raw.tolist(), arc.smooth.tolist())
    _write_csv(out, ["index", "raw", "smooth"], rows)


def write_window_csv(summary: WindowSummary, out: IO[str]) -> None:
    rows = zip(range(summary.means.size), summary.means.tolist(), summary.stds.tolist())
    _write_csv(out, ["window", "mean", "std"], rows)


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
    _write_csv(out, ["log2_w", "log2_F"], result.points)


def _json_object(obj, keys: Iterable[str]) -> str:
    """`obj`'s attributes as a one-line JSON object, in `keys` order."""
    items = ((key, getattr(obj, key)) for key in keys)
    body = ", ".join(f'"{k}": {"null" if v is None else _opt(v)}' for k, v in items)
    return "{" + body + "}"


def hurst_json(result: AfaResult) -> str:
    return _json_object(result, ("hurst", "intercept", "r_squared", "n_points"))


def report_json(report: CorrelationReport) -> str:
    keys = (
        "min_ratings_filter", "n", "pearson_r", "pearson_p", "spearman_rho",
        "spearman_p", "kendall_tau", "kendall_p", "distance_corr", "distance_corr_p",
    )
    return _json_object(report, keys)


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
    rows = ((getattr(r, name) for name in RESULTS_HEADER) for r in records)
    _write_csv(out, RESULTS_HEADER, rows)


def read_results_csv(text: str, path: str) -> list[StoryRecord]:
    """Parse results.csv text back into records; `path` labels the errors.

    Blank lines are skipped. A wrong header, a row with the wrong field
    count, or an unparsable or non-finite value raises SentarcError naming
    the line and column.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    if next(reader, None) != RESULTS_HEADER:
        raise SentarcError(f"{path}: not a results.csv (unexpected header)")
    records = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(_RESULTS_FIELDS):
            raise SentarcError(
                f"{path}:{reader.line_num}: expected {len(_RESULTS_FIELDS)} fields, got {len(row)}"
            )
        fields = {}
        for (name, parse), item in zip(_RESULTS_FIELDS.items(), row):
            try:
                fields[name] = parse(item)
            except ValueError as exc:
                raise SentarcError(f"{path}:{reader.line_num}: {name}: {exc}") from None
        records.append(StoryRecord(**fields))
    return records


def write_scatter_csv(records: list[StoryRecord], out: IO[str]) -> None:
    """Hurst/rating pairs for the stories that have both."""
    rows = (
        (r.hurst, r.avg_rating, r.n_ratings, r.title)
        for r in records
        if r.hurst is not None and r.avg_rating is not None
    )
    _write_csv(out, ["hurst", "avg_rating", "n_ratings", "title"], rows)


def write_ratings_scatter_csv(records: list[StoryRecord], out: IO[str]) -> None:
    """Rating count against average rating for every rated story."""
    rows = ((r.id, r.n_ratings, r.avg_rating) for r in records if r.avg_rating is not None)
    _write_csv(out, ["id", "n_ratings", "avg_rating"], rows)


def write_labels_csv(labels: dict[str, int], out: IO[str]) -> None:
    _write_csv(out, ["id", "cluster"], sorted(labels.items()))


def write_merges_csv(merges: list[Merge], out: IO[str]) -> None:
    rows = ((step, m.a, m.b, m.height, m.size) for step, m in enumerate(merges))
    _write_csv(out, ["step", "cluster_a", "cluster_b", "height", "size"], rows)
