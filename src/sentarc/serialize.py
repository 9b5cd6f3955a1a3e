"""Every file format the tool writes: its writers, and the readers of the
numeric series and of results.csv.

All numbers are serialized with 17 significant digits so repeated runs and
golden files compare byte for byte; any rounding happens only at display
boundaries elsewhere.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
from typing import IO, Iterable, Sequence

import numpy as np

from .afa import MIN_SERIES_LENGTH, AfaResult
from .arc import Merge, SentimentArc, WindowSummary
from .corpus import STATUS_DEGENERATE, STATUS_OK, STATUS_TOO_SHORT, StoryRecord
from .errors import SentarcError
from .inputs import lines, read_csv_table
from .stats import CorrelationReport


# values per formatting call in write_series_csv
_SERIES_CHUNK = 16384
# a str cell holding one of these is quoted
_NEEDS_QUOTES = re.compile(r'[,"\r\n\0]').search


def _opt(value) -> str:
    # floats first: most cells are floats, this runs once per cell, and
    # neither None nor a bool is a float
    if isinstance(value, float):
        return format(float(value), ".17g")
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _cell(value) -> str:
    """One CSV cell: `_opt`'s text, except that a str holding a comma, a
    quote, CR or LF is quoted with its quotes doubled (RFC 4180). A str
    holding NUL raises ValueError: `read_csv_table` rejects NUL."""
    if isinstance(value, str) and _NEEDS_QUOTES(value):
        if "\0" in value:
            raise ValueError(f"NUL character in CSV cell {value!r}")
        return '"' + value.replace('"', '""') + '"'
    return _opt(value)


def _write_csv(out: IO[str], header: list[str], rows: Iterable[Iterable]) -> None:
    """One CSV table: the header, then each row's cells through `_cell`.

    Cells are joined by "," and rows end in "\n". Each row is joined as it
    is drawn, because a caller may pass generators that read its own loop
    variable. `out` needs only `write`.
    """
    for row in itertools.chain([header], rows):
        out.write(",".join(map(_cell, row)) + "\n")


def write_arc_csv(arc: SentimentArc, out: IO[str]) -> None:
    rows = zip(range(arc.n_tokens), arc.raw.tolist(), arc.smooth.tolist())
    _write_csv(out, ["index", "raw", "smooth"], rows)


def write_window_csv(summary: WindowSummary, out: IO[str]) -> None:
    rows = zip(range(summary.means.size), summary.means.tolist(), summary.stds.tolist())
    _write_csv(out, ["window", "mean", "std"], rows)


def write_series_csv(values: Sequence[float] | np.ndarray, out: IO[str]) -> None:
    """One value per line, in `_opt`'s 17-digit form.

    Each chunk of 16k values is formatted by one `%`, so the memory held
    is a chunk's text, never the whole series'.
    """
    values = np.asarray(values, dtype=float)
    for start in range(0, values.size, _SERIES_CHUNK):
        chunk = values[start : start + _SERIES_CHUNK].tolist()
        out.write(("%.17g\n" * len(chunk)) % tuple(chunk))


def read_series(text: str, path: str) -> np.ndarray:
    """One number per line, as `write_series_csv` writes it, into a float64
    array; `path` labels the errors.

    Blank lines and a non-numeric first line, a header, are skipped. Any
    other line, a multi-column CSV row included, raises SentarcError as
    "PATH:LINE: expected one numeric column, got 'X'", and a number that
    is not finite as "PATH:LINE: non-finite value 'X'"; the first bad line
    is the one named. Lines end where `inputs.lines` ends them.
    """

    def values():
        isfinite = math.isfinite
        # strip() also drops U+001C..U+001F, which float() rejects
        for number, item in enumerate(map(str.strip, lines(text)), start=1):
            try:
                value = float(item)
            except ValueError:
                if item and number > 1:
                    raise SentarcError(
                        f"{path}:{number}: expected one numeric column, got {item!r}"
                    ) from None
                continue
            if not isfinite(value):
                raise SentarcError(f"{path}:{number}: non-finite value {item!r}")
            yield value

    return np.fromiter(values(), float)


def write_points_csv(result: AfaResult, out: IO[str]) -> None:
    _write_csv(out, ["log2_w", "log2_F"], result.points)


def _json_object(obj, keys: Iterable[str]) -> str:
    """`obj`'s attributes as a one-line JSON object, in `keys` order."""
    items = ((key, getattr(obj, key)) for key in keys)
    body = ", ".join(f'"{k}": {"null" if v is None else _opt(v)}' for k, v in items)
    return "{" + body + "}"


def hurst_json(result: AfaResult) -> str:
    return _json_object(result, ("hurst", "intercept", "r_squared", "n_points")) + "\n"


# report.json keys, in CorrelationReport's field order
REPORT_KEYS = tuple(field.name for field in dataclasses.fields(CorrelationReport))


def report_json(report: CorrelationReport) -> str:
    return _json_object(report, REPORT_KEYS)


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


def _within(parse, low, high=math.inf):
    """`parse`, rejecting a value outside [low, high] with ValueError."""

    def checked(text: str):
        value = parse(text)
        if not low <= value <= high:
            rule = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
            raise ValueError(f"must be {rule}, got {text}")
        return value

    return checked


def _one_of(values: dict):
    """The value `values` maps the text to; other text raises ValueError."""

    def parse(text: str):
        try:
            return values[text]
        except KeyError:
            *most, last = values
            raise ValueError(f"expected {', '.join(most)} or {last}, got {text!r}") from None

    return parse


# results.csv column -> parser of its text, in header order
_RESULTS_FIELDS = {
    "id": str,
    "title": str,
    "n_tokens": _within(int, 0),
    "coverage": _within(_finite, 0, 1),
    "hurst": _optional(_finite),
    "r_squared": _optional(_within(_finite, 0, 1)),
    "avg_rating": _optional(_within(_finite, 1, 5)),
    "n_ratings": _optional(_within(int, 0)),
    "sweet_spot": _one_of({"true": True, "false": False}),
    "status": _one_of({s: s for s in (STATUS_OK, STATUS_TOO_SHORT, STATUS_DEGENERATE)}),
}

RESULTS_HEADER = list(_RESULTS_FIELDS)


def write_results_csv(records: list[StoryRecord], out: IO[str]) -> None:
    rows = ((getattr(r, name) for name in RESULTS_HEADER) for r in records)
    _write_csv(out, RESULTS_HEADER, rows)


def _row_fault(record: StoryRecord, derived: dict, line: int, first_line: int) -> str | None:
    """The first rule tying a results.csv row's cells together that the row
    breaks, as "column: reason", or None. `derived` holds the row's
    sweet_spot and status cells; `first_line` is where its id first came."""
    if first_line != line:
        return f"id: duplicate {record.id!r}, first on line {first_line}"
    for a, b in (("hurst", "r_squared"), ("avg_rating", "n_ratings")):
        if (getattr(record, a) is None) != (getattr(record, b) is None):
            empty, given = (a, b) if getattr(record, a) is None else (b, a)
            return f"{empty}: empty, but {given} is given"
    if record.hurst is not None and record.n_tokens < MIN_SERIES_LENGTH:
        return (
            f"hurst: given for {record.n_tokens} tokens; "
            f"an estimate needs at least {MIN_SERIES_LENGTH}"
        )
    for name, cell in derived.items():
        want = getattr(record, name)
        if cell != want:
            return f"{name}: got {_opt(cell)}, but hurst and n_tokens give {_opt(want)}"
    return None


def read_results_csv(text: str, path: str) -> list[StoryRecord]:
    """Parse results.csv text back into records; `path` labels the errors.

    Blank lines are skipped. Each cell must parse, be finite and lie in its
    column's range, and each row must be one `analyze` writes: r_squared is
    given exactly when hurst is, and avg_rating exactly when n_ratings is;
    a hurst needs n_tokens >= MIN_SERIES_LENGTH; ids are unique; and the
    sweet_spot and status cells are what the record derives from hurst and
    n_tokens. A failure raises SentarcError as "PATH:LINE: column: reason".
    """
    records = []
    first_lines: dict[str, int] = {}
    for line, values in read_csv_table(text, path, _RESULTS_FIELDS):
        derived = {name: values.pop(name) for name in ("sweet_spot", "status")}
        record = StoryRecord(**values)
        fault = _row_fault(record, derived, line, first_lines.setdefault(record.id, line))
        if fault:
            raise SentarcError(f"{path}:{line}: {fault}")
        records.append(record)
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
