import csv
import io
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentarc import AfaResult, CorrelationReport, StoryRecord
from sentarc.afa import MIN_SERIES_LENGTH
from sentarc.errors import SentarcError
from sentarc.inputs import lines
from sentarc.serialize import (
    RESULTS_HEADER,
    hurst_json,
    read_results_csv,
    read_series,
    report_json,
    reports_json,
    write_results_csv,
    write_scatter_csv,
    write_series_csv,
)
from sentarc.serialize import _SERIES_CHUNK, _cell, _opt, _write_csv


def make_report(**overrides):
    base = dict(
        n=10,
        min_ratings_filter=30,
        pearson_r=0.4,
        pearson_p=0.001,
        spearman_rho=0.35,
        spearman_p=0.005,
        kendall_tau=0.23,
        kendall_p=0.009,
        distance_corr=0.6,
        distance_corr_p=None,
    )
    base.update(overrides)
    return CorrelationReport(**base)


def test_fmt_float_17_significant_digits():
    assert _opt(1 / 3) == "0.33333333333333331"
    assert _opt(0.5) == "0.5"
    assert float(_opt(0.1)) == 0.1  # round-trips exactly


def test_hurst_json_shape():
    result = AfaResult(hurst=0.62, intercept=-1.5, r_squared=0.99, points=((2.0, 1.0),))
    text = hurst_json(result)
    assert text.endswith("}\n")
    payload = json.loads(text)
    assert payload == {
        "hurst": 0.62,
        "intercept": -1.5,
        "r_squared": 0.99,
        "n_points": 1,
    }


def test_report_json_null_permutation_p():
    payload = json.loads(report_json(make_report()))
    assert payload["distance_corr_p"] is None
    assert payload["min_ratings_filter"] == 30
    with_p = json.loads(report_json(make_report(distance_corr_p=0.02)))
    assert with_p["distance_corr_p"] == 0.02


def test_reports_json_array():
    text = reports_json([make_report(min_ratings_filter=0), make_report()])
    parsed = json.loads(text)
    assert [r["min_ratings_filter"] for r in parsed] == [0, 30]
    assert reports_json([]) == "[]\n"


def test_results_csv_blank_fields_for_missing_values():
    record = StoryRecord(
        id="tale",
        title="Tale, the first",  # embedded comma must be quoted
        n_tokens=20,
        coverage=0.25,
        hurst=None,
        r_squared=None,
        avg_rating=None,
        n_ratings=None,
    )
    buf = io.StringIO()
    write_results_csv([record], buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == 'tale,"Tale, the first",20,0.25,,,,,false,too_short'


def results_csv(records) -> str:
    buf = io.StringIO()
    write_results_csv(records, buf)
    return buf.getvalue()


def make_record(**overrides):
    base = dict(
        id="tale", title="Tale", n_tokens=100, coverage=0.5, hurst=0.6, r_squared=0.9,
        avg_rating=4.0, n_ratings=50,
    )
    base.update(overrides)
    return StoryRecord(**base)


# Separators str.splitlines() breaks on; a story id is a file stem and may
# hold any of them.
SEPARATORS = "\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("sep", list(SEPARATORS) + ["\r\n"], ids=repr)
def test_results_csv_reads_back_ids_with_line_separators(sep):
    records = [make_record(id=f"a{sep}b", title=f"A{sep}B, part 1"), make_record(id="c")]
    assert read_results_csv(results_csv(records), "results.csv") == records


def test_results_csv_error_names_physical_line_after_quoted_newline():
    text = results_csv([make_record(id="two\nlines")]) + "a,A,100,1,0.6\n"
    with pytest.raises(SentarcError, match=r"^results.csv:4: expected 10 fields, got 5$"):
        read_results_csv(text, "results.csv")


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",))
    | st.sampled_from(',"' + SEPARATORS)
)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_unit = st.floats(0, 1)


def _outside(low, high):
    return _finite.filter(lambda value: not low <= value <= high)


@st.composite
def story_records(draw, text=_text):
    """Records that keep every rule `read_results_csv` enforces."""
    hurst = draw(st.none() | _finite)
    # an estimate needs 60 tokens; draw near that floor as often as far above it
    low = 0 if hurst is None else MIN_SERIES_LENGTH
    rated = draw(st.booleans())
    return StoryRecord(
        id=draw(text),
        title=draw(text),
        n_tokens=draw(st.integers(low, 120) | st.integers(low, 10**9)),
        coverage=draw(_unit),
        hurst=hurst,
        r_squared=None if hurst is None else draw(_unit),
        avg_rating=draw(st.floats(1, 5)) if rated else None,
        n_ratings=draw(st.integers(0, 10**9)) if rated else None,
    )


def _unique_ids(records):
    return st.lists(records, max_size=5, unique_by=lambda r: r.id)


@settings(max_examples=200, deadline=None)
@given(_unique_ids(story_records()))
def test_results_csv_round_trip(records):
    # NUL is no CSV character: the writer refuses it rather than round-trip it
    if any("\0" in r.id + r.title for r in records):
        with pytest.raises(ValueError, match="NUL character"):
            results_csv(records)
    else:
        assert read_results_csv(results_csv(records), "results.csv") == records


_STATUSES = ("ok", "too_short", "degenerate")
_nul_free_text = _text.filter(lambda t: "\0" not in t)


@st.composite
def tables_breaking_one_rule(draw):
    """(text, column): rows that keep every rule, then a last row that
    breaks exactly one, and the column its error must name."""
    records = draw(_unique_ids(story_records(_nul_free_text)).filter(bool))
    taken = {r.id for r in records}
    record = draw(story_records(_nul_free_text).filter(lambda r: r.id not in taken))
    rule = draw(st.sampled_from([
        "id", "n_tokens", "coverage", "r_squared", "avg_rating", "n_ratings", "status",
        "derived status", "derived sweet_spot", "r_squared pair", "rating pair", "hurst",
    ]))
    hurst = draw(_finite) if record.hurst is None else record.hurst
    rated = dict(avg_rating=draw(st.floats(1, 5)), n_ratings=draw(st.integers(0, 10**9)))
    edits, column = {}, rule
    if rule == "id":
        record = replace(record, id=draw(st.sampled_from(records)).id)
    elif rule == "n_tokens":
        # no estimate and under 60 tokens: the derived status stays too_short
        record = replace(record, hurst=None, r_squared=None, n_tokens=draw(st.integers(-10**9, -1)))
    elif rule == "coverage":
        record = replace(record, coverage=draw(_outside(0, 1)))
    elif rule == "r_squared":
        n_tokens = max(record.n_tokens, MIN_SERIES_LENGTH)
        record = replace(record, hurst=hurst, r_squared=draw(_outside(0, 1)), n_tokens=n_tokens)
    elif rule in ("avg_rating", "n_ratings"):
        bad = draw(_outside(1, 5)) if rule == "avg_rating" else draw(st.integers(-10**9, -1))
        record = replace(record, **{**rated, rule: bad})
    elif rule == "status":
        edits["status"] = draw(_nul_free_text.filter(lambda t: t not in _STATUSES))
    elif rule == "derived status":
        column = "status"
        edits["status"] = draw(st.sampled_from([s for s in _STATUSES if s != record.status]))
    elif rule == "derived sweet_spot":
        column = "sweet_spot"
        edits["sweet_spot"] = "false" if record.sweet_spot else "true"
    elif rule == "r_squared pair":
        if record.hurst is None:
            record, column = replace(record, r_squared=draw(_unit)), "hurst"
        else:
            record, column = replace(record, r_squared=None), "r_squared"
    elif rule == "rating pair":
        if record.avg_rating is None:
            given = draw(st.sampled_from(sorted(rated)))
            record = replace(record, **{given: rated[given]})
            column = ({"avg_rating", "n_ratings"} - {given}).pop()
        else:
            column = draw(st.sampled_from(sorted(rated)))
            record = replace(record, **{column: None})
    else:  # an estimate below the estimator's 60 tokens, with a status to match
        n_tokens = draw(st.integers(0, MIN_SERIES_LENGTH - 1))
        record = replace(record, hurst=hurst, r_squared=draw(_unit), n_tokens=n_tokens)
    cells = {name: getattr(record, name) for name in RESULTS_HEADER} | edits
    return results_csv(records) + ",".join(map(_cell, cells.values())) + "\n", column


@settings(max_examples=300, deadline=None)
@given(tables_breaking_one_rule())
def test_results_csv_rejects_a_row_breaking_one_rule(table):
    text, column = table
    line = len(list(lines(text)))
    with pytest.raises(SentarcError, match=rf"^results\.csv:{line}: {column}: "):
        read_results_csv(text, "results.csv")


@pytest.mark.parametrize("cell", ["a\0b", '"a\0b"', "\0"], ids=repr)
def test_results_csv_rejects_nul_naming_its_line(cell):
    text = results_csv([make_record(id="two\nlines"), make_record(id="x")])
    lines = text.split("\n")
    lines[3] = lines[3].replace("x", cell, 1)
    with pytest.raises(SentarcError, match=r"^results.csv:4: NUL character$"):
        read_results_csv("\n".join(lines), "results.csv")


def test_results_csv_header_cells_may_be_padded():
    text = results_csv([make_record()])
    header, body = text.split("\n", 1)
    padded = ",".join(f" {name}\t" for name in header.split(","))
    assert read_results_csv(padded + "\n" + body, "results.csv") == [make_record()]


def reference_csv(header, rows) -> str:
    """The dialect `_write_csv` keeps: the csv module's, with "\r\n"
    terminators (which quote a cell holding CR or LF), turned back into
    "\n" outside quotes. Split at '"', the text outside quotes lies at even
    indices; the only even parts inside a cell are the empty ones between
    the halves of a doubled quote."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(
        [header] + [[_opt(cell) for cell in row] for row in rows]
    )
    parts = buf.getvalue().split('"')
    parts[::2] = [part.replace("\r\n", "\n") for part in parts[::2]]
    return '"'.join(parts)


def written_csv(header, rows) -> str:
    buf = io.StringIO()
    # generators over the loop variable, as write_results_csv passes them
    _write_csv(buf, header, ((cell for cell in row) for row in rows))
    return buf.getvalue()


_cell_text = st.text(alphabet=st.sampled_from(',"\r\n\x00\x85\u2028 a'), max_size=6)
_cells = st.none() | st.booleans() | st.integers() | st.floats() | _cell_text


@st.composite
def tables(draw):
    # every table the package writes has at least two columns; the csv
    # module writes a lone empty cell as '""'
    width = draw(st.integers(2, 5))
    header = draw(st.lists(_cell_text, min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(_cells, min_size=width, max_size=width), max_size=6))
    return header, rows


@settings(max_examples=500, deadline=None)
@given(tables())
def test_write_csv_matches_reference_dialect(table):
    header, rows = table
    if any(isinstance(cell, str) and "\0" in cell for cell in header + sum(rows, [])):
        with pytest.raises(ValueError, match="NUL character"):
            written_csv(header, rows)
    else:
        assert written_csv(header, rows) == reference_csv(header, rows)


@pytest.mark.parametrize("length", [1023, 1024, 2053])
def test_write_csv_chunk_boundaries(length):
    rows = [(i, i / 7, f"t{i}" + ",\r\n"[i % 3]) for i in range(length)]
    text = written_csv(["a", "b", "c"], rows)
    assert text == reference_csv(["a", "b", "c"], rows)
    parsed = list(csv.reader(io.StringIO(text, newline="")))
    assert [row[2] for row in parsed[1:]] == [row[2] for row in rows]


class WriteOnlySink:
    """A text sink with `write` alone, like the byte-counting proxy the
    benchmark's tracer passes to every writer."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)


def test_writers_need_only_write():
    sink = WriteOnlySink()
    _write_csv(sink, ["a", "b"], [(1, "x,y"), (2.5, None)])
    write_series_csv([0.5, 2.0], sink)
    assert "".join(sink.parts) == 'a,b\n1,"x,y"\n2.5,\n0.5\n2\n'


def test_scatter_skips_incomplete_records():
    complete = StoryRecord(
        id="a", title="A", n_tokens=100, coverage=1.0, hurst=0.6, r_squared=0.9,
        avg_rating=4.0, n_ratings=50,
    )
    unrated = StoryRecord(
        id="b", title="B", n_tokens=100, coverage=1.0, hurst=0.7, r_squared=0.9,
        avg_rating=None, n_ratings=None,
    )
    buf = io.StringIO()
    write_scatter_csv([complete, unrated], buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == 0.6


EDGE_VALUES = [
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -5e-324,
    1.7976931348623157e308, -1.7976931348623157e308, 1.0, -7.0, 2.0**53, 1e22,
    0.1, 1 / 3, 2.2250738585072014e-308,
]


def series_csv(values) -> str:
    buf = io.StringIO()
    write_series_csv(values, buf)
    return buf.getvalue()


@pytest.mark.parametrize("container", [list, np.array], ids=["list", "ndarray"])
def test_series_csv_same_bytes_as_fmt_float_per_value(container):
    want = "".join(format(v, ".17g") + "\n" for v in EDGE_VALUES)
    assert series_csv(container(EDGE_VALUES)) == want


def test_series_csv_empty_input():
    assert series_csv([]) == ""
    assert series_csv(np.array([])) == ""


@pytest.mark.parametrize("length", [_SERIES_CHUNK - 1, _SERIES_CHUNK, 2 * _SERIES_CHUNK + 5])
def test_series_csv_chunk_boundaries(length):
    values = np.random.default_rng(length).standard_cauchy(length)
    values[::97] = np.round(values[::97])  # integer-valued floats too
    text = series_csv(values)
    assert text == "".join(format(v, ".17g") + "\n" for v in values)
    assert text.count("\n") == length


def test_read_series_peak_memory_under_three_texts():
    # lines are split a slice at a time; the whole text's list of lines
    # peaked at 4.27 texts
    values = np.random.default_rng(5).standard_normal(2**18)
    text = series_csv(values)
    tracemalloc.start()
    try:
        got = read_series(text, "series.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, values)
    assert peak < 3 * len(text)
