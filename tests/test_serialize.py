import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentarc import AfaResult, CorrelationReport, StoryRecord
from sentarc.errors import SentarcError
from sentarc.serialize import (
    fmt_float,
    hurst_json,
    read_results_csv,
    report_json,
    reports_json,
    write_results_csv,
    write_scatter_csv,
    write_series_csv,
)
from sentarc.serialize import _SERIES_CHUNK


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
    assert fmt_float(1 / 3) == "0.33333333333333331"
    assert fmt_float(0.5) == "0.5"
    assert float(fmt_float(0.1)) == 0.1  # round-trips exactly


def test_hurst_json_shape():
    result = AfaResult(hurst=0.62, intercept=-1.5, r_squared=0.99, points=((2.0, 1.0),))
    payload = json.loads(hurst_json(result))
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
        sweet_spot=False,
        status="too_short",
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
        avg_rating=4.0, n_ratings=50, sweet_spot=True, status="ok",
    )
    base.update(overrides)
    return StoryRecord(**base)


# Separators str.splitlines() breaks on; a story id is a file stem and may
# hold any of them. A lone "\r" is left out: csv.writer with a "\n" line
# terminator writes it unquoted, so it cannot be read back.
SEPARATORS = "\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("sep", list(SEPARATORS) + ["\r\n"], ids=repr)
def test_results_csv_reads_back_ids_with_line_separators(sep):
    records = [make_record(id=f"a{sep}b", title=f"A{sep}B, part 1"), make_record(id="c")]
    assert read_results_csv(results_csv(records), "results.csv") == records


def test_results_csv_error_names_physical_line_after_quoted_newline():
    text = results_csv([make_record(id="two\nlines")]) + "a,A,100,1,0.6\n"
    with pytest.raises(SentarcError, match=r"^results.csv:4: expected 10 fields, got 5$"):
        read_results_csv(text, "results.csv")


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r")
    | st.sampled_from(',"' + SEPARATORS)
)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def story_records(draw):
    hurst = draw(st.none() | _finite)
    return StoryRecord(
        id=draw(_text),
        title=draw(_text),
        n_tokens=draw(st.integers(0, 10**9)),
        coverage=draw(_finite),
        hurst=hurst,
        r_squared=None if hurst is None else draw(_finite),
        avg_rating=draw(st.none() | _finite),
        n_ratings=draw(st.none() | st.integers(0, 10**9)),
        sweet_spot=draw(st.booleans()),
        status=draw(st.sampled_from(["ok", "too_short", "degenerate"])),
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(story_records(), max_size=5))
def test_results_csv_round_trip(records):
    assert read_results_csv(results_csv(records), "results.csv") == records


def test_scatter_skips_incomplete_records():
    complete = StoryRecord(
        id="a", title="A", n_tokens=100, coverage=1.0, hurst=0.6, r_squared=0.9,
        avg_rating=4.0, n_ratings=50, sweet_spot=True, status="ok",
    )
    unrated = StoryRecord(
        id="b", title="B", n_tokens=100, coverage=1.0, hurst=0.7, r_squared=0.9,
        avg_rating=None, n_ratings=None, sweet_spot=False, status="ok",
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
    want = "".join(fmt_float(v) + "\n" for v in EDGE_VALUES)
    assert series_csv(container(EDGE_VALUES)) == want


def test_series_csv_empty_input():
    assert series_csv([]) == ""
    assert series_csv(np.array([])) == ""


@pytest.mark.parametrize("length", [_SERIES_CHUNK - 1, _SERIES_CHUNK, 2 * _SERIES_CHUNK + 5])
def test_series_csv_chunk_boundaries(length):
    values = np.random.default_rng(length).standard_cauchy(length)
    values[::97] = np.round(values[::97])  # integer-valued floats too
    text = series_csv(values)
    assert text == "".join(fmt_float(v) + "\n" for v in values)
    assert text.count("\n") == length
