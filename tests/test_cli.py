import argparse
import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    GRADED_WORDS,
    fgn_token_text,
    package_env,
    write_graded_lexicon_file,
    write_lexicon_file,
    write_story,
)
from sentarc import (
    AfaResult,
    CorrelationReport,
    Lexicon,
    Merge,
    StoryRecord,
    SynthSpec,
    arc_from_text,
    estimate_hurst,
    fgn,
    window_summary,
)
from sentarc import cli as cli_mod
from sentarc import corpus as corpus_mod
from sentarc import inputs, serialize
from sentarc.cli import build_parser, main
from sentarc.errors import SentarcError
from sentarc.lexicon import load_lexicon


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def lexicon_path(tmp_path):
    return write_graded_lexicon_file(tmp_path / "lexicon.tsv")


@pytest.fixture
def small_corpus(tmp_path, lexicon_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    targets = {"alpha": 0.4, "beta": 0.55, "gamma": 0.7, "delta": 0.85}
    for i, (name, h) in enumerate(targets.items()):
        write_story(corpus, name, fgn_token_text(h, 1024, seed=20 + i))
    write_story(corpus, "stub", "gaa gab gac")  # too short: reason-coded
    ratings = tmp_path / "ratings.csv"
    ratings.write_text(
        "id,title,avg_rating,n_ratings\n"
        "alpha,Alpha,3.1,12\n"
        "beta,Beta,3.6,45\n"
        "gamma,Gamma,4.0,200\n"
        "delta,Delta,4.4,3100\n"
    )
    return corpus, ratings


# ------------------------------------------------------------------- hurst


def test_synth_pipes_into_hurst(tmp_path, capsys, monkeypatch):
    code, out, _ = run_cli(["synth", "--h", "0.7", "--n", "4096", "--seed", "1"], capsys)
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(out.encode("utf-8"))))
    code, out, _ = run_cli(["hurst", "--series", "-"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["hurst"] == pytest.approx(0.7, abs=0.1)
    assert set(payload) == {"hurst", "intercept", "r_squared", "n_points"}
    assert payload["n_points"] >= 5


def test_hurst_missing_file_exit_1(capsys):
    code, _, err = run_cli(["hurst", "missing_file.txt", "--lexicon", "x.tsv"], capsys)
    assert code == 1
    assert "missing_file.txt" in err


def test_hurst_story_mode(tmp_path, lexicon_path, capsys):
    story = write_story(tmp_path, "tale", fgn_token_text(0.6, 2048, seed=5))
    code, out, _ = run_cli(
        ["hurst", str(story), "--lexicon", str(lexicon_path)], capsys
    )
    assert code == 0
    assert 0.3 < json.loads(out)["hurst"] < 0.9


def test_hurst_requires_exactly_one_input(tmp_path, capsys):
    code, _, err = run_cli(["hurst"], capsys)
    assert code == 1
    series = tmp_path / "s.csv"
    series.write_text("1\n2\n")
    code2, _, err2 = run_cli(
        ["hurst", "story.txt", "--series", str(series), "--lexicon", "l.tsv"], capsys
    )
    assert code2 == 1


def test_hurst_points_output(tmp_path, capsys):
    series_path = tmp_path / "series.csv"
    rng = np.random.default_rng(3)
    series_path.write_text("\n".join(str(v) for v in rng.normal(size=512)))
    points_path = tmp_path / "points.csv"
    code, _, _ = run_cli(
        ["hurst", "--series", str(series_path), "--points-out", str(points_path)],
        capsys,
    )
    assert code == 0
    lines = points_path.read_text().splitlines()
    assert lines[0] == "log2_w,log2_F"
    assert len(lines) >= 6


def test_hurst_series_same_bytes_on_one_and_two_blas_threads(tmp_path, capsys):
    # a 2^20 series makes the trend products large enough that OpenBLAS
    # would thread them; the thread count is read when numpy loads, so
    # each run is a fresh process
    series_path = tmp_path / "series.csv"
    code, _, _ = run_cli(
        ["synth", "--h", "0.7", "--n", "1048576", "--seed", "3", "--out", str(series_path)],
        capsys,
    )
    assert code == 0
    for order in ("1", "2"):
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "sentarc", "hurst", "--series", str(series_path),
                 "--order", order, "--points-out", "-"],
                capture_output=True,
                env={**package_env(), "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], f"order {order}"


def test_hurst_series_with_header_line(tmp_path, capsys):
    series_path = tmp_path / "series.csv"
    rng = np.random.default_rng(4)
    series_path.write_text("value\n" + "\n".join(str(v) for v in rng.normal(size=256)))
    code, out, _ = run_cli(["hurst", "--series", str(series_path)], capsys)
    assert code == 0


def test_hurst_too_short_series_exit_1(tmp_path, capsys):
    series_path = tmp_path / "series.csv"
    series_path.write_text("\n".join(["1.0", "2.0", "3.0"] * 5))
    code, _, err = run_cli(["hurst", "--series", str(series_path)], capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_hurst_series_rejects_non_finite_value(tmp_path, capsys, bad):
    values = [str(v) for v in np.random.default_rng(5).normal(size=256)]
    values[100] = bad
    series_path = tmp_path / "series.csv"
    series_path.write_text("\n".join(values) + "\n")
    code, _, err = run_cli(["hurst", "--series", str(series_path)], capsys)
    assert code == 1
    assert f"series.csv:101: non-finite value '{bad}'" in err


def _reject_constant(name):
    raise ValueError(f"not valid JSON: {name}")


def test_hurst_series_accepts_extreme_magnitude(tmp_path, capsys):
    noise = fgn(SynthSpec(0.7, 4096, 1))
    unit = estimate_hurst(noise).hurst
    series_path = tmp_path / "huge.csv"
    series_path.write_text("".join(f"{float(v * 1e300)!r}\n" for v in noise))
    code, out, _ = run_cli(["hurst", "--series", str(series_path)], capsys)
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["hurst"] == pytest.approx(unit, abs=1e-12)


@pytest.mark.parametrize("order", ["0", "1", "2", "3"])
def test_story_hurst_same_bytes_on_every_route(
    tmp_path, lexicon_path, small_corpus, capsys, order
):
    # hurst STORY, the story's analyze row (through the worker pool), and
    # hurst --series over the raw column of arc's output all estimate on the
    # same raw valence series with the same fit order
    corpus, ratings = small_corpus
    story = corpus / "gamma.txt"
    code, out, _ = run_cli(
        ["hurst", str(story), "--lexicon", str(lexicon_path), "--order", order], capsys
    )
    assert code == 0
    via_story = re.search(r'"hurst": ([^,]+),', out).group(1)

    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        [
            "analyze",
            "--corpus", str(corpus),
            "--lexicon", str(lexicon_path),
            "--ratings", str(ratings),
            "--out", str(out_dir),
            "--jobs", "2",
            "--order", order,
        ],
        capsys,
    )
    assert code == 0
    with open(out_dir / "results.csv", newline="") as fh:
        via_analyze = next(r["hurst"] for r in csv.DictReader(fh) if r["id"] == "gamma")

    arc_path = tmp_path / "arc.csv"
    code, _, _ = run_cli(
        ["arc", str(story), "--lexicon", str(lexicon_path), "--out", str(arc_path)], capsys
    )
    assert code == 0
    with open(arc_path, newline="") as fh:
        raw = [row["raw"] for row in csv.DictReader(fh)]
    series_path = tmp_path / "raw.csv"
    series_path.write_text("\n".join(raw) + "\n")
    code, out, _ = run_cli(["hurst", "--series", str(series_path), "--order", order], capsys)
    assert code == 0
    via_series = re.search(r'"hurst": ([^,]+),', out).group(1)

    assert via_story == via_analyze == via_series


def test_hurst_series_rejects_multi_column_csv(tmp_path, lexicon_path, capsys):
    # arc's output has index,raw,smooth columns; reading only the first
    # would estimate the index ramp
    story = write_story(tmp_path, "tale", fgn_token_text(0.6, 2048, seed=5))
    arc_path = tmp_path / "arc.csv"
    code, _, _ = run_cli(
        ["arc", str(story), "--lexicon", str(lexicon_path), "--out", str(arc_path)], capsys
    )
    assert code == 0
    second = arc_path.read_text().splitlines()[1]
    code, out, err = run_cli(["hurst", "--series", str(arc_path)], capsys)
    assert code == 1
    assert out == ""
    assert f"{arc_path}:2: expected one numeric column, got {second!r}" in err


def read_series_loop(path):
    """A plain line-by-line reader, as the oracle for `serialize.read_series`:
    values, header skipping and error text."""
    values = []
    for lineno, line in enumerate(path.read_bytes().decode("utf-8").splitlines(), start=1):
        item = line.strip()
        if not item:
            continue
        try:
            value = float(item)
        except ValueError:
            if lineno == 1:
                continue
            raise SentarcError(
                f"{path}:{lineno}: expected one numeric column, got {item!r}"
            ) from None
        if not math.isfinite(value):
            raise SentarcError(f"{path}:{lineno}: non-finite value {item!r}")
        values.append(value)
    return values


SERIES_TEXTS = [
    "",
    "1\n2.5\n-3e-2\n",
    "value\n1\n2\n",
    "a,b\n1\n2",
    "1\n\n2\n   \n3\n\n",
    "value\n\n1\n",
    "\n1\n2\n",
    "1\r\n2\r\n3\r\n",
    "value\r\n1\r\n",
    "  1.5 \n\t-2\t\n 3\n",
    "nan\ninf\n-0.0\n",
    "1\n2\nx\n4\n",
    "1\n2\n3\nfoo",
    "value\n1\n1,2\n",
    "\nvalue\n1\n",
    "1\nvalue\n",
    "1\r2\r3\r",
    "  \nvalue\n1\n",
    "1\n2\n\nfoo\n",
    "1\n\x1c2\n",
    "value\n1\n-inf\n",
    "nan\n1\n2\n",
    "1\n inf \nfoo\n",
    "1\n\ninf\nfoo\n",
    "1\nfoo\ninf\n",
    "nan\n1\n",
    "value\r\r1\r2\r\rx\r",
    "value\r\n\r\n1\r\n2\r\nfoo\r\n",
    "1\r\n\r2\n\rx",
]


@pytest.mark.parametrize("text", SERIES_TEXTS)
def test_read_series_matches_line_loop(tmp_path, text):
    assert_read_series_matches_line_loop(tmp_path, text)


@pytest.mark.parametrize("slice_chars", [1, 2, 5])
@pytest.mark.parametrize("text", SERIES_TEXTS)
def test_read_series_matches_line_loop_at_every_slice_cut(
    monkeypatch, tmp_path, text, slice_chars
):
    # a slice runs from its start to the first line end at or past
    # slice_chars - 1, so at 1 every line is a slice of its own
    monkeypatch.setattr(serialize, "_READ_SLICE_CHARS", slice_chars)
    assert_read_series_matches_line_loop(tmp_path, text)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=repr)
def test_read_series_names_a_bad_line_just_after_a_slice_cut(tmp_path, end):
    # the first slice ends with the line end at its last character, so the
    # bad line opens the second slice
    lines_before = serialize._READ_SLICE_CHARS // 4
    text = f"0.5{end}" * lines_before + f"x{end}1{end}"
    assert text.replace(end, "\n").index("x") == serialize._READ_SLICE_CHARS
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(SentarcError) as got:
        serialize.read_series(inputs.read_text(str(path)), str(path))
    assert str(got.value) == f"{path}:{lines_before + 1}: expected one numeric column, got 'x'"


def assert_read_series_matches_line_loop(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = read_series_loop(path)
    except SentarcError as exc:
        with pytest.raises(SentarcError) as got:
            serialize.read_series(inputs.read_text(str(path)), str(path))
        assert str(got.value) == str(exc)
        reasons = "expected one numeric column, got|non-finite value"
        pattern = rf"{re.escape(str(path))}:\d+: ({reasons}) '.*'"
        assert re.fullmatch(pattern, str(exc))
    else:
        got = serialize.read_series(inputs.read_text(str(path)), str(path))
        got, want = np.array(got, dtype=float), np.array(want, dtype=float)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("subcommand", ["hurst", "analyze"])
def test_negative_order_is_a_parse_error(tmp_path, lexicon_path, small_corpus, capsys, subcommand):
    corpus, ratings = small_corpus
    out_dir = tmp_path / "out"
    argv = {
        "hurst": ["hurst", str(corpus / "gamma.txt"), "--lexicon", str(lexicon_path)],
        "analyze": [
            "analyze",
            "--corpus", str(corpus),
            "--lexicon", str(lexicon_path),
            "--ratings", str(ratings),
            "--out", str(out_dir),
        ],
    }[subcommand]
    code, out, err = run_cli(argv + ["--order", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert "--order" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("subcommand", ["hurst", "analyze"])
def test_order_above_three_is_a_parse_error(tmp_path, capsys, subcommand):
    # an order-4 fit passes through all 5 samples of the smallest window;
    # rejected while parsing, before any input is read
    argv = {
        "hurst": ["hurst", "--series", "missing.csv"],
        "analyze": ["analyze", "--corpus", "missing", "--lexicon", "missing.tsv",
                    "--ratings", "missing.csv", "--out", str(tmp_path / "out")],
    }[subcommand]
    code, out, err = run_cli(argv + ["--order", "4"], capsys)
    assert (code, out) == (1, "")
    assert "--order: must be in [0, 3], got 4" in err
    assert not (tmp_path / "out").exists()
    assert main([subcommand, "--help"]) == 0
    assert "0 to 3" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("value", ["0", "5", "nan"])
@pytest.mark.parametrize("story_text", ["gaa gba gca gda gea", "123 456 ..."], ids=["words", "empty"])
def test_smooth_fraction_out_of_range_is_a_parse_error(
    tmp_path, lexicon_path, capsys, value, story_text
):
    story = write_story(tmp_path, "tale", story_text)
    code, out, err = run_cli(
        ["arc", str(story), "--lexicon", str(lexicon_path), "--smooth-fraction", value], capsys
    )
    assert (code, out) == (1, "")
    assert f"--smooth-fraction: must be in (0, 1], got {value}" in err


def test_cluster_smooth_fraction_checked_before_the_corpus(capsys):
    argv = ["cluster", "--corpus", "missing", "--lexicon", "missing.tsv", "--k", "2",
            "--smooth-fraction", "1.5"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert "--smooth-fraction: must be in (0, 1], got 1.5" in err
    assert "missing" not in err


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize(
    "argv",
    [["arc", "missing.txt", "--lexicon", "missing.tsv", "--window"],
     ["cluster", "--corpus", "missing", "--lexicon", "missing.tsv", "--k"]],
    ids=["arc --window", "cluster --k"],
)
def test_count_below_one_is_a_parse_error(capsys, argv, value):
    # rejected while parsing, before any input is read
    code, out, err = run_cli(argv + [value], capsys)
    assert (code, out) == (1, "")
    assert f"{argv[-1]}: must be >= 1, got {value}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["hurst", "--series", "-", "--windows", "5,7"],
        ["analyze", "--corpus", "c", "--lexicon", "l", "--ratings", "r", "--out", "o",
         "--min-windows-for-fit", "3"],
    ],
)
def test_window_schedule_flags_are_unknown(capsys, argv):
    # the schedule is always log-spaced over [5, N/4]; only --order is settable
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "unrecognized arguments" in err


# --------------------------------------------------------------------- arc


def test_arc_emits_expected_columns(tmp_path, lexicon_path, capsys):
    story = write_story(tmp_path, "tale", "gaa gba gca gda gea")
    windows_path = tmp_path / "windows.csv"
    code, out, _ = run_cli(
        [
            "arc",
            str(story),
            "--lexicon",
            str(lexicon_path),
            "--window",
            "2",
            "--windows-out",
            str(windows_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,raw,smooth"
    assert len(lines) == 6
    assert lines[1].startswith("0,0,")
    win_lines = windows_path.read_text().splitlines()
    assert win_lines[0] == "window,mean,std"
    assert len(win_lines) == 4  # ceil(5/2) windows


def test_arc_empty_story(tmp_path, lexicon_path, capsys):
    story = write_story(tmp_path, "void", "123 456 ...")
    code, out, _ = run_cli(["arc", str(story), "--lexicon", str(lexicon_path)], capsys)
    assert code == 0
    assert out.splitlines() == ["index,raw,smooth"]


# ----------------------------------------------------------------- analyze


def test_analyze_writes_manifest(tmp_path, lexicon_path, small_corpus, capsys):
    corpus, ratings = small_corpus
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        [
            "analyze",
            "--corpus",
            str(corpus),
            "--lexicon",
            str(lexicon_path),
            "--ratings",
            str(ratings),
            "--out",
            str(out_dir),
            "--min-ratings",
            "30",
            "--min-ratings",
            "0",
            "--jobs",
            "1",
        ],
        capsys,
    )
    assert code == 0
    for name in ("results.csv", "report.json", "scatter.csv", "ratings_scatter.csv"):
        assert (out_dir / name).exists(), name

    results = (out_dir / "results.csv").read_text().splitlines()
    assert results[0] == (
        "id,title,n_tokens,coverage,hurst,r_squared,avg_rating,n_ratings,sweet_spot,status"
    )
    assert len(results) == 6  # five stories
    stub_row = [line for line in results if line.startswith("stub,")][0]
    assert stub_row.endswith("too_short")

    reports = json.loads((out_dir / "report.json").read_text())
    assert [r["min_ratings_filter"] for r in reports] == [0, 30]
    assert all(-1.0 <= r["pearson_r"] <= 1.0 for r in reports)
    assert reports[0]["n"] == 4
    assert reports[1]["n"] == 3

    scatter = (out_dir / "scatter.csv").read_text().splitlines()
    assert scatter[0] == "hurst,avg_rating,n_ratings,title"
    assert len(scatter) == 5  # four stories with both hurst and rating

    ratings_scatter = (out_dir / "ratings_scatter.csv").read_text().splitlines()
    assert ratings_scatter[0] == "id,n_ratings,avg_rating"


def test_analyze_missing_corpus_exit_1(tmp_path, lexicon_path, capsys):
    ratings = tmp_path / "r.csv"
    ratings.write_text("id,title,avg_rating,n_ratings\n")
    code, _, err = run_cli(
        [
            "analyze",
            "--corpus",
            str(tmp_path / "nowhere"),
            "--lexicon",
            str(lexicon_path),
            "--ratings",
            str(ratings),
            "--out",
            str(tmp_path / "o"),
        ],
        capsys,
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "subcommand,jobs",
    [
        ("analyze", "0"),
        ("analyze", "-2"),
        ("cluster", "0"),
        ("cluster", "-2"),
    ],
    ids=["0", "-2", "cluster-0", "cluster-minus2"],
)
def test_analyze_rejects_nonpositive_jobs(
    tmp_path, lexicon_path, small_corpus, capsys, jobs, subcommand
):
    corpus, ratings = small_corpus
    out_dir = tmp_path / "out"
    extra = ["--ratings", str(ratings)] if subcommand == "analyze" else ["--k", "2"]
    code, _, err = run_cli(
        [
            subcommand,
            "--corpus", str(corpus),
            "--lexicon", str(lexicon_path),
            *extra,
            "--out", str(out_dir),
            "--jobs", jobs,
        ],
        capsys,
    )
    assert code == 1
    assert "--jobs" in err
    assert not out_dir.exists()


def test_jobs_default_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    parser = build_parser()
    analyze = ["analyze", "--corpus", "c", "--lexicon", "l", "--ratings", "r", "--out", "o"]
    assert parser.parse_args(analyze).jobs == 1
    assert parser.parse_args(["cluster", "--corpus", "c", "--lexicon", "l", "--k", "2"]).jobs == 1


def test_analyze_failed_write_keeps_previous_file(
    tmp_path, lexicon_path, small_corpus, capsys, monkeypatch
):
    corpus, ratings = small_corpus
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "scatter.csv").write_text("previous study\n")

    def half_then_fail(records, out):
        out.write("hurst,avg_rating,n_ratings,title\n")
        raise OSError("disk full")

    monkeypatch.setattr(serialize, "write_scatter_csv", half_then_fail)
    code, _, err = run_cli(
        [
            "analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
            "--ratings", str(ratings), "--out", str(out_dir), "--jobs", "1",
        ],
        capsys,
    )
    assert code == 1
    assert "disk full" in err
    assert (out_dir / "scatter.csv").read_text() == "previous study\n"
    # the four files are replaced as one set, so the complete results.csv
    # is discarded with the rest
    assert sorted(p.name for p in out_dir.iterdir()) == ["scatter.csv"]


@pytest.mark.parametrize("command", ["arc", "hurst", "cluster", "analyze"])
def test_failed_last_write_keeps_every_old_file(
    tmp_path, lexicon_path, small_corpus, capsys, monkeypatch, command
):
    corpus, ratings = small_corpus
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    story_input = [str(corpus / "alpha.txt"), "--lexicon", str(lexicon_path)]
    corpus_input = ["--corpus", str(corpus), "--lexicon", str(lexicon_path)]
    names, argv = {
        "arc": (["arc.csv", "windows.csv"], ["arc", *story_input, "--windows-out"]),
        "hurst": (["hurst.json", "points.csv"], ["hurst", *story_input, "--points-out"]),
        "cluster": (["labels.csv", "tree.csv"], ["cluster", *corpus_input, "--k", "2", "--tree-out"]),
        "analyze": (
            ["results.csv", "scatter.csv", "ratings_scatter.csv", "report.json"],
            ["analyze", *corpus_input, "--ratings"],
        ),
    }[command]
    if command == "analyze":
        argv += [str(ratings), "--jobs", "1", "--out", str(out_dir)]
    else:
        argv += [str(out_dir / names[1]), "--out", str(out_dir / names[0])]
    for name in names:
        (out_dir / name).write_text(f"old {name}\n")
    opened = []

    def open_filling_disk(file, *args, **kwargs):
        # the last output's handle takes half of its first write, then fails
        fh = open(file, *args, **kwargs)
        opened.append(fh)
        if len(opened) == len(names):

            def write(text):
                type(fh).write(fh, text[: len(text) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            fh.write = write
        return fh

    monkeypatch.setattr(cli_mod, "open", open_filling_disk, raising=False)
    full = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert run_cli(argv, capsys) == (1, "", f"error: {full}\n")
    assert len(opened) == len(names)
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(names)
    for name in names:
        assert (out_dir / name).read_text() == f"old {name}\n"


# ----------------------------------------------------------------- outputs


def write_staged(outputs):
    """Write each (path, writer) of `outputs` through `cli._staged`, as
    `main` writes a file flag's output."""
    with cli_mod._staged([(str(path), str(path), str(path)) for path, _ in outputs]) as sinks:
        for sink, (_, write) in zip(sinks, outputs, strict=True):
            write(sink)


def test_open_out_failure_leaves_target_and_no_temporary(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old bytes\n")

    def crash(fh):
        fh.write("half a fi")
        raise RuntimeError("crash mid-write")

    with pytest.raises(RuntimeError):
        write_staged([(target, crash)])
    assert target.read_text() == "old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_open_out_mode_matches_plain_open(tmp_path):
    old_umask = os.umask(0o027)
    try:
        write_staged([(tmp_path / "new.csv", lambda fh: fh.write("x\n"))])
        existing = tmp_path / "existing.csv"
        existing.write_text("old\n")
        existing.chmod(0o604)
        write_staged([(existing, lambda fh: fh.write("new\n"))])
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o640
    assert stat.S_IMODE(existing.stat().st_mode) == 0o604
    assert existing.read_text() == "new\n"


def test_open_out_writes_through_a_symlink(tmp_path):
    real = tmp_path / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    write_staged([(link, lambda fh: fh.write("new\n"))])
    assert link.is_symlink()
    assert real.read_text() == "new\n"


def test_open_out_failed_second_temporary_leaves_no_first(tmp_path, monkeypatch):
    mkstemp = tempfile.mkstemp
    calls = []

    def mkstemp_once(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return mkstemp(*args, **kwargs)

    monkeypatch.setattr(tempfile, "mkstemp", mkstemp_once)
    (tmp_path / "second.csv").write_text("old bytes\n")
    def body(fh):
        raise AssertionError("the body ran")

    with pytest.raises(SentarcError) as raised:
        write_staged([(tmp_path / "first.csv", body), (tmp_path / "second.csv", body)])
    assert str(raised.value) == f"cannot write {tmp_path / 'second.csv'}: {os.strerror(errno.ENOSPC)}"
    assert [p.name for p in tmp_path.iterdir()] == ["second.csv"]
    assert (tmp_path / "second.csv").read_text() == "old bytes\n"


def test_out_dev_null_still_written_in_place(tmp_path, capsys):
    series_path = tmp_path / "series.csv"
    series_path.write_text("\n".join(map(str, range(200))) + "\n")
    code, out, err = run_cli(
        ["hurst", "--series", str(series_path), "--out", os.devnull,
         "--points-out", os.devnull],
        capsys,
    )
    assert (code, out, err) == (0, "", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize(
    "command, second_flag, via_symlink, existing",
    [
        ("arc", "--windows-out", False, True),
        ("hurst", "--points-out", False, True),
        ("hurst", "--points-out", True, True),
        ("cluster", "--tree-out", False, False),
    ],
    ids=["arc", "hurst", "hurst-symlink", "cluster-new-file"],
)
def test_two_outputs_naming_one_file_exit_1(
    tmp_path, lexicon_path, capsys, command, second_flag, via_symlink, existing
):
    # each output replaces its file whole, so the second would erase the first
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(3):
        story = write_story(corpus, f"tale_{i}", fgn_token_text(0.6, 512, seed=i))
    target = tmp_path / "out.csv"
    if existing:
        target.write_text("old bytes\n")
    second = target
    if via_symlink:
        second = tmp_path / "link.csv"
        second.symlink_to(target)
    story_input = [str(story), "--lexicon", str(lexicon_path)]
    argv = {
        "arc": ["arc", *story_input],
        "hurst": ["hurst", *story_input],
        "cluster": ["cluster", "--corpus", str(corpus), "--lexicon", str(lexicon_path), "--k", "2"],
    }[command] + ["--out", str(target), second_flag, str(second)]
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == (
        f"error: --out and {second_flag} both name {second}: "
        "the second would replace the first\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if existing:
        assert target.read_text() == "old bytes\n"


def test_out_in_missing_directory_names_the_output(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "fgn.csv"
    code, _, err = run_cli(
        ["synth", "--h", "0.7", "--n", "64", "--out", str(target)], capsys
    )
    assert code == 1
    assert str(target) in err and ".tmp" not in err


@pytest.mark.parametrize(
    "command, flag, target, named, code",
    [
        ("cluster", "--tree-out", "no_such_dir/tree.csv", "", errno.ENOENT),
        ("hurst", "--points-out", "file.txt/points.csv", "", errno.ENOTDIR),
        ("cluster", "--out", "dir", "", errno.EISDIR),
        ("analyze", "--out", "file.txt", "", errno.ENOTDIR),
        ("analyze", "--out", "file.txt/new", "", errno.ENOTDIR),
        # each of analyze's four files is checked when --out exists
        ("analyze", "--out", "study", "report.json", errno.EISDIR),
    ],
    ids=["missing-directory", "directory-is-a-file", "file-output-is-a-directory",
         "analyze-out-is-a-file", "analyze-out-under-a-file", "analyze-report-is-a-directory"],
)
def test_unwritable_output_exit_1_before_any_input_is_read(
    tmp_path, lexicon_path, small_corpus, capsys, monkeypatch, command, flag, target, named, code
):
    corpus, ratings = small_corpus
    (tmp_path / "file.txt").write_text("old bytes\n")
    (tmp_path / "dir").mkdir()
    (tmp_path / "study" / "report.json").mkdir(parents=True)
    series = tmp_path / "series.csv"
    series.write_text("\n".join(map(str, range(200))) + "\n")

    def read(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(inputs, "read_text", read)
    monkeypatch.setattr(cli_mod, "load_lexicon", read)
    monkeypatch.setattr(corpus_mod, "load_corpus", read)
    argv = {
        "analyze": ["analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
                    "--ratings", str(ratings)],
        "cluster": ["cluster", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
                    "--k", "2"],
        "hurst": ["hurst", "--series", str(series)],
    }[command] + [flag, str(tmp_path / target)]
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run_cli(argv, capsys) == (
        1, "", f"error: cannot write {tmp_path / target / named}: {os.strerror(code)}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "file.txt").read_text() == "old bytes\n"


def test_out_symlink_to_missing_directory_exit_1_before_the_work(
    tmp_path, capsys, monkeypatch
):
    def spy(*args, **kwargs):
        raise AssertionError("the series was generated")

    monkeypatch.setattr(cli_mod, "fgn", spy)
    monkeypatch.chdir(tmp_path)
    Path("out.csv").symlink_to(Path("missing") / "out.csv")
    code, out, err = run_cli(["synth", "--h", "0.7", "--n", "64", "--out", "out.csv"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: cannot write out.csv: {os.strerror(errno.ENOENT)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_analyze_out_symlink_to_missing_directory_written_through(
    tmp_path, lexicon_path, small_corpus, capsys
):
    corpus, ratings = small_corpus
    target = tmp_path / "missing" / "study"
    link = tmp_path / "outdir"
    link.symlink_to(target)
    argv = ["analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
            "--ratings", str(ratings), "--jobs", "1"]
    code, _, err = run_cli([*argv, "--out", str(link)], capsys)
    assert code == 0, err
    assert link.is_symlink()
    assert sorted(p.name for p in target.iterdir()) == sorted(cli_mod.ANALYZE_FILES)
    plain = tmp_path / "plain"
    assert run_cli([*argv, "--out", str(plain)], capsys)[0] == 0
    for name in cli_mod.ANALYZE_FILES:
        assert (target / name).read_bytes() == (plain / name).read_bytes()


def test_no_command_touches_the_filesystem_before_main_writes(
    tmp_path, lexicon_path, small_corpus, capsys
):
    corpus, ratings = small_corpus
    argv = ["analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
            "--ratings", str(ratings), "--jobs", "1", "--out", str(tmp_path / "new" / "deeper")]
    outputs = list(cli_mod._cmd_analyze(build_parser().parse_args(argv)))
    assert len(outputs) == len(cli_mod.ANALYZE_FILES)
    assert not (tmp_path / "new").exists()
    assert run_cli(argv, capsys)[0] == 0
    written = sorted(p.name for p in (tmp_path / "new" / "deeper").iterdir())
    assert written == sorted(cli_mod.ANALYZE_FILES)


def test_analyze_files_naming_one_file_exit_1(
    tmp_path, lexicon_path, small_corpus, capsys, monkeypatch
):
    # results.csv links to scatter.csv, so the scatter table would replace
    # the results table
    corpus, ratings = small_corpus
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "scatter.csv").write_text("old bytes\n")
    (out_dir / "results.csv").symlink_to("scatter.csv")

    def read(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli_mod, "load_lexicon", read)
    monkeypatch.setattr(corpus_mod, "load_corpus", read)
    code, out, err = run_cli(
        ["analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
         "--ratings", str(ratings), "--out", str(out_dir)],
        capsys,
    )
    results, scatter = out_dir / "results.csv", out_dir / "scatter.csv"
    assert (code, out) == (1, "")
    assert err == (
        f"error: {results} and {scatter} both name {scatter}: the second would replace the first\n"
    )
    assert sorted(p.name for p in out_dir.iterdir()) == ["results.csv", "scatter.csv"]
    assert results.is_symlink()
    assert scatter.read_text() == "old bytes\n"


def test_failed_writer_leaves_a_symlinked_output_whole(tmp_path, capsys, monkeypatch):
    series = tmp_path / "series.csv"
    series.write_text("\n".join(map(str, range(200))) + "\n")
    real = tmp_path / "real.json"
    real.write_text("old bytes\n")
    link = tmp_path / "link.json"
    link.symlink_to(real)

    def fail(result, out):
        raise OSError("disk full")

    monkeypatch.setattr(serialize, "write_points_csv", fail)
    code, _, err = run_cli(
        ["hurst", "--series", str(series), "--out", str(link),
         "--points-out", str(tmp_path / "points.csv")],
        capsys,
    )
    assert (code, err) == (1, "error: disk full\n")
    assert link.is_symlink()
    assert real.read_text() == "old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json", "series.csv"]


@pytest.mark.parametrize("failure", ["work", "fourth-file"])
def test_failed_analyze_leaves_no_new_out_directory(
    tmp_path, lexicon_path, small_corpus, capsys, monkeypatch, failure
):
    corpus, ratings = small_corpus
    out_dir = tmp_path / "new" / "deeper"
    if failure == "work":
        def fail(*args, **kwargs):
            raise SentarcError("the work failed")

        monkeypatch.setattr(corpus_mod, "analyze_corpus", fail)
        expected = "error: the work failed\n"
    else:
        mkstemp = tempfile.mkstemp
        calls = []

        def fail_fourth_mkstemp(*args, **kwargs):
            calls.append(args)
            if len(calls) == len(cli_mod.ANALYZE_FILES):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", fail_fourth_mkstemp)
        expected = f"error: cannot write {out_dir}: {os.strerror(errno.ENOSPC)}\n"
    before = sorted(p.name for p in tmp_path.iterdir())
    code, _, err = run_cli(
        ["analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
         "--ratings", str(ratings), "--jobs", "1", "--out", str(out_dir)],
        capsys,
    )
    assert (code, err) == (1, expected)
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_analyze_out_in_the_corpus_writes_the_same_results(
    tmp_path, lexicon_path, small_corpus, capsys
):
    # the temporary files, present while the corpus is read, are not stories
    corpus, ratings = small_corpus
    argv = ["analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
            "--ratings", str(ratings), "--jobs", "1", "--out"]
    assert run_cli([*argv, str(tmp_path / "apart")], capsys)[0] == 0
    assert run_cli([*argv, str(corpus)], capsys)[0] == 0
    for name in cli_mod.ANALYZE_FILES:
        assert (corpus / name).read_bytes() == (tmp_path / "apart" / name).read_bytes()


def run_cli_unprivileged(argv, capsys):
    """run_cli, but as root, which passes every mode check, in a forked
    child dropped to uid and gid 65534. The child is not exec'd, since
    that uid may not reach the interpreter; it sends its exit code and
    streams back through a pipe."""
    if os.geteuid() != 0:
        return run_cli(argv, capsys)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as pipe:
                try:
                    os.setgroups([])
                    os.setgid(65534)
                    os.setuid(65534)
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv)
                    json.dump([code, out.getvalue(), err.getvalue()], pipe)
                except Exception as exc:
                    json.dump([-1, "", f"child failed: {exc!r}"], pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        result = tuple(json.load(pipe))
    os.waitpid(pid, 0)
    return result


@pytest.mark.skipif(not hasattr(os, "geteuid"), reason="POSIX mode bits")
@pytest.mark.parametrize("command", ["synth", "analyze", "analyze_new"])
def test_output_in_read_only_directory_exit_1_before_the_work(
    lexicon_path, small_corpus, capsys, monkeypatch, command
):
    corpus, ratings = small_corpus

    def spy(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(cli_mod, "fgn", spy)
    monkeypatch.setattr(corpus_mod, "load_corpus", spy)
    # pytest's basetemp is 0700, which uid 65534 cannot enter
    with tempfile.TemporaryDirectory() as root:
        os.chmod(root, 0o755)
        read_only = Path(root) / "ro"
        read_only.mkdir()
        read_only.chmod(0o555)
        argv, target = {
            "synth": (["synth", "--h", "0.7", "--n", "64", "--out"], read_only / "out.csv"),
            "analyze": (["analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
                         "--ratings", str(ratings), "--out"], read_only),
            # made with its parents, under the nearest existing directory
            "analyze_new": (["analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
                             "--ratings", str(ratings), "--out"], read_only / "new" / "deeper"),
        }[command]
        try:
            assert run_cli_unprivileged([*argv, str(target)], capsys) == (
                1, "", f"error: cannot write {target}: {os.strerror(errno.EACCES)}\n"
            )
            assert list(read_only.iterdir()) == []
        finally:
            read_only.chmod(0o755)


# --------------------------------------------------------------- correlate


@pytest.mark.parametrize(
    "row,message",
    [
        ("a,A,100,1,0.6", ":3: expected 10 fields, got 5"),
        ("a,A,100,1,0.6,0.9,3.5,many,false,ok", ":3: n_ratings: "),
        ("a,A,100,full,0.6,0.9,3.5,40,false,ok", ":3: coverage: "),
        ("a,A,100,1,nan,0.9,3.5,40,false,ok", ":3: hurst: non-finite value nan"),
        ("a,A,100,1,0.6,inf,3.5,40,false,ok", ":3: r_squared: non-finite value inf"),
        ("a,A,100,1,0.6,0.9,-inf,40,false,ok", ":3: avg_rating: non-finite value -inf"),
        ("a,A,100,NaN,0.6,0.9,3.5,40,false,ok", ":3: coverage: non-finite value nan"),
        ("a,A,100,1,0.6,0.9,3.5,40,yes,ok", ":3: sweet_spot: expected true or false, got 'yes'"),
        ("a,A,100,1,0.6,0.9,3.5,40,1,ok", ":3: sweet_spot: expected true or false, got '1'"),
        ("a,A,100,1,0.6,0.9,3.5,40,True,ok", ":3: sweet_spot: expected true or false, got 'True'"),
        # each cell in its column's range
        ("a,A,-5,1,,,3.5,40,false,too_short", ":3: n_tokens: must be >= 0, got -5"),
        ("a,A,100,7.5,0.6,0.9,3.5,40,true,ok", ":3: coverage: must be in [0, 1], got 7.5"),
        ("a,A,100,1,0.6,-3,3.5,40,true,ok", ":3: r_squared: must be in [0, 1], got -3"),
        ("a,A,100,1,0.6,0.9,9.0,40,true,ok", ":3: avg_rating: must be in [1, 5], got 9.0"),
        ("a,A,100,1,0.6,0.9,3.5,-2,true,ok", ":3: n_ratings: must be >= 0, got -2"),
        (
            "a,A,100,1,0.6,0.9,3.5,40,true,bogus",
            ":3: status: expected ok, too_short or degenerate, got 'bogus'",
        ),
        # the rules that tie a row's cells together
        ("b,B2,100,1,0.5,0.9,3.5,40,false,ok", ":3: id: duplicate 'b', first on line 2"),
        ("a,A,100,1,,0.9,3.5,40,false,degenerate", ":3: hurst: empty, but r_squared is given"),
        ("a,A,100,1,0.6,,3.5,40,true,ok", ":3: r_squared: empty, but hurst is given"),
        ("a,A,100,1,0.6,0.9,,40,true,ok", ":3: avg_rating: empty, but n_ratings is given"),
        ("a,A,100,1,0.6,0.9,3.5,,true,ok", ":3: n_ratings: empty, but avg_rating is given"),
        (
            "a,A,40,1,0.6,0.9,3.5,40,true,too_short",
            ":3: hurst: given for 40 tokens; an estimate needs at least 60",
        ),
        # sweet_spot and status are what hurst and n_tokens give
        (
            "a,A,100,1,0.6,0.9,3.5,40,true,degenerate",
            ":3: status: got degenerate, but hurst and n_tokens give ok",
        ),
        (
            "a,A,59,1,,,3.5,40,false,degenerate",
            ":3: status: got degenerate, but hurst and n_tokens give too_short",
        ),
        (
            "a,A,60,1,,,3.5,40,false,too_short",
            ":3: status: got too_short, but hurst and n_tokens give degenerate",
        ),
        (
            "a,A,100,1,0.7,0.9,3.5,40,true,ok",
            ":3: sweet_spot: got true, but hurst and n_tokens give false",
        ),
        (
            "a,A,100,1,0.55,0.9,3.5,40,false,ok",
            ":3: sweet_spot: got false, but hurst and n_tokens give true",
        ),
    ],
)
def test_correlate_reports_malformed_results_row(tmp_path, capsys, row, message):
    results = tmp_path / "results.csv"
    results.write_text(
        "id,title,n_tokens,coverage,hurst,r_squared,avg_rating,n_ratings,sweet_spot,status\n"
        "b,B,100,1,0.6,0.9,3.5,40,true,ok\n" + row + "\n"
    )
    code, _, err = run_cli(["correlate", "--results", str(results)], capsys)
    assert code == 1
    assert f"{results}{message}" in err


def test_correlate_reports_oversized_field(tmp_path, capsys):
    # past the csv module's field size limit (131,072 characters)
    results = tmp_path / "results.csv"
    results.write_text(
        "id,title,n_tokens,coverage,hurst,r_squared,avg_rating,n_ratings,sweet_spot,status\n"
        "b,B,100,1,0.6,0.9,3.5,40,true,ok\n"
        f"a,{'A' * 200_000},100,1,0.6,0.9,3.5,40,false,ok\n"
    )
    code, _, err = run_cli(["correlate", "--results", str(results)], capsys)
    assert code == 1
    assert f"{results}:3: field larger than field limit" in err
    assert "internal error" not in err


def test_analyze_reports_oversized_ratings_field(tmp_path, lexicon_path, small_corpus, capsys):
    corpus, ratings = small_corpus
    with open(ratings, "a") as fh:
        fh.write(f"eps,{'E' * 200_000},3.0,10\n")
    code, _, err = run_cli(
        [
            "analyze",
            "--corpus", str(corpus),
            "--lexicon", str(lexicon_path),
            "--ratings", str(ratings),
            "--out", str(tmp_path / "out"),
        ],
        capsys,
    )
    assert code == 1
    assert f"{ratings}:6: field larger than field limit" in err
    assert "internal error" not in err


@pytest.mark.parametrize("count", ["-1", "-3"])
@pytest.mark.parametrize("subcommand", ["analyze", "correlate"])
def test_negative_dcor_permutations_is_a_parse_error(
    tmp_path, lexicon_path, small_corpus, capsys, subcommand, count
):
    corpus, ratings = small_corpus
    out = tmp_path / "out"
    results = tmp_path / "results.csv"
    results.write_text(
        "id,title,n_tokens,coverage,hurst,r_squared,avg_rating,n_ratings,sweet_spot,status\n"
        "a,A,100,1,0.6,0.9,3.5,40,true,ok\n"
        "b,B,100,1,0.5,0.9,3.1,50,false,ok\n"
        "c,C,100,1,0.7,0.9,4.0,60,false,ok\n"
    )
    argv = {
        "analyze": [
            "analyze",
            "--corpus", str(corpus),
            "--lexicon", str(lexicon_path),
            "--ratings", str(ratings),
            "--out", str(out),
        ],
        "correlate": ["correlate", "--results", str(results), "--out", str(out)],
    }[subcommand]
    code, stdout, err = run_cli(argv + ["--dcor-permutations", count], capsys)
    assert code == 1
    assert stdout == ""
    assert "--dcor-permutations" in err and f"must be >= 0, got {count}" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["analyze", "correlate", "synth"])
def test_negative_seed_is_a_parse_error(tmp_path, lexicon_path, small_corpus, capsys, subcommand):
    corpus, ratings = small_corpus
    out = tmp_path / "out"
    argv = {
        "analyze": [
            "analyze",
            "--corpus", str(corpus),
            "--lexicon", str(lexicon_path),
            "--ratings", str(ratings),
            "--out", str(out),
            "--dcor-permutations", "5",
        ],
        "correlate": ["correlate", "--results", "missing.csv", "--out", str(out)],
        "synth": ["synth", "--h", "0.7", "--n", "128", "--out", str(out)],
    }[subcommand]
    code, stdout, err = run_cli(argv + ["--seed", "-1"], capsys)
    assert (code, stdout) == (1, "")
    assert "--seed: must be >= 0, got -1" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["analyze", "correlate"])
def test_negative_min_ratings_is_a_parse_error(
    tmp_path, lexicon_path, small_corpus, capsys, subcommand
):
    corpus, ratings = small_corpus
    out = tmp_path / "out"
    argv = {
        "analyze": [
            "analyze",
            "--corpus", str(corpus),
            "--lexicon", str(lexicon_path),
            "--ratings", str(ratings),
            "--out", str(out),
        ],
        "correlate": ["correlate", "--results", "missing.csv", "--out", str(out)],
    }[subcommand]
    code, stdout, err = run_cli(argv + ["--min-ratings", "0", "--min-ratings", "-5"], capsys)
    assert (code, stdout) == (1, "")
    assert "--min-ratings: must be >= 0, got -5" in err
    assert not out.exists()


# each subcommand's path arguments, with the other arguments it requires
_PATH_ARGS = {
    "arc": (["--lexicon", "--out", "--windows-out"], ["story.txt"]),
    "hurst": (["--series", "--lexicon", "--out", "--points-out"], []),
    "analyze": (["--corpus", "--lexicon", "--ratings", "--mapping", "--out"], []),
    "correlate": (["--results", "--out"], []),
    "cluster": (["--corpus", "--lexicon", "--out", "--tree-out"], ["--k", "1"]),
    "synth": (["--out"], ["--h", "0.5", "--n", "64"]),
}


def _argv_with_one_empty_path():
    for command, (flags, extra) in _PATH_ARGS.items():
        for empty in flags:
            paths = [[flag, "" if flag == empty else "x"] for flag in flags]
            yield pytest.param([command, *extra, *sum(paths, [])], empty, id=f"{command} {empty}")
    for command in ("arc", "hurst"):
        yield pytest.param([command, "", "--lexicon", "x"], "story", id=f"{command} story")


@pytest.mark.parametrize("argv,flag", _argv_with_one_empty_path())
def test_empty_path_is_a_parse_error_naming_its_flag(tmp_path, capsys, monkeypatch, argv, flag):
    # an empty path would otherwise name the current directory
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_cli(argv, capsys)
    assert (code, stdout) == (1, "")
    assert f"argument {flag}: must not be empty" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command,flag",
    [("analyze", "--out"), ("analyze", "--corpus"), ("cluster", "--corpus")],
)
def test_dash_directory_is_a_parse_error_naming_its_flag(
    tmp_path, lexicon_path, small_corpus, capsys, monkeypatch, command, flag
):
    # `-` means stdin or stdout, which no directory can be
    corpus, ratings = small_corpus
    monkeypatch.chdir(tmp_path)
    paths = {"--corpus": str(corpus), "--lexicon": str(lexicon_path)}
    if command == "analyze":
        paths.update({"--ratings": str(ratings), "--out": "out"})
    else:
        paths["--k"] = "1"
    paths[flag] = "-"
    code, stdout, err = run_cli([command, *sum(paths.items(), ())], capsys)
    assert (code, stdout) == (1, "")
    assert f"argument {flag}: a directory cannot be -" in err
    assert not (tmp_path / "-").exists()
    assert not (tmp_path / "out").exists()


def test_zero_dcor_permutations_means_off(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(
        "id,title,n_tokens,coverage,hurst,r_squared,avg_rating,n_ratings,sweet_spot,status\n"
        "a,A,100,1,0.6,0.9,3.5,40,true,ok\n"
        "b,B,100,1,0.5,0.9,3.1,50,false,ok\n"
        "c,C,100,1,0.7,0.9,4.0,60,false,ok\n"
    )
    code, out, _ = run_cli(
        ["correlate", "--results", str(results), "--dcor-permutations", "0"], capsys
    )
    assert code == 0
    assert json.loads(out)[0]["distance_corr_p"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--corpus", "c", "--lexicon", "l", "--ratings", "r", "--out", "o"],
        ["correlate", "--results", "r"],
    ],
    ids=["analyze", "correlate"],
)
def test_bare_dcor_permutations_means_9999_draws(argv):
    parse = build_parser().parse_args
    assert parse(argv + ["--dcor-permutations"]).dcor_permutations == 9999
    assert parse(argv + ["--dcor-permutations", "--seed", "3"]).dcor_permutations == 9999
    assert parse(argv).dcor_permutations == 0


def test_correlate_from_results(tmp_path, lexicon_path, small_corpus, capsys):
    corpus, ratings = small_corpus
    out_dir = tmp_path / "out"
    run_cli(
        [
            "analyze",
            "--corpus",
            str(corpus),
            "--lexicon",
            str(lexicon_path),
            "--ratings",
            str(ratings),
            "--out",
            str(out_dir),
            "--jobs",
            "1",
        ],
        capsys,
    )
    code, out, _ = run_cli(
        ["correlate", "--results", str(out_dir / "results.csv"), "--min-ratings", "0"],
        capsys,
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["n"] == 4
    assert 0.0 <= reports[0]["distance_corr"] <= 1.0
    assert reports[0]["distance_corr_p"] is None


def test_correlate_writes_analyze_report_from_its_results(tmp_path, lexicon_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    quoted = 'o\'hara, "the" tale'  # a comma and a quote in the id and the title
    texts = {
        quoted: fgn_token_text(0.45, 1024, seed=31),
        "beta": fgn_token_text(0.55, 1024, seed=32),
        "gamma": fgn_token_text(0.7, 1024, seed=33),
        "delta": fgn_token_text(0.85, 1024, seed=34),
        "unrated": fgn_token_text(0.6, 1024, seed=35),
        "flat": "gbw " * 500,
        "stub": "gaa gab gac",
    }
    for name, text in texts.items():
        write_story(corpus, name, text)
    ratings = tmp_path / "ratings.csv"
    ratings.write_text(
        "id,title,avg_rating,n_ratings\n"
        '"o\'hara, ""the"" tale",Q,3.1,40\n'
        "beta,Beta,3.6,45\ngamma,Gamma,4.0,200\ndelta,Delta,4.4,3100\n"
        "flat,Flat,2.0,80\nstub,Stub,4.5,10\n"
    )
    flags = ["--min-ratings", "0", "--min-ratings", "30", "--dcor-permutations", "49"]
    flags += ["--seed", "7"]
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        [
            "analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
            "--ratings", str(ratings), "--out", str(out_dir), "--jobs", "1", *flags,
        ],
        capsys,
    )
    assert code == 0
    results = out_dir / "results.csv"
    rows = list(csv.DictReader(io.StringIO(results.read_text(), newline="")))
    assert {r["status"] for r in rows} == {"ok", "too_short", "degenerate"}
    assert [r["avg_rating"] for r in rows if r["id"] == "unrated"] == [""]
    assert [r["title"] for r in rows if r["id"] == quoted] == ['O\'hara, "the" Tale']

    report = tmp_path / "report.json"
    code, _, err = run_cli(
        ["correlate", "--results", str(results), "--out", str(report), *flags], capsys
    )
    assert (code, err) == (0, "")
    assert report.read_bytes() == (out_dir / "report.json").read_bytes()


def test_correlate_threshold_too_strict_exit_1(tmp_path, lexicon_path, small_corpus, capsys):
    corpus, ratings = small_corpus
    out_dir = tmp_path / "out"
    run_cli(
        [
            "analyze",
            "--corpus", str(corpus),
            "--lexicon", str(lexicon_path),
            "--ratings", str(ratings),
            "--out", str(out_dir),
            "--jobs", "1",
        ],
        capsys,
    )
    code, _, err = run_cli(
        ["correlate", "--results", str(out_dir / "results.csv"), "--min-ratings", "5000"],
        capsys,
    )
    assert code == 1


def test_constant_threshold_skipped_by_analyze_failed_by_correlate(
    tmp_path, lexicon_path, small_corpus, capsys, caplog
):
    # above 30 ratings every kept story has 4.0: no correlation is defined
    corpus, _ = small_corpus
    ratings = tmp_path / "constant.csv"
    ratings.write_text(
        "id,title,avg_rating,n_ratings\n"
        "alpha,Alpha,3.0,5\n"
        "beta,Beta,4.0,40\n"
        "gamma,Gamma,4.0,50\n"
        "delta,Delta,4.0,60\n"
    )
    out_dir = tmp_path / "out"
    code, _, err = run_cli(
        [
            "analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
            "--ratings", str(ratings), "--out", str(out_dir), "--jobs", "1",
        ],
        capsys,
    )
    assert (code, err) == (0, "")
    reason = "avg_rating is 4.0 in all 3 records with ratings above 30"
    assert [r.getMessage() for r in caplog.records] == [
        f"threshold 30 skipped: {reason}; the correlations are undefined"
    ]
    reports = json.loads((out_dir / "report.json").read_text())
    assert [(r["min_ratings_filter"], r["n"]) for r in reports] == [(0, 4)]

    code, out, err = run_cli(["correlate", "--results", str(out_dir / "results.csv")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: threshold 30: {reason}")


def test_analyze_writes_nothing_when_a_report_fails(
    tmp_path, lexicon_path, small_corpus, capsys, monkeypatch
):
    corpus, ratings = small_corpus
    out_dir = tmp_path / "out"

    def fail(*args, **kwargs):
        raise ValueError("report failed")

    monkeypatch.setattr(corpus_mod, "correlate", fail)
    code, _, err = run_cli(
        [
            "analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
            "--ratings", str(ratings), "--out", str(out_dir), "--jobs", "1",
        ],
        capsys,
    )
    assert code == 1
    assert "error: report failed" in err
    assert not out_dir.exists()


def _quoted(cell) -> str:
    return '"' + cell.replace('"', '""') + '"' if isinstance(cell, str) else str(cell)


@st.composite
def adversarial_studies(draw):
    """Files of a small study: {name: text} for the corpus, the lexicon
    text, the ratings text and the mapping text or None. Stems hold commas,
    quotes, spaces, CR, LF, non-ASCII letters and combining marks, so two
    may be equal in NFC; texts CRLF, digits, ' and U+2019, maybe in NFD;
    the lexicon maybe a header, a duplicate, rejected lines and a BOM; the
    ratings quoted ids and titles, duplicate ids, out-of-range rows
    and maybe an unparsable one, which `analyze` must reject; the mapping
    quoted file ids, a repeated file id and ratings ids that match no
    rating."""
    letters = st.sampled_from(list('ab, "\r\n') + ["é", "å", "ß", "ж", "語", "\u0301", "\u030a"])
    stem = st.text(letters, min_size=1, max_size=8)
    size = draw(st.sampled_from([8, 6, 7, 5, 4, 6, 5, 3, 2, 1, 0]))  # weighted toward a study
    stems = draw(st.lists(stem, min_size=size, max_size=size, unique=True))
    corpus, rows = {}, []
    valid = st.tuples(
        st.sampled_from([3.7, 4.2, 2.5, 1.0, 5.0]), st.sampled_from([45, 200, 31, 10])
    )
    faults = ["duplicate", "unrated", "out of range", "too short", "no words", "degenerate"]
    for stem in stems:
        kind = draw(st.sampled_from(["rated"] * 6 + faults))  # weighted toward a usable row
        n = {"too short": 40, "no words": 0}.get(kind, draw(st.sampled_from([400, 150])))
        if kind == "degenerate":
            words = ["gbw"] * n  # one valence
        else:
            words = fgn_token_text(0.6, 512, draw(st.integers(0, 99))).split()[:n]
        sep = draw(st.sampled_from([" ", "\r\n", " 1999 ", " o'er ", " it’s ", " blå "]))
        text = sep.join(words + ["42", "o'er", "it’s"])
        corpus[f"{stem}.txt"] = unicodedata.normalize(draw(st.sampled_from(["NFC", "NFD"])), text)
        if kind != "unrated":
            rows.append([stem, f"{stem}, “the” tale", *draw(valid)])
        if kind == "duplicate":
            rows.append([stem, "again", *draw(valid)])
        elif kind == "out of range":
            rows[-1][2:] = draw(st.sampled_from([(0.5, 40), (6.0, 40), (3.0, -1)]))
    decomposed = [stem for stem in stems if unicodedata.normalize("NFD", stem) not in stems]
    if decomposed and draw(st.booleans()):
        # a second file whose stem is equal in NFC to another's, one skipped
        corpus[unicodedata.normalize("NFD", decomposed[0]) + ".txt"] = "gaa gab"
    if draw(st.integers(0, 4)) == 4:
        rows.append(["garbled", "G", "n/a", 5])
    ratings = "id,title,avg_rating,n_ratings\n"
    ratings += "".join(",".join(map(_quoted, row)) + "\n" for row in rows)

    lexicon = ["word\tvalence"] if draw(st.booleans()) else []
    lexicon += [f"{word}\t{value!r}" for word, value in GRADED_WORDS.items()]
    if draw(st.booleans()):
        lexicon.append("gbw\t0.25")  # a duplicate
    if draw(st.booleans()):
        lexicon += ["gzz\t1.5", "no valence here"]  # rejected
    bom = "\ufeff" if draw(st.booleans()) else ""

    mapping = None
    if stems and draw(st.booleans()):
        target = st.sampled_from([*stems, "no such rating"])
        file_ids = draw(st.lists(st.sampled_from(stems), min_size=1, max_size=4))
        pairs = [[file_id, draw(target)] for file_id in file_ids]
        pairs.append([file_ids[0], draw(target)])  # a repeated file id, rejected
        pairs.append(['no, "such"\r story', "no such rating"])
        mapping = "file_id,ratings_id\n"
        mapping += "".join(",".join(map(_quoted, pair)) + "\n" for pair in pairs)
    return corpus, bom + "\n".join(lexicon) + "\n", ratings, mapping


def _study_for_two_jobs():
    """A fixed study of 8 stories, two chunks of the story pool, in
    `adversarial_studies`' form, so `--jobs 2` runs two workers."""
    stems = ["a,b", 'a"b', "a\rb", "a\nb", "é b", "ß", 'ж,"', "語"]
    corpus = {
        f"{stem}.txt": fgn_token_text(0.6, 512, seed).replace(" ", " it’s ", 3)
        for seed, stem in enumerate(stems)
    }
    valid = zip([3.7, 4.2, 2.5, 1.0, 5.0, 3.1], [45, 200, 31, 10, 99, 60])
    rows = [[stem, f"{stem}, “the” tale", *pair] for stem, pair in zip(stems, valid)]
    ratings = "id,title,avg_rating,n_ratings\n"
    ratings += "".join(",".join(map(_quoted, row)) + "\n" for row in rows)
    lexicon = "\n".join(f"{word}\t{value!r}" for word, value in GRADED_WORDS.items()) + "\n"
    pairs = [[stems[6], stems[0]], [stems[7], "no such rating"], [stems[6], stems[1]]]
    mapping = "file_id,ratings_id\n" + "".join(",".join(map(_quoted, p)) + "\n" for p in pairs)
    return corpus, lexicon, ratings, mapping


def _main_captured(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=25, deadline=None)
@given(
    study=adversarial_studies(),
    seed=st.integers(0, 9),
    draws=st.sampled_from([[], ["--dcor-permutations", "19"]]),
    jobs=st.just(1),
)
# the one example at --jobs 2, which must write the same four files as --jobs 1
@example(study=_study_for_two_jobs(), seed=3, draws=["--dcor-permutations", "19"], jobs=2)
def test_analyze_round_trips_adversarial_inputs(study, seed, draws, jobs):
    texts, lexicon_text, ratings_text, mapping_text = study
    flags = ["--min-ratings", "0", "--min-ratings", "30", "--seed", str(seed), *draws]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus, lexicon, ratings = tmp / "corpus", tmp / "lexicon.tsv", tmp / "ratings.csv"
        corpus.mkdir()
        for name, text in texts.items():
            (corpus / name).write_bytes(text.encode("utf-8"))
        lexicon.write_bytes(lexicon_text.encode("utf-8"))
        ratings.write_bytes(ratings_text.encode("utf-8"))
        inputs_argv = [
            "--corpus", str(corpus), "--lexicon", str(lexicon), "--ratings", str(ratings),
        ]
        mapping = None
        if mapping_text is not None:
            mapping = tmp / "mapping.csv"
            mapping.write_bytes(mapping_text.encode("utf-8"))
            inputs_argv += ["--mapping", str(mapping)]
        out_dir = tmp / "out"
        code, err = _main_captured(
            ["analyze", *inputs_argv, "--out", str(out_dir), "--jobs", str(jobs), *flags]
        )
        assert code in (0, 1), err
        if code == 1:
            assert err.startswith("error:") and err.count("error:") == 1
            assert not out_dir.exists()
            return

        if jobs > 1:
            serial = tmp / "serial"
            code, err = _main_captured(
                ["analyze", *inputs_argv, "--out", str(serial), "--jobs", "1", *flags]
            )
            assert code == 0, err
            for name in ("results.csv", "scatter.csv", "ratings_scatter.csv", "report.json"):
                assert (out_dir / name).read_bytes() == (serial / name).read_bytes(), name

        results = out_dir / "results.csv"
        records = corpus_mod.analyze_corpus(
            corpus_mod.load_corpus(corpus), load_lexicon(lexicon),
            ratings=corpus_mod.load_ratings(ratings),
            mapping=corpus_mod.load_id_mapping(mapping) if mapping else None, jobs=1,
        )
        text = results.read_bytes().decode("utf-8")
        read_back = serialize.read_results_csv(text, str(results))
        assert read_back == records  # ids, statuses and every cell

        reports = json.loads((out_dir / "report.json").read_text())
        missing = [t for t in (0, 30) if t not in [r["min_ratings_filter"] for r in reports]]
        report = tmp / "report.json"
        code, err = _main_captured(
            ["correlate", "--results", str(results), "--out", str(report), *flags]
        )
        if missing:
            assert code == 1
            assert err.startswith(f"error: threshold {missing[0]}:")
            assert not report.exists()
        else:
            assert (code, err) == (0, "")
            assert report.read_bytes() == (out_dir / "report.json").read_bytes()


# ----------------------------------------------------------------- cluster


def test_cluster_labels_and_tree(tmp_path, lexicon_path, small_corpus, capsys):
    corpus, _ = small_corpus
    tree_path = tmp_path / "tree.csv"
    code, out, _ = run_cli(
        [
            "cluster",
            "--corpus",
            str(corpus),
            "--lexicon",
            str(lexicon_path),
            "--k",
            "2",
            "--tree-out",
            str(tree_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "id,cluster"
    assert len(lines) == 6  # stub is 3 tokens, still clusterable
    tree_lines = tree_path.read_text().splitlines()
    assert tree_lines[0] == "step,cluster_a,cluster_b,height,size"
    assert len(tree_lines) == 4  # 5 arcs merged down to 2 clusters


def test_cluster_same_bytes_and_warnings_at_any_jobs(
    tmp_path, lexicon_path, small_corpus, capsys, caplog
):
    corpus, _ = small_corpus
    write_story(corpus, "aa_one", "gaa")
    write_story(corpus, "zz_one", "gab")
    outputs = []
    for jobs in ("1", "2"):
        caplog.clear()
        labels, tree = tmp_path / f"labels{jobs}.csv", tmp_path / f"tree{jobs}.csv"
        code, _, _ = run_cli(
            [
                "cluster",
                "--corpus", str(corpus),
                "--lexicon", str(lexicon_path),
                "--k", "2",
                "--out", str(labels),
                "--tree-out", str(tree),
                "--jobs", jobs,
            ],
            capsys,
        )
        assert code == 0
        assert [r.getMessage() for r in caplog.records] == [
            "aa_one: 1 tokens, too short to cluster, skipped",
            "zz_one: 1 tokens, too short to cluster, skipped",
        ]
        outputs.append((labels.read_bytes(), tree.read_bytes()))
    assert outputs[0] == outputs[1]


def test_cluster_k_too_large_exit_1(tmp_path, lexicon_path, small_corpus, capsys):
    corpus, _ = small_corpus
    code, _, err = run_cli(
        ["cluster", "--corpus", str(corpus), "--lexicon", str(lexicon_path), "--k", "99"],
        capsys,
    )
    assert code == 1


# ------------------------------------------------------------------- synth


def test_synth_rejects_bad_h(capsys):
    code, _, err = run_cli(["synth", "--h", "1.5", "--n", "256"], capsys)
    assert code == 1
    assert err == "sentarc synth: error: argument --h: must be in (0, 1), got 1.5\n"


def test_synth_rejects_bad_n(capsys):
    code, _, err = run_cli(["synth", "--h", "0.5", "--n", "100"], capsys)
    assert code == 1
    assert err == "sentarc synth: error: argument --n: must be a power of two >= 64, got 100\n"


def test_synth_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            ["synth", "--h", "0.6", "--n", "128", "--seed", "9", "--out", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 128


# ------------------------------------------------------------ cli contract


def test_unknown_flag_rejected_before_work(capsys):
    code, _, err = run_cli(["synth", "--h", "0.5", "--n", "128", "--frobnicate"], capsys)
    assert code == 1


def test_unknown_subcommand_rejected(capsys):
    code, _, _ = run_cli(["transmogrify"], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "subcommand,needles",
    [
        ("arc", ["--lexicon", "--smooth-fraction", "--window", "--windows-out", "index", "raw", "smooth", "mean", "std"]),
        ("hurst", ["--series", "--order", "hurst", "intercept", "r_squared", "n_points", "log2_w", "log2_F"]),
        ("analyze", ["--corpus", "--ratings", "--mapping", "--min-ratings", "--jobs", "sweet_spot", "status", "pearson_r", "distance_corr", "n_ratings"]),
        ("correlate", ["--results", "--min-ratings", "--dcor-permutations", "kendall_tau", "spearman_rho"]),
        ("cluster", ["--k", "--tree-out", "--jobs", "cluster", "height", "size"]),
        ("synth", ["--h", "--n", "--seed", "column"]),
    ],
)
def test_help_documents_flags_and_columns(subcommand, needles, capsys):
    assert main([subcommand, "--help"]) == 0
    out = capsys.readouterr().out
    for needle in needles:
        assert needle in out, f"{subcommand} --help missing {needle!r}"


def _csv_header(write, table) -> list[str]:
    buf = io.StringIO()
    write(table, buf)
    return buf.getvalue().split("\n", 1)[0].split(",")


def _written_columns() -> dict[str, list[str]]:
    """Every column and JSON key each subcommand writes, read off its
    writers' output on a small input."""
    arc = arc_from_text("good bad good", Lexicon(entries={"good": 0.9, "bad": 0.1}), 0.5)
    result = AfaResult(hurst=0.6, intercept=0.1, r_squared=0.9, points=((2.0, 1.0),))
    record = StoryRecord(
        id="a", title="A", n_tokens=600, coverage=1.0, hurst=0.6, r_squared=0.9,
        avg_rating=4.0, n_ratings=40,
    )
    report = CorrelationReport(*(1.0 for _ in dataclasses.fields(CorrelationReport)))
    report_keys = list(json.loads(serialize.reports_json([report]))[0])
    return {
        "arc": _csv_header(serialize.write_arc_csv, arc)
        + _csv_header(serialize.write_window_csv, window_summary(arc, 2)),
        "hurst": list(json.loads(serialize.hurst_json(result)))
        + _csv_header(serialize.write_points_csv, result),
        "analyze": _csv_header(serialize.write_results_csv, [record])
        + _csv_header(serialize.write_scatter_csv, [record])
        + _csv_header(serialize.write_ratings_scatter_csv, [record])
        + report_keys,
        "correlate": report_keys,
        "cluster": _csv_header(serialize.write_labels_csv, {"a": 0})
        + _csv_header(serialize.write_merges_csv, [Merge(a="a", b="b", height=1.0, size=2)]),
    }


def test_help_epilog_names_every_written_column():
    # the epilogs are written by hand; each column a writer adds must join them
    (subcommands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for command, columns in _written_columns().items():
        epilog = subcommands[command].epilog
        missing = [c for c in columns if not re.search(rf"\b{re.escape(c)}\b", epilog)]
        assert not missing, f"{command} --help epilog does not name {missing}"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sentarc", "--version"],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 0
    assert "sentarc" in proc.stdout


def test_analyze_byte_identical_reruns(tmp_path, lexicon_path, small_corpus, capsys):
    corpus, ratings = small_corpus
    outputs = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        code, _, _ = run_cli(
            [
                "analyze",
                "--corpus", str(corpus),
                "--lexicon", str(lexicon_path),
                "--ratings", str(ratings),
                "--out", str(out_dir),
                "--jobs", "1",
            ],
            capsys,
        )
        assert code == 0
        outputs.append(
            {
                name: (out_dir / name).read_bytes()
                for name in ("results.csv", "report.json", "scatter.csv", "ratings_scatter.csv")
            }
        )
    assert outputs[0] == outputs[1]


def test_analyze_parallel_matches_serial_bytes(tmp_path, lexicon_path, small_corpus, capsys):
    corpus, ratings = small_corpus
    payloads = []
    for run, jobs in (("serial", "1"), ("parallel", "2")):
        out_dir = tmp_path / run
        code, _, _ = run_cli(
            [
                "analyze",
                "--corpus", str(corpus),
                "--lexicon", str(lexicon_path),
                "--ratings", str(ratings),
                "--out", str(out_dir),
                "--jobs", jobs,
            ],
            capsys,
        )
        assert code == 0
        payloads.append((out_dir / "results.csv").read_bytes())
    assert payloads[0] == payloads[1]


def test_non_ascii_texts_same_bytes_and_stderr_at_any_jobs(tmp_path, lexicon_path):
    # é alone keeps a text one byte a character; ’ “ ” U+2028 and CJK make
    # it two; an astral letter makes it four
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    marks = ["é", "’ “quoth” \u2028物語", "𝒜", "é’ “ ” \u2028 物語 𝒜"]
    for i in range(8):
        words = fgn_token_text(0.45 + 0.05 * i, 1024, seed=40 + i).split()
        words[100::97] = [f"{w}{marks[i % 4]}" for w in words[100::97]]
        write_story(corpus, f"tale{i}", " ".join(words))
    write_story(corpus, "stub", "“é’s物語𝒜”\u2028")  # one token: named on stderr
    ratings = tmp_path / "ratings.csv"
    ratings.write_text(
        "id,title,avg_rating,n_ratings\n"
        + "".join(f"tale{i},Conte “{i}” é,{3 + i / 8},{10 + i}\n" for i in range(8)),
        encoding="utf-8",
    )
    runs = []
    for jobs in ("1", "2"):
        out_dir, tree = tmp_path / f"analyze{jobs}", tmp_path / f"tree{jobs}.csv"
        commands = [
            ["analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
             "--ratings", str(ratings), "--out", str(out_dir), "--jobs", jobs],
            ["cluster", "--corpus", str(corpus), "--lexicon", str(lexicon_path), "--k", "3",
             "--tree-out", str(tree), "--jobs", jobs],
        ]
        streams = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "sentarc", *argv], capture_output=True, env=package_env()
            )
            assert proc.returncode == 0, proc.stderr
            streams.append((proc.stdout, proc.stderr))
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        runs.append((streams, files, tree.read_bytes()))
    assert b"stub" in runs[0][0][1][1]
    assert runs[0] == runs[1]


# ------------------------------------------------------------------ inputs


def with_bom(path):
    """A copy of the file at `path` that starts with a UTF-8 byte-order mark."""
    copy = path.with_name("bom_" + path.name)
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


@pytest.mark.parametrize("bom_input", ["--ratings", "--mapping"])
def test_analyze_ignores_a_bom(tmp_path, lexicon_path, small_corpus, capsys, bom_input):
    corpus, ratings = small_corpus
    mapping = tmp_path / "mapping.csv"
    mapping.write_text("file_id,ratings_id\nalpha,gamma\n")
    files = {"--ratings": ratings, "--mapping": mapping}
    results = []
    for run in ("plain", "bom"):
        if run == "bom":
            files[bom_input] = with_bom(files[bom_input])
        argv = ["analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path)]
        argv += [str(part) for item in files.items() for part in item]
        code, _, err = run_cli(argv + ["--out", str(tmp_path / run), "--jobs", "1"], capsys)
        assert code == 0, err
        results.append((tmp_path / run / "results.csv").read_bytes())
    assert results[0] == results[1]


def test_correlate_ignores_a_bom(tmp_path, lexicon_path, small_corpus, capsys):
    corpus, ratings = small_corpus
    out_dir = tmp_path / "out"
    argv = ["analyze", "--corpus", str(corpus), "--lexicon", str(lexicon_path)]
    argv += ["--ratings", str(ratings), "--out", str(out_dir), "--jobs", "1"]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    reports = []
    for results in (out_dir / "results.csv", with_bom(out_dir / "results.csv")):
        argv = ["correlate", "--results", str(results), "--min-ratings", "0"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        reports.append(out)
    assert reports[0] == reports[1]


def test_hurst_series_ignores_a_bom(tmp_path, capsys):
    series = tmp_path / "series.csv"
    values = np.random.default_rng(5).normal(size=200).tolist()
    series.write_text("".join(f"{v!r}\n" for v in values))
    outputs = []
    for path in (series, with_bom(series)):
        code, out, err = run_cli(["hurst", "--series", str(path)], capsys)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_arc_ignores_a_bom(tmp_path, lexicon_path, capsys):
    story = write_story(tmp_path, "tale", "gaa gba gca gda gea")
    outputs = []
    for path in (story, with_bom(story)):
        code, out, err = run_cli(["arc", str(path), "--lexicon", str(lexicon_path)], capsys)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_arc_same_bytes_for_nfd_and_nfc_copies(tmp_path, capsys):
    # decomposed, "bl\u00e5" would split at its combining ring and score as "bla"
    lexicon = write_lexicon_file(tmp_path / "lexicon.tsv", ["bla\t0.95", "bl\u00e5\t0.3"])
    text = "bl\u00e5 bla bl\u00e5 gaa"
    outputs = []
    for form in ("NFC", "NFD"):
        story = write_story(tmp_path, form, unicodedata.normalize(form, text))
        code, out, err = run_cli(["arc", str(story), "--lexicon", str(lexicon)], capsys)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert [float(line.split(",")[1]) for line in outputs[0].splitlines()[1:4]] == [0.3, 0.95, 0.3]


def test_nfd_lexicon_matches_nfc_text(tmp_path, capsys):
    lexicon = write_lexicon_file(
        tmp_path / "lexicon.tsv", [unicodedata.normalize("NFD", "\u00e9t\u00e9\t0.8")]
    )
    story = write_story(tmp_path, "tale", "\u00e9t\u00e9")
    code, out, err = run_cli(["arc", str(story), "--lexicon", str(lexicon)], capsys)
    assert code == 0, err
    assert float(out.splitlines()[1].split(",")[1]) == 0.8


def test_hurst_series_error_names_the_line_after_a_form_feed(tmp_path, capsys):
    series = tmp_path / "series.csv"
    # line 71 is a page break, which str.splitlines() would count twice
    series.write_text("".join(f"{v}\n" for v in range(70)) + "\f\nx\n")
    code, _, err = run_cli(["hurst", "--series", str(series)], capsys)
    assert code == 1
    assert f"{series}:72: expected one numeric column, got 'x'" in err


def test_arc_reads_stdin_as_utf8_whatever_its_encoding(tmp_path):
    lexicon = write_lexicon_file(tmp_path / "lexicon.tsv", ["café\t0.9"])
    story = write_story(tmp_path, "tale", "café au lait")
    env = {**package_env(), "PYTHONIOENCODING": "latin-1"}
    runs = [
        subprocess.run(
            [sys.executable, "-m", "sentarc", "arc", name, "--lexicon", str(lexicon)],
            input=story.read_bytes(), capture_output=True, env=env,
        )
        for name in (str(story), "-")
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout.splitlines()[1].startswith(b"0,0.9")
    assert runs[0].stdout == runs[1].stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["arc", "-", "--lexicon", "-"],
        ["hurst", "--series", "-", "--lexicon", "-"],
        ["analyze", "--corpus", ".", "--lexicon", "-", "--ratings", "-", "--out", "o"],
    ],
)
def test_stdin_feeds_at_most_one_input(capsys, monkeypatch, argv):
    # stdin reads once: a second `-` input would read it empty
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"good\t0.9\n")))
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "error: at most one input may be -" in err
    assert sys.stdin.buffer.read() == b"good\t0.9\n"
