import csv
import io
import json
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from conftest import fgn_token_text, package_env, write_graded_lexicon_file, write_story
from sentarc import SynthSpec, estimate_hurst, fgn
from sentarc import serialize
from sentarc.cli import _open_out, _read_series, main
from sentarc.errors import SentarcError


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
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
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
    assert "non-finite value" in err and "at index 100" in err


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


@pytest.mark.parametrize("order", ["0", "1", "2"])
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
    """The line-by-line reader `_read_series` falls back to, as the oracle
    for its bulk path: values, header skipping and error text."""
    values = []
    for lineno, line in enumerate(path.read_bytes().decode("utf-8").splitlines(), start=1):
        item = line.strip()
        if not item:
            continue
        try:
            values.append(float(item))
        except ValueError:
            if lineno == 1:
                continue
            raise SentarcError(
                f"{path}:{lineno}: expected one numeric column, got {item!r}"
            ) from None
    return values


@pytest.mark.parametrize(
    "text",
    [
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
    ],
)
def test_read_series_matches_line_loop(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = read_series_loop(path)
    except SentarcError as exc:
        with pytest.raises(SentarcError) as got:
            _read_series(str(path))
        assert str(got.value) == str(exc)
        pattern = rf"{re.escape(str(path))}:\d+: expected one numeric column, got '.*'"
        assert re.fullmatch(pattern, str(exc))
    else:
        got = _read_series(str(path))
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


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_analyze_rejects_nonpositive_jobs(tmp_path, lexicon_path, small_corpus, capsys, jobs):
    corpus, ratings = small_corpus
    out_dir = tmp_path / "out"
    code, _, err = run_cli(
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
    assert code == 1
    assert "--jobs" in err
    assert not out_dir.exists()


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
    # results.csv was complete before the failure, so it was renamed in
    assert sorted(p.name for p in out_dir.iterdir()) == ["results.csv", "scatter.csv"]


# ----------------------------------------------------------------- outputs


def test_open_out_failure_leaves_target_and_no_temporary(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old bytes\n")
    with pytest.raises(RuntimeError):
        with _open_out(target) as fh:
            fh.write("half a fi")
            raise RuntimeError("crash mid-write")
    assert target.read_text() == "old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_open_out_mode_matches_plain_open(tmp_path):
    old_umask = os.umask(0o027)
    try:
        with _open_out(tmp_path / "new.csv") as fh:
            fh.write("x\n")
        existing = tmp_path / "existing.csv"
        existing.write_text("old\n")
        existing.chmod(0o604)
        with _open_out(existing) as fh:
            fh.write("new\n")
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
    with _open_out(link) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert real.read_text() == "new\n"


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


def test_out_in_missing_directory_names_the_output(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "fgn.csv"
    code, _, err = run_cli(
        ["synth", "--h", "0.7", "--n", "64", "--out", str(target)], capsys
    )
    assert code == 1
    assert str(target) in err and ".tmp" not in err


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
    assert "target_h" in err


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
        ("cluster", ["--k", "--tree-out", "cluster", "height", "size"]),
        ("synth", ["--h", "--n", "--seed", "column"]),
    ],
)
def test_help_documents_flags_and_columns(subcommand, needles, capsys):
    assert main([subcommand, "--help"]) == 0
    out = capsys.readouterr().out
    for needle in needles:
        assert needle in out, f"{subcommand} --help missing {needle!r}"


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
