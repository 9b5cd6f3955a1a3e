import multiprocessing
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentarc import (
    CorpusError,
    DegenerateSeriesError,
    RatingRecord,
    RatingsError,
    SeriesTooShortError,
    StoryRecord,
    analyze_corpus,
    arc_from_text,
    build_arcs,
    correlate,
    estimate_hurst,
    load_corpus,
    load_id_mapping,
    load_ratings,
)
from conftest import (
    GRADED_WORDS,
    fgn_token_text,
    package_env,
    write_graded_lexicon_file,
    write_story,
)
from sentarc import corpus as corpus_mod
from sentarc.corpus import Story
from sentarc.lexicon import Lexicon


def write_ratings(path, rows):
    path.write_text("id,title,avg_rating,n_ratings\n" + "\n".join(rows) + "\n")
    return path


def make_record(story_id, hurst, avg_rating, n_ratings):
    return StoryRecord(
        id=story_id,
        title=story_id,
        n_tokens=1000,
        coverage=1.0,
        hurst=hurst,
        r_squared=0.99,
        avg_rating=avg_rating,
        n_ratings=n_ratings,
    )


# -------------------------------------------------------------- load_corpus


def test_empty_directory(tmp_path):
    assert load_corpus(tmp_path) == []


def test_stories_sorted_by_id(tmp_path):
    for name in ("zebra", "apple", "mango"):
        write_story(tmp_path, name, f"the {name} story")
    stories = load_corpus(tmp_path)
    assert [s.id for s in stories] == ["apple", "mango", "zebra"]
    assert stories[0].title == "Apple"


def test_invalid_utf8_skipped_with_warning(tmp_path, caplog):
    write_story(tmp_path, "good", "fine text")
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe broken")
    with caplog.at_level("WARNING"):
        stories = load_corpus(tmp_path)
    assert [s.id for s in stories] == ["good"]
    assert any("bad.txt" in r.getMessage() for r in caplog.records)


def test_missing_directory_raises(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "nope")


def test_non_txt_files_ignored(tmp_path):
    write_story(tmp_path, "yes", "words here")
    (tmp_path / "no.md").write_text("ignored")
    assert [s.id for s in load_corpus(tmp_path)] == ["yes"]


# ------------------------------------------------------------- load_ratings


def test_ratings_parse_round_trip(tmp_path):
    path = write_ratings(
        tmp_path / "r.csv", ["ugly_duckling,The Ugly Duckling,4.12,40000"]
    )
    records = load_ratings(path)
    assert records == [RatingRecord(id="ugly_duckling", avg_rating=4.12, n_ratings=40000)]


def test_ratings_out_of_range_rejected(tmp_path, caplog):
    path = write_ratings(tmp_path / "r.csv", ["a,A,6.0,10", "b,B,3.5,10"])
    with caplog.at_level("WARNING"):
        records = load_ratings(path)
    assert [r.id for r in records] == ["b"]
    assert any(":2:" in r.getMessage() for r in caplog.records)


def test_ratings_duplicate_id_rejected(tmp_path, caplog):
    path = write_ratings(tmp_path / "r.csv", ["a,A,3.0,10", "a,A again,4.0,20"])
    with caplog.at_level("WARNING"):
        records = load_ratings(path)
    assert records == [RatingRecord(id="a", avg_rating=3.0, n_ratings=10)]
    assert any("duplicate id" in r.getMessage() for r in caplog.records)


def test_ratings_bad_header_raises(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("id,name,rating\n")
    with pytest.raises(RatingsError):
        load_ratings(path)


def test_ratings_unparsable_numeric_raises(tmp_path):
    path = write_ratings(tmp_path / "r.csv", ["a,A,not_a_number,10"])
    with pytest.raises(RatingsError, match=":2:"):
        load_ratings(path)


def test_ratings_negative_count_rejected(tmp_path):
    path = write_ratings(tmp_path / "r.csv", ["a,A,3.0,-1"])
    assert load_ratings(path) == []


def test_mapping_file(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("file_id,ratings_id\nstory_001,the_real_name\n")
    assert load_id_mapping(path) == {"story_001": "the_real_name"}


def test_mapping_duplicate_file_id_keeps_first(tmp_path, caplog):
    # the ratings rule: the first row wins, a later one is rejected by line
    path = tmp_path / "map.csv"
    path.write_text("file_id,ratings_id\na,r1\nb,r3\na,r2\n")
    with caplog.at_level("WARNING"):
        assert load_id_mapping(path) == {"a": "r1", "b": "r3"}
    assert [r.getMessage() for r in caplog.records] == [f"{path}:4: duplicate id 'a', row rejected"]


# a quoted title over two physical lines puts the next row on line 4
TWO_LINE_ROW = 'a,"Two\nlines",4.0,10'


def test_ratings_warning_names_physical_line(tmp_path, caplog):
    path = write_ratings(tmp_path / "r.csv", [TWO_LINE_ROW, "b,B,3.0,-1"])
    with caplog.at_level("WARNING"):
        records = load_ratings(path)
    assert records == [RatingRecord(id="a", avg_rating=4.0, n_ratings=10)]
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:4: negative n_ratings, row rejected"
    ]


def test_ratings_error_names_physical_line(tmp_path):
    path = write_ratings(tmp_path / "r.csv", [TWO_LINE_ROW, "b,B,3.0,many"])
    with pytest.raises(RatingsError, match=rf"^{re.escape(str(path))}:4: n_ratings: "):
        load_ratings(path)


def test_mapping_error_names_physical_line(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text('file_id,ratings_id\na,"x\ny"\nb\n')
    with pytest.raises(RatingsError, match=r":4: expected 2 fields, got 1$"):
        load_id_mapping(path)


def test_oversized_header_field_names_line_one(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("id,title," + "x" * 200_000 + ",n_ratings\n")
    with pytest.raises(RatingsError, match=re.escape(f"{path}:1: field larger than field limit")):
        load_ratings(path)


def test_mapping_bad_header_raises(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("file,ratings\na,b\n")
    with pytest.raises(RatingsError, match="expected header 'file_id,ratings_id'"):
        load_id_mapping(path)


# ----------------------------------------------------------- analyze_corpus


@pytest.fixture
def graded_lex():
    return Lexicon(entries=dict(GRADED_WORDS))


def test_single_story_full_record(tmp_path, graded_lex):
    write_story(tmp_path, "tale", fgn_token_text(0.6, 4096, seed=3))
    ratings = [RatingRecord(id="tale", avg_rating=4.0, n_ratings=120)]
    records = analyze_corpus(load_corpus(tmp_path), graded_lex, ratings=ratings)
    assert len(records) == 1
    rec = records[0]
    assert rec.status == "ok"
    assert rec.n_tokens == 4096
    assert rec.coverage == 1.0
    assert rec.avg_rating == 4.0
    assert rec.n_ratings == 120
    assert rec.hurst is not None and rec.r_squared is not None


def test_short_story_reason_coded(tmp_path, graded_lex):
    write_story(tmp_path, "long", fgn_token_text(0.5, 4096, seed=1))
    write_story(tmp_path, "short", "gbw " * 20)
    records = analyze_corpus(load_corpus(tmp_path), graded_lex)
    by_id = {r.id: r for r in records}
    assert by_id["short"].status == "too_short"
    assert by_id["short"].hurst is None
    assert by_id["short"].n_tokens == 20
    assert by_id["long"].status == "ok"


def test_constant_story_degenerate(tmp_path, graded_lex):
    write_story(tmp_path, "flat", "gbw " * 500)
    write_story(tmp_path, "ok", fgn_token_text(0.5, 4096, seed=2))
    records = analyze_corpus(load_corpus(tmp_path), graded_lex)
    by_id = {r.id: r for r in records}
    assert by_id["flat"].status == "degenerate"
    assert by_id["flat"].hurst is None


def test_one_record_per_story_in_corpus_order(tmp_path, graded_lex):
    names = ["c_tale", "a_tale", "b_tale"]
    for i, name in enumerate(names):
        write_story(tmp_path, name, fgn_token_text(0.5, 1024, seed=i + 10))
    corpus = load_corpus(tmp_path)
    records = analyze_corpus(corpus, graded_lex)
    assert [r.id for r in records] == [s.id for s in corpus]
    assert len(records) == len(corpus)


def test_fgn_story_recovers_target_hurst(tmp_path, graded_lex):
    write_story(tmp_path, "persistent", fgn_token_text(0.7, 4096, seed=8))
    records = analyze_corpus(load_corpus(tmp_path), graded_lex)
    assert records[0].hurst == pytest.approx(0.7, abs=0.1)


def test_sweet_spot_flag(tmp_path, graded_lex):
    records = [
        make_record("a", 0.60, 4.0, 50),
        make_record("b", 0.80, 4.0, 50),
        make_record("c", 0.54999, 4.0, 50),
    ]
    assert records[0].sweet_spot
    assert not records[1].sweet_spot
    assert not records[2].sweet_spot


def test_record_stores_neither_status_nor_sweet_spot():
    assert [f.name for f in fields(StoryRecord)] == [
        "id", "title", "n_tokens", "coverage", "hurst", "r_squared", "avg_rating", "n_ratings",
    ]
    record = make_record("a", 0.6, 4.0, 50)
    assert (record.status, record.sweet_spot) == ("ok", True)
    assert replace(record, hurst=None, n_tokens=59).status == "too_short"
    assert replace(record, hurst=None, n_tokens=60).status == "degenerate"
    assert replace(record, hurst=0.65).sweet_spot and not replace(record, hurst=None).sweet_spot


@settings(max_examples=60, deadline=None)
@given(
    n_tokens=st.integers(0, 130),
    constant_share=st.sampled_from([0.0, 0.97, 1.0]),
    order=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_status_names_the_error_estimate_hurst_raises(n_tokens, constant_share, order, seed):
    """The derived status is exact: it names the error the estimator raises
    on the story's series, even for series that are constant save a few
    tokens."""
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 101, n_tokens)
    levels[rng.random(n_tokens) < constant_share] = 50
    text = " ".join(list(GRADED_WORDS)[i] for i in levels)
    lexicon = Lexicon(entries=dict(GRADED_WORDS))
    try:
        estimate_hurst(arc_from_text(text, lexicon).raw, order)
        want = "ok"
    except SeriesTooShortError:
        want = "too_short"
    except DegenerateSeriesError:
        want = "degenerate"
    record = corpus_mod._analyze_story(Story(id="s", title="S", text=text), lexicon, order)
    assert record.status == want
    assert (record.hurst is None) == (want != "ok")


def test_join_never_invents_ratings(tmp_path, graded_lex):
    write_story(tmp_path, "rated", fgn_token_text(0.5, 1024, seed=4))
    write_story(tmp_path, "unrated", fgn_token_text(0.5, 1024, seed=5))
    ratings = [RatingRecord(id="rated", avg_rating=3.3, n_ratings=12)]
    records = analyze_corpus(load_corpus(tmp_path), graded_lex, ratings=ratings)
    by_id = {r.id: r for r in records}
    assert by_id["rated"].avg_rating == 3.3
    assert by_id["unrated"].avg_rating is None
    assert by_id["unrated"].n_ratings is None


def test_mapping_applied_to_join(tmp_path, graded_lex):
    write_story(tmp_path, "file_name", fgn_token_text(0.5, 1024, seed=6))
    ratings = [RatingRecord(id="catalog_name", avg_rating=4.5, n_ratings=99)]
    records = analyze_corpus(
        load_corpus(tmp_path),
        graded_lex,
        ratings=ratings,
        mapping={"file_name": "catalog_name"},
    )
    assert records[0].avg_rating == 4.5


def test_all_failed_corpus_raises(tmp_path, graded_lex):
    write_story(tmp_path, "tiny", "gak gau")
    with pytest.raises(CorpusError):
        analyze_corpus(load_corpus(tmp_path), graded_lex)


def test_empty_corpus_raises(graded_lex):
    with pytest.raises(CorpusError):
        analyze_corpus([], graded_lex)


def test_parallel_matches_serial(tmp_path, graded_lex):
    # 8 stories make two chunks of four, so jobs=2 starts two workers
    for i in range(8):
        write_story(tmp_path, f"s{i}", fgn_token_text(0.5 + 0.05 * i, 1024, seed=i))
    corpus = load_corpus(tmp_path)
    serial = analyze_corpus(corpus, graded_lex, jobs=1)
    parallel = analyze_corpus(corpus, graded_lex, jobs=2)
    assert serial == parallel


class FakePool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for
    and runs the chunks in this process."""

    sizes: list = []

    def __init__(self, max_workers, initializer, initargs):
        FakePool.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize):
        assert chunksize == 4
        return map(fn, items)


@pytest.mark.parametrize(
    "n_stories,jobs,workers",
    [(3, 64, None), (4, 2, None), (5, 1, None), (5, 2, 2), (8, 64, 2), (9, 64, 3), (600, 2, 2)],
)
def test_pool_sized_by_its_chunks(monkeypatch, n_stories, jobs, workers):
    monkeypatch.setattr(corpus_mod, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(corpus_mod, "_WORKER_TASK", None)
    monkeypatch.setattr(FakePool, "sizes", [])
    stories = [Story(id=f"s{i}", title="", text="") for i in range(n_stories)]
    got = corpus_mod._map_stories(lambda story, tag: (story.id, tag), stories, jobs, "t")
    assert got == [(s.id, "t") for s in stories]
    # min(jobs, chunks of four); one worker means no pool at all
    assert FakePool.sizes == ([] if workers is None else [workers])


def test_build_arcs_same_at_any_jobs(tmp_path, graded_lex):
    for i in range(5):
        write_story(tmp_path, f"s{i}", fgn_token_text(0.5 + 0.1 * i, 512, seed=i))
    write_story(tmp_path, "empty", "")
    corpus = load_corpus(tmp_path)
    want = [arc_from_text(s.text, graded_lex, 0.05) for s in corpus]
    for jobs in (1, 2):
        got = build_arcs(corpus, graded_lex, 0.05, jobs=jobs)
        for a, b in zip(got, want, strict=True):
            assert (a.n_tokens, a.coverage) == (b.n_tokens, b.coverage)
            assert a.raw.tobytes() == b.raw.tobytes()
            assert a.smooth.tobytes() == b.smooth.tobytes()


def _curly_corpus(n_stories):
    """Stories whose texts hold U+2019, so CPython stores them two bytes a
    character and pickling one would cache a UTF-8 copy inside it."""
    return [
        Story(id=f"s{i}", title=f"Tale {i}",
              text=fgn_token_text(0.5 + 0.05 * i, 512, seed=i).replace(" ", "’ "))
        for i in range(n_stories)
    ]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers inherit the corpus only under fork"
)
def test_pool_pickles_no_story_under_fork(monkeypatch, graded_lex):
    corpus = _curly_corpus(8)
    sizes = [sys.getsizeof(s.text) for s in corpus]

    def refuse(self, protocol):
        raise AssertionError(f"story {self.id} pickled")

    monkeypatch.setattr(Story, "__reduce_ex__", refuse)
    records = analyze_corpus(corpus, graded_lex, jobs=2)
    arcs = build_arcs(corpus, graded_lex, 0.05, jobs=2)
    assert [r.id for r in records] == [s.id for s in corpus]
    for story, arc in zip(corpus, arcs, strict=True):
        assert arc.raw.tobytes() == arc_from_text(story.text, graded_lex).raw.tobytes()
    assert [sys.getsizeof(s.text) for s in corpus] == sizes


_SPAWNED_POOL = """
import multiprocessing, sys
from sentarc import analyze_corpus, arc_from_text, build_arcs, load_corpus, load_lexicon

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    corpus, lexicon = load_corpus(sys.argv[1]), load_lexicon(sys.argv[2])
    assert analyze_corpus(corpus, lexicon, jobs=2) == analyze_corpus(corpus, lexicon, jobs=1)
    parallel, serial = (build_arcs(corpus, lexicon, 0.05, jobs=jobs) for jobs in (2, 1))
    for story, a, b in zip(corpus, parallel, serial, strict=True):
        want = arc_from_text(story.text, lexicon, 0.05)
        assert (a.n_tokens, a.coverage) == (b.n_tokens, b.coverage) == (want.n_tokens, want.coverage)
        assert a.raw.tobytes() == b.raw.tobytes() == want.raw.tobytes()
        assert a.smooth.tobytes() == b.smooth.tobytes() == want.smooth.tobytes()
"""


def test_pool_same_results_under_spawn(tmp_path):
    # spawn stands in for forkserver, Python 3.14's default on Linux: each
    # worker unpickles the corpus instead of inheriting it
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for story in _curly_corpus(8):
        write_story(corpus, story.id, story.text)
    lexicon = write_graded_lexicon_file(tmp_path / "lexicon.tsv")
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWNED_POOL, str(corpus), str(lexicon)],
        capture_output=True, text=True, env=package_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@st.composite
def corpora(draw):
    """(id, text, rating) per story and an order to write the files in.
    Lengths reach below the estimator's 60 tokens and some texts are
    constant, so too-short and degenerate records come up too."""
    ids = draw(st.lists(st.from_regex(r"[a-z0-9_]{1,6}", fullmatch=True),
                        min_size=1, max_size=6, unique=True))
    words = list(GRADED_WORDS)
    stories = []
    for story_id in ids:
        n_tokens = draw(st.integers(0, 400))
        levels = np.random.default_rng(draw(st.integers(0, 2**16))).integers(0, 101, n_tokens)
        if draw(st.booleans()):
            levels[:] = levels[:1]
        rating = draw(st.none() | st.tuples(st.floats(1.0, 5.0), st.integers(0, 10**6)))
        stories.append((story_id, " ".join(words[i] for i in levels), rating))
    return stories, draw(st.permutations(range(len(stories))))


def _analyze_outcome(corpus, ratings, jobs):
    lexicon = Lexicon(entries=dict(GRADED_WORDS))
    try:
        return analyze_corpus(corpus, lexicon, ratings=ratings, jobs=jobs)
    except CorpusError as exc:
        return str(exc)


@settings(max_examples=8, deadline=None)
@given(corpora())
def test_records_independent_of_jobs_and_file_order(tmp_path_factory, drawn):
    stories, write_order = drawn
    ratings = [
        RatingRecord(id=story_id, avg_rating=rating[0], n_ratings=rating[1])
        for story_id, _, rating in stories
        if rating is not None
    ]
    in_order, shuffled = tmp_path_factory.mktemp("in_order"), tmp_path_factory.mktemp("shuffled")
    for story_id, text, _ in stories:
        write_story(in_order, story_id, text)
    for i in write_order:
        write_story(shuffled, stories[i][0], stories[i][1])
    serial = _analyze_outcome(load_corpus(in_order), ratings, jobs=1)
    if not isinstance(serial, str):
        assert [r.id for r in serial] == sorted(story_id for story_id, _, _ in stories)
    assert _analyze_outcome(load_corpus(in_order), ratings, jobs=2) == serial
    assert _analyze_outcome(load_corpus(shuffled), ratings, jobs=1) == serial
    assert _analyze_outcome(load_corpus(shuffled), ratings, jobs=2) == serial


# ---------------------------------------------------------------- correlate


def test_correlate_perfect_linear_records():
    records = [
        make_record("a", 0.5, 2.0, 100),
        make_record("b", 0.6, 3.0, 100),
        make_record("c", 0.7, 4.0, 100),
    ]
    report = correlate(records, min_ratings=0)
    assert report.pearson_r == pytest.approx(1.0)
    assert report.spearman_rho == pytest.approx(1.0)
    assert report.kendall_tau == pytest.approx(1.0)
    assert report.n == 3
    assert report.min_ratings_filter == 0
    assert report.distance_corr_p is None


def test_correlate_threshold_strictly_greater():
    records = [
        make_record("a", 0.5, 2.0, 30),
        make_record("b", 0.6, 3.0, 31),
        make_record("c", 0.7, 4.0, 50),
        make_record("d", 0.8, 4.5, 60),
    ]
    report = correlate(records, min_ratings=30)
    assert report.n == 3  # the n_ratings == 30 record is excluded


def test_correlate_excludes_null_hurst_and_unrated():
    records = [
        make_record("a", None, 2.0, 100),
        make_record("b", 0.6, None, None),
        make_record("c", 0.5, 3.0, 100),
        make_record("d", 0.7, 4.0, 100),
        make_record("e", 0.9, 4.2, 100),
    ]
    report = correlate(records, min_ratings=0)
    assert report.n == 3


def test_correlate_monotone_filtering():
    rng = np.random.default_rng(0)
    records = [
        make_record(f"s{i}", float(h), float(np.clip(2.5 + h + rng.normal(0, 0.2), 1, 5)), int(c))
        for i, (h, c) in enumerate(
            zip(rng.uniform(0.3, 0.9, 40), rng.integers(0, 200, 40))
        )
    ]
    loose = correlate(records, min_ratings=10)
    strict = correlate(records, min_ratings=50)
    assert strict.n <= loose.n


def test_correlate_too_few_survivors():
    records = [make_record("a", 0.5, 3.0, 10), make_record("b", 0.6, 3.5, 10)]
    with pytest.raises(CorpusError):
        correlate(records, min_ratings=30)


@pytest.mark.parametrize(
    "records,constant",
    [
        ([make_record(f"s{i}", 0.6, 3.0 + i / 2, 40) for i in range(4)], "hurst"),
        ([make_record(f"s{i}", 0.5 + i / 10, 4.0, 40) for i in range(4)], "avg_rating"),
    ],
    ids=["hurst", "avg_rating"],
)
def test_correlate_rejects_constant_inputs(records, constant):
    with pytest.raises(CorpusError, match=f"{constant} is .* in all 4 records with ratings above 30"):
        correlate(records, min_ratings=30)


def test_correlate_with_permutation_pvalue():
    rng = np.random.default_rng(1)
    records = [
        make_record(f"s{i}", float(h), float(np.clip(1.5 + 3 * h, 1, 5)), 100)
        for i, h in enumerate(rng.uniform(0.3, 0.9, 12))
    ]
    report = correlate(records, min_ratings=0, dcor_permutations=199, seed=7)
    assert report.distance_corr_p is not None
    assert 0.0 < report.distance_corr_p <= 1.0
