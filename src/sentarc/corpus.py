"""Corpus ingestion and the full per-story pipeline.

A corpus is a directory of UTF-8 `*.txt` files; ratings arrive as a CSV
with header `id,title,avg_rating,n_ratings` keyed by file stem (an
optional mapping CSV `file_id,ratings_id` covers mismatched ids). Each
story runs tokenize -> valence series -> Hurst estimate; stories the
estimator rejects keep a reason-coded record rather than disappearing.
`build_arcs` maps the text -> arc step alone over the same worker pool.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from . import arc as arc_mod
from .afa import MIN_SERIES_LENGTH, estimate_hurst
from .errors import AfaError, CorpusError, RatingsError
from .inputs import read_csv_table, read_text
from .lexicon import Lexicon
from .stats import (
    CorrelationReport,
    distance_correlation,
    distance_correlation_test,
    kendall_tau,
    pearson,
    spearman,
)

log = logging.getLogger(__name__)

SWEET_SPOT_LOW = 0.55
SWEET_SPOT_HIGH = 0.65

STATUS_OK = "ok"
STATUS_TOO_SHORT = "too_short"
STATUS_DEGENERATE = "degenerate"

# ratings CSV column -> parser of its text, in header order
_RATINGS_FIELDS = {"id": str, "title": str, "avg_rating": float, "n_ratings": int}


@dataclass(frozen=True)
class Story:
    id: str
    title: str
    text: str


@dataclass(frozen=True)
class RatingRecord:
    id: str
    avg_rating: float
    n_ratings: int


@dataclass(frozen=True)
class StoryRecord:
    """Per-story pipeline result, rating-joined when a match exists.

    `status` and `sweet_spot` are derived from `hurst` and `n_tokens`, so
    no record can carry a status or flag its estimate contradicts.
    """

    id: str
    title: str
    n_tokens: int
    coverage: float
    hurst: float | None
    r_squared: float | None
    avg_rating: float | None
    n_ratings: int | None

    @property
    def status(self) -> str:
        """`ok` with an estimate; without one, `too_short` below
        MIN_SERIES_LENGTH tokens and `degenerate` otherwise. Exact, because
        `estimate_hurst` checks the length before any degeneracy."""
        if self.hurst is not None:
            return STATUS_OK
        return STATUS_TOO_SHORT if self.n_tokens < MIN_SERIES_LENGTH else STATUS_DEGENERATE

    @property
    def sweet_spot(self) -> bool:
        """Whether the estimate lies in the paper's sweet-spot band."""
        return self.hurst is not None and SWEET_SPOT_LOW <= self.hurst <= SWEET_SPOT_HIGH


def _title_from_stem(stem: str) -> str:
    words = [w for w in stem.replace("_", " ").replace("-", " ").split() if w]
    return " ".join(w[:1].upper() + w[1:] for w in words)


def load_corpus(directory) -> list[Story]:
    """Every `*.txt` file in the directory, as stories in id order.

    The id is the file stem. Files that cannot be read or fail UTF-8
    decoding are logged and skipped.
    """
    root = Path(directory)
    if not root.is_dir():
        raise CorpusError(f"not a directory: {directory}")
    try:
        paths = sorted(root.glob("*.txt"), key=lambda p: p.stem)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus directory {directory}: {exc}") from exc

    stories = []
    for path in paths:
        try:
            text = read_text(path, CorpusError)
        except CorpusError as exc:
            log.warning("%s, skipped", exc)
            continue
        stories.append(Story(id=path.stem, title=_title_from_stem(path.stem), text=text))
    return stories


def load_ratings(path) -> list[RatingRecord]:
    """Parse the ratings CSV.

    Rows with an average outside [1, 5], a negative count, or a duplicate
    id are rejected with a logged line number. A missing or garbled
    header and unparsable numerics raise RatingsError.
    """
    records: dict[str, RatingRecord] = {}
    rows = read_csv_table(read_text(path, RatingsError), path, _RATINGS_FIELDS, RatingsError)
    for line, row in rows:
        story_id, avg, count = row["id"], row["avg_rating"], row["n_ratings"]
        if not 1.0 <= avg <= 5.0:
            log.warning("%s:%d: avg_rating %s outside [1, 5], row rejected", path, line, avg)
            continue
        if count < 0:
            log.warning("%s:%d: negative n_ratings, row rejected", path, line)
            continue
        if story_id in records:
            log.warning("%s:%d: duplicate id %r, row rejected", path, line, story_id)
            continue
        records[story_id] = RatingRecord(id=story_id, avg_rating=avg, n_ratings=count)
    return list(records.values())


def load_id_mapping(path) -> dict[str, str]:
    """Optional `file_id,ratings_id` CSV for mismatched join keys. As in the
    ratings, a repeated file_id is rejected with a logged line number."""
    mapping: dict[str, str] = {}
    fields = {"file_id": str, "ratings_id": str}
    for line, row in read_csv_table(read_text(path, RatingsError), path, fields, RatingsError):
        if row["file_id"] in mapping:
            log.warning("%s:%d: duplicate id %r, row rejected", path, line, row["file_id"])
        else:
            mapping[row["file_id"]] = row["ratings_id"]
    return mapping


def _analyze_story(story: Story, lexicon: Lexicon, order: int) -> StoryRecord:
    """The story's record before the rating join."""
    series = arc_mod.arc_from_text(story.text, lexicon)
    hurst = r_squared = None
    try:
        result = estimate_hurst(series.raw, order)
    except AfaError:
        pass  # the record's status gives the reason
    else:
        hurst, r_squared = result.hurst, result.r_squared
    return StoryRecord(
        id=story.id, title=story.title, n_tokens=series.n_tokens, coverage=series.coverage,
        hurst=hurst, r_squared=r_squared, avg_rating=None, n_ratings=None,
    )


_WORKER_TASK: tuple | None = None


def _init_worker(fn, corpus, args):
    global _WORKER_TASK
    _WORKER_TASK = (fn, corpus, args)


def _run_worker(index: int):
    fn, corpus, args = _WORKER_TASK
    return fn(corpus[index], *args)


def _map_stories(fn, corpus: list[Story], jobs: int, *args) -> list:
    """`fn(story, *args)` for every story, in corpus order.

    Stories go to worker processes in chunks of four, over at most `jobs`
    workers and never more than there are chunks; when that leaves one
    worker, the stories run in this process. Workers receive `fn`, the
    corpus and `args` once, at start-up, and each task is a story's index
    into the corpus. Under the fork start method the workers inherit the
    corpus, so no story is pickled and no text gains the UTF-8 copy that
    CPython caches in a str pickled with characters above U+00FF. Under
    spawn or forkserver the corpus is pickled once per worker at start-up.
    """
    chunk = 4
    workers = min(jobs, -(-len(corpus) // chunk))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(fn, corpus, args),
        ) as pool:
            return list(pool.map(_run_worker, range(len(corpus)), chunksize=chunk))
    return [fn(story, *args) for story in corpus]


def _story_arc(story: Story, lexicon: Lexicon, smooth_fraction: float | None):
    return arc_mod.arc_from_text(story.text, lexicon, smooth_fraction)


def build_arcs(
    corpus: list[Story],
    lexicon: Lexicon,
    smooth_fraction: float | None = None,
    jobs: int = 1,
) -> list[arc_mod.SentimentArc]:
    """Every story's arc, as by `arc.arc_from_text`, in corpus order.

    The arcs are built over `jobs` worker processes when `jobs` > 1; they
    are the same at any `jobs`.
    """
    return _map_stories(_story_arc, corpus, jobs, lexicon, smooth_fraction)


def analyze_corpus(
    corpus: list[Story],
    lexicon: Lexicon,
    order: int = 1,
    ratings: list[RatingRecord] | None = None,
    mapping: dict[str, str] | None = None,
    jobs: int = 1,
) -> list[StoryRecord]:
    """Run the full pipeline over every story and join ratings by id.

    Each story's Hurst exponent is estimated on its raw valence series
    with local fits of polynomial `order`, over `jobs` worker processes
    when `jobs` > 1. `mapping` maps file ids to rating ids where they
    differ. One record per story, in corpus order; stories the estimator
    rejects carry a null Hurst and a reason code instead of being dropped.
    Raises CorpusError only when not a single story yields an estimate.
    """
    ratings = ratings or []
    mapping = mapping or {}
    by_id = {r.id: r for r in ratings}

    records = _map_stories(_analyze_story, corpus, jobs, lexicon, order)

    for i, record in enumerate(records):
        rating = by_id.get(mapping.get(record.id, record.id))
        if rating:
            records[i] = replace(record, avg_rating=rating.avg_rating, n_ratings=rating.n_ratings)

    if records and not any(r.status == STATUS_OK for r in records):
        raise CorpusError("no story produced a Hurst estimate")
    if not records:
        raise CorpusError("empty corpus: nothing to analyze")
    return records


def correlate(
    records: list[StoryRecord],
    min_ratings: int = 30,
    dcor_permutations: int = 0,
    seed: int = 0,
) -> CorrelationReport:
    """All four correlations between Hurst and average rating.

    Keeps records with a non-null Hurst and strictly more than
    `min_ratings` ratings; at least three must survive, and neither their
    exponents nor their ratings may all be equal. A permutation
    p-value for the distance correlation is computed only when
    `dcor_permutations` is positive.
    """
    kept = [
        r
        for r in records
        if r.hurst is not None and r.n_ratings is not None and r.n_ratings > min_ratings
    ]
    if len(kept) < 3:
        raise CorpusError(
            f"only {len(kept)} records with ratings above {min_ratings}; need at least 3"
        )
    h = [r.hurst for r in kept]
    ratings = [r.avg_rating for r in kept]
    for name, values in (("hurst", h), ("avg_rating", ratings)):
        if min(values) == max(values):
            raise CorpusError(
                f"{name} is {values[0]} in all {len(kept)} records with ratings "
                f"above {min_ratings}; the correlations are undefined"
            )
    r_p, p_p = pearson(h, ratings)
    rho, p_rho = spearman(h, ratings)
    tau, p_tau = kendall_tau(h, ratings)
    if dcor_permutations:
        dcor, dcor_p = distance_correlation_test(h, ratings, dcor_permutations, seed)
    else:
        dcor, dcor_p = distance_correlation(h, ratings), None
    return CorrelationReport(
        n=len(kept),
        min_ratings_filter=min_ratings,
        pearson_r=r_p,
        pearson_p=p_p,
        spearman_rho=rho,
        spearman_p=p_rho,
        kendall_tau=tau,
        kendall_p=p_tau,
        distance_corr=dcor,
        distance_corr_p=dcor_p,
    )
