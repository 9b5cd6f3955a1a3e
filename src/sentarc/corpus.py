"""Corpus ingestion and the full per-story pipeline.

A corpus is a directory of UTF-8 `*.txt` files; ratings arrive as a CSV
with header `id,title,avg_rating,n_ratings` keyed by file stem (an
optional mapping CSV `file_id,ratings_id` covers mismatched ids). Each
story runs tokenize -> valence series -> Hurst estimate; stories the
estimator rejects keep a reason-coded record rather than disappearing.
`build_shapes` maps the text -> arc -> cluster shape step over the same
worker pool. A story is a handle to its file, read where it is analyzed,
so no process holds every text.
"""

from __future__ import annotations

import logging
import os
import unicodedata
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import arc as arc_mod
from .afa import MIN_SERIES_LENGTH, estimate_hurst
from .errors import AfaError, SentarcError
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
    """A story's id and title, and the path of its file."""

    id: str
    title: str
    path: Path

    @property
    def text(self) -> str:
        """The file's text in NFC, read on every access and never kept.
        A file that is gone or no longer decodes raises SentarcError, as
        `read_text` words it."""
        return read_text(self.path)


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
        `estimate_hurst` refuses every series under MIN_SERIES_LENGTH and
        a longer one only when it is degenerate."""
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

    The id is the file stem in NFC, the form `read_text` gives every text
    it is matched against. Files that cannot be read or fail UTF-8
    decoding are logged and skipped, and so is a file whose id an earlier
    file in (id, file name) order already has. Each file is read once to
    decide that, and its text is then dropped: a story reads its file
    again where it is analyzed.
    """
    root = Path(directory)
    if not root.is_dir():
        raise SentarcError(f"not a directory: {directory}")
    try:
        paths = root.glob("*.txt")
        named = sorted((unicodedata.normalize("NFC", p.stem), p.name, p) for p in paths)
    except OSError as exc:
        raise SentarcError(f"cannot read corpus directory {directory}: {exc}") from exc

    stories = {}
    for story_id, _, path in named:
        if story_id in stories:
            log.warning("%s: duplicate id %r, skipped", path, story_id)
            continue
        try:
            read_text(path)
        except SentarcError as exc:
            log.warning("%s, skipped", exc)
            continue
        stories[story_id] = Story(id=story_id, title=_title_from_stem(story_id), path=path)
    return list(stories.values())


def load_ratings(path) -> list[RatingRecord]:
    """Parse the ratings CSV.

    Rows with an average outside [1, 5], a negative count, or a duplicate
    id are rejected with a logged line number. A missing or garbled
    header and unparsable numerics raise SentarcError.
    """
    records: dict[str, RatingRecord] = {}
    for line, row in read_csv_table(read_text(path), path, _RATINGS_FIELDS):
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
    for line, row in read_csv_table(read_text(path), path, fields):
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


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one, else the logical cores."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_stories(fn, corpus: list[Story], jobs: int, *args) -> list:
    """`fn(story, *args)` for every story, in corpus order.

    Stories go to worker processes in chunks of four, over at most `jobs`
    workers, never more than `usable_cpus()` and never more than there are
    chunks; when that leaves one worker, the stories run in this process.
    Workers receive `fn`, the corpus and `args` once, at start-up, and
    each task is a story's index into the corpus. A story holds its path,
    not its text, so each worker reads only the files of the stories it
    is given, and no process holds every text: under fork the workers
    inherit the ids and paths, and under spawn or forkserver each worker
    unpickles them at start-up.
    """
    chunk = 4
    workers = min(jobs, usable_cpus(), -(-len(corpus) // chunk))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(fn, corpus, args),
        ) as pool:
            return list(pool.map(_run_worker, range(len(corpus)), chunksize=chunk))
    return [fn(story, *args) for story in corpus]


def _story_shape(story: Story, lexicon: Lexicon, smooth_fraction: float | None):
    series = arc_mod.arc_from_text(story.text, lexicon, smooth_fraction)
    shape = arc_mod.cluster_shape(series) if series.n_tokens >= 2 else None
    return series.n_tokens, shape


def build_shapes(
    corpus: list[Story],
    lexicon: Lexicon,
    smooth_fraction: float | None = None,
    jobs: int = 1,
) -> list[tuple[int, np.ndarray | None]]:
    """Every story's token count and cluster shape, in corpus order.

    The shape is `arc.cluster_shape` of the story's arc as
    `arc.arc_from_text(text, lexicon, smooth_fraction)` builds it, or None
    for an arc under 2 tokens. Each arc is reduced to its shape where it
    is built, over `jobs` worker processes when `jobs` > 1, so no process
    holds more than one arc; the results are the same at any `jobs`.
    """
    return _map_stories(_story_shape, corpus, jobs, lexicon, smooth_fraction)


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
    Raises SentarcError only when not a single story yields an estimate.
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
        raise SentarcError("no story produced a Hurst estimate")
    if not records:
        raise SentarcError("empty corpus: nothing to analyze")
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
        raise SentarcError(
            f"only {len(kept)} records with ratings above {min_ratings}; need at least 3"
        )
    h = [r.hurst for r in kept]
    ratings = [r.avg_rating for r in kept]
    for name, values in (("hurst", h), ("avg_rating", ratings)):
        if min(values) == max(values):
            raise SentarcError(
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
