"""Corpus ingestion and the full per-story pipeline.

A corpus is a directory of UTF-8 `*.txt` files; ratings arrive as a CSV
with header `id,title,avg_rating,n_ratings` keyed by file stem (an
optional mapping CSV `file_id,ratings_id` covers mismatched ids). Each
story runs tokenize -> valence series -> Hurst estimate; stories the
estimator rejects keep a reason-coded record rather than disappearing.
"""

from __future__ import annotations

import csv
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from . import arc as arc_mod
from .afa import estimate_hurst
from .errors import (
    CorpusError,
    DegenerateSeriesError,
    RatingsError,
    SeriesTooShortError,
)
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

RATINGS_HEADER = ["id", "title", "avg_rating", "n_ratings"]


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
    """Per-story pipeline result, rating-joined when a match exists."""

    id: str
    title: str
    n_tokens: int
    coverage: float
    hurst: float | None
    r_squared: float | None
    avg_rating: float | None
    n_ratings: int | None
    sweet_spot: bool
    status: str


def _title_from_stem(stem: str) -> str:
    words = [w for w in stem.replace("_", " ").replace("-", " ").split() if w]
    return " ".join(w[:1].upper() + w[1:] for w in words)


def load_corpus(directory) -> list[Story]:
    """Every `*.txt` file in the directory, as stories in id order.

    The id is the file stem. Files that fail UTF-8 decoding are logged
    and skipped.
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
            text = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError:
            log.warning("%s: not valid UTF-8, skipped", path)
            continue
        except OSError as exc:
            log.warning("%s: unreadable (%s), skipped", path, exc)
            continue
        stories.append(Story(id=path.stem, title=_title_from_stem(path.stem), text=text))
    return stories


def load_ratings(path) -> list[RatingRecord]:
    """Parse the ratings CSV.

    Rows with an average outside [1, 5], a negative count, or a duplicate
    id are rejected with a logged line number. A missing or garbled
    header and unparsable numerics raise RatingsError.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise RatingsError(f"cannot read ratings {path}: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != RATINGS_HEADER:
        raise RatingsError(
            f"{path}: expected header {','.join(RATINGS_HEADER)!r}, "
            f"got {','.join(rows[0]) if rows else '<empty file>'!r}"
        )

    records: list[RatingRecord] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise RatingsError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        story_id, _title, avg_text, count_text = row
        try:
            avg = float(avg_text)
            count = int(count_text)
        except ValueError as exc:
            raise RatingsError(f"{path}:{lineno}: unparsable numeric field: {exc}") from exc
        if not 1.0 <= avg <= 5.0:
            log.warning("%s:%d: avg_rating %s outside [1, 5], row rejected", path, lineno, avg_text)
            continue
        if count < 0:
            log.warning("%s:%d: negative n_ratings, row rejected", path, lineno)
            continue
        if story_id in seen:
            log.warning("%s:%d: duplicate id %r, row rejected", path, lineno, story_id)
            continue
        seen.add(story_id)
        records.append(RatingRecord(id=story_id, avg_rating=avg, n_ratings=count))
    return records


def load_id_mapping(path) -> dict[str, str]:
    """Optional `file_id,ratings_id` CSV for mismatched join keys."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise RatingsError(f"cannot read mapping {path}: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != ["file_id", "ratings_id"]:
        raise RatingsError(f"{path}: expected header 'file_id,ratings_id'")
    mapping = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise RatingsError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
        mapping[row[0]] = row[1]
    return mapping


def _analyze_story(story: Story, lexicon: Lexicon, order: int) -> StoryRecord:
    """The story's record before the rating join."""
    series = arc_mod.arc_from_text(story.text, lexicon, story.id)
    hurst = r_squared = None
    try:
        result = estimate_hurst(series.raw, order)
    except SeriesTooShortError:
        status = STATUS_TOO_SHORT
    except DegenerateSeriesError:
        status = STATUS_DEGENERATE
    else:
        hurst, r_squared, status = result.hurst, result.r_squared, STATUS_OK
    return StoryRecord(
        id=story.id, title=story.title, n_tokens=series.n_tokens, coverage=series.coverage,
        hurst=hurst, r_squared=r_squared, avg_rating=None, n_ratings=None,
        sweet_spot=hurst is not None and SWEET_SPOT_LOW <= hurst <= SWEET_SPOT_HIGH,
        status=status,
    )


_WORKER_ARGS: tuple | None = None


def _init_worker(lexicon, order):
    global _WORKER_ARGS
    _WORKER_ARGS = (lexicon, order)


def _run_worker(story: Story):
    return _analyze_story(story, *_WORKER_ARGS)


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

    if jobs > 1 and len(corpus) > 1:
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(lexicon, order),
        ) as pool:
            records = list(pool.map(_run_worker, corpus, chunksize=4))
    else:
        records = [_analyze_story(s, lexicon, order) for s in corpus]

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
    dcor_permutations: int | None = None,
    seed: int = 0,
) -> CorrelationReport:
    """All four correlations between Hurst and average rating.

    Keeps records with a non-null Hurst and strictly more than
    `min_ratings` ratings; at least three must survive. A permutation
    p-value for the distance correlation is computed only when
    `dcor_permutations` is given.
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
