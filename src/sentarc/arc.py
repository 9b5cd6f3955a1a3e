"""Sentiment arcs: tokenization, per-word valence series, smoothing,
windowed summaries and agglomerative clustering of arc shapes.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .lexicon import NEUTRAL_VALENCE, Lexicon

# Tokens are maximal runs of letters, optionally joined by internal
# apostrophes ("don't" stays one token). Digits and punctuation separate.
# U+2019 is the typographic apostrophe common in Gutenberg texts.
_TOKEN_RE = re.compile(r"[^\W\d_]+(?:['’][^\W\d_]+)*")


@dataclass(frozen=True)
class SentimentArc:
    """Per-token valence series for one story.

    `raw` holds one valence per token in story order; `smooth` is the
    moving-average trend of the same length (`raw` itself until
    :func:`smooth` is applied). `coverage` is the fraction of tokens found
    in the lexicon.
    """

    raw: np.ndarray
    smooth: np.ndarray
    coverage: float

    @property
    def n_tokens(self) -> int:
        return self.raw.size


@dataclass(frozen=True)
class WindowSummary:
    """Non-overlapping window means and population standard deviations."""

    means: np.ndarray
    stds: np.ndarray


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: clusters `a` and `b` (named by their
    lexicographically smallest member id) merged at `height` into a
    cluster of `size` arcs."""

    a: str
    b: str
    height: float
    size: int


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens in order of appearance."""
    return _TOKEN_RE.findall(text.lower())


def sentiment_series(tokens: list[str], lexicon: Lexicon) -> SentimentArc:
    """Map tokens to their valence values.

    Out-of-vocabulary tokens score NEUTRAL_VALENCE. Coverage is 0 for an
    empty token list. A miss is looked up as NaN: `load_lexicon` rejects
    NaN and every value outside [0, 1], so no entry is NaN and the NaNs
    count the misses exactly.
    """
    n = len(tokens)
    raw = np.fromiter(map(lexicon.entries.get, tokens, repeat(np.nan)), float, n)
    misses = np.isnan(raw)
    raw[misses] = NEUTRAL_VALENCE
    coverage = (n - int(np.count_nonzero(misses))) / n if n else 0.0
    return SentimentArc(raw=raw, smooth=raw, coverage=coverage)


def window_summary(arc: SentimentArc, window_size: int = 30) -> WindowSummary:
    """Mean and population std of `raw` over consecutive non-overlapping windows.

    The final partial window is summarized over its actual length.
    """
    if window_size < 1:
        raise ValueError(f"window_size must be >= 1, got {window_size}")
    full = arc.n_tokens - arc.n_tokens % window_size
    windows = arc.raw[:full].reshape(-1, window_size)
    means, stds = windows.mean(axis=1), windows.std(axis=1)
    if full < arc.n_tokens:
        tail = arc.raw[full:]
        means, stds = np.append(means, tail.mean()), np.append(stds, tail.std())
    return WindowSummary(means=means, stds=stds)


def smooth(arc: SentimentArc, fraction: float = 0.05) -> SentimentArc:
    """Fill `smooth` with a centered moving average of `raw`.

    The window is max(3, round(fraction * n_tokens)), forced odd (rounded
    up). At the edges the window truncates to whatever fits, so the output
    has the same length as the input. `raw` is unchanged. This smoothing
    only feeds visualization output; the fluctuation analysis does its own
    detrending.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = arc.n_tokens
    if n < 1:
        raise ValueError("cannot smooth an empty arc")
    width = max(3, round(fraction * n))
    if width % 2 == 0:
        width += 1
    half = width // 2
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    csum = np.concatenate(([0.0], np.cumsum(arc.raw)))
    smoothed = (csum[hi] - csum[lo]) / (hi - lo)
    # every window mean lies within the raw extremes; trim rounding residue
    smoothed = np.clip(smoothed, arc.raw.min(), arc.raw.max())
    return replace(arc, smooth=smoothed)


def arc_from_text(
    text: str, lexicon: Lexicon, smooth_fraction: float | None = None
) -> SentimentArc:
    """Tokenize `text` and score it into an arc.

    With `smooth_fraction` a non-empty arc is smoothed as by :func:`smooth`;
    without it `smooth` is `raw`.
    """
    arc = sentiment_series(tokenize(text), lexicon)
    if smooth_fraction is not None and arc.n_tokens >= 1:
        arc = smooth(arc, smooth_fraction)
    return arc


RESAMPLE_POINTS = 100


def _cluster_shape(arc: SentimentArc) -> np.ndarray:
    """Smoothed arc of 2+ tokens, resampled to a fixed length and z-normalized."""
    grid = np.linspace(0.0, arc.n_tokens - 1, RESAMPLE_POINTS)
    resampled = np.interp(grid, np.arange(arc.n_tokens), arc.smooth)
    sd = resampled.std()
    # rounding in the mean leaves most constant arcs a tiny nonzero std,
    # which would blow them up to a +-1 shape, so test constancy exactly
    if sd == 0.0 or (resampled == resampled[0]).all():
        return np.zeros(RESAMPLE_POINTS)
    return (resampled - resampled.mean()) / sd


def _squared_distances(shapes: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of `shapes`, m x m.

    Built one row at a time, so memory grows with m², not with m² times
    the shape length; each row has the bits of the same einsum reduction
    over the whole m x m x length difference tensor.
    """
    d2 = np.empty((len(shapes), len(shapes)))
    for i, shape in enumerate(shapes):
        d = shape - shapes
        d2[i] = np.einsum("jk,jk->j", d, d)
    return d2


def cluster_arcs(arcs: Mapping[str, SentimentArc], k: int) -> tuple[dict[str, int], list[Merge]]:
    """Ward-linkage agglomerative clustering of arc shapes.

    Each smoothed arc is resampled to 100 points and z-normalized, so the
    grouping reflects shape rather than level or amplitude. Clusters are
    merged by the minimum-variance (Ward) criterion. Merge costs within
    1e-12 of the smallest count as tied, and ties merge the
    lexicographically smallest id pair, which makes the tree deterministic
    regardless of input order. A constant arc resamples to the all-zero
    shape, equidistant from every z-normalized shape, so rounding alone
    never decides which arc it joins.

    `arcs` maps each story id to its arc; every arc needs at least 2
    tokens. Returns a map story id -> cluster index (clusters numbered
    0..k-1 in order of their smallest member id) and the full merge list.
    """
    m = len(arcs)
    if not 1 <= k <= m:
        raise ValueError(f"need |arcs| >= k >= 1, got {m} arcs and k={k}")
    ids = sorted(arcs)
    for key in ids:
        if (n := arcs[key].n_tokens) < 2:
            raise ValueError(f"arc {key!r} too short to resample ({n} tokens)")

    d2 = _squared_distances(np.array([_cluster_shape(arcs[key]) for key in ids]))
    np.fill_diagonal(d2, np.inf)

    # A merge keeps the lower slot, so slot i's smallest member is ids[i]
    # and row-major order over slot pairs is id-pair order. d2 is symmetric
    # and twice the Ward cost, so the first hit within 2e-12 of the minimum
    # is the smallest tied id pair, with i < j.
    owner = np.arange(m)
    sizes = np.ones(m)
    merges: list[Merge] = []
    for _ in range(m - k):
        near = d2 <= d2.min() + 2e-12
        i, j = divmod(int(np.argmax(near)), m)
        ni, nj, dij = sizes[i], sizes[j], d2[i, j]
        merges.append(Merge(a=ids[i], b=ids[j], height=float(np.sqrt(dij)), size=int(ni + nj)))

        # Lance-Williams update for Ward linkage on squared distances;
        # retired slots stay at inf.
        row = ((ni + sizes) * d2[i] + (nj + sizes) * d2[j] - sizes * dij) / (ni + nj + sizes)
        d2[i] = d2[:, i] = row
        d2[j] = d2[:, j] = np.inf
        sizes[i] = ni + nj
        owner[owner == j] = i

    _, labels = np.unique(owner, return_inverse=True)
    return dict(zip(ids, labels.tolist())), merges
