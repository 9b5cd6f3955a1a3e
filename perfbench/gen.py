"""Seeded input generator for the benchmark workloads.

Uses numpy only and never imports the package under test, so a change to
the program cannot change its own inputs. Every function is a pure
function of its seed: the same seed writes the same bytes.

Besides the files, each generator returns the ground truth the output
checks need (token counts, lexicon hits, valence series, joined ratings),
taken from what was generated rather than from what the program reports.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NEUTRAL_VALENCE = 0.5
MIN_SERIES_LENGTH = 60  # the estimator's documented minimum
RESULTS_HEADER = [
    "id", "title", "n_tokens", "coverage", "hurst", "r_squared",
    "avg_rating", "n_ratings", "sweet_spot", "status",
]

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_SUFFIXES = ("t", "s", "ll", "re", "ve", "d")
# Separators never put a letter or an apostrophe next to a word, so the
# token boundaries are exactly the generated ones.
_SEPARATORS = (
    " ", " ", " ", " ", " ", " ", " ", " ", ", ", ". ", "; ", ": ", " - ",
    " -- ", "\n", "\n\n", "! ", "? ", ' "', '" ', " (", ") ", " '", "' ",
    " ‘", "’ ", " 1984 ", " 3,000 ", " #7 ", "... ",
)


@dataclass
class LexiconTruth:
    words: list[str]  # accepted entries, lowercase, no duplicates
    valence: np.ndarray  # valence per entry of `words`
    oov: list[str]  # words guaranteed absent from the lexicon
    by_word: dict[str, float]  # the accepted entries as a map


@dataclass
class StoryTruth:
    id: str
    n_tokens: int
    hits: int
    values: np.ndarray  # valence series the program should derive
    constant: bool


def _pseudo_words(rng, count: int, taken: set[str]) -> list[str]:
    """`count` distinct lowercase letter strings of length 3..10 not in `taken`."""
    out: list[str] = []
    while len(out) < count:
        need = count - len(out)
        lengths = rng.integers(3, 11, size=2 * need)
        letters = _LETTERS[rng.integers(0, 26, size=(2 * need, 10))]
        for row, n in zip(letters, lengths):
            word = "".join(row[:n])
            if word not in taken:
                taken.add(word)
                out.append(word)
                if len(out) == count:
                    break
    return out


def write_lexicon(rng, path: Path, n_entries: int = 20000, n_oov: int = 20000) -> LexiconTruth:
    """A tab-separated lexicon with a header, optional arousal/dominance
    columns, mixed-case keys, contractions, duplicates and rejected lines."""
    taken: set[str] = set()
    words = _pseudo_words(rng, n_entries, taken)
    # contractions: some entries carry an internal ASCII apostrophe
    n_contr = n_entries // 50
    for i in range(n_contr):
        words[i] = words[i] + "'" + _SUFFIXES[i % len(_SUFFIXES)]
    valence = np.round(rng.uniform(0.0, 1.0, size=n_entries), 4)
    valence[:4] = (0.0, 1.0, 0.5, 0.25)
    oov = _pseudo_words(rng, n_oov, taken)
    rejected = _pseudo_words(rng, 12, taken)

    lines = ["word\tvalence\tarousal\tdominance"]
    cased = rng.random(n_entries) < 0.2
    extra = rng.random(n_entries) < 0.5
    for word, v, up, ad in zip(words, valence, cased, extra):
        key = word.capitalize() if up else word
        lines.append(f"{key}\t{v}\t0.5\t0.5" if ad else f"{key}\t{v}")
    bad_values = ("1.5", "-0.2", "nan", "high", "", "2")
    for i, word in enumerate(rejected):
        if i % 2:
            lines.append(word)  # no valence field
        else:
            lines.append(f"{word}\t{bad_values[(i // 2) % len(bad_values)]}")
    order = np.concatenate(([0], 1 + rng.permutation(len(lines) - 1)))
    lines = [lines[i] for i in order]
    # duplicates go last: the last occurrence wins
    for i in rng.choice(n_entries, size=20, replace=False):
        valence[i] = round(float(rng.uniform(0.0, 1.0)), 4)
        lines.append(f"{words[i].upper()}\t{valence[i]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return LexiconTruth(
        words=words, valence=valence, oov=oov,
        by_word=dict(zip(words, valence.tolist())),
    )


def _persistent_noise(rng, n: int, hurst: float) -> np.ndarray:
    """Standardized noise with spectrum ~ f^(1-2H), by FFT filtering."""
    if n < 2:
        return rng.standard_normal(n)
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n)
    freqs[0] = freqs[1]
    spectrum *= freqs ** (0.5 - hurst)
    out = np.fft.irfft(spectrum, n)
    sd = out.std()
    return (out - out.mean()) / sd if sd > 0 else out


def _shape(kind: int, n: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n)
    return (
        t - 0.5,
        0.5 - t,
        0.5 - np.abs(2 * t - 1),
        np.abs(2 * t - 1) - 0.5,
        0.5 * np.sin(2 * np.pi * t),
        -0.5 * np.sin(2 * np.pi * t),
    )[kind % 6]


class _TextWriter:
    """Turns token index sequences into realistic text and ground truth."""

    def __init__(self, rng, lex: LexiconTruth):
        self.rng = rng
        self.lex = lex
        self.order = np.argsort(lex.valence, kind="stable")
        self.sorted_vals = lex.valence[self.order]
        vocab = lex.words + lex.oov
        # a typographic apostrophe turns an entry into an out-of-vocabulary token
        self.forms = [(w, w.capitalize(), w.upper(), w.replace("'", "’")) for w in vocab]
        self.apostrophe = np.array(["'" in w for w in vocab], dtype=bool)
        self.n_lex = len(lex.words)

    def story(self, n: int, level: np.ndarray | None, oov_share: float, constant: int | None):
        """Text of `n` tokens. `level` in [0, 1] steers the in-vocabulary
        valence; `constant` repeats one vocabulary word throughout."""
        rng = self.rng
        if constant is not None:
            idx = np.full(n, constant)
        else:
            near = np.searchsorted(self.sorted_vals, level)
            near = np.clip(near + rng.integers(-40, 41, size=n), 0, self.n_lex - 1)
            idx = self.order[near]
            oov = rng.random(n) < oov_share
            idx[oov] = self.n_lex + rng.integers(0, len(self.lex.oov), size=int(oov.sum()))
        case = rng.choice(4, size=n, p=(0.8, 0.12, 0.03, 0.05))
        seps = rng.integers(0, len(_SEPARATORS), size=n)
        forms = self.forms
        parts = [forms[i][c] + _SEPARATORS[s] for i, c, s in zip(idx.tolist(), case.tolist(), seps.tolist())]
        text = "".join(parts)
        # a typographic contraction (case 3 on an apostrophe word) misses the lexicon
        hit = (idx < self.n_lex) & ~((case == 3) & self.apostrophe[idx])
        values = np.full(n, NEUTRAL_VALENCE)
        values[hit] = self.lex.valence[idx[hit]]
        return text, int(hit.sum()), values


def _story_id(idx: int, rng) -> str:
    return f"s{idx:04d}_" + "".join(_LETTERS[rng.integers(0, 26, size=5)])


def write_corpus(
    rng, root: Path, lex: LexiconTruth, lengths, shapes=None, constant=(), empty=()
) -> list[StoryTruth]:
    """One `*.txt` per story. `constant` lists story indices of constant
    valence, `empty` those with no word token at all."""
    root.mkdir(parents=True, exist_ok=True)
    writer = _TextWriter(rng, lex)
    truths = []
    for idx, n in enumerate(lengths):
        n = int(n)
        sid = _story_id(idx, rng)
        oov_share = float(rng.uniform(0.35, 0.65))
        if idx in constant:
            # all out of vocabulary, or one apostrophe-free entry repeated
            n_lex = len(lex.words)
            word = n_lex + idx if idx % 2 else int(rng.integers(n_lex // 50, n_lex))
            text, hits, values = writer.story(n, None, oov_share, word)
        else:
            z = _persistent_noise(rng, n, float(rng.uniform(0.3, 0.9)))
            if shapes is not None:
                z = 0.6 * z + 4.0 * _shape(int(shapes[idx]), n)
            level = np.clip(0.5 + 0.15 * z, 0.0, 1.0)
            text, hits, values = writer.story(n, level, oov_share, None)
        if idx in empty:
            text = "1984 -- 2001. " + "#42, 7!\n" * 3
            hits, values, n = 0, np.empty(0), 0
        (root / f"{sid}.txt").write_text(text, encoding="utf-8")
        const = bool(values.size) and bool(np.all(values == values[0]))
        truths.append(StoryTruth(id=sid, n_tokens=n, hits=hits, values=values, constant=const))
    return truths


def _stratified(rng, n: int, low: float, high: float) -> np.ndarray:
    """One uniform draw from each of n equal strata of [low, high), shuffled.

    Sizes drawn this way keep the total work of a workload nearly the
    same across seeds, so timings of different seeds compare.
    """
    return low + (rng.permutation(n) + rng.random(n)) * (high - low) / n


def _exact_share(rng, n: int, share: float) -> np.ndarray:
    """Boolean mask with exactly round(share * n) true entries."""
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[: round(share * n)]] = True
    return mask


def _rating_counts(rng, n: int) -> np.ndarray:
    """Counts log-spread over [0, 50000)."""
    return np.floor(np.exp(_stratified(rng, n, 0.0, np.log(50000.0)))).astype(int) - 1


def _ratings_rows(rng, ids: list[str]):
    """(id, title, avg, count) rows with 2-decimal averages, so ratings tie."""
    avg = np.round(np.clip(rng.normal(3.6, 0.6, size=len(ids)), 1.0, 5.0), 2)
    count = _rating_counts(rng, len(ids))
    titles = [f"The {sid[6:].capitalize()}, Part {i % 7}" for i, sid in enumerate(ids)]
    return list(zip(ids, titles, avg.tolist(), count.tolist()))


@dataclass
class StudyInputs:
    corpus: Path
    lexicon: Path
    ratings: Path
    lex: LexiconTruth
    stories: list[StoryTruth]
    ratings_by_id: dict[str, tuple[float, int]]


def make_study(seed: int, root: Path, n_stories: int = 600) -> StudyInputs:
    """~600 stories, lengths log-spread from under 60 to ~20k tokens, a few
    constant-valence stories, a ~20k-entry lexicon and a ratings table
    with ties, unrated stories and unmatched or rejected rating rows."""
    rng = np.random.default_rng([seed, 1])
    root.mkdir(parents=True, exist_ok=True)
    lex = write_lexicon(rng, root / "lexicon.tsv")
    lengths = np.round(np.exp(_stratified(rng, n_stories, np.log(30), np.log(20000)))).astype(int)
    constant = {3, 10, 17, 24}
    lengths[list(constant)] = (150, 400, 900, 1800)
    stories = write_corpus(rng, root / "corpus", lex, lengths, constant=constant, empty={1})

    rated = [s.id for s, r in zip(stories, _exact_share(rng, len(stories), 0.92)) if r]
    ghosts = [f"g{i:04d}_missing" for i in range(25)]
    rows = _ratings_rows(rng, rated + ghosts)
    rejected = [(f"g{i:04d}_bad", "Bad Row", bad, 10) for i, bad in enumerate((5.5, 0.2, 7.0))]
    order = rng.permutation(len(rows))
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["id", "title", "avg_rating", "n_ratings"])
    out.writerows([rows[i] for i in order] + rejected)
    (root / "ratings.csv").write_text(buf.getvalue(), encoding="utf-8")
    by_id = {r[0]: (r[2], r[3]) for r in rows}
    return StudyInputs(
        corpus=root / "corpus",
        lexicon=root / "lexicon.tsv",
        ratings=root / "ratings.csv",
        lex=lex,
        stories=stories,
        ratings_by_id=by_id,
    )


@dataclass
class ClusterInputs:
    corpus: Path
    lexicon: Path
    stories: list[StoryTruth]
    k: int = 4


def make_cluster(seed: int, root: Path, n_stories: int = 300) -> ClusterInputs:
    """~300 stories of ~2k tokens drawn around six arc shapes."""
    rng = np.random.default_rng([seed, 2])
    root.mkdir(parents=True, exist_ok=True)
    lex = write_lexicon(rng, root / "lexicon.tsv")
    lengths = rng.integers(1600, 2401, size=n_stories)
    shapes = rng.integers(0, 6, size=n_stories)
    stories = write_corpus(rng, root / "corpus", lex, lengths, shapes=shapes)
    return ClusterInputs(corpus=root / "corpus", lexicon=root / "lexicon.tsv", stories=stories)


@dataclass
class LongSeriesInputs:
    pairs: list[tuple[float, int]]  # (target H, synth seed)
    n: int = 1 << 20


def make_long_series(seed: int, n_pairs: int = 3) -> LongSeriesInputs:
    """A few (target H, seed) pairs for `synth` at N = 2^20."""
    rng = np.random.default_rng([seed, 3])
    targets = rng.choice(np.array([0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]), size=n_pairs, replace=False)
    seeds = rng.integers(1, 2**31 - 1, size=n_pairs)
    return LongSeriesInputs(pairs=[(float(h), int(s)) for h, s in zip(targets, seeds)])


@dataclass
class CorrelateInputs:
    results: Path
    hurst: list[float | None]
    avg: list[float | None]
    count: list[int | None]
    thresholds: tuple[int, ...] = (0, 30)
    permutations: int = 3
    perm_seed: int = 0


def make_correlate(seed: int, root: Path, n_rows: int = 5000) -> CorrelateInputs:
    """A results table of ~5000 rows with tied ratings and tied exponents,
    unrated rows and rows without an estimate."""
    rng = np.random.default_rng([seed, 4])
    root.mkdir(parents=True, exist_ok=True)
    ids = [f"r{i:05d}" for i in range(n_rows)]
    hurst = rng.uniform(0.2, 1.0, size=n_rows)
    tie_src = rng.integers(0, n_rows, size=n_rows // 50)
    hurst[rng.integers(0, n_rows, size=n_rows // 50)] = hurst[tie_src]
    r2 = rng.uniform(0.8, 1.0, size=n_rows)
    avg = np.round(np.clip(3.4 + 1.2 * (hurst - 0.6) + rng.normal(0, 0.5, n_rows), 1, 5), 2)
    count = _rating_counts(rng, n_rows)
    status = rng.permutation(np.repeat([0, 1, 2], [n_rows * 92 // 100, n_rows * 5 // 100, n_rows * 3 // 100]))
    rated = _exact_share(rng, n_rows, 0.95)
    tokens = rng.integers(60, 20000, size=n_rows)
    cover = rng.uniform(0.3, 0.7, size=n_rows)

    h_out: list[float | None] = []
    avg_out: list[float | None] = []
    count_out: list[int | None] = []
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(RESULTS_HEADER)
    for i, sid in enumerate(ids):
        ok = status[i] == 0
        h = float(hurst[i]) if ok else None
        a, c = (float(avg[i]), int(count[i])) if rated[i] else (None, None)
        h_out.append(h)
        avg_out.append(a)
        count_out.append(c)
        out.writerow([
            sid, f"Row {i}", int(tokens[i]) if status[i] != 1 else 40, format(cover[i], ".17g"),
            "" if h is None else format(h, ".17g"),
            format(r2[i], ".17g") if ok else "",
            "" if a is None else format(a, ".17g"),
            "" if c is None else c,
            "true" if ok and 0.55 <= h <= 0.65 else "false",
            ("ok", "too_short", "degenerate")[status[i]],
        ])
    (root / "results.csv").write_text(buf.getvalue(), encoding="utf-8")
    return CorrelateInputs(
        results=root / "results.csv", hurst=h_out, avg=avg_out, count=count_out,
        perm_seed=int(rng.integers(0, 2**31 - 1)),
    )
