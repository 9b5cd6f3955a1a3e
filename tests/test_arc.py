import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentarc import (
    Lexicon,
    SentimentArc,
    arc_from_text,
    cluster_arcs,
    cluster_shape,
    sentiment_series,
    smooth,
    tokenize,
    window_summary,
)
from sentarc.arc import RESAMPLE_POINTS, _squared_distances

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def arc_from_values(values):
    lex = Lexicon(entries={})
    arc = sentiment_series(["x"] * len(values), lex)
    return arc.__class__(
        raw=np.asarray(values, dtype=float),
        smooth=np.asarray(values, dtype=float),
        coverage=arc.coverage,
    )


# ---------------------------------------------------------------- tokenize


def test_tokenize_strips_punctuation():
    assert tokenize("The Ugly Duckling!") == ["the", "ugly", "duckling"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_keeps_internal_apostrophe():
    assert tokenize("don't stop") == ["don't", "stop"]


def test_tokenize_digits_and_punctuation_separate():
    assert tokenize("a1b, c--d 'tis n'") == ["a", "b", "c", "d", "tis", "n"]


def test_tokenize_typographic_apostrophe():
    assert tokenize("don’t") == ["don’t"]


@given(st.text(max_size=200))
def test_tokenize_output_lowercased(text):
    for token in tokenize(text):
        assert token == token.lower()
        assert token


# ---------------------------------------------------------- sentiment_series


def test_all_oov_tokens_neutral():
    lex = Lexicon(entries={"bright": 0.9})
    arc = sentiment_series(["qq", "ww", "ee", "rr"], lex)
    assert arc.raw.tolist() == [0.5, 0.5, 0.5, 0.5]
    assert arc.coverage == 0.0


def test_empty_tokens():
    arc = sentiment_series([], Lexicon(entries={}))
    assert arc.raw.tolist() == []
    assert arc.coverage == 0.0
    assert arc.n_tokens == 0


def test_coverage_counts_hits():
    lex = Lexicon(entries={"a": 0.8, "b": 0.2})
    arc = sentiment_series(["a", "b", "zz", "yy"], lex)
    assert arc.coverage == 0.5
    assert arc.raw.tolist() == [0.8, 0.2, 0.5, 0.5]


@settings(max_examples=50)
@given(st.lists(st.sampled_from(["a", "b", "zz"]), min_size=1, max_size=40), st.randoms())
def test_series_permutation_equivariant(tokens, rnd):
    lex = Lexicon(entries={"a": 0.9, "b": 0.1})
    perm = list(range(len(tokens)))
    rnd.shuffle(perm)
    base = sentiment_series(tokens, lex).raw
    shuffled = sentiment_series([tokens[i] for i in perm], lex).raw
    assert shuffled.tolist() == [base[i] for i in perm]


# ------------------------------------------------------------ window_summary


def test_window_summary_constant_windows():
    arc = arc_from_values([0, 0, 1, 1])
    summary = window_summary(arc, 2)
    assert summary.means.tolist() == [0.0, 1.0]
    assert summary.stds.tolist() == [0.0, 0.0]


def test_window_summary_partial_tail():
    arc = arc_from_values([0.1, 0.2, 0.3, 0.4, 0.5])
    summary = window_summary(arc, 2)
    assert summary.means.size == 3
    assert summary.means[2] == 0.5
    assert summary.stds[2] == 0.0


def test_window_summary_population_std():
    arc = arc_from_values([0.0, 1.0])
    summary = window_summary(arc, 2)
    assert summary.means.tolist() == [0.5]
    assert summary.stds.tolist() == [0.5]


def test_window_summary_rejects_zero_window():
    with pytest.raises(ValueError):
        window_summary(arc_from_values([0.5]), 0)


@given(st.lists(unit_floats, min_size=1, max_size=80), st.integers(min_value=1, max_value=20))
def test_window_means_weighted_average_is_series_mean(values, width):
    arc = arc_from_values(values)
    summary = window_summary(arc, width)
    lengths = [
        min(width, len(values) - k * width) for k in range(summary.means.size)
    ]
    weighted = float(np.dot(summary.means, lengths)) / len(values)
    assert weighted == pytest.approx(np.mean(values), abs=1e-12)
    assert (summary.stds >= 0).all()


def window_summary_loop(arc, window_size):
    """One window at a time: the oracle for `window_summary`."""
    n_windows = -(-arc.n_tokens // window_size)
    means = np.empty(n_windows, dtype=float)
    stds = np.empty(n_windows, dtype=float)
    for k in range(n_windows):
        chunk = arc.raw[k * window_size : (k + 1) * window_size]
        means[k] = chunk.mean()
        stds[k] = chunk.std()
    return means, stds


@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_window_summary_matches_window_loop_bits(n, width, seed):
    arc = arc_from_values(np.random.default_rng(seed).random(n))
    summary = window_summary(arc, width)
    means, stds = window_summary_loop(arc, width)
    assert summary.means.tobytes() == means.tobytes()
    assert summary.stds.tobytes() == stds.tobytes()


# ------------------------------------------------------------------- smooth


def test_smooth_constant_is_identity():
    arc = smooth(arc_from_values([0.7] * 50), 0.1)
    assert arc.smooth.tolist() == [0.7] * 50


def test_smooth_single_token():
    arc = smooth(arc_from_values([0.3]), 0.05)
    assert arc.smooth.tolist() == [0.3]


def test_smooth_alternating_interior_flattened():
    values = [i % 2 for i in range(100)]
    arc = smooth(arc_from_values(values), 0.1)
    # effective window: round(0.1 * 100) = 10 forced odd -> 11
    out_of_band = np.sum((arc.smooth < 0.4) | (arc.smooth > 0.6))
    assert out_of_band <= 10  # at most w_s - 1 edge points escape
    assert (arc.smooth[5:-5] >= 0.4).all() and (arc.smooth[5:-5] <= 0.6).all()


def test_smooth_leaves_raw_untouched():
    values = [0.1, 0.9, 0.2, 0.8, 0.3]
    arc = smooth(arc_from_values(values), 0.5)
    assert arc.raw.tolist() == values


def test_smooth_bounded_by_raw_extremes():
    rng = np.random.default_rng(5)
    values = rng.uniform(0.2, 0.9, size=200)
    arc = smooth(arc_from_values(values), 0.07)
    assert arc.smooth.min() >= values.min() - 1e-12
    assert arc.smooth.max() <= values.max() + 1e-12


def test_smooth_rejects_bad_fraction():
    with pytest.raises(ValueError):
        smooth(arc_from_values([0.5, 0.6]), 0.0)


@settings(max_examples=80)
@given(st.lists(unit_floats, min_size=1, max_size=120), st.floats(min_value=0.01, max_value=1.0))
def test_smooth_mean_preserved_within_edge_bound(values, fraction):
    # edge truncation shifts the mean by at most ~0.11 * w/n * spread in the
    # worst case; the tighter spread/n bound is provable only for w <= 9
    arc = smooth(arc_from_values(values), fraction)
    n = len(values)
    width = max(3, round(fraction * n))
    if width % 2 == 0:
        width += 1
    spread = max(values) - min(values)
    deviation = abs(arc.smooth.mean() - np.mean(values))
    assert deviation <= 0.15 * width * spread / n + 1e-12
    if width <= 9:
        assert deviation <= spread / n + 1e-12


def test_smooth_mean_exact_for_constants():
    arc = smooth(arc_from_values([0.31] * 40), 0.3)
    assert arc.smooth.mean() == 0.31


@given(st.lists(unit_floats, min_size=2, max_size=120), st.floats(min_value=0.01, max_value=1.0))
def test_smooth_oracle_truncated_windows(values, fraction):
    arc = smooth(arc_from_values(values), fraction)
    n = len(values)
    width = max(3, round(fraction * n))
    if width % 2 == 0:
        width += 1
    half = width // 2
    expected = [
        np.mean(values[max(0, i - half) : min(n, i + half + 1)]) for i in range(n)
    ]
    np.testing.assert_allclose(arc.smooth, expected, atol=1e-12)


# ------------------------------------------------------------- cluster_arcs


def ward_oracle(shapes, ids, k):
    """Ward clustering straight from centroids: merge the pair whose merge
    raises the within-cluster sum of squares least, ties by smallest id pair."""
    clusters = {i: [i] for i in range(len(ids))}
    rep = {i: ids[i] for i in range(len(ids))}
    while len(clusters) > k:
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if b <= a:
                    continue
                pa = np.mean([shapes[i] for i in clusters[a]], axis=0)
                pb = np.mean([shapes[i] for i in clusters[b]], axis=0)
                na, nb = len(clusters[a]), len(clusters[b])
                delta = na * nb / (na + nb) * float(np.sum((pa - pb) ** 2))
                key = tuple(sorted((rep[a], rep[b])))
                if best is None or delta < best[0] - 1e-12 or (abs(delta - best[0]) <= 1e-12 and key < best[1]):
                    best = (delta, key, a, b)
        _, _, a, b = best
        clusters[a] = clusters[a] + clusters[b]
        rep[a] = min(rep[a], rep[b])
        del clusters[b]
    labels = {}
    for index, (_, c) in enumerate(sorted((rep[c], c) for c in clusters)):
        for i in clusters[c]:
            labels[ids[i]] = index
    return labels


def dense_squared_distances(shapes):
    """The m x m x length difference tensor and its einsum reduction: the
    reference _squared_distances must equal bit for bit, so that the 2e-12
    tie rule decides every merge as it did."""
    diff = shapes[:, None, :] - shapes[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def shapes_of(arcs):
    """`cluster_arcs`' input: each arc's shape under its id."""
    return {key: cluster_shape(arc) for key, arc in arcs.items()}


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def linear_arc(start, stop, jitter=0.0, n=120, seed=0):
    rng = np.random.default_rng(seed)
    values = np.linspace(start, stop, n) + jitter * rng.uniform(-1, 1, n)
    values = np.clip(values, 0.0, 1.0)
    return arc_from_values(values)


def test_identical_pair_clusters_together():
    a1 = arc_from_values([0.1, 0.2, 0.3, 0.4])
    a2 = arc_from_values([0.1, 0.2, 0.3, 0.4])
    far = arc_from_values([0.9, 0.1, 0.9, 0.1])
    labels, merges = cluster_arcs(shapes_of({"a1": a1, "a2": a2, "zz": far}), 2)
    assert labels["a1"] == labels["a2"] != labels["zz"]
    assert merges[0].a == "a1" and merges[0].b == "a2"
    assert merges[0].height == 0.0


def test_k_equals_arcs_no_merges():
    arcs = {
        "a": arc_from_values([0.1, 0.5, 0.9]),
        "b": arc_from_values([0.9, 0.5, 0.1]),
        "c": arc_from_values([0.5, 0.1, 0.5]),
    }
    labels, merges = cluster_arcs(shapes_of(arcs), 3)
    assert sorted(labels.values()) == [0, 1, 2]
    assert merges == []


def test_rising_vs_falling_matches_oracle():
    arcs = {
        "r1": linear_arc(0.2, 0.8, jitter=0.02, seed=1),
        "r2": linear_arc(0.3, 0.9, jitter=0.02, seed=2),
        "f1": linear_arc(0.8, 0.2, jitter=0.02, seed=3),
        "f2": linear_arc(0.9, 0.3, jitter=0.02, seed=4),
    }
    for key in arcs:
        arcs[key] = smooth(arcs[key], 0.05)
    labels, _ = cluster_arcs(shapes_of(arcs), 2)
    assert labels["r1"] == labels["r2"]
    assert labels["f1"] == labels["f2"]
    assert labels["r1"] != labels["f1"]

    shapes = [cluster_shape(a) for a in arcs.values()]
    oracle = ward_oracle(shapes, list(arcs), 2)
    assert labels == oracle


def test_cluster_matches_oracle_on_random_arcs():
    rng = np.random.default_rng(42)
    arcs = {}
    for i in range(9):
        values = np.clip(0.5 + 0.2 * np.cumsum(rng.normal(size=60)) / 8, 0, 1)
        arcs[f"s{i:02d}"] = smooth(arc_from_values(values), 0.1)
    shapes = [cluster_shape(a) for a in arcs.values()]
    ids = list(arcs)
    for k in (1, 2, 3, 5, 9):
        labels, _ = cluster_arcs(shapes_of(arcs), k)
        assert labels == ward_oracle(shapes, ids, k)
        assert set(labels.values()) == set(range(k))


def test_cluster_invariant_under_affine_rescale_of_one_arc():
    base = {
        "a": linear_arc(0.2, 0.8, jitter=0.03, seed=7),
        "b": linear_arc(0.25, 0.75, jitter=0.03, seed=8),
        "c": linear_arc(0.8, 0.2, jitter=0.03, seed=9),
        "d": linear_arc(0.75, 0.25, jitter=0.03, seed=10),
    }
    labels_before, _ = cluster_arcs(shapes_of(base), 2)
    rescaled = dict(base)
    scaled_values = 0.25 + 0.5 * base["a"].smooth  # positive affine, stays in [0,1]
    rescaled["a"] = arc_from_values(scaled_values)
    labels_after, _ = cluster_arcs(shapes_of(rescaled), 2)
    assert labels_before == labels_after


def test_cluster_rejects_more_clusters_than_arcs():
    with pytest.raises(ValueError):
        cluster_arcs(shapes_of({"a": arc_from_values([0.1, 0.2])}), 2)


def test_cluster_rejects_single_token_arc():
    # an arc under 2 tokens has no shape; `cluster` names and skips its story
    for values in ([0.1], []):
        with pytest.raises(ValueError, match=rf"^arc too short to resample \({len(values)} tokens\)$"):
            cluster_shape(arc_from_values(values))
    assert cluster_shape(arc_from_values([0.2, 0.3])).shape == (RESAMPLE_POINTS,)


def test_arcs_from_text_cluster_under_the_callers_ids():
    lex = Lexicon(entries={"good": 0.9, "bad": 0.1, "calm": 0.5})
    texts = {
        "rise": "bad bad calm good good",
        "fall": "good good calm bad bad",
        "rise2": "bad calm calm good good",
    }
    arcs = {key: arc_from_text(text, lex, 0.05) for key, text in texts.items()}
    labels, merges = cluster_arcs(shapes_of(arcs), 2)
    assert labels == {"fall": 0, "rise": 1, "rise2": 1}
    assert [(m.a, m.b, m.size) for m in merges] == [("rise", "rise2", 2)]


def test_arc_holds_only_its_series():
    assert [f.name for f in dataclasses.fields(SentimentArc)] == ["raw", "smooth", "coverage"]
    arc = arc_from_text("good bad calm", Lexicon(entries={"good": 0.9}))
    assert np.shares_memory(arc.raw, arc.smooth)
    assert arc.n_tokens == arc.raw.size == 3
    smoothed = smooth(arc, 0.5)
    assert not np.shares_memory(smoothed.raw, smoothed.smooth)
    assert smoothed.raw is arc.raw


@pytest.mark.parametrize("level", [0.1, 0.5, 0.9])
def test_constant_arc_has_zero_shape(level):
    assert cluster_shape(arc_from_values([level] * 5)).tolist() == [0.0] * 100


@st.composite
def tie_heavy_arcs(draw):
    """Arcs from a few base curves, with planted constant arcs (the zero
    shape, equidistant from every other shape), affine copies of one base
    (the same shape up to rounding) and shuffled input order."""
    bases = draw(
        st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=8), min_size=1, max_size=4)
    )
    variants = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(bases) - 1),
                st.sampled_from([0.5, 1.0, 2.0]),
                st.sampled_from([0.0, 0.05]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    levels = draw(st.lists(st.sampled_from([0.1, 0.5, 0.9]), min_size=1, max_size=3))
    values = [offset + scale * np.asarray(bases[b]) / 20 for b, scale, offset in variants]
    values += [[level] * 5 for level in levels]
    ids = draw(
        st.lists(
            st.text("abc", min_size=1, max_size=3),
            min_size=len(values),
            max_size=len(values),
            unique=True,
        )
    )
    pairs = [(sid, arc_from_values(v)) for v, sid in zip(values, ids)]
    return dict(draw(st.permutations(pairs)))


@settings(max_examples=150, deadline=None)
@given(tie_heavy_arcs())
def test_cluster_matches_oracle_on_tie_heavy_arcs(arcs):
    shapes = [cluster_shape(a) for a in arcs.values()]
    ids = list(arcs)
    for k in range(1, len(arcs) + 1):
        labels, merges = cluster_arcs(shapes_of(arcs), k)
        assert labels == ward_oracle(shapes, ids, k)
        assert len(merges) == len(arcs) - k
    stacked = np.array(shapes)
    assert_same_bits(_squared_distances(stacked), dense_squared_distances(stacked))


def test_cluster_order_independent():
    arcs = {
        "a": linear_arc(0.1, 0.9, jitter=0.05, seed=11),
        "b": linear_arc(0.9, 0.1, jitter=0.05, seed=12),
        "c": linear_arc(0.4, 0.6, jitter=0.05, seed=13),
        "d": linear_arc(0.6, 0.4, jitter=0.05, seed=14),
    }
    labels_fwd, merges_fwd = cluster_arcs(shapes_of(arcs), 2)
    labels_rev, merges_rev = cluster_arcs(shapes_of(dict(reversed(arcs.items()))), 2)
    assert labels_fwd == labels_rev
    assert merges_fwd == merges_rev


@pytest.mark.parametrize("m", [1, 2, 57, 400])
def test_squared_distances_bit_identical_to_dense(m):
    rng = np.random.default_rng(m)
    shapes = rng.normal(size=(m, RESAMPLE_POINTS))
    shapes[rng.random(m) < 0.2] = 0.0
    shapes[rng.random(m) < 0.2] = shapes[0]
    for case in (shapes, np.zeros_like(shapes)):
        assert_same_bits(_squared_distances(case), dense_squared_distances(case))


def test_cluster_memory_grows_with_m_squared():
    """At m = 400 the m x m x 100 difference tensor alone took 100 · 8m² bytes."""
    rng = np.random.default_rng(21)
    m = 400
    arcs = {f"s{i:03d}": arc_from_values(rng.uniform(size=150)) for i in range(m)}
    tracemalloc.start()
    try:
        cluster_arcs(shapes_of(arcs), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 8 * m * m
