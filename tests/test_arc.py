import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentarc import (
    Lexicon,
    cluster_arcs,
    sentiment_series,
    smooth,
    tokenize,
    window_summary,
)
from sentarc.arc import RESAMPLE_POINTS, _squared_distances

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def arc_from_values(values, story_id="s"):
    lex = Lexicon(entries={})
    arc = sentiment_series(["x"] * len(values), lex, story_id=story_id)
    return arc.__class__(
        story_id=story_id,
        raw=np.asarray(values, dtype=float),
        smooth=np.asarray(values, dtype=float),
        coverage=arc.coverage,
        n_tokens=len(values),
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


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def linear_arc(story_id, start, stop, jitter=0.0, n=120, seed=0):
    rng = np.random.default_rng(seed)
    values = np.linspace(start, stop, n) + jitter * rng.uniform(-1, 1, n)
    values = np.clip(values, 0.0, 1.0)
    return arc_from_values(values, story_id=story_id)


def test_identical_pair_clusters_together():
    a1 = arc_from_values([0.1, 0.2, 0.3, 0.4], "a1")
    a2 = arc_from_values([0.1, 0.2, 0.3, 0.4], "a2")
    far = arc_from_values([0.9, 0.1, 0.9, 0.1], "zz")
    labels, merges = cluster_arcs([a1, a2, far], 2)
    assert labels["a1"] == labels["a2"] != labels["zz"]
    assert merges[0].a == "a1" and merges[0].b == "a2"
    assert merges[0].height == 0.0


def test_k_equals_arcs_no_merges():
    arcs = [
        arc_from_values([0.1, 0.5, 0.9], "a"),
        arc_from_values([0.9, 0.5, 0.1], "b"),
        arc_from_values([0.5, 0.1, 0.5], "c"),
    ]
    labels, merges = cluster_arcs(arcs, 3)
    assert sorted(labels.values()) == [0, 1, 2]
    assert merges == []


def test_rising_vs_falling_matches_oracle():
    arcs = [
        linear_arc("r1", 0.2, 0.8, jitter=0.02, seed=1),
        linear_arc("r2", 0.3, 0.9, jitter=0.02, seed=2),
        linear_arc("f1", 0.8, 0.2, jitter=0.02, seed=3),
        linear_arc("f2", 0.9, 0.3, jitter=0.02, seed=4),
    ]
    for k in range(len(arcs)):
        arcs[k] = smooth(arcs[k], 0.05)
    labels, _ = cluster_arcs(arcs, 2)
    assert labels["r1"] == labels["r2"]
    assert labels["f1"] == labels["f2"]
    assert labels["r1"] != labels["f1"]

    from sentarc.arc import _cluster_shape

    shapes = [_cluster_shape(a) for a in arcs]
    oracle = ward_oracle(shapes, [a.story_id for a in arcs], 2)
    assert labels == oracle


def test_cluster_matches_oracle_on_random_arcs():
    rng = np.random.default_rng(42)
    arcs = []
    for i in range(9):
        values = np.clip(0.5 + 0.2 * np.cumsum(rng.normal(size=60)) / 8, 0, 1)
        arcs.append(smooth(arc_from_values(values, f"s{i:02d}"), 0.1))
    from sentarc.arc import _cluster_shape

    shapes = [_cluster_shape(a) for a in arcs]
    ids = [a.story_id for a in arcs]
    for k in (1, 2, 3, 5, 9):
        labels, _ = cluster_arcs(arcs, k)
        assert labels == ward_oracle(shapes, ids, k)
        assert set(labels.values()) == set(range(k))


def test_cluster_invariant_under_affine_rescale_of_one_arc():
    base = [
        linear_arc("a", 0.2, 0.8, jitter=0.03, seed=7),
        linear_arc("b", 0.25, 0.75, jitter=0.03, seed=8),
        linear_arc("c", 0.8, 0.2, jitter=0.03, seed=9),
        linear_arc("d", 0.75, 0.25, jitter=0.03, seed=10),
    ]
    labels_before, _ = cluster_arcs(base, 2)
    rescaled = base[:]
    scaled_values = 0.25 + 0.5 * base[0].smooth  # positive affine, stays in [0,1]
    rescaled[0] = arc_from_values(scaled_values, "a")
    labels_after, _ = cluster_arcs(rescaled, 2)
    assert labels_before == labels_after


def test_cluster_rejects_more_clusters_than_arcs():
    with pytest.raises(ValueError):
        cluster_arcs([arc_from_values([0.1, 0.2], "a")], 2)


def test_cluster_rejects_single_token_arc():
    with pytest.raises(ValueError):
        cluster_arcs([arc_from_values([0.1], "a"), arc_from_values([0.2, 0.3], "b")], 1)


@pytest.mark.parametrize("level", [0.1, 0.5, 0.9])
def test_constant_arc_has_zero_shape(level):
    from sentarc.arc import _cluster_shape

    assert _cluster_shape(arc_from_values([level] * 5)).tolist() == [0.0] * 100


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
    arcs = [arc_from_values(v, sid) for v, sid in zip(values, ids)]
    return draw(st.permutations(arcs))


@settings(max_examples=150, deadline=None)
@given(tie_heavy_arcs())
def test_cluster_matches_oracle_on_tie_heavy_arcs(arcs):
    from sentarc.arc import _cluster_shape

    shapes = [_cluster_shape(a) for a in arcs]
    ids = [a.story_id for a in arcs]
    for k in range(1, len(arcs) + 1):
        labels, merges = cluster_arcs(arcs, k)
        assert labels == ward_oracle(shapes, ids, k)
        assert len(merges) == len(arcs) - k
    stacked = np.array(shapes)
    assert_same_bits(_squared_distances(stacked), dense_squared_distances(stacked))


def test_cluster_order_independent():
    arcs = [
        linear_arc("a", 0.1, 0.9, jitter=0.05, seed=11),
        linear_arc("b", 0.9, 0.1, jitter=0.05, seed=12),
        linear_arc("c", 0.4, 0.6, jitter=0.05, seed=13),
        linear_arc("d", 0.6, 0.4, jitter=0.05, seed=14),
    ]
    labels_fwd, merges_fwd = cluster_arcs(arcs, 2)
    labels_rev, merges_rev = cluster_arcs(arcs[::-1], 2)
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
    arcs = [arc_from_values(rng.uniform(size=150), f"s{i:03d}") for i in range(m)]
    tracemalloc.start()
    try:
        cluster_arcs(arcs, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 8 * m * m
