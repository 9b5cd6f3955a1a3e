"""sentarc: word-valence story arcs, Hurst exponents via adaptive fractal
analysis, and correlations against reader ratings."""

# a literal above the imports: pyproject.toml reads it without importing numpy
__version__ = "0.1.0"

from .afa import (
    AfaResult,
    default_window_sizes,
    estimate_hurst,
    fluctuation,
    global_trend,
    profile,
)
from .arc import (
    Merge,
    SentimentArc,
    WindowSummary,
    arc_from_text,
    cluster_arcs,
    cluster_shape,
    sentiment_series,
    smooth,
    tokenize,
    window_summary,
)
from .corpus import (
    RatingRecord,
    Story,
    StoryRecord,
    analyze_corpus,
    build_shapes,
    correlate,
    load_corpus,
    load_id_mapping,
    load_ratings,
)
from .errors import AfaError, SentarcError
from .lexicon import Lexicon, load_lexicon
from .stats import (
    CorrelationReport,
    distance_correlation,
    distance_correlation_test,
    kendall_tau,
    midranks,
    pearson,
    spearman,
)
from .synth import SynthSpec, fgn, fgn_autocovariance, white_noise

__all__ = [
    "AfaResult",
    "AfaError",
    "CorrelationReport",
    "Lexicon",
    "Merge",
    "RatingRecord",
    "SentarcError",
    "SentimentArc",
    "Story",
    "StoryRecord",
    "SynthSpec",
    "WindowSummary",
    "analyze_corpus",
    "arc_from_text",
    "build_shapes",
    "cluster_arcs",
    "cluster_shape",
    "correlate",
    "default_window_sizes",
    "distance_correlation",
    "distance_correlation_test",
    "estimate_hurst",
    "fgn",
    "fgn_autocovariance",
    "fluctuation",
    "global_trend",
    "kendall_tau",
    "load_corpus",
    "load_id_mapping",
    "load_lexicon",
    "load_ratings",
    "midranks",
    "pearson",
    "profile",
    "sentiment_series",
    "smooth",
    "spearman",
    "tokenize",
    "white_noise",
    "window_summary",
]
