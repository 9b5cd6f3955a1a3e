"""Command-line entry point.

Subcommands cover the pipeline stages: `arc` (valence series for one
story), `hurst` (scaling exponent of a story or numeric series),
`analyze` (whole-corpus study), `correlate` (re-run correlations on an
existing results table), `cluster` (group arc shapes), and `synth`
(fractional Gaussian noise with known exponent).

Exit codes: 0 success, 1 user error (bad arguments or input files),
2 internal error. Diagnostics go to stderr; data goes to files or stdout.
`-` names stdin for an input file and stdout for an output file; a
directory argument cannot be `-`.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import stat
import sys
import tempfile
from pathlib import Path

from . import __version__
from . import arc as arc_mod
from . import corpus as corpus_mod
from . import inputs, serialize
from .afa import MIN_SERIES_LENGTH, MIN_WINDOW, estimate_hurst
from .errors import SentarcError
from .lexicon import load_lexicon
from .synth import SynthSpec, fgn

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse with user errors mapped to exit code 1."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@contextlib.contextmanager
def _open_out(path: str | os.PathLike):
    """Text sink for an output path; `-` means stdout.

    A new or regular file is written through a temporary file in its
    directory, renamed over it only when the body succeeds, with the mode
    `open(path, "w")` gives. Symlinks and other existing paths that are not
    regular files, such as /dev/null, /dev/stdout or a FIFO, are written in
    place.
    """
    if path == "-":
        yield sys.stdout
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if os.path.islink(path) or not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    directory, name = os.path.split(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    except OSError as exc:
        exc.filename = path  # name the output, not the temporary file
        raise
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            os.chmod(tmp, stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _checked(cast, valid, rule: str):
    """An argparse type: cast(text), rejected unless valid(value); `rule`
    says what the value must be."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


def _int_at_least(minimum: int):
    return _checked(int, lambda value: value >= minimum, f">= {minimum}")


def _path(text: str) -> str:
    """An argparse type for a file or directory: any text but the empty
    string, which `Path` would read as the current directory."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _directory(text: str) -> str:
    """An argparse type for a directory: a `_path` other than `-`, since a
    directory can be neither stdin nor stdout."""
    if text == "-":
        raise argparse.ArgumentTypeError("a directory cannot be -")
    return _path(text)


def _add_order_flag(parser) -> None:
    parser.add_argument(
        "--order",
        type=_checked(int, lambda order: 0 <= order <= MIN_WINDOW - 2, f"in [0, {MIN_WINDOW - 2}]"),
        default=1,
        help=f"polynomial order of the local fits, 0 to {MIN_WINDOW - 2} (default 1): "
        f"a higher order fits the {MIN_WINDOW}-sample window exactly; "
        "windows are always log-spaced over [5, N/4]",
    )


def _add_jobs_flag(parser) -> None:
    parser.add_argument(
        "--jobs",
        type=_int_at_least(1),
        default=os.cpu_count() or 1,
        help="worker processes over the stories, at least 1 (default: logical "
        "cores); outputs are the same at any value",
    )


def _add_smooth_flag(parser) -> None:
    parser.add_argument(
        "--smooth-fraction",
        type=_checked(float, lambda fraction: 0.0 < fraction <= 1.0, "in (0, 1]"),
        default=0.05,
        metavar="F",
        help="moving-average window as a fraction of story length, in (0, 1] "
        "(default 0.05)",
    )


def _add_correlation_flags(parser, default_thresholds: str) -> None:
    parser.add_argument(
        "--min-ratings",
        type=_int_at_least(0),
        action="append",
        metavar="N",
        help="keep stories with more than N ratings, N >= 0; repeatable "
        f"(default: {default_thresholds})",
    )
    parser.add_argument(
        "--dcor-permutations",
        type=_int_at_least(0),
        nargs="?",
        const=9999,
        default=0,
        metavar="B",
        help="permutation p-value for the distance correlation from B >= 0 draws "
        "(default off, as is 0; 9999 draws when enabled bare)",
    )
    parser.add_argument(
        "--seed", type=_int_at_least(0), default=0, help="seed for permutation draws, at least 0"
    )


def _cmd_arc(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    text = inputs.read_text(args.story, SentarcError)
    series = arc_mod.arc_from_text(text, lexicon, smooth_fraction=args.smooth_fraction)
    with _open_out(args.out) as fh:
        serialize.write_arc_csv(series, fh)
    if args.windows_out:
        summary = arc_mod.window_summary(series, args.window)
        with _open_out(args.windows_out) as fh:
            serialize.write_window_csv(summary, fh)
    return 0


def _cmd_hurst(args) -> int:
    if (args.story is None) == (args.series is None):
        raise SentarcError("give exactly one of a story file or --series")
    if args.story is not None:
        if not args.lexicon:
            raise SentarcError("a story input requires --lexicon")
        text = inputs.read_text(args.story, SentarcError)
        values = arc_mod.arc_from_text(text, load_lexicon(args.lexicon)).raw
    else:
        values = serialize.read_series(inputs.read_text(args.series, SentarcError), args.series)
    result = estimate_hurst(values, args.order)
    with _open_out(args.out) as fh:
        fh.write(serialize.hurst_json(result))
    if args.points_out:
        with _open_out(args.points_out) as fh:
            serialize.write_points_csv(result, fh)
    return 0


def _cmd_analyze(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    stories = corpus_mod.load_corpus(args.corpus)
    ratings = corpus_mod.load_ratings(args.ratings)
    mapping = corpus_mod.load_id_mapping(args.mapping) if args.mapping else None
    records = corpus_mod.analyze_corpus(
        stories,
        lexicon,
        order=args.order,
        ratings=ratings,
        mapping=mapping,
        jobs=args.jobs,
    )

    thresholds = sorted(set(args.min_ratings if args.min_ratings else [0, 30]))
    reports = []
    for threshold in thresholds:
        try:
            reports.append(
                corpus_mod.correlate(
                    records,
                    min_ratings=threshold,
                    dcor_permutations=args.dcor_permutations,
                    seed=args.seed,
                )
            )
        except SentarcError as exc:
            log.warning("threshold %d skipped: %s", threshold, exc)

    # every output is computed before the first file is written
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _open_out(out_dir / "results.csv") as fh:
        serialize.write_results_csv(records, fh)
    with _open_out(out_dir / "scatter.csv") as fh:
        serialize.write_scatter_csv(records, fh)
    with _open_out(out_dir / "ratings_scatter.csv") as fh:
        serialize.write_ratings_scatter_csv(records, fh)
    with _open_out(out_dir / "report.json") as fh:
        fh.write(serialize.reports_json(reports))
    return 0


def _cmd_correlate(args) -> int:
    text = inputs.read_text(args.results, SentarcError)
    records = serialize.read_results_csv(text, args.results)
    thresholds = sorted(set(args.min_ratings if args.min_ratings else [30]))
    reports = []
    for threshold in thresholds:
        try:
            reports.append(
                corpus_mod.correlate(
                    records,
                    min_ratings=threshold,
                    dcor_permutations=args.dcor_permutations,
                    seed=args.seed,
                )
            )
        except SentarcError as exc:
            raise SentarcError(f"threshold {threshold}: {exc}") from exc
    with _open_out(args.out) as fh:
        fh.write(serialize.reports_json(reports))
    return 0


def _cmd_cluster(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    stories = corpus_mod.load_corpus(args.corpus)
    arcs = {}
    built = corpus_mod.build_arcs(stories, lexicon, args.smooth_fraction, args.jobs)
    for story, series in zip(stories, built, strict=True):
        if series.n_tokens < 2:
            log.warning("%s: %d tokens, too short to cluster, skipped", story.id, series.n_tokens)
            continue
        arcs[story.id] = series
    labels, merges = arc_mod.cluster_arcs(arcs, args.k)
    with _open_out(args.out) as fh:
        serialize.write_labels_csv(labels, fh)
    if args.tree_out:
        with _open_out(args.tree_out) as fh:
            serialize.write_merges_csv(merges, fh)
    return 0


def _cmd_synth(args) -> int:
    values = fgn(SynthSpec(target_h=args.h, n=args.n, seed=args.seed))
    with _open_out(args.out) as fh:
        serialize.write_series_csv(values, fh)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="sentarc",
        description="Story arcs, Hurst exponents and rating correlations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_arc = sub.add_parser(
        "arc",
        help="emit one story's valence series",
        description="Tokenize a story and emit its per-word valence series.",
        epilog=(
            "Output columns: index (token position), raw (valence in [0,1]), "
            "smooth (centered moving average). The --windows-out file has "
            "columns: window (index), mean, std (population) over consecutive "
            "windows of --window tokens."
        ),
    )
    p_arc.add_argument("story", type=_path, help="story text file, or - for stdin")
    p_arc.add_argument("--lexicon", type=_path, required=True, help="tab-separated valence lexicon")
    _add_smooth_flag(p_arc)
    p_arc.add_argument(
        "--window",
        type=_int_at_least(1),
        default=30,
        help="summary window in tokens, at least 1 (default 30)",
    )
    p_arc.add_argument(
        "--out", type=_path, default="-", help="arc CSV destination (default stdout)"
    )
    p_arc.add_argument(
        "--windows-out", type=_path, metavar="PATH", help="also write windowed mean/std CSV"
    )
    p_arc.set_defaults(func=_cmd_arc)

    p_hurst = sub.add_parser(
        "hurst",
        help="estimate a series' Hurst exponent",
        description=(
            "Estimate the Hurst exponent of a story's raw valence series or of "
            "a one-column numeric CSV."
        ),
        epilog=(
            "Output JSON fields: hurst (log-log slope), intercept, r_squared "
            "(fit quality in [0,1]), n_points (windows used). The --points-out "
            "file has columns: log2_w, log2_F."
        ),
    )
    p_hurst.add_argument("story", type=_path, nargs="?", help="story text file (needs --lexicon)")
    p_hurst.add_argument(
        "--series", type=_path, metavar="PATH", help="one-column numeric CSV, or -"
    )
    p_hurst.add_argument("--lexicon", type=_path, help="tab-separated valence lexicon")
    _add_order_flag(p_hurst)
    p_hurst.add_argument("--out", type=_path, default="-", help="JSON destination (default stdout)")
    p_hurst.add_argument(
        "--points-out", type=_path, metavar="PATH", help="also write the scaling points CSV"
    )
    p_hurst.set_defaults(func=_cmd_hurst)

    p_analyze = sub.add_parser(
        "analyze",
        help="run the full corpus study",
        description=(
            "Analyze every story in a corpus directory, join ratings, and write "
            "the study outputs into --out."
        ),
        epilog=(
            "Files written: results.csv with columns id, title, n_tokens, "
            "coverage, hurst, r_squared, avg_rating, n_ratings, sweet_spot "
            f"(true when {corpus_mod.SWEET_SPOT_LOW} <= hurst <= "
            f"{corpus_mod.SWEET_SPOT_HIGH}), status (ok when hurst is given, "
            f"too_short when n_tokens < {MIN_SERIES_LENGTH}, degenerate "
            "otherwise); report.json, an array with one correlation report "
            f"per --min-ratings threshold (fields: {', '.join(serialize.REPORT_KEYS)}); "
            "scatter.csv with columns hurst, avg_rating, n_ratings, title; "
            "ratings_scatter.csv with columns id, n_ratings, avg_rating."
        ),
    )
    p_analyze.add_argument(
        "--corpus", type=_directory, required=True, help="directory of *.txt stories"
    )
    p_analyze.add_argument(
        "--lexicon", type=_path, required=True, help="tab-separated valence lexicon"
    )
    p_analyze.add_argument(
        "--ratings", type=_path, required=True, help="CSV id,title,avg_rating,n_ratings"
    )
    p_analyze.add_argument(
        "--mapping", type=_path, metavar="PATH", help="CSV file_id,ratings_id join aliases"
    )
    p_analyze.add_argument("--out", type=_directory, required=True, help="output directory")
    _add_correlation_flags(p_analyze, "0 and 30")
    _add_jobs_flag(p_analyze)
    _add_order_flag(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_corr = sub.add_parser(
        "correlate",
        help="correlations from an existing results.csv",
        description="Re-run the rating correlations on a results.csv produced by analyze.",
        epilog=(
            "Output: a JSON array with one report per --min-ratings threshold; "
            f"fields: {', '.join(serialize.REPORT_KEYS)}."
        ),
    )
    p_corr.add_argument("--results", type=_path, required=True, help="results.csv from analyze")
    _add_correlation_flags(p_corr, "30")
    p_corr.add_argument("--out", type=_path, default="-", help="JSON destination (default stdout)")
    p_corr.set_defaults(func=_cmd_correlate)

    p_cluster = sub.add_parser(
        "cluster",
        help="group stories by arc shape",
        description=(
            "Cluster the corpus' smoothed arcs (resampled to 100 points and "
            "z-normalized) with Ward-linkage agglomeration."
        ),
        epilog=(
            "Output columns: id, cluster (0..k-1). The --tree-out file has "
            "columns: step, cluster_a, cluster_b (smallest member ids), "
            "height (merge distance), size (merged cluster size)."
        ),
    )
    p_cluster.add_argument(
        "--corpus", type=_directory, required=True, help="directory of *.txt stories"
    )
    p_cluster.add_argument(
        "--lexicon", type=_path, required=True, help="tab-separated valence lexicon"
    )
    p_cluster.add_argument(
        "--k", type=_int_at_least(1), required=True, help="number of clusters, at least 1"
    )
    _add_smooth_flag(p_cluster)
    _add_jobs_flag(p_cluster)
    p_cluster.add_argument(
        "--out", type=_path, default="-", help="labels CSV destination (default stdout)"
    )
    p_cluster.add_argument(
        "--tree-out", type=_path, metavar="PATH", help="also write the merge tree CSV"
    )
    p_cluster.set_defaults(func=_cmd_cluster)

    p_synth = sub.add_parser(
        "synth",
        help="generate fractional Gaussian noise",
        description=(
            "Generate fractional Gaussian noise with a known Hurst exponent, "
            "one value per line, consumable by `hurst --series`."
        ),
        epilog="Output: a single numeric column with no header.",
    )
    p_synth.add_argument("--h", type=float, required=True, help="target Hurst exponent in (0,1)")
    p_synth.add_argument("--n", type=int, required=True, help="series length, a power of two >= 64")
    p_synth.add_argument(
        "--seed", type=_int_at_least(0), default=1, help="generator seed, at least 0 (default 1)"
    )
    p_synth.add_argument("--out", type=_path, default="-", help="CSV destination (default stdout)")
    p_synth.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        inputs_named = ("story", "series", "lexicon", "ratings", "mapping", "results")
        if sum(getattr(args, name, None) == "-" for name in inputs_named) > 1:
            raise SentarcError("at most one input may be -: stdin can be read only once")
        return args.func(args)
    except (SentarcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
