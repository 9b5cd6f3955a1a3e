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


#: The files `analyze` writes into --out, in the order it writes them.
ANALYZE_FILES = ("results.csv", "scatter.csv", "ratings_scatter.csv", "report.json")


def _outputs(args) -> list:
    """Each output of `args`' command, in the order its `_cmd_*` yields the
    writers, as (label, argument, path): a file flag's `--name`, its path
    and its path again, or for `analyze` each of ANALYZE_FILES under
    --out, labelled by its path. `path` is None for an output not asked
    for."""
    if args.command == "analyze":
        paths = (os.path.join(args.out, name) for name in ANALYZE_FILES)
        return [(path, args.out, path) for path in paths]
    paths = {flag: getattr(args, flag) for flag in ("out", "windows_out", "points_out", "tree_out")
             if hasattr(args, flag)}
    return [("--" + flag.replace("_", "-"), path, path) for flag, path in paths.items()]


@contextlib.contextmanager
def _staged(outputs):
    """Open a text sink for each (label, argument, path) of `outputs` and
    yield them in order: None for a path not asked for, stdout for `-`.

    An existing path that is not a regular file, such as /dev/null or a
    FIFO, is opened in place. Any other goes to a temporary file in the
    directory of its resolved path, with the mode `open(path, "w")` gives;
    an argument that is not the path itself, `analyze --out`, has its
    missing directories made. The temporary files replace their targets
    in order once the body has run; a failure before then removes every
    one and every directory made, and leaves each old file as it was.

    The OS judges every output before the body runs: one it refuses, or
    one whose target an earlier output is staged at, raises SentarcError
    naming the file opened in place, or else the argument.
    """
    staged = []  # (temporary file, target), renamed in order after the body
    made = []  # directories made, removed deepest first unless the body ran
    labels = {}  # the label of the output staged at each target
    try:
        with contextlib.ExitStack() as stack:
            sinks = []
            for label, argument, path in outputs:
                if path is None or path == "-":
                    sinks.append(None if path is None else sys.stdout)
                    continue
                try:
                    mode = os.stat(path).st_mode
                except FileNotFoundError:
                    umask = os.umask(0)
                    os.umask(umask)
                    mode = stat.S_IFREG | (0o666 & ~umask)
                except OSError as exc:
                    raise SentarcError(f"cannot write {argument}: {exc.strerror}") from None
                if not stat.S_ISREG(mode):
                    try:
                        sink = open(path, "w", encoding="utf-8", newline="")
                    except OSError as exc:
                        raise SentarcError(f"cannot write {path}: {exc.strerror}") from None
                    sinks.append(stack.enter_context(sink))
                    continue
                target = os.path.realpath(path)
                if target in labels:
                    raise SentarcError(
                        f"{labels[target]} and {label} both name {path}: "
                        "the second would replace the first"
                    )
                labels[target] = label
                directory, name = os.path.split(target)
                parent, missing = directory, []
                while argument != path and not os.path.lexists(parent):
                    missing.insert(0, parent)
                    parent = os.path.dirname(parent)
                try:
                    for new in missing:  # from the nearest existing ancestor down
                        os.mkdir(new)
                        made.append(new)
                    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
                except OSError as exc:
                    raise SentarcError(f"cannot write {argument}: {exc.strerror}") from None
                staged.append((tmp, target))
                sink = open(fd, "w", encoding="utf-8", newline="")
                sinks.append(stack.enter_context(sink))
                os.chmod(tmp, stat.S_IMODE(mode))
            yield sinks
        made.clear()  # kept from here on: a rename may already have filled one
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        for tmp, _ in staged:
            os.unlink(tmp)
        for directory in reversed(made):
            os.rmdir(directory)


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
        default=corpus_mod.usable_cpus(),
        help="worker processes over the stories, at least 1 (default: the CPUs "
        "this process may run on); outputs are the same at any value",
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


# Each `_cmd_*` reads its inputs and does its work, then yields one
# writer per output that `_outputs` lists, in that order: `writer(sink)`
# writes the output to an open text sink. No command touches its outputs'
# filesystem: `main` opens them all before the command runs.


def _cmd_arc(args):
    lexicon = load_lexicon(args.lexicon)
    text = inputs.read_text(args.story)
    series = arc_mod.arc_from_text(text, lexicon, smooth_fraction=args.smooth_fraction)
    yield lambda out: serialize.write_arc_csv(series, out)
    yield lambda out: serialize.write_window_csv(
        arc_mod.window_summary(series, args.window), out
    )


def _cmd_hurst(args):
    if (args.story is None) == (args.series is None):
        raise SentarcError("give exactly one of a story file or --series")
    if args.story is not None:
        if not args.lexicon:
            raise SentarcError("a story input requires --lexicon")
        text = inputs.read_text(args.story)
        values = arc_mod.arc_from_text(text, load_lexicon(args.lexicon)).raw
    else:
        values = serialize.read_series(inputs.read_text(args.series), args.series)
    result = estimate_hurst(values, args.order)
    yield lambda out: out.write(serialize.hurst_json(result))
    yield lambda out: serialize.write_points_csv(result, out)


def _cmd_analyze(args):
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

    yield lambda out: serialize.write_results_csv(records, out)
    yield lambda out: serialize.write_scatter_csv(records, out)
    yield lambda out: serialize.write_ratings_scatter_csv(records, out)
    yield lambda out: out.write(serialize.reports_json(reports))


def _cmd_correlate(args):
    text = inputs.read_text(args.results)
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
    yield lambda out: out.write(serialize.reports_json(reports))


def _cmd_cluster(args):
    lexicon = load_lexicon(args.lexicon)
    stories = corpus_mod.load_corpus(args.corpus)
    shapes = {}
    built = corpus_mod.build_shapes(stories, lexicon, args.smooth_fraction, args.jobs)
    for story, (n_tokens, shape) in zip(stories, built, strict=True):
        if shape is None:
            log.warning("%s: %d tokens, too short to cluster, skipped", story.id, n_tokens)
            continue
        shapes[story.id] = shape
    labels, merges = arc_mod.cluster_arcs(shapes, args.k)
    yield lambda out: serialize.write_labels_csv(labels, out)
    yield lambda out: serialize.write_merges_csv(merges, out)


def _cmd_synth(args):
    values = fgn(SynthSpec(target_h=args.h, n=args.n, seed=args.seed))
    yield lambda out: serialize.write_series_csv(values, out)


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
    p_synth.add_argument(
        "--h",
        type=_checked(float, lambda h: 0.0 < h < 1.0, "in (0, 1)"),
        required=True,
        help="target Hurst exponent in (0,1)",
    )
    p_synth.add_argument(
        "--n",
        type=_checked(int, lambda n: n >= 64 and n & (n - 1) == 0, "a power of two >= 64"),
        required=True,
        help="series length, a power of two >= 64",
    )
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
        with _staged(_outputs(args)) as sinks:
            for sink, write in zip(sinks, args.func(args), strict=True):
                if sink is not None:
                    write(sink)
        return 0
    except (SentarcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
