#!/usr/bin/env python3
"""Check that two source trees of sentarc write the same bytes.

Usage:
    python scripts/same_bytes.py PARENT_SRC CHANGE_SRC [--seeds 0 1 2]

PARENT_SRC and CHANGE_SRC are the `src/` directories of two checkouts.
Each seed's inputs are built once with perfbench/gen.py, at the sizes of
the benchmark workloads. One fixed matrix of commands then runs on them in
fresh `python -m sentarc` processes, once with each tree on PYTHONPATH
(the two trees side by side), each tree in a run directory of its own:

- `analyze` at --jobs 1, with --dcor-permutations, --seed and a --mapping
  file, and at --jobs 2; each followed by `correlate` on its results.csv
  at thresholds 0 and 30;
- `analyze` at --jobs 2 on a copy of the study corpus plus a file that is
  not UTF-8 and two files whose stems are equal in NFC, so the skip
  warnings are compared too;
- `correlate` on the generated results table;
- `cluster --k 4 --tree-out` on the cluster corpus, and at --jobs 1 on the
  study corpus, whose empty story is skipped with a warning and whose
  constant stories have the all-zero shape;
- `arc STORY --windows-out`, once to files and once to stdout;
- `hurst STORY --points-out`;
- `synth`, then `hurst --series --points-out -`, for each long-series pair;
- the refusals of an output: `synth --out` in a missing directory and
  onto an existing directory, `analyze --out` an existing file, and
  `hurst --out` and `--points-out` naming one file;
- the refusals of the inputs, each with an `--out` file that must not be
  left behind: `hurst` with no input, `hurst STORY` without --lexicon,
  `hurst STORY --series S --lexicon L`, `hurst --series S --lexicon L`,
  and `arc - --lexicon -`;
- `analyze` on an empty corpus with a new `--out new/deeper`, which fails
  after its outputs are opened, so that the listing below shows what the
  failure left;
- with the first seed, every `--help`, `--version` and a missing input.

Every command runs with COLUMNS=80, so `--help` wraps alike on every host,
and with stdin on /dev/null, so no command waits on a terminal.
After each command the two runs are compared: exit code, stdout, stderr
(each with its run directory replaced by `<run>`) and every file the
command writes, byte for byte. Once all have run, the two run
directories must list the same files. The first difference is printed
with its line and the script exits 1; it exits 0 when every command
matches.

An intended difference is named in WAIVERS, and each use of a waiver is
printed as `waived: ...`.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import unicodedata
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

#: Generator sizes of the benchmark workloads: stories of the study and of
#: the cluster corpus, rows of the correlate table, and the length and
#: number of the long series.
SIZES = {"study": 600, "cluster": 300, "correlate": 5000, "n": 1 << 20, "pairs": 3}

ANALYZE_FILES = ("results.csv", "scatter.csv", "ratings_scatter.csv", "report.json")
SUBCOMMANDS = ("arc", "hurst", "analyze", "correlate", "cluster", "synth")

# the same for every seed, so run with the first one only
FIXED = [([sub, "--help"], []) for sub in SUBCOMMANDS] + [
    (["--help"], []),
    (["--version"], []),
    (["hurst", "--series", "missing.csv"], []),
]

#: Intended differences, as (argv, parent bytes, change bytes, reason). For
#: that argv only, the parent's bytes in its stdout are replaced by the
#: change's before the two runs are compared. Once the parent writes the
#: new bytes itself, a waiver matches nothing, so it expires by itself.
WAIVERS = []


def matrix(seed: int, root: Path, sizes: dict) -> list[tuple[list[str], list[str]]]:
    """Build the seed's inputs under `root` and return the commands to run
    on them, as (argv, files the command writes), both relative to the run
    directory."""
    study = gen.make_study(seed, root / "study", sizes["study"])
    cluster = gen.make_cluster(seed, root / "cluster", sizes["cluster"])
    table = gen.make_correlate(seed, root / "correlate", sizes["correlate"])
    pairs = gen.make_long_series(seed, sizes["pairs"]).pairs
    ids = [s.id for s in study.stories]
    # an alias onto an unmatched rating row, one between two stories, and
    # a repeated file_id that the reader rejects with a warning
    mapping = root / "mapping.csv"
    mapping.write_text(
        f"file_id,ratings_id\n{ids[0]},g0000_missing\n{ids[2]},{ids[4]}\n{ids[0]},{ids[5]}\n"
    )
    story = str(study.corpus / f"{max(study.stories, key=lambda s: s.n_tokens).id}.txt")
    lexicon = ["--lexicon", str(study.lexicon)]
    analyze = ["analyze", "--corpus", str(study.corpus), *lexicon, "--ratings", str(study.ratings)]
    thresholds = ["--min-ratings", "0", "--min-ratings", "30"]

    commands = []
    for jobs, extra in ((1, ["--dcor-permutations", "19", "--seed", "3", "--mapping", str(mapping)]),
                        (2, [])):
        out = f"study-jobs{jobs}"
        commands += [
            ([*analyze, "--jobs", str(jobs), *extra, "--out", out], [f"{out}/{f}" for f in ANALYZE_FILES]),
            (["correlate", "--results", f"{out}/results.csv", *thresholds], []),
        ]
    # load_corpus skips the one file that does not decode and the second
    # of two stems equal in NFC, each with a warning
    skips = root / "skips"
    shutil.copytree(study.corpus, skips)
    (skips / "latin1.txt").write_bytes("blåbær".encode("latin-1"))
    texts = sorted(study.corpus.glob("*.txt"))
    for form, text in (("NFC", texts[-1]), ("NFD", texts[-2])):
        shutil.copyfile(text, skips / f"{unicodedata.normalize(form, 'blåbær')}.txt")
    commands.append(
        (["analyze", "--corpus", str(skips), *lexicon, "--ratings", str(study.ratings),
          "--jobs", "2", "--out", "skips"], [f"skips/{f}" for f in ANALYZE_FILES])
    )
    commands += [
        (["correlate", "--results", str(table.results), *thresholds, "--dcor-permutations", "3",
          "--out", "table.json"], ["table.json"]),
        (["cluster", "--corpus", str(cluster.corpus), "--lexicon", str(cluster.lexicon), "--k", "4",
          "--out", "labels.csv", "--tree-out", "tree.csv"], ["labels.csv", "tree.csv"]),
        (["cluster", "--corpus", str(study.corpus), *lexicon, "--k", "4", "--jobs", "1",
          "--out", "study-labels.csv", "--tree-out", "study-tree.csv"],
         ["study-labels.csv", "study-tree.csv"]),
        (["arc", story, *lexicon, "--out", "arc.csv", "--windows-out", "windows.csv"],
         ["arc.csv", "windows.csv"]),
        (["arc", story, *lexicon, "--windows-out", "-"], []),
        (["hurst", story, *lexicon, "--out", "hurst.json", "--points-out", "points.csv"],
         ["hurst.json", "points.csv"]),
    ]
    for i, (h, synth_seed) in enumerate(pairs):
        series = f"series-{i}.csv"
        commands += [
            (["synth", "--h", repr(h), "--n", str(sizes["n"]), "--seed", str(synth_seed),
              "--out", series], [series]),
            (["hurst", "--series", series, "--points-out", "-"], []),
        ]
    directory, file, empty = root / "a-directory", root / "a-file", root / "empty-corpus"
    directory.mkdir()
    file.write_text("old bytes\n")
    empty.mkdir()
    short = root / "short-series.csv"
    short.write_text("".join(f"{i}\n" for i in range(200)))
    synth = ["synth", "--h", "0.7", "--n", "64", "--out"]
    commands += [
        ([*synth, "missing/x.csv"], []),
        ([*synth, str(directory)], []),
        ([*analyze, "--out", str(file)], []),
        (["hurst", "--series", str(short), "--out", "x.json", "--points-out", "x.json"], []),
        (["hurst", "--out", "x.json"], []),
        (["hurst", story, "--out", "x.json"], []),
        (["hurst", story, "--series", str(short), *lexicon, "--out", "x.json"], []),
        (["hurst", "--series", str(short), *lexicon, "--out", "x.json"], []),
        (["arc", "-", "--lexicon", "-", "--out", "x.csv"], []),
        (["analyze", "--corpus", str(empty), *lexicon, "--ratings", str(study.ratings),
          "--out", "new/deeper"], []),
    ]
    return commands


def run(argv: list[str], src: Path, cwd: Path) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of `python -m sentarc ARGV` run from
    `src` in `cwd`, with `cwd` in the streams replaced by `<run>`."""
    proc = subprocess.run(
        [sys.executable, "-m", "sentarc", *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"},
        stdin=subprocess.DEVNULL,
        capture_output=True,
    )
    here = os.fsencode(cwd)
    return proc.returncode, proc.stdout.replace(here, b"<run>"), proc.stderr.replace(here, b"<run>")


def difference(what: str, parent: bytes | None, change: bytes | None) -> str | None:
    """Where `parent` and `change` first differ, or None if they do not;
    None stands for a file that was not written."""
    if parent == change:
        return None
    if parent is None or change is None:
        return f"{what}: written only by the {'parent' if change is None else 'change'}"
    pairs = itertools.zip_longest(parent.splitlines(keepends=True), change.splitlines(keepends=True))
    line, (old, new) = next((i, pair) for i, pair in enumerate(pairs, 1) if pair[0] != pair[1])
    return f"{what}:{line}: parent {old!r}, change {new!r}"


def read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def compare(
    commands, srcs: tuple[Path, Path], runs: tuple[Path, Path], waivers=WAIVERS
) -> str | None:
    """Run each command with both trees, in order; the first difference
    between the two runs, once `waivers` are applied, or None."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        for argv, files in commands:
            parent, change = pool.map(run, [argv, argv], srcs, runs)
            stdout = parent[1]
            for waived, old, new, reason in waivers:
                if waived == argv and old in stdout:
                    stdout = stdout.replace(old, new)
                    print(f"waived: sentarc {shlex.join(argv)}: {reason}")
            found = [
                f"exit code: parent {parent[0]}, change {change[0]}" if parent[0] != change[0] else None,
                difference("stdout", stdout, change[1]),
                difference("stderr", parent[2], change[2]),
            ]
            found += [difference(f, read(runs[0] / f), read(runs[1] / f)) for f in files]
            if first := next(filter(None, found), None):
                return f"sentarc {shlex.join(argv)}\n  {first}"
    listed = [sorted(str(p.relative_to(run)) for p in run.rglob("*")) for run in runs]
    if listed[0] != listed[1]:
        return f"files left in the run directory: parent {listed[0]}, change {listed[1]}"
    return None


def main(argv=None, sizes: dict | None = None) -> int:
    """`sizes` overrides SIZES, the generator sizes, for a quicker check."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="src/ directory of the parent tree")
    parser.add_argument("change_src", type=Path, help="src/ directory of the changed tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2], help="input seeds")
    args = parser.parse_args(argv)
    srcs = (args.parent_src.resolve(), args.change_src.resolve())
    for src in srcs:
        if not (src / "sentarc" / "__init__.py").is_file():
            parser.error(f"{src} holds no sentarc package")
    sizes = {**SIZES, **(sizes or {})}

    with tempfile.TemporaryDirectory(prefix="same_bytes.") as work:
        for seed in args.seeds:
            root = Path(work) / f"seed{seed}"
            commands = matrix(seed, root / "inputs", sizes)
            if seed == args.seeds[0]:
                commands += FIXED
            runs = (root / "parent", root / "change")
            for run_dir in runs:
                run_dir.mkdir()
            if found := compare(commands, srcs, runs):
                print(f"seed {seed}: {found}")
                return 1
            print(f"seed {seed}: {len(commands)} commands, same exit codes, streams and files")
            shutil.rmtree(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
