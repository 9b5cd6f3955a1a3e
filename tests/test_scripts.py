import csv
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import same_bytes
import sentarc
from conftest import package_env
from sentarc.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_hurst_recovery_runs():
    out = run_script("hurst_recovery.py", "--n", "256", "--seeds", "2", "--targets", "0.5")
    lines = out.splitlines()
    assert lines[0] == "n=256, seeds=1..2, poly order 1"
    target, mean = lines[2].split()[:2]
    assert float(target) == 0.5
    assert 0.0 < float(mean) < 1.0


def test_demo_corpus_analyzes(tmp_path, capsys):
    run_script("make_demo_corpus.py", str(tmp_path), "--stories", "6", "--tokens", "512")
    out_dir = tmp_path / "study"
    code = main(
        [
            "analyze",
            "--corpus", str(tmp_path / "corpus"),
            "--lexicon", str(tmp_path / "lexicon.tsv"),
            "--ratings", str(tmp_path / "ratings.csv"),
            "--out", str(out_dir),
            "--jobs", "1",
        ]
    )
    assert code == 0, capsys.readouterr().err
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["id"] for r in rows] == [f"tale_{i:03d}" for i in range(6)]
    assert all(r["status"] == "ok" for r in rows)


# small enough that both sides of the matrix run in seconds
SMALL = {"study": 40, "cluster": 30, "correlate": 300, "n": 4096, "pairs": 1}


def test_same_bytes_passes_a_tree_against_itself(capsys):
    src = str(Path(sentarc.__file__).parents[1])
    assert same_bytes.main([src, src, "--seeds", "0"], sizes=SMALL) == 0
    assert capsys.readouterr().out.startswith("seed 0: ")


def test_same_bytes_names_the_first_file_that_differs(tmp_path, capsys):
    src = tmp_path / "src"
    shutil.copytree(Path(sentarc.__file__).parents[1], src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    serialize = src / "sentarc" / "serialize.py"
    text = serialize.read_text()
    assert text.count('format(float(value), ".17g")') == 1
    serialize.write_text(text.replace('format(float(value), ".17g")', 'format(float(value), ".16g")'))
    parent = str(Path(sentarc.__file__).parents[1])
    assert same_bytes.main([parent, str(src), "--seeds", "0"], sizes=SMALL) == 1
    out = capsys.readouterr().out
    assert "results.csv:2: parent " in out


def test_same_bytes_waives_only_the_named_rewording(tmp_path, capsys):
    parent = Path(sentarc.__file__).parents[1]
    src = tmp_path / "src"
    shutil.copytree(parent, src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "sentarc" / "cli.py"
    text = cli.read_text()
    old, new = "run the full corpus study", "run the whole corpus study"
    assert text.count(old) == 1
    waiver = (["--help"], old.encode(), new.encode(), "a reworded summary")
    runs = (tmp_path / "parent", tmp_path / "change")
    for run_dir in runs:
        run_dir.mkdir()

    cli.write_text(text.replace(old, new))
    assert same_bytes.compare([(["--help"], [])], (parent, src), runs, [waiver]) is None
    assert capsys.readouterr().out == "waived: sentarc --help: a reworded summary\n"

    # any other difference in the same stream is still reported
    cli.write_text(text.replace(old, new).replace("Story arcs, Hurst", "Story arcs and Hurst"))
    found = same_bytes.compare([(["--help"], [])], (parent, src), runs, [waiver])
    assert found.startswith("sentarc --help\n  stdout:4: parent b'Story arcs, Hurst")
    assert capsys.readouterr().out == "waived: sentarc --help: a reworded summary\n"


# the run whose stderr first differs: `analyze` on the corpus with a file
# that is not UTF-8 and two stems equal in NFC, or `cluster` on the study
# corpus, whose empty story is too short to cluster
SKIPS_RUN = r"^seed 0: sentarc analyze --corpus \S+/skips .*\n  stderr:\d+: parent b.WARNING: "
STUDY_CLUSTER_RUN = (
    r"^seed 0: sentarc cluster --corpus \S+/study/corpus .* --jobs 1 .*\n  stderr:\d+: parent b.WARNING: "
)


@pytest.mark.parametrize(
    "module, old, new, run, shown",
    [
        ("corpus", '"%s: duplicate id %r, skipped"', '"%s: duplicate id %r, dropped"', SKIPS_RUN,
         "duplicate id"),
        ("corpus", 'log.warning("%s, skipped", exc)', 'log.warning("%s, dropped", exc)', SKIPS_RUN,
         "latin1.txt"),
        ("cli", "too short to cluster, skipped", "too short to cluster, dropped", STUDY_CLUSTER_RUN,
         "0 tokens, too short to cluster, skipped"),
    ],
    ids=["nfc-duplicate", "not-utf8", "cluster-too-short"],
)
def test_same_bytes_compares_the_corpus_skip_warnings(tmp_path, capsys, module, old, new, run, shown):
    # the matrix's corpora hold stories that are skipped with a warning,
    # so a reworded skip warning is caught in stderr
    parent = Path(sentarc.__file__).parents[1]
    src = tmp_path / "src"
    shutil.copytree(parent, src, ignore=shutil.ignore_patterns("__pycache__"))
    source = src / "sentarc" / f"{module}.py"
    text = source.read_text()
    assert text.count(old) == 1
    source.write_text(text.replace(old, new))
    assert same_bytes.main([str(parent), str(src), "--seeds", "0"], sizes=SMALL) == 1
    out = capsys.readouterr().out
    assert re.search(run, out, re.MULTILINE), out
    assert shown in out


def test_same_bytes_lists_what_a_failed_run_leaves(tmp_path, capsys):
    # `analyze` on the empty corpus fails after its new --out directory is
    # made, so a tree that keeps the directory differs in the listing
    parent = Path(sentarc.__file__).parents[1]
    src = tmp_path / "src"
    shutil.copytree(parent, src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "sentarc" / "cli.py"
    text = cli.read_text()
    assert text.count("os.rmdir(directory)") == 1
    cli.write_text(text.replace("os.rmdir(directory)", "pass"))
    assert same_bytes.main([str(parent), str(src), "--seeds", "0"], sizes=SMALL) == 1
    out = capsys.readouterr().out
    assert out.startswith("seed 0: files left in the run directory: parent [")
    assert "'new/deeper'" in out.split(", change ")[1]
    assert "'new/deeper'" not in out.split(", change ")[0]
