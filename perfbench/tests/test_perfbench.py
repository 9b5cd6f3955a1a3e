"""Self-tests of the benchmark: generator determinism, output checks
against recorded seed-commit outputs, failure counting, metric names.

    python3 -m pytest -q perfbench/tests
"""

import csv
import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import gen
import run
from workloads import WORKLOADS, LongSeries

HERE = Path(__file__).resolve().parent.parent
REFERENCE = HERE / "reference"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def seed0(tmp_path_factory):
    """Every workload built from seed 0, the seed the reference was recorded at."""
    root = tmp_path_factory.mktemp("seed0")
    return {name: cls(0, root / name) for name, cls in WORKLOADS.items()}


# ------------------------------------------------------------ generator


@pytest.mark.parametrize("make", [gen.make_study, gen.make_cluster, gen.make_correlate])
def test_generator_is_byte_deterministic_per_seed(make, tmp_path):
    make(3, tmp_path / "a")
    make(3, tmp_path / "b")
    make(4, tmp_path / "c")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")


def test_long_series_pairs_are_deterministic_per_seed():
    assert gen.make_long_series(3).pairs == gen.make_long_series(3).pairs
    assert gen.make_long_series(3).pairs != gen.make_long_series(4).pairs


def test_generated_text_tokenizes_to_the_recorded_truth(seed0):
    """Token counts, lexicon hits and the valence series the checks rely
    on agree with the documented token rule applied to the written text."""
    token = re.compile(r"[^\W\d_]+(?:['’][^\W\d_]+)*")
    inputs = seed0["study"].inputs
    lexicon = inputs.lex.by_word
    for story in inputs.stories[::7]:
        text = (inputs.corpus / f"{story.id}.txt").read_text(encoding="utf-8")
        tokens = token.findall(text.lower())
        values = [lexicon.get(t, gen.NEUTRAL_VALENCE) for t in tokens]
        assert len(tokens) == story.n_tokens
        assert sum(t in lexicon for t in tokens) == story.hits
        assert np.array_equal(np.array(values, dtype=float), story.values)


def test_study_inputs_cover_the_reason_codes(seed0):
    stories = seed0["study"].inputs.stories
    assert sum(s.n_tokens < gen.MIN_SERIES_LENGTH for s in stories) > 10
    assert sum(s.constant and s.n_tokens >= gen.MIN_SERIES_LENGTH for s in stories) >= 4
    assert max(s.n_tokens for s in stories) > 15000


# ------------------------------------------- checks vs recorded outputs


@pytest.mark.parametrize("name", ["study", "cluster", "correlate"])
def test_recorded_seed_commit_outputs_pass_the_checks(name, seed0):
    workload = seed0[name]
    assert workload.check(0, REFERENCE / name / "variant0") == [[]]


def test_recorded_long_series_outputs_pass_the_checks(seed0):
    workload: LongSeries = seed0["long-series"]
    for variant in range(workload.variants):
        ref = REFERENCE / "long-series" / f"variant{variant}"
        sample = np.array((ref / "series_sample.csv").read_text().split(), dtype=float)
        index = np.arange(0, workload.inputs.n, 4096)
        want = workload.reference_series(variant)
        assert workload.check_series(variant, sample, index, want) == []
        result = json.loads((ref / "hurst.json").read_text())
        rows = len((ref / "points.csv").read_text().splitlines()) - 1
        assert workload.check_hurst(variant, result, rows, want) == []


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def flip_first_ok_status(out: Path) -> None:
    def edit(rows):
        row = next(r for r in rows[1:] if r[-1] == "ok")
        row[-1] = "degenerate"

    _rewrite_csv(out / "results.csv", edit)


def swap_two_cluster_labels(out: Path) -> None:
    def edit(rows):
        a = rows[1]
        b = next(r for r in rows[2:] if r[1] != a[1])
        a[1], b[1] = b[1], a[1]

    _rewrite_csv(out / "labels.csv", edit)


def perturb_correlation(out: Path) -> None:
    reports = json.loads((out / "report.json").read_text())
    reports[0]["kendall_tau"] += 1e-9
    (out / "report.json").write_text(json.dumps(reports))


CORRUPTIONS = {
    "study": flip_first_ok_status,
    "cluster": swap_two_cluster_labels,
    "correlate": perturb_correlation,
}


def _fake_execute(name, corrupt, out_root):
    """A pass that copies the recorded outputs instead of running the CLI,
    corrupting them on the passes in `corrupt`."""

    def execute(index, argvs):
        out = out_root / f"pass{index}"
        shutil.copytree(REFERENCE / name / "variant0", out, dirs_exist_ok=True)
        if index in corrupt:
            CORRUPTIONS[name](out)
        return {"pass_s": 0.0}, [0] * len(argvs)

    return execute


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
@pytest.mark.parametrize("corrupt, failed", [((), 0), ((2,), 1), ((0,), 3), ((0, 1, 2), 3)])
def test_corrupted_output_is_counted_as_failed(name, corrupt, failed, seed0, tmp_path):
    """Pass 0's outputs go through the oracle check and later passes are
    compared with pass 0 byte for byte. A pass that differs from pass 0
    fails, and so does every pass that reproduces a wrong pass 0."""
    ledger = run.Ledger()
    run.run_passes(
        seed0[name], 0.0, tmp_path, ledger, _fake_execute(name, corrupt, tmp_path),
        variant_of=lambda i: 0, min_passes=3,
    )
    assert (ledger.attempted, ledger.failed) == (3, failed)


def test_nonzero_exit_is_counted_as_failed(seed0, tmp_path):
    ledger = run.Ledger()
    run.run_passes(
        seed0["correlate"], 0.0, tmp_path, ledger,
        lambda index, argvs: ({"pass_s": 0.0}, [1]), variant_of=lambda i: 0, min_passes=2,
    )
    assert (ledger.attempted, ledger.failed) == (2, 2)


# ------------------------------------------------------------- metrics


def benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_and_units():
    spec = benchmark_json()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == run.PER_LAYER_UNITS
    for name, unit in {**e2e, **layers}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
    assert len(set(e2e) | set(layers)) == len(e2e) + len(layers)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)


def test_interaction_map_names_known_metrics_and_workloads():
    spec = benchmark_json()
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    workloads = set(WORKLOADS)
    mapped = set()
    for item in json.loads((HERE / "interactions.json").read_text())["interactions"]:
        assert set(item["per_layer"]) <= layers
        assert set(item["end_to_end"]) <= e2e
        for key in ("moves", "no_change", "small_share"):
            assert set(item.get(key, ())) <= workloads
        mapped |= set(item["per_layer"])
    assert mapped == layers
