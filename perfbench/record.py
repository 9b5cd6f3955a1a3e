#!/usr/bin/env python3
"""Record the program's outputs for seed 0 of every workload.

    python3 perfbench/record.py

Writes `perfbench/reference/<workload>/variant<k>/`. The files committed
there were recorded from the seed commit; the self-tests check that the
benchmark's oracles accept them, which pins the oracles to the seed
commit's behaviour. The synth output (21 MB) is kept as every 4096th
value only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEED = 0
SERIES_STRIDE = 4096


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    target = HERE / "reference"
    shutil.rmtree(target, ignore_errors=True)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, cls in WORKLOADS.items():
            workload = cls(SEED, Path(tmp) / name / "inputs")
            for variant in range(workload.variants):
                out = Path(tmp) / name / f"variant{variant}"
                out.mkdir(parents=True)
                keep = target / name / f"variant{variant}"
                keep.mkdir(parents=True)
                for argv, files in workload.commands(variant, out):
                    subprocess.run([sys.executable, "-m", "sentarc", *argv], env=env, check=True)
                    for path in files:
                        if path.name == "series.csv":
                            values = path.read_text().split()[::SERIES_STRIDE]
                            (keep / "series_sample.csv").write_text("\n".join(values) + "\n")
                        else:
                            shutil.copy(path, keep / path.name)
                print(f"recorded {name} variant {variant}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
