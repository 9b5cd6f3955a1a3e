#!/usr/bin/env python3
"""Benchmark runner for sentarc.

    python3 perfbench/run.py --workload study --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, with nothing installed.

`--trace 0` measures the end-to-end metrics: every CLI invocation is a
fresh process started by a small launcher process (see launcher.py) and
timed from outside. `--trace 1` measures the per-layer metrics instead:
it runs the same passes in-process through `sentarc.cli.main`, with spans
around the package's public functions (see spans.py), and compares the
traced time with untraced in-process passes to report the tracing
overhead.

Both modes check every output (see workloads.py) and print, as the last
line of stdout, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. `--workload all` runs the four workloads in turn and ends with
one such object whose metric names carry the workload as a prefix.
Generated inputs, outputs, spans and a full result file live in
`.bench_work/` under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"

SETUP_ROUNDS = 5  # --help launches per run; setup_s is their median
MIN_PASSES = 3
TIMEOUT_S = 40  # per CLI invocation; a normal one takes under 10 s
PASS_BUDGET_S = 90  # no new pass after this, so a run ends within 180 s
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
WORKLOAD_NAMES = ("study", "cluster", "long-series", "correlate")


class Launcher:
    """Client side of launcher.py."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, commands, env, log) -> dict:
        job = {"commands": commands, "env": env, "cwd": str(ROOT), "log": str(log), "timeout": TIMEOUT_S}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def digest(paths) -> str | None:
    """Hash of the files' contents, None if one is missing."""
    h = hashlib.sha256()
    try:
        for path in paths:
            h.update(Path(path).read_bytes())
    except OSError:
        return None
    return h.hexdigest()


def machine_facts(workload: str) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "loadavg_at_start": os.getloadavg(),
        "pinning": "none: no CPU pinning or frequency control; the host may be shared",
    }
    if workload == "study":
        facts["study_jobs"] = os.cpu_count() or 1  # analyze's --jobs default
    return facts


class Ledger:
    """Invocation outcomes: attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def run_passes(workload, seconds, out_root: Path, ledger: Ledger, execute, variant_of, min_passes, jobs=None):
    """Run passes until the next one would end after `seconds` (at least
    `min_passes`). The first pass of each variant keeps its outputs for
    the oracle check; later passes must reproduce them byte for byte.

    `execute(pass_index, argvs)` runs one pass and returns (sample dict,
    return codes); `variant_of(pass_index)` picks its input variant.
    """
    samples, firsts = [], {}
    repeats = {}  # (variant, invocation) -> later passes that reproduced the first
    start = time.perf_counter()
    index = 0
    while True:
        variant = variant_of(index)
        out = out_root / f"pass{index}"
        out.mkdir(parents=True)
        plan = workload.commands(variant, out, jobs)
        sample, codes = execute(index, [argv for argv, _ in plan])
        samples.append(sample)
        if codes != [0] * len(plan):
            for k, (argv, _) in enumerate(plan):
                code = codes[k] if k < len(codes) else "not run"
                ledger.record(f"pass {index} {argv[0]}", [] if code == 0 else [f"exit code {code}"])
        else:
            first = firsts.setdefault(variant, out)
            for k, (argv, files) in enumerate(plan):
                # the first pass is checked by the oracles below
                mine = digest(files)
                same = first is out or (mine is not None and mine == digest(first / f.relative_to(out) for f in files))
                if same and first is not out:
                    repeats[variant, k] = repeats.get((variant, k), 0) + 1
                ledger.record(f"pass {index} {argv[0]}", [] if same else ["output differs from the first pass"])
        if firsts.get(variant) is not out:
            shutil.rmtree(out)
        index += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(s["pass_s"] for s in samples)
        if index >= min_passes and elapsed + typical > seconds or elapsed > PASS_BUDGET_S:
            break
    for variant, out in sorted(firsts.items()):
        try:
            verdicts = workload.check(variant, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            verdicts = [[f"unreadable output: {exc!r}"]] * len(workload.commands(variant, out))
        for k, problems in enumerate(verdicts):
            if problems:
                # a wrong output is wrong in every pass that reproduced it
                ledger.failed += 1 + repeats.get((variant, k), 0)
                ledger.problems += [f"variant {variant} invocation {k}: {p}" for p in problems]
    return samples


def end_to_end(workload, seconds, work: Path, launcher: Launcher, ledger: Ledger) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cli = [sys.executable, "-m", "sentarc"]
    log = work / "stderr.log"

    setup = []
    for _ in range(SETUP_ROUNDS):
        res = launcher.run([cli + [sub, "--help"] for sub in workload.subcommands], env, log)
        for sub, r in zip(workload.subcommands, res["runs"]):
            ledger.record(f"{sub} --help", [] if r["rc"] == 0 else [f"exit code {r['rc']}"])
        setup.append(sum(r["wall"] for r in res["runs"]))

    def execute(index, argvs):
        res = launcher.run([cli + argv for argv in argvs], env, log)
        runs = res["runs"]
        sample = {
            "pass_s": res["wall"],
            "cpu_s": sum(r["cpu"] for r in runs),
            "peak_rss_mb": max(r["maxrss_kb"] for r in runs) / 1024.0,
        }
        return sample, [r["rc"] for r in runs]

    samples = run_passes(
        workload, seconds, work / "out", ledger, execute,
        variant_of=lambda i: i % workload.variants,
        min_passes=max(MIN_PASSES, workload.variants),
    )
    return {
        "wall_s": summary([s["pass_s"] for s in samples]),
        "cpu_s": summary([s["cpu_s"] for s in samples]),
        "setup_s": summary(setup),
        "peak_rss_mb": summary([s["peak_rss_mb"] for s in samples]),
    }


def import_costs(runs: int = 3) -> dict:
    """Cumulative import time of sentarc, numpy and scipy in a fresh
    interpreter (`-X importtime`), median over `runs`."""
    found = {"sentarc": [], "numpy": [], "scipy": []}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(runs):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sentarc.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S, check=True,
        ).stderr
        rows = []
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            depth = len(name) - len(name.lstrip())
            rows.append((depth, name.strip(), int(parts[1]) / 1e6))
        for pkg, acc in found.items():
            mine = [r for r in rows if r[1] == pkg or r[1].startswith(pkg + ".")]
            top = min(r[0] for r in mine)
            acc.append(sum(r[2] for r in mine if r[0] == top))
    return {f"import.{pkg}.s": statistics.median(v) for pkg, v in found.items()}


def traced(workload, seconds, work: Path, ledger: Ledger, spans_path: Path) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sentarc.cli

    if Path(sentarc.cli.__file__).resolve().parent != SRC / "sentarc":
        raise RuntimeError(f"imported sentarc from {sentarc.cli.__file__}, not {SRC}")
    tracer = tracing.Tracer()
    per_pass: list[dict] = []
    timing = {"traced": [], "untraced": []}

    def execute(index, argvs):
        traced_pass = index % 2 == 1
        if traced_pass:
            tracer.pass_id = index
            tracer.install()
        codes = []
        start = time.perf_counter()
        try:
            for argv in argvs:
                codes.append(sentarc.cli.main(argv))
                if codes[-1] != 0:
                    break
        finally:
            elapsed = time.perf_counter() - start
            if traced_pass:
                tracer.uninstall()
        timing["traced" if traced_pass else "untraced"].append(elapsed)
        if traced_pass:
            per_pass.append(tracing.metrics(tracer.spans, index))
        return {"pass_s": elapsed}, codes

    # passes alternate untraced/traced; both of a pair run the same variant
    run_passes(
        workload, seconds, work / "out", ledger, execute,
        variant_of=lambda i: (i // 2) % workload.variants, min_passes=2, jobs=1,
    )
    tracer.dump(spans_path)

    layers = {k: statistics.median(p[k] for p in per_pass) for k in tracing.PER_LAYER_UNITS}
    t_on = statistics.median(timing["traced"])
    t_off = statistics.median(timing["untraced"])
    layers.update(import_costs())
    layers.update({"trace.traced_s": t_on, "trace.untraced_s": t_off, "trace.overhead_ratio": t_on / t_off})
    return layers


PER_LAYER_UNITS = {
    **tracing.PER_LAYER_UNITS,
    "import.sentarc.s": "s", "import.numpy.s": "s", "import.scipy.s": "s",
    "trace.traced_s": "s", "trace.untraced_s": "s", "trace.overhead_ratio": "ratio",
}


def run_workload(name: str, seed: int, seconds: float, trace: int, launcher: Launcher | None) -> dict:
    """One run of one workload: print its report, return its result object."""
    from workloads import WORKLOADS  # imports numpy

    work = ROOT / ".bench_work" / f"{name}-seed{seed}-trace{trace}"
    facts = machine_facts(name)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](seed, work / "inputs")
    ledger = Ledger()
    if trace == 0:
        detail = end_to_end(workload, seconds, work, launcher, ledger)
        metrics = {k: {"value": detail[k]["median"], "unit": u} for k, u in E2E_UNITS.items()}
    else:
        detail = traced(workload, seconds, work, ledger, work / "spans.json")
        metrics = {k: {"value": detail[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": facts, "detail": detail, "failed_ratio": ledger.failed / ledger.attempted,
        "problems": ledger.problems, "result": result,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(work / "inputs", ignore_errors=True)
    shutil.rmtree(work / "out", ignore_errors=True)

    print(f"perfbench {name} seed={seed} seconds={seconds} trace={trace}")
    print("machine " + json.dumps(facts))
    for problem in ledger.problems[:20]:
        print("FAILED " + problem)
    print(f"failed_ratio {ledger.failed}/{ledger.attempted} = {record['failed_ratio']:.4f}")
    if trace == 0:
        for k, s in detail.items():
            print(f"{k:12s} median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} n {s['n']} {E2E_UNITS[k]}")
    else:
        for k, m in metrics.items():
            print(f"{k:36s} {m['value']:.6g} {m['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sentarc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sentarc" / "__init__.py").is_file():
        print(f"error: no sentarc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    # start the launcher while this process is still small (see launcher.py)
    launcher = Launcher() if args.trace == 0 else None
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, launcher) for n in names}
    finally:
        if launcher is not None:
            launcher.close()
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
