"""Child-process runner for the end-to-end measurements (stdlib only).

A process's max-RSS as reported by wait4 starts at the RSS of the process
that spawned it, because Linux carries the parent's high-water mark across
fork and exec. The benchmark process holds generated inputs and oracle
data, so it does not spawn the measured processes itself: it starts this
small process first, before importing numpy, and sends it one pass at a
time.

Protocol: one JSON object per line on stdin,
    {"commands": [argv, ...], "env": {...}, "cwd": str, "log": str, "timeout": s}
and one JSON object per line on stdout,
    {"wall": s, "runs": [{"rc": int, "wall": s, "cpu": s, "maxrss_kb": int}, ...]}.
Commands run in order; a pass stops at the first non-zero exit. `wall`
spans the first launch to the last exit. A command that outlives
`timeout` has its process group killed and reports rc -9. EOF on stdin
ends the launcher.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_one(argv, env, cwd, log, timeout):
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=err, stderr=err,
            start_new_session=True,
        )
        watchdog = threading.Timer(timeout, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # pool workers share the group; none may outlive their parent
    _kill_group(proc.pid)
    return {
        "rc": proc.returncode,
        "wall": end - start,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "start": start,
        "end": end,
    }


def main() -> int:
    for line in iter(sys.stdin.readline, ""):
        job = json.loads(line)
        runs = []
        for argv in job["commands"]:
            runs.append(run_one(argv, job["env"], job["cwd"], job["log"], job["timeout"]))
            if runs[-1]["rc"] != 0:
                break
        wall = runs[-1]["end"] - runs[0]["start"]
        for r in runs:
            del r["start"], r["end"]
        sys.stdout.write(json.dumps({"wall": wall, "runs": runs}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
