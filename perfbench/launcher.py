"""Start benchmark children from a small process and report each one's cost.

Linux charges a child the peak memory of the process it was forked from, so
children forked from the (large) benchmark process would all show its peak.
This process is started before the benchmark loads anything, stays small,
and starts every child on its behalf.

Protocol, one JSON object per line: stdin carries
``{"argv", "stdout", "stderr", "timeout_s"}`` and stdout answers
``{"rc", "wall_s", "cpu_s", "peak_rss_mb"}``. Children inherit this process's
environment and working directory. End of input ends the process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run_one(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        killer = threading.Timer(request["timeout_s"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run_one(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
