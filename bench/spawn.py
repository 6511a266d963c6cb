"""Starts the CLI for the benchmark from a small process, and reports each
run's exit code, wall time and peak resident set.

The peak resident set that ``wait4`` reports for a child includes the peak
of the process that started it: at ``exec`` the kernel keeps the replaced
address space's peak, and a vforked child replaces its parent's. Started
from the benchmark, which holds the corpus and the parsed outputs, every
CLI run would read as large as the benchmark. This helper is started before
the benchmark loads anything, so its own small peak is the floor instead.

Protocol: one JSON request per line on stdin,
``{"cmd": [...], "cwd": str, "env": {...}, "stderr": path, "timeout": s}``,
and one JSON reply per line on stdout,
``{"exit": int, "wall_s": float, "maxrss_kib": int}``.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            watchdog = threading.Timer(req["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"exit": proc.returncode, "wall_s": wall,
                          "maxrss_kib": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
