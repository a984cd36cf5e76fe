"""Small process that spawns the benchmark's child processes on request.

Reads one JSON request per line on stdin: {"argv", "env", "cwd", "stdout",
"timeout"}; runs argv with stdout and stderr sent to files; writes one
JSON line back with the wall time from spawn to exit, the exit code and
the child's rusage.  It exits when stdin closes.

Why a separate process: Linux starts a child's peak RSS (ru_maxrss) at the
peak RSS of the process it was spawned from, because the child runs in
that address space until exec.  The benchmark process holds whole graphs;
this one stays near the size of a bare interpreter, so peak_rss_mb is the
operation's own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "w", encoding="utf-8") as out, \
            open(req["stdout"] + ".err", "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                env=req["env"], cwd=req["cwd"])
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "returncode": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
