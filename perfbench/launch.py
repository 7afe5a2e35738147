"""Run the benchmark's commands from a small process, one at a time.

Linux carries the spawning process's RSS high-water mark into a child's
``ru_maxrss``, so a step started straight from run.py, which holds a
generated fixture, would report at least run.py's own peak.  This process
stays small.  It reads one JSON request per line on stdin,
``{"cmd", "cwd", "log"}``, runs the command with stdout and stderr going to
the log file, and answers with one JSON line
``{"exit", "wall_s", "maxrss_kb"}``.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                req["cmd"], cwd=req["cwd"], stdout=out, stderr=subprocess.STDOUT
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        reply = {"exit": code, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
