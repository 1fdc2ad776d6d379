"""Starts the benchmarked commands, one at a time, and reports what each used.

It runs as its own small process because the max-RSS that wait4 reports for
a child includes the memory of the process that spawned it, and run.py grows
large (numpy, reference checks, loaded spans).  Protocol, one JSON line each
way: request ``{"argv": [...], "stderr": path}``, reply
``{"code": int, "wall_s": float, "cpu_s": float, "rss_mb": float}``.
The process exits when its standard input closes.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "rss_mb": usage.ru_maxrss * 1024 / 1e6}), flush=True)


if __name__ == "__main__":
    main()
