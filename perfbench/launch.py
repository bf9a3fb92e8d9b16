"""Run one command and print its wall time, peak RSS and exit code as JSON.

    python3 perfbench/launch.py STDOUT_FILE STDERR_FILE TIMEOUT_S PROGRAM [ARGS...]

Linux carries the resident-set high-water mark of the process that forks
into the child's ru_maxrss.  The benchmark runner holds networkx, scipy and
the checkers' data, so its own children would report at least the runner's
size.  This launcher is a small interpreter, so the peak it reports for its
child is the child's own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    out_path, err_path, timeout, *argv = sys.argv[1:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(float(timeout), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
