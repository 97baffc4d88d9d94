"""Runs `autosens` commands for `run.py` and reports each one's wall
time, exit code, stdout and peak RSS.

Linux charges the high-water mark of the memory a child was spawned from
to the child's `ru_maxrss`: a child forked or vforked from `run.py`,
which holds pools of records, would report that process's peak, not
its own. This process stays small (about 10 MB, a floor on the reading) and
does the spawning instead. Protocol: one JSON argv per stdin line, one
JSON result per stdout line.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    argv = json.loads(line)
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    sys.stdout.write(json.dumps({"wall_s": wall, "code": p.returncode, "rss_kb": ru.ru_maxrss,
                                 "stdout": out.decode("latin-1")}) + "\n")
    sys.stdout.flush()
