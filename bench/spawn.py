"""Run one command and print its wall time, CPU time, peak RSS and exit status.

Usage: python3 -I -S bench/spawn.py STDOUT_FILE STDERR_FILE COMMAND...

The benchmark starts every measured command through this small launcher.  A
child's peak RSS (``ru_maxrss``) includes the memory of the process it was
started from, so starting it straight from the benchmark process would
report the benchmark's own size for any command smaller than that.
"""

import json
import os
import sys
import time

out, err, *cmd = sys.argv[1:]
actions = [
    (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
]
start = time.perf_counter()
pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall,
    "cpu_s": usage.ru_utime + usage.ru_stime,
    "rss_kb": usage.ru_maxrss,
    "status": os.waitstatus_to_exitcode(status),
}))
