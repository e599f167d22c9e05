"""Start one command, wait for it, and report its wall time and peak RSS.

    python3 -I -S perfbench/launch.py FD PROGRAM ARGS...

The command inherits this process's stdin, stdout and stderr.  When it has
ended, one line "<wait status> <ru_maxrss in KiB> <wall seconds>" goes to
file descriptor FD.  A process's ru_maxrss includes the resident set of
the process it was started from, as it was at exec, so commands are
started from this small interpreter rather than from run.py, whose
resident set grows with the results it keeps.
"""

import os
import sys
import time


def main() -> None:
    report, argv = int(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    os.write(report, f"{status} {usage.ru_maxrss} {wall!r}\n".encode())


if __name__ == "__main__":
    main()
