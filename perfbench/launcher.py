"""Spawn and reap the benchmark's CLI processes from a small process.

Usage: python launcher.py

Linux carries a process's peak RSS over fork and exec, so a child that
run.py spawned itself would report run.py's own peak, which grows as it
keeps the answers, as its ru_maxrss.  This process stays small.  It reads
one JSON request per line, {"args": [...], "out": path, "err": path}, runs
`python args...` with stdout and stderr in those files, and answers with
one JSON line {"rc", "wall", "cpu", "rss_kb"} from os.wait4: exit code,
seconds from spawn to exit, user+sys CPU seconds and peak RSS in KB.
"""

import json
import os
import signal
import sys
import time


def run(args, out_path, err_path):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd = os.open(out_path, flags, 0o644)
    err_fd = os.open(err_path, flags, 0o644)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args],
                             os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out_fd, 1),
                                           (os.POSIX_SPAWN_DUP2, err_fd, 2)])
    finally:
        os.close(out_fd)
        os.close(err_fd)
    try:
        _, status, ru = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return {"rc": os.waitstatus_to_exitcode(status),
            "wall": time.perf_counter() - t0,
            "cpu": ru.ru_utime + ru.ru_stime, "rss_kb": ru.ru_maxrss}


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["args"], req["out"], req["err"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
