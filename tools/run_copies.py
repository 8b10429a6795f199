#!/usr/bin/env python3
"""Runs N copies of one command at once and fails if any copy fails.

Oversubscription is how the timing-sensitive suites' races show: a copy
whose threads keep getting descheduled mid-protocol stretches windows that
a lone copy on an idle host almost never opens. Each copy's output is
printed, prefixed with its index, once it exits.

Usage: run_copies.py N command [args...]
"""

import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 3 or not sys.argv[1].isdigit() or int(sys.argv[1]) < 1:
        print(__doc__, file=sys.stderr)
        return 2
    copies = int(sys.argv[1])
    command = sys.argv[2:]
    procs = [subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
             for _ in range(copies)]
    failed = 0
    for index, proc in enumerate(procs):
        output, _ = proc.communicate()
        for line in output.decode(errors="replace").splitlines():
            print("[copy %d] %s" % (index, line))
        if proc.returncode != 0:
            print("[copy %d] exited with %d" % (index, proc.returncode))
            failed += 1
    print("%d of %d copies failed" % (failed, copies))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
