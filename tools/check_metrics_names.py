#!/usr/bin/env python3
"""Lint telemetry metric names.

Scans src/ and bench/ for string literals that look like metric names
("aquila.<...>") and enforces the two registry conventions:

  1. Names match ^aquila(\\.[a-z0-9_]+){2,}$ — at least
     `aquila.<subsystem>.<name>`, lowercase [a-z0-9_] segments.
  2. Each name is defined by exactly ONE literal in the tree. Multiple
     *instances* of a subsystem may report the same name (the registry sums
     same-name callbacks), but the defining call site must be unique so a
     grep for a metric always lands in one place.
  3. Names that docs/dashboards depend on (REQUIRED_NAMES) must exist:
     deleting or renaming one is a breaking telemetry change and fails here
     until the expectation list is updated alongside the consumers.

Usage: check_metrics_names.py [repo_root]
Exits nonzero with a report on any violation.
"""

import os
import re
import sys
from collections import defaultdict

SCAN_DIRS = ("src", "bench")
EXTENSIONS = (".h", ".cc", ".cpp")
CANDIDATE_RE = re.compile(r'"(aquila\.[^"\\]+)"')
VALID_RE = re.compile(r"^aquila(\.[a-z0-9_]+){2,}$")

# Metric names external consumers rely on (EXPERIMENTS.md trajectories,
# BENCH_*.json emitters, DESIGN.md). Keep sorted.
REQUIRED_NAMES = frozenset({
    "aquila.clock.preempt_corrections",
    "aquila.device.health_state",
    "aquila.device.hedges",
    "aquila.device.timeouts",
    "aquila.huge.demotions",
    "aquila.huge.fault_around_mapped",
    "aquila.huge.promotions",
    "aquila.huge.runs_carved",
    "aquila.sched.park_depth",
    "aquila.sched.parked",
    "aquila.sched.resumed",
    "aquila.sched.steals",
    "aquila.span.dropped",
    "aquila.span.finalized",
    "aquila.span.retained",
    "aquila.span.started",
    "aquila.tlb.hits",
    "aquila.tlb.ipis_elided",
    "aquila.tlb.ipis_sent",
    "aquila.tlb.misses",
    "aquila.tlb.reuse_elided",
    "aquila.tlb.reuse_mismatch",
    "aquila.tlb.shootdown_rounds",
    "aquila.tlb.shootdowns_local",
    "aquila.vmx.ipi_sent",
})


def strip_comments(text: str) -> str:
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    occurrences = defaultdict(list)  # name -> [(path, line)]
    invalid = []  # (path, line, name)

    for scan_dir in SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        for dirpath, _, filenames in os.walk(base):
            for filename in sorted(filenames):
                if not filename.endswith(EXTENSIONS):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path, encoding="utf-8") as f:
                    text = strip_comments(f.read())
                for lineno, line in enumerate(text.splitlines(), start=1):
                    for name in CANDIDATE_RE.findall(line):
                        rel = os.path.relpath(path, root)
                        if VALID_RE.match(name):
                            occurrences[name].append((rel, lineno))
                        else:
                            invalid.append((rel, lineno, name))

    status = 0
    if not occurrences:
        print("check_metrics_names: found no metric names — wrong root?")
        return 1
    for path, lineno, name in invalid:
        print(f"{path}:{lineno}: invalid metric name {name!r} "
              "(want aquila.<subsystem>.<name>, segments [a-z0-9_]+)")
        status = 1
    for name, sites in sorted(occurrences.items()):
        if len(sites) > 1:
            where = ", ".join(f"{p}:{n}" for p, n in sites)
            print(f"duplicate defining literal for {name!r}: {where}")
            status = 1
    for name in sorted(REQUIRED_NAMES - occurrences.keys()):
        print(f"required metric name {name!r} not found in "
              f"{'/'.join(SCAN_DIRS)} — update consumers before removing it")
        status = 1
    if status == 0:
        print(f"check_metrics_names: {len(occurrences)} metric names OK")
    return status


if __name__ == "__main__":
    sys.exit(main())
