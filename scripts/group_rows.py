#!/usr/bin/env python3
"""Time a group's build, character table and fake degrees, one fresh process per group.

    python3 scripts/group_rows.py GROUP [GROUP ...] [--src SRC]

GROUP is a descriptor as the CLI takes it.  SRC is the directory holding the
`reflekt` package (default: `src` of this checkout), so two trees can be
compared on one host.  Each group runs in its own child process, one after
another, so peak RSS is that group's alone and every cache starts cold, as
for a CLI user.  One JSON object per group goes to stdout:

    {"group", "order", "classes", "build_s", "table_s", "fake_s", "peak_rss_mb"}

build_s is `build_group`; table_s is `character_table`, its exact
certificate included; fake_s is `FakeDegreeSet` on that table.  peak_rss_mb
is the child's maximum resident set size.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_group(group: str) -> dict:
    from reflekt.chars import character_table
    from reflekt.fake import FakeDegreeSet
    from reflekt.groups import build_group

    t0 = time.perf_counter()
    g = build_group(group)
    t1 = time.perf_counter()
    table = character_table(g)
    t2 = time.perf_counter()
    FakeDegreeSet(g, table)
    t3 = time.perf_counter()
    return {
        "group": group,
        "order": g.order,
        "classes": len(g.classes),
        "build_s": round(t1 - t0, 3),
        "table_s": round(t2 - t1, 3),
        "fake_s": round(t3 - t2, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("groups", nargs="+")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        sys.path.insert(0, os.path.abspath(args.src))
        print(json.dumps(run_group(args.groups[0])), flush=True)
        return 0
    env = {k: v for k, v in os.environ.items() if not k.startswith("REFLEKT_")}
    status = 0
    for group in args.groups:
        cmd = [sys.executable, os.path.abspath(__file__), group, "--src", args.src, "--child"]
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
        if done.returncode:
            print(json.dumps({"group": group, "exit": done.returncode}), flush=True)
            status = 1
        else:
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
