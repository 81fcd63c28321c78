#!/usr/bin/env python3
"""Time `build_minimal_matrix` and its two verifiers, one fresh process per row.

    python3 scripts/minmat_rows.py GROUP [ROW ...] [--src SRC]

GROUP is a descriptor as the CLI takes it; without ROWs every row of its
character table is run.  SRC is the directory holding the `reflekt` package
(default: `src` of this checkout), so two trees can be compared on one host.
Each row runs in its own child process, one after another, so peak RSS is
that row's alone and every cache starts cold, as for a CLI user.  One JSON
object per row goes to stdout:

    {"group", "row", "column_degrees", "setup_s", "build_s", "verify_s",
     "passed", "peak_rss_mb"}

setup_s covers the group, its character table and its fake degrees; build_s
is `build_minimal_matrix`; verify_s is `verify_det_factorization` plus
`verify_quotient_property`, and passed is whether both reports pass.
peak_rss_mb is the child's maximum resident set size.
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


def run_row(group: str, row: int) -> dict:
    from reflekt.chars import character_table
    from reflekt.fake import FakeDegreeSet
    from reflekt.groups import build_group
    from reflekt.minmat import build_minimal_matrix, verify_det_factorization, verify_quotient_property

    t0 = time.perf_counter()
    g = build_group(group)
    fs = FakeDegreeSet(g, character_table(g))
    t1 = time.perf_counter()
    mm = build_minimal_matrix(fs, row)
    t2 = time.perf_counter()
    passed = verify_det_factorization(fs, mm)["passed"] and verify_quotient_property(fs, mm)["passed"]
    t3 = time.perf_counter()
    return {
        "group": group,
        "row": row,
        "column_degrees": list(mm.column_degrees),
        "setup_s": round(t1 - t0, 3),
        "build_s": round(t2 - t1, 3),
        "verify_s": round(t3 - t2, 3),
        "passed": passed,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def row_count(group: str) -> int:
    from reflekt.chars import character_table
    from reflekt.groups import build_group

    return len(character_table(build_group(group)).rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("group")
    parser.add_argument("rows", nargs="*", type=int)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    if args.child:
        print(json.dumps(run_row(args.group, args.rows[0])), flush=True)
        return 0
    env = {k: v for k, v in os.environ.items() if not k.startswith("REFLEKT_")}
    status = 0
    for row in args.rows or range(row_count(args.group)):
        cmd = [sys.executable, os.path.abspath(__file__), args.group, str(row), "--src", args.src, "--child"]
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
        if done.returncode:
            print(json.dumps({"group": args.group, "row": row, "exit": done.returncode}), flush=True)
            status = 1
        else:
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
