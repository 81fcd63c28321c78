#!/usr/bin/env python3
"""Run every verification suite over the standard corpus and print a table.

Exit code is 0 iff every check passes on every group.
"""
import sys
import time

from reflekt.groups import build_group
from reflekt.chars import character_table
from reflekt.fake import (
    FakeDegreeSet,
    palindrome_check,
    poincare_identity,
    verify_all_pn,
    verify_symmetry,
)

CORPUS = (
    ["S3", "S4", "G(2,1,2)", "G(3,1,2)", "G(3,3,3)", "G(4,4,2)"]
    + [f"G({m},1,1)" for m in range(2, 7)]
    + [f"G({m},{m},2)" for m in range(2, 7) if m != 4]  # m = 4 is G(4,4,2) above
)


def main() -> int:
    ok = True
    print(f"{'group':>10} {'|W|':>5} {'#refl':>5} {'degrees':>14} "
          f"{'pn':>4} {'poincare':>8} {'symmetry':>8} {'palindrome':>10} {'time':>7}")
    for d in CORPUS:
        t0 = time.monotonic()
        g = build_group(d)
        fs = FakeDegreeSet(g, character_table(g))
        results = {
            "pn": verify_all_pn(fs)["passed"],
            "poincare": poincare_identity(fs)["passed"],
            "symmetry": verify_symmetry(fs)["passed"],
            "palindrome": palindrome_check(fs)["passed"],
        }
        ok = ok and all(results.values())
        dt = time.monotonic() - t0
        print(
            f"{d:>10} {g.order:>5} {len(g.reflections):>5} "
            f"{str(list(g.degrees)):>14} "
            f"{'ok' if results['pn'] else 'FAIL':>4} "
            f"{'ok' if results['poincare'] else 'FAIL':>8} "
            f"{'ok' if results['symmetry'] else 'FAIL':>8} "
            f"{'ok' if results['palindrome'] else 'FAIL':>10} "
            f"{dt:>6.1f}s"
        )
    print("all passed" if ok else "FAILURES PRESENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
