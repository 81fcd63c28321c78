"""CycNum additions and multiplications per second, the exact-scalar layer.

    python3 scripts/cycnum_rates.py [SRC]

SRC is the directory holding the `reflekt` package (default: `src` of this
checkout), so two trees can be compared on one host.  Each case draws 64
operand pairs from a fixed seed and times whole sweeps over them for about
one second in all; the best of 5 such rounds is printed, one JSON object
per line: {"case", "op", "per_s"}.

  N=1         rationals a/b, |a| <= 99, 1 <= b <= 12
  N=12 sparse zeta_12^e times such a rational, plus an integer
  N=12 dense  all phi(12) = 4 power-basis coefficients such rationals
  N=60 dense  all phi(60) = 16 power-basis coefficients such rationals
"""
from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path


def operands(CycNum, rng: random.Random, case: str):
    def rat():
        return Fraction(rng.randint(-99, 99), rng.randint(1, 12))

    if case == "N=1":
        return CycNum.rational(rat())
    if case == "N=12 sparse":
        return CycNum(12, {rng.randrange(12): rat()}) + rng.randint(-9, 9)
    N, phi = (12, 4) if case == "N=12 dense" else (60, 16)
    return CycNum(N, {e: rat() for e in range(phi)})


def rate(pairs, op) -> float:
    best = 0.0
    for _ in range(5):
        n, start = 0, time.perf_counter()
        while (elapsed := time.perf_counter() - start) < 0.2:
            for a, b in pairs:
                op(a, b)
            n += len(pairs)
        best = max(best, n / elapsed)
    return best


def main(argv: list[str]) -> None:
    src = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src")
    sys.path.insert(0, str(src.resolve()))
    from reflekt.exact import CycNum

    for case in ("N=1", "N=12 sparse", "N=12 dense", "N=60 dense"):
        rng = random.Random(20261020)
        pairs = [(operands(CycNum, rng, case), operands(CycNum, rng, case)) for _ in range(64)]
        for name, op in (("add", lambda a, b: a + b), ("mul", lambda a, b: a * b)):
            print(json.dumps({"case": case, "op": name, "per_s": round(rate(pairs, op))}))


if __name__ == "__main__":
    main(sys.argv[1:])
