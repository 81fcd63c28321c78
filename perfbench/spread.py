#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's spread.

The spread is (Q3 - Q1) / median of the per-seed values, with the quartiles
of ``statistics.quantiles(values, n=4)``; BENCHMARK.json bounds it for every
end-to-end metric except setup_s.  The times as measured, before rescaling,
are listed too, under ``as_measured.``.

usage (from the root of a reflekt checkout):
    python3 perfbench/spread.py --workload kz --seeds 1 2 3 4 5 [--trace 1]
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for name, value in json.loads(lines[-2]).get("as_measured", {}).items():
            values.setdefault(f"as_measured.{name}", []).append(value)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2:
            print(f"{name:28s} median {med:.6g}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = f"  bound {bound}" if bound is not None else ""
        print(f"{name:28s} median {med:.6g}  spread {spread:.4f}{note}  "
              f"values {' '.join(f'{v:.5g}' for v in vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
