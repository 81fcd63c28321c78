#!/usr/bin/env python3
"""Run one reflekt benchmark workload and print its metrics.

usage (from the root of a reflekt checkout):
    python3 perfbench/run.py --workload {corpus,scale,minmat,kz} --seed N
                             --seconds S --trace {0,1} [--smoke]
    python3 perfbench/run.py --record    # rewrite perfbench/expected.json

Each workload runs in fresh child processes (worker.py), one at a time, with
the BLAS/OpenMP pools capped at one thread and REFLEKT_CACHE, REFLEKT_SEED
and REFLEKT_MAX_ORDER unset.

--trace 0: a few import-only children give setup_s, then as many whole
workload passes as fit in --seconds (at least one); the end-to-end metrics
are medians over the passes, and setup_s over all children.  setup_s and
wall_s are rescaled to the reference speed (speed.py).  --trace 1: one
untraced and one traced pass; the per-layer metrics come from the traced
one, as measured, and trace.overhead_s is the difference of their wall_s.
The last stdout line is the JSON result; the line before it is a machine
note (nproc, Python, numpy, revision) with the times as measured, before
rescaling, and the median kernel time.
Spans of the traced pass go to .perfbench/spans-<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing  # perfbench's own; it does not import reflekt

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("corpus", "scale", "minmat", "kz")
SETUP_SAMPLES = 7  # import-only children per --trace 0 run, after one warm-up
PYCACHE = ".perfbench/pycache"
TIME_LIMIT = 170.0  # seconds; the whole run must end within 180
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# PYTHONDONTWRITEBYTECODE is dropped so that timed imports load bytecode, as an
# installed CLI does.  The warm-up child writes it under PYCACHE, inside the
# checkout, never into src/ or site-packages.
DROPPED_VARS = (
    "REFLEKT_CACHE",
    "REFLEKT_SEED",
    "REFLEKT_MAX_ORDER",
    "PYTHONDONTWRITEBYTECODE",
    "PYTHONPROFILEIMPORTTIME",
)


class BenchError(Exception):
    pass


class Children:
    """Starts worker children one at a time, within the run's time limit."""

    def __init__(self, root: Path, started: float):
        self.root = root
        self.deadline = started + TIME_LIMIT
        env = {k: v for k, v in os.environ.items() if k not in DROPPED_VARS}
        env.update({var: "1" for var in THREAD_VARS})
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONPYCACHEPREFIX"] = str(root / PYCACHE)
        self.env = env

    def run(self, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), *args],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {' '.join(args)} did not finish in time")
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_note(root: Path, child: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    revision = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=30)
            revision = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": child["python"],
        "numpy": child["numpy"],
        "git_revision": revision,
        "src_sha256": src.hexdigest(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def pass_args(workload: str, seed: int, smoke: bool) -> list[str]:
    return ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])


def end_to_end(children: Children, args) -> tuple[list[dict], dict, dict]:
    children.run("--setup-only")  # warm-up: writes the bytecode an installed CLI would have
    setup = [children.run("--setup-only") for _ in range(SETUP_SAMPLES)]
    passes = []
    measuring = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(children.run(*pass_args(args.workload, args.seed, args.smoke)))
        now = time.monotonic()
        # start another pass only if it should end within --seconds
        if now + (now - t0) > min(measuring + args.seconds, children.deadline - 5):
            break
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    imports = setup + passes
    metrics = {
        "setup_s": metric(statistics.median(c["import_ref_s"] for c in imports), "s"),
        "wall_s": metric(statistics.median(p["wall_ref_s"] for p in passes), "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "success_ratio": metric(1 - failed / attempted, "ratio"),
        "kz_margin_digits": metric(
            statistics.median(p["kz_margin_digits"] for p in passes), "digits"
        ),
    }
    raw = {
        "setup_s": statistics.median(c["import_s"] for c in imports),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "kernel_s": statistics.median(p["kernel_s"] for p in passes),
    }
    return passes, metrics, raw


def per_layer(children: Children, args) -> tuple[list[dict], dict, dict]:
    out_dir = children.root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}.jsonl"
    plain = children.run(*pass_args(args.workload, args.seed, args.smoke))
    traced = children.run(*pass_args(args.workload, args.seed, args.smoke), "--trace", str(spans))
    values = dict(traced["layers"])
    values[tracing.OVERHEAD] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: metric(values[name], tracing.unit_of(name)) for name in tracing.LAYER_METRICS}
    raw = {"wall_s": plain["wall_s"], "kernel_s": plain["kernel_s"]}
    return [plain, traced], metrics, raw


def record(children: Children) -> int:
    """Run every workload once and store its exact digests and S3 gamma pairs."""
    merged: dict[str, dict] = {"digests": {}, "gamma_pairs": {}}
    for workload in WORKLOADS:
        got = children.run("--workload", workload, "--record")["recorded"]
        for section, entries in got.items():
            for key, value in entries.items():
                if merged[section].setdefault(key, value) != value:
                    raise BenchError(f"{key} differs between workloads")
        print(f"{workload}: recorded {len(got['digests'])} digests", file=sys.stderr)
    with open(HERE / "expected.json", "w") as fh:
        json.dump(merged, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str]) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced inputs, for the smoke test")
    p.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "reflekt" / "__init__.py").is_file():
        print("error: run from the root of a reflekt checkout (no src/reflekt here)", file=sys.stderr)
        return 2
    children = Children(root, started)
    try:
        if args.record:
            return record(children)
        if args.workload is None:
            p.error("--workload is required")
        if args.trace:
            passes, metrics, raw = per_layer(children, args)
        else:
            passes, metrics, raw = end_to_end(children, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for done in passes:
        for op_id, reason in sorted(done["failures"].items()):
            print(f"failed {op_id}: {reason}")
    print(json.dumps({"machine": machine_note(root, passes[0]), "passes": len(passes),
                      "as_measured": raw}))
    result = {
        "correct": not any(done["incorrect"] for done in passes),
        "attempted": sum(done["attempted"] for done in passes),
        "failed": sum(done["failed"] for done in passes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
