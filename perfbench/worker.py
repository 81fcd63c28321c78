"""One benchmark child: import reflekt cold, run one workload, report JSON.

run.py starts one of these at a time, in a fresh process, so the caches
inside reflekt fill once per process as they do for a CLI user.  The child
pins itself to its CPU, samples the host speed (speed.py) and times
``import reflekt.cli``; nothing that reflekt imports is loaded before it.  Every time is reported twice: as measured (``*_s``) and rescaled to the
reference speed (``*_ref_s``).  The last stdout line is one JSON object.

usage: worker.py --setup-only
       worker.py --workload NAME --seed N [--trace SPANS.jsonl] [--smoke] [--record]
"""
import os
import sys
import time

import speed  # perfbench's own; it loads nothing a fresh Python has not

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    speed.pin_to_current_cpu()
    probe = speed.SpeedProbe()
    tracer = None
    if "--trace" in sys.argv:
        import tracing

        tracer = tracing.Tracer()
        tracer.time_import("numpy", "kz.numpy_import")
    # The import runs uninterrupted, rescaled by two kernel runs on each side.
    probe.sample(2)
    import_start = time.perf_counter()
    if tracer is None:
        import reflekt.cli  # noqa: F401
    else:
        with tracer.region("cli.import"):
            import reflekt.cli  # noqa: F401
    import_end = time.perf_counter()
    probe.sample(2)
    probe.start()

    import argparse
    import json
    import platform
    import resource
    from importlib.metadata import version

    import reflekt

    p = argparse.ArgumentParser()
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="write spans here as JSON lines")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record", action="store_true")
    args = p.parse_args()

    if not os.path.realpath(reflekt.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: reflekt imported from {reflekt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {
        "import_s": import_end - import_start,
        "python": platform.python_version(),
        "numpy": version("numpy"),
    }
    if not args.setup_only:
        import workloads

        expected = {"digests": {}, "gamma_pairs": {}}
        if not args.record:
            with open(os.path.join(HERE, "expected.json")) as fh:
                expected = json.load(fh)
        if tracer is not None:
            tracer.install()
        run_start = time.perf_counter()
        out = workloads.run(args.workload, args.seed, expected, smoke=args.smoke,
                            record=args.record)
        run_end = time.perf_counter()
        result.update(
            wall_s=run_end - run_start,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            attempted=out.attempted,
            failed=len(out.failures),
            failures=out.failures,
            incorrect=out.incorrect,
            kz_margin_digits=out.margin_digits(workloads.kz.KZSettings().hecke_tol),
        )
        if args.record:
            result["recorded"] = out.recorded
        if tracer is not None:
            result["layers"] = tracer.layers()
            tracer.dump(args.trace)
    probe.stop()
    result["import_ref_s"] = probe.rescale(import_start, import_end)
    result["kernel_s"] = probe.median_kernel_s()
    if not args.setup_only:
        result["wall_ref_s"] = probe.rescale(run_start, run_end)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
