"""One benchmark process: start-up probe, cache fill, or one repetition.

Started by run.py and test_check.py.  It imports entroscope from the checkout's
`src/`, times its own set-up from the moment the runner spawned it, runs the
workload's CLI calls through `entroscope.cli.main` and writes one JSON result.

Modes:
  probe  interpreter start, imports and workload preparation only
  fill   probe, then the workload's cache-filling call (analysis-warm)
  rep    probe, then every call of the workload; with --trace, under spans
"""
import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def _call(main, argv, out_root, tracer) -> int:
    full = [*argv, "--out", str(out_root / argv[0])]
    span = tracer.open(f"cli.{argv[0]}") if tracer else None
    try:
        return main(full)
    except Exception:  # a crash in one call is one failed operation
        traceback.print_exc()
        return -1
    finally:
        if tracer:
            tracer.close(span)


def run(args) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import entroscope.cli as cli
    from workloads import EXPERIMENTS, build

    if Path(cli.__file__).resolve().parent != SRC / "entroscope":
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's src/")
    workload = build(args.workload, args.seed)
    work = Path(args.work)
    out_root = work / "out"
    out_root.mkdir(parents=True, exist_ok=True)
    os.environ["ENTROSCOPE_CACHE_DIR"] = args.cache
    result = {"setup_s": time.time() - args.t0, "environment": _environment(np, scipy)}

    if args.mode == "fill":
        rc = _call(cli.main, workload.fill, work / "fill", None)
        result.update(fill_s=time.time() - args.t0, codes=[rc])
    elif args.mode == "rep":
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.install()
            # One span per main() call; experiments this workload skips read 0.
            tracer.names += [f"cli.{exp}" for exp in EXPERIMENTS]
        t_first = time.perf_counter()
        codes = [_call(cli.main, argv, out_root, tracer) for argv in workload.calls]
        result.update(
            wall_s=time.perf_counter() - t_first,
            codes=codes,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer:
            result.update(layers=tracer.metrics(), spans=tracer.spans)
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--mode", choices=("probe", "fill", "rep"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True, help="this process's scratch directory")
    p.add_argument("--cache", required=True, help="spectrum cache directory")
    p.add_argument("--t0", type=float, required=True, help="time.time() at spawn")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    result = run(args)
    tmp = Path(args.work) / "result.json.tmp"
    tmp.write_text(json.dumps(result))
    os.replace(tmp, Path(args.work) / "result.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
