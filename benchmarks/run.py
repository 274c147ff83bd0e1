#!/usr/bin/env python3
"""entroscope benchmark: run one workload, check its tables, print metrics.

Usage (from the repository root):
  python3 benchmarks/run.py --workload desk-cold [--seed 42] [--seconds 36] [--trace 0]

Every repetition is a fresh worker process (benchmarks/worker.py) that
imports entroscope from src/ and runs the workload's CLI calls through
`entroscope.cli.main`.  Repetitions run one after another until another
one would overrun --seconds; at least one runs (two with --trace 1: one
untraced, one traced).  Each repetition's tables are checked by check.py.

--trace 0 prints the end-to-end metrics (BENCHMARK.json "end_to_end"):
  wall_s       median over repetitions, first main() call to last table
  setup_s      median start-up (interpreter, imports, preparation) over
               repetitions and start-up probes, plus the cache fill of
               analysis-warm
  peak_rss_mb  largest ru_maxrss of a repetition process
and error_rate = failed / attempted operations, where an operation is one
CLI call or one output check.  --trace 1 prints the per-layer metrics of
the traced repetitions and the tracing overhead.  The last line of output is
one JSON object: correct, attempted, failed, metrics.  Environment, spans
and per-repetition figures are written to .bench_work/last-<workload>-trace<k>.json.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_run, load_reference
from workloads import DEFAULT_SEED, NAMES, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
PROBES = 3  # start-up probes per run, besides one per repetition
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _machine() -> dict:
    cpu, mem_kb = "unknown", None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": None if mem_kb is None else round(mem_kb / 1024),
        "platform": platform.platform(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": _git_commit(),
    }


class Runner:
    """One benchmark run of one workload: set-up, repetitions, checks."""

    def __init__(self, workload, work: Path, reference: dict):
        self.wl = workload
        self.work = work
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.startup_s = []
        self.environment = None
        self._children = 0

    def spawn(self, mode: str, cache: Path | None = None, trace: bool = False):
        """Run one worker to completion; its result, or None if it failed.

        Without `cache` the worker gets a fresh, empty spectrum cache.
        """
        self._children += 1
        work = self.work / f"{mode}{self._children}"
        work.mkdir(parents=True)
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--mode", mode,
            "--workload", self.wl.name, "--seed", str(self.wl.seed),
            "--work", str(work), "--cache", str(cache or work / "cache"),
            "--t0", repr(time.time()),
        ]
        if trace:
            cmd.append("--trace")
        log = work / "worker.log"
        with open(log, "wb") as fh:
            try:
                ok = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    timeout=CHILD_TIMEOUT_S, cwd=ROOT).returncode == 0
            except subprocess.TimeoutExpired:
                ok = False
        result_path = work / "result.json"
        if not ok or not result_path.is_file():
            self._fail(f"{mode} worker failed", log.read_text(errors="replace")[-2000:])
            return None
        result = json.loads(result_path.read_text())
        result["dir"] = work
        if mode != "fill":  # the fill's start-up is part of the fill
            self.startup_s.append(result["setup_s"])
        self.environment = self.environment or result["environment"]
        calls = {"fill": [self.wl.fill], "rep": self.wl.calls}.get(mode, [])
        for argv, rc in zip(calls, result.get("codes", [])):
            self.attempted += 1
            if rc != 0:
                self._fail(f"entroscope {' '.join(argv)} exited {rc}",
                           log.read_text(errors="replace")[-2000:])
        return result

    def _fail(self, what: str, detail: str = "") -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)
        if detail:
            print(detail, file=sys.stderr)

    def check(self, result: dict) -> None:
        for c in check_run(result["dir"] / "out", self.wl, self.reference):
            if c.ok:
                self.attempted += 1
            else:
                self._fail(f"check {c.name}: {c.detail}")

    def run(self, seconds: float, trace: bool) -> tuple[float, list[dict], list[dict]]:
        """Set up, then repeat; returns (cache fill seconds, untraced, traced reps)."""
        for _ in range(PROBES):
            self.spawn("probe")
        fill_s, shared_cache = 0.0, None
        if self.wl.fill is not None:
            shared_cache = self.work / "cache"
            filled = self.spawn("fill", shared_cache)
            if filled is not None:
                fill_s = filled["fill_s"]
        plain, traced, durations = [], [], []
        begin = time.monotonic()
        while True:
            as_traced = trace and len(plain) > len(traced)
            t = time.monotonic()
            result = self.spawn("rep", shared_cache, as_traced)
            durations.append(time.monotonic() - t)
            if result is not None:
                self.check(result)
                (traced if as_traced else plain).append(result)
                shutil.rmtree(result["dir"] / "out", ignore_errors=True)
                shutil.rmtree(result["dir"] / "cache", ignore_errors=True)
            elapsed = time.monotonic() - begin
            done = len(durations) >= (2 if trace else 1)
            if done and elapsed + statistics.median(durations) > seconds:
                break
        return fill_s, plain, traced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0,
                   help="measure for this long; at least one repetition runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "entroscope" / "cli.py").is_file():
        print(f"error: no entroscope sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    nproc = _pin_threads()
    workload = build(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    runner = Runner(workload, work, load_reference())
    try:
        fill_s, plain, traced = runner.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not plain or (args.trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    wall = statistics.median(r["wall_s"] for r in plain)
    values = {}
    if args.trace:
        per_rep = [r["layers"] for r in traced]
        for name in {k for layers in per_rep for k in layers}:
            samples = [layers[name] for layers in per_rep if name in layers]
            values[name] = statistics.median(samples)
        values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
    else:
        values["wall_s"] = wall
        values["setup_s"] = statistics.median(runner.startup_s) + fill_s
        values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in plain)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in values
    }
    error_rate = runner.failed / runner.attempted

    env = {**_machine(), **(runner.environment or {})}
    print(f"workload {workload.name} seed {workload.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetition(s), {nproc} BLAS threads")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':<40} {error_rate:>16.6g} "
          f"({runner.failed} of {runner.attempted} operations failed)")
    print("environment " + json.dumps(env))
    record = {
        "workload": workload.name, "seed": workload.seed, "trace": args.trace,
        "environment": env, "metrics": metrics, "error_rate": error_rate,
        "failures": runner.failures, "setup_probes_s": runner.startup_s,
        "fill_s": fill_s,
        "repetitions": [
            {k: v for k, v in r.items() if k not in ("dir", "environment", "spans")}
            for r in plain + traced
        ],
        "spans": [r["spans"] for r in traced],
    }
    (WORK / f"last-{workload.name}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
