"""espc benchmark: one workload per run, end-to-end or traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload uniform-linear --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
pass and prints the per-layer metrics.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is a JSON report with the environment, the sample count
behind every figure and any failed check.  The exit code is 0 only when
every check passed.  See perfbench/README.md for the metric and layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def environment() -> dict:
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
        "git_commit": None,
        "git_dirty": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    for cache in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (cache / "level").read_text().strip()
            kind = (cache / "type").read_text().strip()
            env["caches"][f"L{level}-{kind}"] = (cache / "size").read_text().strip()
        except OSError:
            pass
    git_env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            env["git_commit"] = head.stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, env=git_env, capture_output=True, text=True,
                                    timeout=30)
            env["git_dirty"] = bool(status.stdout.strip()) if status.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "espc" / "__init__.py").is_file():
        print(f"error: no espc sources under {SRC}", file=sys.stderr)
        return 2
    # One closed-loop client and no threads: keep numpy's BLAS pool from
    # spinning a second thread on the other core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import measure
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = measure.Tally()
    metrics, samples = {}, {}
    try:
        if args.trace:
            trace_path = WORK / f"trace-{w.name}-seed{args.seed}.npz"
            metrics, samples = measure.traced(
                w, lambda: workloads.set_up(w, args.seed, workdir), args.seed, workdir,
                tally, trace_path)
        else:
            t0 = time.perf_counter()
            s = workloads.set_up(w, args.seed, workdir)
            metrics, samples = measure.end_to_end(w, s, time.perf_counter() - t0, args.seed,
                                                  args.seconds, workdir, tally)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    except Exception as exc:
        # The program raised outside a guarded call: the run fails with a
        # result line rather than a bare traceback.
        traceback.print_exc()
        tally.check(False, f"run raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally.check(set(metrics) == set(units),
                f"metrics {sorted(set(metrics) ^ set(units))} missing or not in BENCHMARK.json")

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    report = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "samples": samples,
        "problems": tally.problems[:20],
        "env": environment(),
    }
    print(json.dumps(report))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
