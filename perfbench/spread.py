"""Run-to-run spread of the end-to-end metrics, checked against BENCHMARK.json.

Runs the benchmark once per seed 1-10 on every workload, one process at a
time, and prints per metric the median and the quartile spread (Q3 - Q1,
as ``statistics.quantiles(values, n=4)`` gives them) as a share of the
median, next to the metric's bound; a spread above a third of the bound is
marked WIDE.  It then runs seed 1 again, untraced and twice traced, and
checks that the exact counts and the ``stats.*`` counts repeat bit for bit.
Exits 1 if any metric is WIDE or any count differs.

    python3 perfbench/spread.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
EXACT = ("mean_comparisons", "mean_error", "error_bound_ratio", "space_bytes")
STATS = ("stats.max_cell_keys", "stats.empty_cell_frac", "stats.collision_probability",
         "stats.rho")


def run(spec: dict, workload: str, seed: int, trace: int = 0) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same(name: str, first: dict, again: dict) -> bool:
    identical = first["metrics"][name] == again["metrics"][name]
    print(f"  repeat seed {SEEDS[0]} {name}: {'identical' if identical else 'DIFFERS'}")
    return identical


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(spec, workload, seed) for seed in SEEDS]
        print(f"== {workload} ({len(SEEDS)} seeds)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            share = (q3 - q1) / med
            steady = share <= bound / 3
            ok &= steady
            print(f"  {name:20s} median {med:<14.6g} spread {share:7.4f} "
                  f"bound {bound:5.3f} {'ok' if steady else 'WIDE'}")
            if not steady:
                print("    values:", " ".join(f"{v:.6g}" for v in sorted(values)))
        again = run(spec, workload, SEEDS[0])
        for name in EXACT:
            ok &= same(name, results[0], again)
        traced = [run(spec, workload, SEEDS[0], trace=1) for _ in range(2)]
        for name in STATS:
            ok &= same(name, *traced)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
