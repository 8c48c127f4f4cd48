"""Compare saved benchmark runs of two versions, workload by workload.

    python3 perfbench/run.py --workload grid --seed 1 > before-grid-1.log   # on the parent
    python3 perfbench/run.py --workload grid --seed 1 > after-grid-1.log    # on the change
    python3 perfbench/compare.py --before before-*.log --after after-*.log

For every metric it prints both medians, their ratio, and whether the change
is worse than the bound in ``BENCHMARK.json``. Runs whose kernel backend,
Python or numpy versions differ are flagged, because a lane switch (say a
build that compiles the C kernels) must not read as a speed-up; the exit
status is then 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTEXT_KEYS = ("backend", "python", "numpy", "nproc", "kernels_env")


def load(paths):
    """{workload: [(context, metrics), ...]} from saved run.py outputs."""
    runs: dict[str, list] = {}
    for path in paths:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        context = json.loads(next(ln for ln in lines if ln.startswith("context "))[8:])
        workload = next(ln for ln in lines if ln.startswith("workload ")).split()[1]
        metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
        runs.setdefault(workload, []).append((context, metrics))
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(args.before), load(args.after)

    status = 0
    for workload in sorted(set(before) & set(after)):
        contexts = {json.dumps({k: ctx.get(k) for k in CONTEXT_KEYS}, sort_keys=True)
                    for ctx, _ in before[workload] + after[workload]}
        if len(contexts) > 1:
            print(f"WARNING {workload}: runs differ in context, not a like-for-like comparison:")
            for ctx in sorted(contexts):
                print(f"  {ctx}")
            status = 2
        print(f"{workload}: {len(before[workload])} runs before, {len(after[workload])} after")
        names = [n for n in before[workload][0][1] if n in after[workload][0][1]]
        for name in names:
            old = statistics.median(m[name] for _, m in before[workload])
            new = statistics.median(m[name] for _, m in after[workload])
            better = info.get(name, {}).get("better", "lower")
            worse = (new - old) / old if old else 0.0
            if better == "higher":
                worse = -worse
            bound = info.get(name, {}).get("bound")
            verdict = "" if bound is None else ("WORSE THAN BOUND" if worse > bound else "within bound")
            ratio = f"{new / old:8.3f}x" if old else "        -"
            print(f"  {name:32s} {old:14.6g} -> {new:14.6g} {ratio}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
