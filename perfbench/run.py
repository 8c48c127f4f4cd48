"""Benchmark for codeplane: four in-process CLI workloads and a traced run.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Each workload (grid, tables, oracle, ensemble; see ``workloads.py``) is a
seeded list of ``codeplane`` command lines run one after another by one
client in one fresh process: a closed loop with a single caller, which is
how the single-threaded library is used. The command lines reach the
program through ``codeplane.cli.main(argv)``; every op's output files are
checked against independent references (``checks.py``).

With ``--trace 0`` the run prints the end-to-end metrics:

    setup_s        median time from starting a fresh interpreter to ready
                   (``codeplane.cli`` imported, one warm-up op run), over
                   several starts
    wall_s         sum of the op latencies: time to run the whole op list
    op_p50_ms      median op latency
    op_p90_ms      90th percentile op latency (>= 100 ops, so >= 10 beyond)
    peak_rss_mb    peak resident set size of the workload process
    ops_ok_frac    ops that exited 0 or 3 with correct outputs / attempted
    decided_frac   ops that exited 0 / attempted (3 means a node budget ran
                   out with partial results: no failure, but no answer)

With ``--trace 1`` it runs the same op list twice, in two fresh processes,
untraced and then with wrappers around each layer's public functions
(``tracing.py``), and prints the per-layer metrics plus
``trace.overhead_frac``, the traced wall time over the untraced one,
minus 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``correct`` is false
when some output disagrees with its reference; ops that crash or exit
outside {0, 3} count in ``failed`` too. The lines before it give the run
context (kernel backend, versions, CPU count, seed, commit), each metric
with its unit, the SHA-256 of all output bytes and every failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: fresh-interpreter starts per run whose median is setup_s
SETUP_STARTS = 7
#: passes over the op list in an untraced run; an op's latency is its median
#: over the passes, which filters out short bursts of a shared machine's
#: noise (not its slow drift)
PASSES = 3
#: a run is abandoned, and the benchmark fails, after this many seconds
DEADLINE_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "ops_ok_frac": "ratio", "decided_frac": "ratio",
}


class BenchError(Exception):
    pass


def _spawn(args: list[str], work: Path, deadline: float) -> tuple[float, str]:
    """Run a worker; return (seconds until it printed ``ready``, its remaining stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=work, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        if first.strip() != "ready":
            raise BenchError(f"worker did not start: {first.strip()!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return ready, rest


def _percentile(values, q: int) -> float:
    """q-th percentile, nearest rank."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def _context(seed: int, worker_context: dict) -> dict:
    # the ceiling keeps git from reporting the commit of a repository that
    # merely contains an exported checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "codeplane").glob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {**worker_context, "nproc": os.cpu_count(), "seed": seed, "git_commit": commit,
            "src_sha256": src.hexdigest()[:16],
            "kernels_env": os.environ.get("CODEPLANE_KERNELS")}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "codeplane" / "cli.py").is_file():
        raise BenchError(f"no codeplane sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    rounds = workloads.rounds_for(workload, seconds / PASSES)
    base = ROOT / ".perfbench"
    work = base / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_STARTS - 1):
                setups.append(_spawn(["probe", str(ROOT), workload], work, deadline)[0])
        passes = "1" if trace else str(PASSES)
        ready, out = _spawn(["run", str(ROOT), workload, str(seed), str(rounds), passes, "0"],
                            work, deadline)
        setups.append(ready)
        result = json.loads(out.strip().splitlines()[-1])
        if trace:
            _, out = _spawn(["run", str(ROOT), workload, str(seed), str(rounds), "1", "1"],
                            work, deadline)
            traced = json.loads(out.strip().splitlines()[-1])
            for path in work.glob("spans-*.jsonl"):
                path.replace(base / path.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lat = [statistics.median(op) for op in zip(*result["latencies"])]
    codes = result["codes"]
    attempted = len(lat)
    failed = len({f["index"] for f in result["failures"]})
    report = {
        "context": _context(seed, result["context"]),
        "attempted": attempted,
        "failed": failed,
        "correct": not any(f["kind"] == "mismatch" for f in result["failures"]),
        "failures": result["failures"],
        "digest": result["digest"],
        "check_s": result["check_s"],
    }
    if trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = sum(traced["latencies"][0]) / sum(lat) - 1
        report["bindings"] = traced["bindings"]
        report["units"] = tracing.UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(lat),
            "op_p50_ms": _percentile(lat, 50) * 1000,
            "op_p90_ms": _percentile(lat, 90) * 1000,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "ops_ok_frac": (attempted - failed) / attempted,
            "decided_frac": sum(1 for c in codes if c == 0) / attempted,
        }
        report["units"] = END_TO_END_UNITS
    report["metrics"] = metrics
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    print("context " + json.dumps(report["context"], sort_keys=True))
    print(f"workload {args.workload}  ops {report['attempted']}  failed {report['failed']}  "
          f"output checks took {report['check_s']:.2f} s")
    for failure in report["failures"]:
        print("failed op " + json.dumps(failure))
    for name, value in report["metrics"].items():
        print(f"  {name:32s} {value:>16.6g} {report['units'][name]}")
    print(f"outputs_sha256 {report['digest']}")
    if "bindings" in report:
        print("traced bindings " + " ".join(report["bindings"]))
    metrics = {name: {"value": value, "unit": report["units"][name]}
               for name, value in report["metrics"].items()}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
