"""One benchmark process: import codeplane from the checkout, warm up, run ops.

Started by ``run.py`` in a fresh interpreter, with the work directory as
its current directory. It prints ``ready`` once ``codeplane.cli`` is
imported and the warm-up op has run; that is the end of set-up. In run
mode it then times each op of the list with ``perf_counter`` around
``codeplane.cli.main(argv)``, checks the op's output files outside the
timed region, and prints one JSON line with the raw results. The op list
can run in several passes: the run then reports every pass's latencies,
and outputs of later passes must equal the first pass's byte for byte.

    python3 worker.py probe ROOT WORKLOAD
    python3 worker.py run ROOT WORKLOAD SEED ROUNDS PASSES TRACE
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

OUT = "out"


def _import_cli(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    from codeplane import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported codeplane from {cli.__file__}, not from {src}")
    return cli


def _run_op(cli, op) -> tuple[float, object, str]:
    """(seconds, exit code or exception, stderr text) of one op."""
    for name, text in op.files:
        Path(name).write_text(text, encoding="utf-8")
    shutil.rmtree(OUT, ignore_errors=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv) + ["--out", OUT])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash is a failed op, not a benchmark error
            code = exc
        elapsed = time.perf_counter() - start
    return elapsed, code, sink.getvalue()


def _digest_outputs(op, code) -> str:
    """SHA-256 of the op, its exit code and every output file it wrote."""
    digest = hashlib.sha256(f"{op.label}\0{code}\0".encode())
    if os.path.isdir(OUT):
        for name in sorted(os.listdir(OUT)):
            digest.update(name.encode() + b"\0" + Path(OUT, name).read_bytes())
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    mode, root, workload = argv[0], Path(argv[1]), argv[2]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checks
    import workloads

    cli = _import_cli(root)
    _run_op(cli, workloads.warmup_op(workload))
    print("ready", flush=True)
    if mode == "probe":
        return 0

    seed, rounds, passes, trace = int(argv[3]), int(argv[4]), int(argv[5]), argv[6] == "1"
    ops = workloads.make_ops(workload, seed, rounds)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    # latencies[p][i]: op i in pass p; outputs are checked in the first pass
    # and must repeat byte for byte in the later ones
    latencies = [[0.0] * len(ops) for _ in range(passes)]
    codes, failures, digests = [], [], []
    check_s = 0.0
    for p in range(passes):
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.q = int(checks.arg(op.argv, "q", 2))
            latencies[p][i], code, stderr = _run_op(cli, op)
            started = time.perf_counter()
            crash = None
            if isinstance(code, BaseException):
                crash, code = f"raised {type(code).__name__}: {str(code)[:120]}", type(code).__name__
            digest = _digest_outputs(op, code)
            if p > 0:
                if digest != digests[i]:
                    failures.append({"index": i, "op": op.label, "kind": "mismatch", "problems": [
                        f"outputs of pass {p} differ from pass 0"], "stderr": stderr.strip()[-300:]})
                continue
            if crash:
                kind, problems = "crash", [crash]
            elif code not in (checks.EXIT_OK, checks.EXIT_BUDGET):
                kind, problems = "exit", [f"exit code {code}"]
            else:
                kind, problems = "mismatch", checks.check_op(op.argv, code, Path(OUT), dict(op.files))
            codes.append(code)
            digests.append(digest)
            if problems:
                failures.append({"index": i, "op": op.label, "kind": kind, "problems": problems,
                                 "stderr": stderr.strip()[-300:]})
            check_s += time.perf_counter() - started

    from codeplane import __version__, kernels
    import numpy

    result = {
        "latencies": latencies,
        "codes": codes,
        "failures": failures,
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "check_s": check_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "context": {
            "backend": kernels.BACKEND,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "codeplane": __version__,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["bindings"] = tracer.bindings
        tracer.dump(f"spans-{workload}-{seed}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
