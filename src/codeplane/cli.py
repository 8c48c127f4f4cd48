"""Command-line surface: reproducible experiments and static reports.

Every run validates its configuration, then writes output files that embed
a manifest echoing the full effective configuration (as a comment line in
CSV/SVG, as a "manifest" key in JSON). Outputs contain no timestamps, so
re-running a command with the same configuration and seed produces
byte-identical CSV/JSON, and SVG identical up to the documented
generator-version comment.

Exit codes: 0 success, 2 configuration error, 3 budget/timeout with
partial results, 4 internal contract violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import bounds as bounds_mod
from . import effective, search, spoiling
from .codes import (
    Code,
    csv_point_row,
    params,
    read_code_text,
    write_code_text,
)
from .errors import (
    BudgetExceededError,
    CodeplaneError,
    ContractViolationError,
    InternalContractError,
    StabilizationTimeoutError,
)
from .geometry import RatPoint, format_rational
from .svg import PlaneSvg

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

#: environment variable overriding the default node budget
BUDGET_ENV = "CODEPLANE_MAX_NODES"


class ConfigError(ContractViolationError, argparse.ArgumentTypeError):
    """Bad configuration (exit 2); argparse keeps its message when a
    ``type=`` converter raises it."""


def _parse_point(text: str) -> tuple[Fraction, Fraction]:
    """The plane point (R, delta) of an ``R,delta`` spec with rational parts."""
    try:
        rate, delta = (Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected R,delta with rational parts, got {text!r}") from None
    return rate, delta


def _point_spec(text: str) -> str:
    """argparse type for --target: the spec text, which the manifest echoes."""
    _parse_point(text)
    return text


def _curve_spec(text: str) -> str:
    """argparse type for --curve: the spec text, once it names a curve. Which
    specs are valid does not depend on the alphabet, so q = 2 stands in."""
    try:
        bounds_mod.named_curve(text, 2)
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from None
    return text


def _curve_list(text: str) -> list[str]:
    """argparse type for --curves: comma-separated curve specs."""
    return [_curve_spec(name.strip()) for name in text.split(",") if name.strip()]


@dataclass(frozen=True)
class RunConfig:
    command: str
    q: int = 2
    n_grid: int = 4
    n_max: int = 6
    precision: int = 30
    grid_samples: int = 64
    max_nodes: int = search.SearchBudget().max_nodes
    max_millis: Optional[int] = None
    rng_seed: int = search.DEFAULT_SEED
    out_dir: str = "."
    svg: bool = False

    def budget(self) -> search.SearchBudget:
        return search.SearchBudget(
            max_nodes=self.max_nodes, max_millis=self.max_millis, rng_seed=self.rng_seed
        )


def _manifest(cfg: RunConfig, extra: Optional[dict] = None) -> dict:
    payload = {
        "tool": "codeplane",
        "schema": SCHEMA_VERSION,
        "config": {k: v for k, v in sorted(asdict(cfg).items())},
    }
    if extra:
        payload["args"] = {k: v for k, v in sorted(extra.items())}
    return payload


def _manifest_comment(manifest: dict) -> str:
    return "manifest " + json.dumps(manifest, sort_keys=True, separators=(",", ":"))


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _csv(manifest: dict, header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [f"# {_manifest_comment(manifest)}", ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(manifest: dict, payload: dict) -> str:
    return json.dumps({"manifest": manifest, **payload}, sort_keys=True, indent=1) + "\n"


def _cfg_from_args(args: argparse.Namespace, command: str) -> RunConfig:
    if getattr(args, "q", 2) < 2:
        raise ConfigError("alphabet size must be >= 2")
    if args.precision < 1:
        raise ConfigError(f"--precision must be >= 1, got {args.precision}")
    max_nodes = args.max_nodes
    if max_nodes is None:
        try:
            max_nodes = int(os.environ.get(BUDGET_ENV, search.SearchBudget().max_nodes))
        except ValueError:
            raise ConfigError(f"${BUDGET_ENV} must be an integer, got {os.environ[BUDGET_ENV]!r}") from None
    return RunConfig(
        command=command,
        q=getattr(args, "q", 2),
        n_grid=getattr(args, "N", 4),
        n_max=getattr(args, "nmax", 6),
        precision=args.precision,
        grid_samples=getattr(args, "grid", 64),
        max_nodes=max_nodes,
        max_millis=args.max_millis,
        rng_seed=args.seed,
        out_dir=args.out,
        svg=args.svg,
    )


# --- subcommand implementations -------------------------------------------


def cmd_bounds(args) -> int:
    cfg = _cfg_from_args(args, "bounds")
    curve_names = args.curves
    curves = [(name, bounds_mod.named_curve(name, cfg.q)) for name in curve_names]
    manifest = _manifest(cfg, {"curves": curve_names})
    edge = Fraction(cfg.q - 1, cfg.q)
    samples = cfg.grid_samples
    if samples < 2:
        raise ConfigError("need at least two sample points")
    rows = []
    for name, curve in curves:
        for idx in range(samples):
            delta = edge * Fraction(idx, samples - 1)
            value = curve.eval(delta, cfg.precision)
            rows.append(
                [
                    format_rational(delta),
                    name,
                    f"{float(value.lo):.12g}",
                    f"{float(value.hi):.12g}",
                    str(cfg.precision),
                ]
            )
    out = Path(cfg.out_dir)
    _write(out / "bounds.csv", _csv(manifest, ["delta", "curve", "lo_float", "hi_float", "precision_bits"], rows))
    if cfg.svg:
        canvas = PlaneSvg(title="bound curves")
        palette = ["#b03030", "#1f4e9c", "#247a3d", "#7a4a24", "#555555"]
        for (name, curve), color in zip(curves, palette * 3):
            verts = []
            for idx in range(samples):
                delta = edge * Fraction(idx, samples - 1)
                value = curve.eval(delta, cfg.precision)
                mid = (value.lo + value.hi) / 2
                verts.append(RatPoint(mid, delta))
            canvas.add_polyline(f"curve_{name}", verts, color=color)
        _write(out / "bounds.svg", canvas.render(_manifest_comment(manifest)))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    cfg = _cfg_from_args(args, "enumerate")
    strategies = tuple(s.strip() for s in args.strategy.split(",") if s.strip())
    manifest = _manifest(cfg, {"strategies": list(strategies)})
    cloud = search.enumerate_point_cloud(cfg.q, cfg.n_max, strategies, cfg.budget())
    rows = [csv_point_row(e.params) + [e.provenance] for e in cloud.entries]
    out = Path(cfg.out_dir)
    header = ["n", "m", "d", "R", "delta", "R_float", "delta_float", "provenance"]
    _write(out / "cloud.csv", _csv(manifest, header, rows))
    if cfg.svg:
        canvas = PlaneSvg(title="code points")
        canvas.add_points("cloud", [e.point for e in cloud.entries])
        vg = bounds_mod.vg_bound_curve(cfg.q)
        edge = Fraction(cfg.q - 1, cfg.q)
        verts = []
        for idx in range(65):
            delta = edge * Fraction(idx, 64)
            value = vg.eval(delta, cfg.precision)
            verts.append(RatPoint((value.lo + value.hi) / 2, delta))
        canvas.add_polyline("curve_vg", verts)
        _write(out / "cloud.svg", canvas.render(_manifest_comment(manifest)))
    return EXIT_OK


def cmd_sample(args) -> int:
    cfg = _cfg_from_args(args, "sample")
    manifest = _manifest(cfg, {"n": args.n, "m": args.m, "trials": args.trials})
    ensemble = search.random_ensemble(cfg.q, args.n, args.m, args.trials, cfg.budget())
    rows = []
    total = Fraction(0)
    for code, d in ensemble:
        p = params(code)
        rows.append(csv_point_row(p) + ["random"])
        total += Fraction(d, args.n)
    out = Path(cfg.out_dir)
    header = ["n", "m", "d", "R", "delta", "R_float", "delta_float", "provenance"]
    _write(out / "sample.csv", _csv(manifest, header, rows))
    mean = total / len(ensemble)
    summary = {
        "trials": args.trials,
        "mean_delta": format_rational(mean),
        "mean_delta_float": float(mean),
    }
    _write(out / "sample_summary.json", _json_text(manifest, summary))
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = _cfg_from_args(args, "oracle")
    manifest = _manifest(cfg, {"n": args.n, "m": args.m, "d": args.d, "linear": args.linear})
    out = Path(cfg.out_dir)
    if args.d is not None:
        outcome = search.exists_code(cfg.q, args.n, args.m, args.d, cfg.budget())
        payload = {
            "query": "exists",
            "status": outcome.status.value,
            "nodes": outcome.nodes,
            "reason": outcome.reason,
        }
        if outcome.witness is not None:
            _write(out / "witness.code.txt", write_code_text(outcome.witness))
            payload["witness_file"] = "witness.code.txt"
        _write(out / "oracle.json", _json_text(manifest, payload))
        return EXIT_OK if outcome.status is not search.ExistsStatus.UNKNOWN else EXIT_BUDGET
    outcome = search.best_min_distance(cfg.q, args.n, args.m, cfg.budget(), linear=args.linear)
    payload = {
        "query": "best_min_distance",
        "status": outcome.status.value,
        "d": outcome.d,
        "nodes": outcome.nodes,
        "reason": outcome.reason,
    }
    if isinstance(outcome.witness, Code):
        _write(out / "witness.code.txt", write_code_text(outcome.witness))
        payload["witness_file"] = "witness.code.txt"
    elif outcome.witness is not None:
        from .linear import write_generator_text

        _write(out / "witness.gen.txt", write_generator_text(outcome.witness))
        payload["witness_file"] = "witness.gen.txt"
    _write(out / "oracle.json", _json_text(manifest, payload))
    return EXIT_OK if outcome.exact else EXIT_BUDGET


def cmd_spoil(args) -> int:
    cfg = _cfg_from_args(args, "spoil")
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    manifest = _manifest(cfg, {"input": args.input, "op": args.op, "count": args.count})
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read input file: {exc}") from None
    code = read_code_text(text)
    initial = params(code)
    step_fn = {
        "lengthen": spoiling._lengthen_step,
        "puncture": spoiling._puncture_step,
        "shorten": spoiling._shorten_step,
    }[args.op]
    steps = []
    for _ in range(args.count):
        code, step = step_fn(code)
        steps.append(step)
    trace = spoiling.SpoilTrace(initial, tuple(steps), params(code))
    out = Path(cfg.out_dir)
    _write(out / "spoiled.code.txt", write_code_text(code))
    _write(out / "spoil_trace.json", _json_text(manifest, {"trace": trace.to_json()}))
    return EXIT_OK


def cmd_realize(args) -> int:
    cfg = _cfg_from_args(args, "realize")
    rate, delta = _parse_point(args.target)
    n = math.lcm(rate.denominator, delta.denominator)
    k = int(rate * n)
    d = int(delta * n)
    manifest = _manifest(cfg, {"target": args.target, "count": args.count, "k": k, "n": n, "d": d})
    outputs = spoiling.realize_point((k, n, d), cfg.q, args.count, budget=cfg.budget())
    out = Path(cfg.out_dir)
    summary = []
    for level, realized in enumerate(outputs, start=1):
        code_name = f"realize_a{level}.code.txt"
        seed_name = f"realize_a{level}.seed.txt"
        trace_name = f"realize_a{level}.trace.json"
        _write(out / code_name, write_code_text(realized.code))
        _write(out / seed_name, write_code_text(realized.seed))
        _write(out / trace_name, _json_text(manifest, {"trace": realized.trace.to_json()}))
        point = realized.point
        summary.append(
            {
                "level": level,
                "params": list(realized.params.triple()),
                "point": [format_rational(point.r), format_rational(point.delta)],
                "files": [code_name, seed_name, trace_name],
            }
        )
    _write(out / "realize_summary.json", _json_text(manifest, {"outputs": summary}))
    return EXIT_OK


def cmd_strip(args) -> int:
    cfg = _cfg_from_args(args, "strip")
    curve = bounds_mod.named_curve(args.curve, cfg.q)
    manifest = _manifest(cfg, {"curve": args.curve})
    strip = effective.build_strip(curve, cfg.n_grid, timeout_ms=cfg.max_millis)
    out = Path(cfg.out_dir)
    _write(out / "strip.json", _json_text(manifest, {"strip": strip.to_json()}))
    if cfg.svg:
        canvas = PlaneSvg(title="N-strip")
        canvas.add_cells("strip", strip.ball_set(), cfg.n_grid)
        canvas.add_polyline("gamma_plus", strip.gamma_plus, color="#b03030")
        canvas.add_polyline("gamma_minus", strip.gamma_minus, color="#1f4e9c")
        _write(out / "strip.svg", canvas.render(_manifest_comment(manifest)))
    return EXIT_OK


def cmd_approx(args) -> int:
    cfg = _cfg_from_args(args, "approx")
    curve = bounds_mod.named_curve(args.curve, cfg.q)
    manifest = _manifest(cfg, {"curve": args.curve})
    adm = effective.two_sided_approx(curve, n_grid=cfg.n_grid, timeout_ms=cfg.max_millis,
                                     strict=not args.lenient)
    estimate = effective.curve_estimate(adm)
    out = Path(cfg.out_dir)
    estimate_json = {
        "upper_staircase": [[format_rational(v.delta), format_rational(v.r)]
                            for v in estimate.upper_polyline()],
        "lower_staircase": [[format_rational(v.delta), format_rational(v.r)]
                            for v in estimate.lower_polyline()],
        "corner_points": [[format_rational(p.delta), format_rational(p.r)]
                          for p in estimate.corner_points],
        "error_bound": format_rational(estimate.error_bound),
    }
    _write(out / "approx.json",
           _json_text(manifest, {"admissible_set": adm.to_json(), "estimate": estimate_json}))
    rows = []
    for i, x in enumerate(estimate.abscissae()):
        rows.append(
            [
                format_rational(x),
                format_rational(estimate.lower_values[i]),
                format_rational(estimate.upper_values[i]),
                f"{float(estimate.lower_values[i]):.12g}",
                f"{float(estimate.upper_values[i]):.12g}",
            ]
        )
    _write(
        out / "approx.csv",
        _csv(manifest, ["delta", "lower", "upper", "lower_float", "upper_float"], rows),
    )
    if cfg.svg:
        canvas = PlaneSvg(title="two-sided approximation")
        canvas.add_cells("u_minus", adm.u_minus, cfg.n_grid, color="#74a86040")
        canvas.add_cells("u_plus", adm.u_plus, cfg.n_grid, color="#a8747440")
        canvas.add_cells("exceptional", adm.exceptional, cfg.n_grid, color="#d4c04a80")
        canvas.add_polyline("upper", estimate.upper_polyline(), color="#b03030")
        canvas.add_polyline("lower", estimate.lower_polyline(), color="#1f4e9c")
        _write(out / "approx.svg", canvas.render(_manifest_comment(manifest)))
    return EXIT_OK


# --- argument parsing -------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=search.DEFAULT_SEED, help="RNG seed")
    parser.add_argument("--max-nodes", type=int, default=None,
                        help=f"search node budget (default from ${BUDGET_ENV} or built-in)")
    parser.add_argument("--max-millis", type=int, default=None, help="wall-clock budget")
    parser.add_argument("--precision", type=int, default=30, help="enclosure precision bits")
    parser.add_argument("--svg", action="store_true", help="also emit SVG figures")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codeplane",
        description="Exact rate/distance geometry of block codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="tabulate bound curves")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--grid", type=int, default=64, help="sample count per curve")
    p.add_argument("--curves", type=_curve_list, default="vg", help="comma list: vg,gv_lower,singleton,hamming,singleton_zero")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("enumerate", help="build a code-point cloud")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--strategy", default="exhaustive-linear,seeded-family")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sample", help="random code ensembles with exact distances")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("oracle", help="existence / best-distance decisions")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, default=None, help="query a specific distance")
    p.add_argument("--linear", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("spoil", help="apply a spoiling move to a code file")
    p.add_argument("--input", required=True, help="code file (header 'q n m')")
    p.add_argument("--op", required=True, choices=["lengthen", "puncture", "shorten"])
    p.add_argument("--count", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_spoil)

    p = sub.add_parser("realize", help="construct codes hitting an exact plane point")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--target", type=_point_spec, required=True, help="point as R,delta (e.g. 1/8,1/8)")
    p.add_argument("--count", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("strip", help="N-strip of a curve's graph")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--curve", type=_curve_spec, default="synthetic:diag")
    p.add_argument("--N", type=int, default=4)
    _add_common(p)
    p.set_defaults(func=cmd_strip)

    p = sub.add_parser("approx", help="two-sided approximation of a monotone domain")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--curve", type=_curve_spec, default="synthetic:diag")
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--lenient", action="store_true",
                   help="tolerate non-admissible exceptional sets (degenerate stand-ins)")
    _add_common(p)
    p.set_defaults(func=cmd_approx)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later ``main``
    call of the process: in-process callers run many commands."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 for a bad argv, 0 after --help
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BudgetExceededError, StabilizationTimeoutError) as exc:
        print(f"budget/timeout: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalContractError as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ContractViolationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CodeplaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
