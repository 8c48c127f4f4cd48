"""Command-line surface: reproducible experiments and static reports.

Every run validates its configuration, then writes output files that embed
a manifest echoing the full effective configuration (as a comment line in
CSV/SVG, as a "manifest" key in JSON). Outputs contain no timestamps, so
re-running a command with the same configuration and seed produces
byte-identical CSV/JSON, and SVG identical up to the documented
generator-version comment.

Exit codes: 0 success, 2 configuration error, 3 budget/timeout (only
``oracle`` writes a partial result), 4 internal contract violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import bounds as bounds_mod
from .budget import DEFAULT_BUDGET, DEFAULT_SEED, SearchBudget
from .errors import (
    BudgetExceededError,
    CodeplaneError,
    ContractViolationError,
    InternalContractError,
    SeedNotFoundError,
    StabilizationTimeoutError,
)
from .geometry import SquareRuns, format_ratio
from .svg import PlaneSvg

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

#: largest ``approx --N``: approx.json lists every square, O(N^2). At the cap (vg, q = 2) it is
#: 122 MB, written in about 1.8 s at a peak RSS of 287 MB; it exits 0 under ``ulimit -v`` 700 MB (2-vCPU x86-64).
APPROX_MAX_N = 2048


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
    q: int
    n_grid: int
    n_max: int
    precision: int
    grid_samples: int
    max_nodes: int
    max_millis: Optional[int]
    rng_seed: int
    out_dir: str
    svg: bool

    @functools.cached_property
    def budget(self) -> SearchBudget:
        return SearchBudget(
            max_nodes=self.max_nodes, max_millis=self.max_millis, rng_seed=self.rng_seed
        )


def _manifest(cfg: RunConfig, extra: Optional[dict] = None) -> dict:
    payload = {
        "tool": "codeplane",
        "schema": SCHEMA_VERSION,
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},  # both writers sort keys
    }
    if extra:
        payload["args"] = {k: v for k, v in sorted(extra.items())}
    return payload


def _manifest_comment(manifest: dict) -> str:
    return "manifest " + json.dumps(manifest, sort_keys=True, separators=(",", ":"))


def _write(path: Path, text: str):
    os.makedirs(path.parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        out.write(text)


def _csv(manifest: dict, header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [f"# {_manifest_comment(manifest)}", ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


_json_str = json.encoder.encode_basestring_ascii


def _indented(value, newline: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=1)`` for a value whose lines start
    with ``newline`` (a newline and the indent), ``SquareRuns`` as their [i, j] lists.
    json.dumps encodes indented text in pure Python, item by item; here a list of
    [str, str] pairs is one template, and square runs one join per column."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict and all(type(key) is str for key in value):
        inner = newline + " "
        items = (_json_str(key) + ": " + _indented(item, inner) for key, item in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}" if value else "{}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + " "
        if all(type(p) is list and len(p) == 2 and type(p[0]) is str and type(p[1]) is str for p in value):
            pair = "[" + inner + " %s," + inner + " %s" + inner + "]"
            items = [pair % (_json_str(a), _json_str(b)) for a, b in value]
        else:
            items = [_indented(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is SquareRuns:
        runs = [run for run in value.runs if run[1] < run[2]]
        if not runs:
            return "[]"
        inner, sep = newline + " ", "," + newline + " "
        # square (i, j) is head(i) + rows[j]: "[", the indented i and ",", then the indented j and "]"
        rows = [inner + f" {j}" + inner + "]" for j in range(max(hi for _, _, hi in runs))]
        heads = ["[" + inner + f" {i}," for i, _, _ in runs]
        columns = ((sep + head).join(rows[lo:hi]) for head, (_, lo, hi) in zip(heads, runs))
        return "[" + inner + sep.join(head + column for head, column in zip(heads, columns)) + newline + "]"
    if value is None or kind is bool:
        return {None: "null", True: "true", False: "false"}[value]
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    # non-str keys, tuples, NaN, other types: json.dumps, its lines (strings hold no raw \n) indented
    return json.dumps(value, sort_keys=True, indent=1).replace("\n", newline)


def _json_text(manifest: dict, payload: dict) -> str:
    """Every JSON artefact: exactly ``json.dumps(obj, sort_keys=True,
    indent=1)`` and a newline, for the manifest and payload in one dict."""
    return _indented({"manifest": manifest, **payload}, "\n") + "\n"


def _cfg_from_args(args: argparse.Namespace, command: str) -> RunConfig:
    if getattr(args, "q", 2) < 2:
        raise ConfigError("alphabet size must be >= 2")
    if args.precision < 1:
        raise ConfigError(f"--precision must be >= 1, got {args.precision}")
    cfg = RunConfig(
        command=command,
        q=getattr(args, "q", 2),
        n_grid=getattr(args, "N", 4),
        n_max=getattr(args, "nmax", 6),
        precision=args.precision,
        grid_samples=getattr(args, "grid", 64),
        max_nodes=args.max_nodes,
        max_millis=args.max_millis,
        rng_seed=args.seed,
        out_dir=args.out,
        svg=args.svg,
    )
    cfg.budget  # one budget per run: a zero or negative flag exits 2 before any command writes a file
    return cfg


# --- subcommand implementations -------------------------------------------


def cmd_bounds(args) -> int:
    cfg = _cfg_from_args(args, "bounds")
    curve_names = args.curves
    curves = list(zip(curve_names, bounds_mod.named_curves(curve_names, cfg.q)))
    manifest = _manifest(cfg, {"curves": curve_names})
    if cfg.grid_samples < 2:
        raise ConfigError("need at least two sample points")
    sampled = [(name, _curve_samples(curve, cfg.q, cfg.grid_samples, cfg.precision))
               for name, curve in curves]
    # n / d is float(Fraction(n, d)): int true division is correctly rounded
    rows = [
        [format_ratio(*delta), name, f"{lo[0] / lo[1]:.12g}", f"{hi[0] / hi[1]:.12g}", str(cfg.precision)]
        for name, samples in sampled
        for delta, (lo, hi) in samples
    ]
    out = Path(cfg.out_dir)
    _write(out / "bounds.csv", _csv(manifest, ["delta", "curve", "lo_float", "hi_float", "precision_bits"], rows))
    if cfg.svg:
        canvas = PlaneSvg(title="bound curves")
        palette = ["#b03030", "#1f4e9c", "#247a3d", "#7a4a24", "#555555"]
        for (name, samples), color in zip(sampled, palette * 3):
            canvas.add_polyline(f"curve_{name}", _midline(samples), color=color)
        _write(out / "bounds.svg", canvas.render(_manifest_comment(manifest)))
    return EXIT_OK


def _curve_samples(curve: bounds_mod.BoundCurve, q: int, samples: int,
                   precision: int) -> list[tuple[bounds_mod.Pair, bounds_mod.Ends]]:
    """(delta, enclosure ends of the curve) as integer pairs at ``samples`` evenly
    spaced deltas k (q - 1) / (q (samples - 1)) of [0, (q-1)/q]."""
    den = q * (samples - 1)
    return [((k * (q - 1), den), curve.eval_pairs(k * (q - 1), den, precision)) for k in range(samples)]


def _midline(samples: list[tuple[bounds_mod.Pair, bounds_mod.Ends]]) -> list[tuple[float, float]]:
    """(delta, R) floats of the polyline through the midpoints of sampled enclosures."""
    return [(d_n / d_d, (lo_n * hi_d + hi_n * lo_d) / (2 * lo_d * hi_d))
            for (d_n, d_d), ((lo_n, lo_d), (hi_n, hi_d)) in samples]


def _grid_floats(vertices: Sequence[tuple[int, int]], n_grid: int) -> list[tuple[float, float]]:
    """N-grid vertices (i, j) as (delta, R) floats (i / N, j / N); k / N is float(Fraction(k, N))."""
    return [(i / n_grid, j / n_grid) for i, j in vertices]


def cmd_enumerate(args) -> int:
    from . import codes, search

    cfg = _cfg_from_args(args, "enumerate")
    strategies = tuple(s.strip() for s in args.strategy.split(",") if s.strip())
    manifest = _manifest(cfg, {"strategies": list(strategies)})
    cloud = search.enumerate_point_cloud(cfg.q, cfg.n_max, strategies, cfg.budget)
    rows = [codes.csv_point_row(e.params) + [e.provenance] for e in cloud.entries]
    out = Path(cfg.out_dir)
    header = ["n", "m", "d", "R", "delta", "R_float", "delta_float", "provenance"]
    _write(out / "cloud.csv", _csv(manifest, header, rows))
    if cfg.svg:
        canvas = PlaneSvg(title="code points")
        params = [e.params for e in cloud.entries]
        canvas.add_points("cloud", [(p.d / p.n, codes.floor_log_q(p.m, p.q) / p.n) for p in params])
        vg = bounds_mod.vg_bound_curve(cfg.q)
        canvas.add_polyline("curve_vg", _midline(_curve_samples(vg, cfg.q, 65, cfg.precision)))
        _write(out / "cloud.svg", canvas.render(_manifest_comment(manifest)))
    return EXIT_OK


def cmd_sample(args) -> int:
    from . import codes, search

    cfg = _cfg_from_args(args, "sample")
    manifest = _manifest(cfg, {"n": args.n, "m": args.m, "trials": args.trials})
    ensemble = search.random_ensemble(cfg.q, args.n, args.m, args.trials, cfg.budget)
    # d is each trial's distance: no second O(m^2) pass
    rows = [codes.csv_point_row(codes.CodeParams(code.q, code.n, code.m, d)) + ["random"] for code, d in ensemble]
    total, count = sum(d for _, d in ensemble), args.n * args.trials  # mean delta = total / count
    out = Path(cfg.out_dir)
    header = ["n", "m", "d", "R", "delta", "R_float", "delta_float", "provenance"]
    _write(out / "sample.csv", _csv(manifest, header, rows))
    summary = {
        "trials": args.trials,
        "mean_delta": format_ratio(total, count),
        "mean_delta_float": total / count,
    }
    _write(out / "sample_summary.json", _json_text(manifest, summary))
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import codes, linear, search

    cfg = _cfg_from_args(args, "oracle")
    manifest = _manifest(cfg, {"n": args.n, "m": args.m, "d": args.d, "linear": args.linear})
    out = Path(cfg.out_dir)
    if args.d is not None:
        outcome = search.exists_code(cfg.q, args.n, args.m, args.d, cfg.budget)
        payload = {
            "query": "exists",
            "status": outcome.status.value,
            "nodes": outcome.nodes,
            "reason": outcome.reason,
        }
        if outcome.witness is not None:
            _write(out / "witness.code.txt", codes.write_code_text(outcome.witness))
            payload["witness_file"] = "witness.code.txt"
        _write(out / "oracle.json", _json_text(manifest, payload))
        return EXIT_OK if outcome.status is not search.ExistsStatus.UNKNOWN else EXIT_BUDGET
    outcome = search.best_min_distance(cfg.q, args.n, args.m, cfg.budget, linear=args.linear)
    payload = {
        "query": "best_min_distance",
        "status": outcome.status.value,
        "d": outcome.d,
        "nodes": outcome.nodes,
        "reason": outcome.reason,
    }
    if isinstance(outcome.witness, codes.Code):
        _write(out / "witness.code.txt", codes.write_code_text(outcome.witness))
        payload["witness_file"] = "witness.code.txt"
    elif outcome.witness is not None:
        _write(out / "witness.gen.txt", linear.write_generator_text(outcome.witness))
        payload["witness_file"] = "witness.gen.txt"
    _write(out / "oracle.json", _json_text(manifest, payload))
    return EXIT_OK if outcome.exact else EXIT_BUDGET


def cmd_spoil(args) -> int:
    from . import codes, spoiling

    cfg = _cfg_from_args(args, "spoil")
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    manifest = _manifest(cfg, {"input": args.input, "op": args.op, "count": args.count})
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read input file: {exc}") from None
    code = codes.read_code_text(text)
    initial = codes.params(code)
    step_fn = {
        "lengthen": spoiling._lengthen_step,
        "puncture": spoiling._puncture_step,
        "shorten": spoiling._shorten_step,
    }[args.op]
    steps = []
    for _ in range(args.count):
        code, step = step_fn(code)
        steps.append(step)
    trace = spoiling.SpoilTrace(initial, tuple(steps), codes.params(code))
    out = Path(cfg.out_dir)
    _write(out / "spoiled.code.txt", codes.write_code_text(code))
    _write(out / "spoil_trace.json", _json_text(manifest, {"trace": trace.to_json()}))
    return EXIT_OK


def cmd_realize(args) -> int:
    from . import codes, spoiling

    cfg = _cfg_from_args(args, "realize")
    rate, delta = _parse_point(args.target)
    n = math.lcm(rate.denominator, delta.denominator)
    k = int(rate * n)
    d = int(delta * n)
    manifest = _manifest(cfg, {"target": args.target, "count": args.count, "k": k, "n": n, "d": d})
    outputs = spoiling.realize_point((k, n, d), cfg.q, args.count, budget=cfg.budget)
    out = Path(cfg.out_dir)
    summary = []
    for level, realized in enumerate(outputs, start=1):
        code_name = f"realize_a{level}.code.txt"
        seed_name = f"realize_a{level}.seed.txt"
        trace_name = f"realize_a{level}.trace.json"
        _write(out / code_name, codes.write_code_text(realized.code))
        _write(out / seed_name, codes.write_code_text(realized.seed))
        _write(out / trace_name, _json_text(manifest, {"trace": realized.trace.to_json()}))
        p = realized.params
        summary.append(
            {
                "level": level,
                "params": list(p.triple()),
                "point": [format_ratio(codes.floor_log_q(p.m, p.q), p.n), format_ratio(p.d, p.n)],
                "files": [code_name, seed_name, trace_name],
            }
        )
    _write(out / "realize_summary.json", _json_text(manifest, {"outputs": summary}))
    return EXIT_OK


def cmd_strip(args) -> int:
    from . import effective

    cfg = _cfg_from_args(args, "strip")
    curve = bounds_mod.named_curve(args.curve, cfg.q)
    manifest = _manifest(cfg, {"curve": args.curve})
    strip = effective.build_strip(curve, cfg.n_grid, cfg.budget)
    payload = strip.to_json()
    out = Path(cfg.out_dir)
    _write(out / "strip.json", _json_text(manifest, {"strip": payload}))
    if cfg.svg:
        canvas = PlaneSvg(title="N-strip")
        canvas.add_cells("strip", payload["balls"], cfg.n_grid)
        canvas.add_polyline("gamma_plus", _grid_floats(strip.staircases[0], cfg.n_grid), color="#b03030")
        canvas.add_polyline("gamma_minus", _grid_floats(strip.staircases[1], cfg.n_grid), color="#1f4e9c")
        _write(out / "strip.svg", canvas.render(_manifest_comment(manifest)))
    return EXIT_OK


def cmd_approx(args) -> int:
    from . import effective

    cfg = _cfg_from_args(args, "approx")
    if cfg.n_grid > APPROX_MAX_N:
        raise ConfigError(f"approx --N must be <= {APPROX_MAX_N}, got {cfg.n_grid}: approx.json lists every "
                          "square, O(N^2) in size; band-only output (ROADMAP item 3) will lift the cap")
    curve = bounds_mod.named_curve(args.curve, cfg.q)
    manifest = _manifest(cfg, {"curve": args.curve})
    adm = effective.two_sided_approx(curve, n_grid=cfg.n_grid, budget=cfg.budget,
                                     strict=not args.lenient)
    estimate = effective.curve_estimate(adm)
    sides = adm.to_json()
    out = Path(cfg.out_dir)
    _write(out / "approx.json", _json_text(manifest, {"admissible_set": sides, "estimate": estimate.to_json()}))
    _write(out / "approx.csv",
           _csv(manifest, ["delta", "lower", "upper", "lower_float", "upper_float"], estimate.csv_rows()))
    if cfg.svg:
        canvas = PlaneSvg(title="two-sided approximation")
        canvas.add_cells("u_minus", sides["u_minus"], cfg.n_grid, color="#74a86040")
        canvas.add_cells("u_plus", sides["u_plus"], cfg.n_grid, color="#a8747440")
        canvas.add_cells("exceptional", sides["exceptional"], cfg.n_grid, color="#d4c04a80")
        staircase = _grid_floats(effective._staircase(enumerate(estimate.rows)), cfg.n_grid)
        canvas.add_polyline("upper", staircase, color="#b03030")
        canvas.add_polyline("lower", staircase, color="#1f4e9c")  # the staircases coincide
        _write(out / "approx.svg", canvas.render(_manifest_comment(manifest)))
    return EXIT_OK


# --- argument parsing -------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")
    parser.add_argument("--max-nodes", type=int, default=DEFAULT_BUDGET.max_nodes,
                        help="search node budget (default %(default)s)")
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
    p.add_argument("--N", type=int, default=4, help=f"grid resolution, at most {APPROX_MAX_N}")
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
    except (BudgetExceededError, SeedNotFoundError, StabilizationTimeoutError) as exc:
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
