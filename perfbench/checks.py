"""Output checks: each op's files against the references in ``reference``.

``check_op(argv, code, out_dir, inputs)`` returns a list of problems; an
empty list means every output of the op agrees with its reference. The
checks read only the files the command wrote, never program state.
"""

from __future__ import annotations

import csv
import json
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import reference as ref

#: float tolerance for comparing printed certified values with math.log floats
TOL = 1e-9

EXIT_OK, EXIT_BUDGET = 0, 3


class Mismatch(Exception):
    """An output disagrees with its reference."""


def _require(cond: bool, message: str):
    if not cond:
        raise Mismatch(message)


def arg(argv, name: str, default=None):
    flag = "--" + name
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_op(argv, code: int, out_dir: Path, inputs: dict) -> list[str]:
    """Problems found in the outputs of an op that exited 0 or 3 (``code``)."""
    try:
        _CHECKS[argv[0]](list(argv), code, Path(out_dir), inputs)
    except Mismatch as exc:
        return [str(exc)]
    except (OSError, KeyError, ValueError, IndexError, TypeError, ET.ParseError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return []


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(lines[0].startswith("# manifest {"), f"{path.name}: no manifest line")
    rows = list(csv.reader(lines[1:]))
    return rows[0], rows[1:]


def _svg(path: Path):
    root = ET.fromstring(path.read_bytes())
    _require(root.tag.endswith("svg"), f"{path.name}: root element is {root.tag}")


def read_code(text: str) -> tuple[int, list[str]]:
    """(q, words) of a code file: header "q n m", then m rows of base-36 symbols."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    q, n, m = (int(t) for t in lines[0].split())
    words = lines[1:]
    _require(len(words) == m, f"code file lists {len(words)} words, header says {m}")
    _require(all(len(w) == n for w in words), "code file word of the wrong length")
    _require(all(int(ch, 36) < q for w in words for ch in w), "code file symbol >= q")
    _require(len(set(words)) == m, "code file repeats a word")
    return q, words


# --- grid ------------------------------------------------------------------------


def _grid_curve(argv):
    """(exact vertices or None, float function or None) of the op's curve."""
    name, q = arg(argv, "curve"), int(arg(argv, "q", 2))
    if name.startswith("synthetic:"):
        return ref.parse_polyline(name), None
    return None, lambda x: ref.curve_value(name, q, x)


def _column_ranges(cells) -> list[tuple[int, int, int]]:
    by_col: dict[int, list[int]] = {}
    for i, j in cells:
        by_col.setdefault(i, []).append(j)
    cols = sorted(by_col)
    _require(cols == list(range(cols[0], cols[-1] + 1)), "strip columns not contiguous")
    ranges = []
    for i in cols:
        rows = sorted(by_col[i])
        _require(rows == list(range(rows[0], rows[-1] + 1)), f"strip column {i} not contiguous")
        ranges.append((i, rows[0], rows[-1]))
    for (_, lo, hi), (i2, lo2, hi2) in zip(ranges, ranges[1:]):
        _require(lo2 <= hi + 1 and hi2 >= lo - 1, f"strip disconnected at column {i2}")
    return ranges


def _staircase(levels, n: int) -> list[list[str]]:
    """Axis-parallel boundary through (i/N, level/N)-(i+1/N, level/N) per column."""
    verts: list[tuple[Fraction, Fraction]] = []
    for i, level in levels:
        for x in (Fraction(i, n), Fraction(i + 1, n)):
            point = (x, Fraction(level, n))
            if not verts or verts[-1] != point:
                verts.append(point)
    return [[ref.fmt(x), ref.fmt(y)] for x, y in verts]


def _check_strip(argv, code, out: Path, inputs):
    n = int(arg(argv, "N"))
    strip = _json(out / "strip.json")["strip"]
    _require(strip["n_grid"] == n, "strip n_grid differs from --N")
    cells = {tuple(c) for c in strip["balls"]}
    ranges = _column_ranges(cells)
    _require(strip["gamma_plus"] == _staircase([(i, hi + 1) for i, _, hi in ranges], n),
             "gamma_plus is not the strip's upper staircase")
    _require(strip["gamma_minus"] == _staircase([(i, lo) for i, lo, _ in ranges], n),
             "gamma_minus is not the strip's lower staircase")
    vertices, f = _grid_curve(argv)
    if vertices is not None:
        span_lo, span_hi = vertices[0][0], vertices[-1][0]
        expected = set()
        for i in range(n):
            x0, x1 = max(Fraction(i, n), span_lo), min(Fraction(i + 1, n), span_hi)
            if x0 > x1:
                continue
            f0, f1 = ref.polyline_value(vertices, x0), ref.polyline_value(vertices, x1)
            expected.update((i, j) for j in range(n) if f0 >= Fraction(j, n) and f1 <= Fraction(j + 1, n))
        _require(cells == expected, f"strip differs from exact polyline strip in "
                                    f"{len(cells ^ expected)} cells")
        _require(strip["capped"] == [], "exact curve left capped cells")
    else:
        for i in range(n):
            f0, f1 = f(i / n), f((i + 1) / n)
            for j in range(n):
                y0, y1 = j / n, (j + 1) / n
                if f0 >= y0 + TOL and f1 <= y1 - TOL:
                    _require((i, j) in cells, f"cell {(i, j)} meets the curve but is not in the strip")
                if f0 < y0 - TOL or f1 > y1 + TOL:
                    _require((i, j) not in cells, f"cell {(i, j)} misses the curve but is in the strip")
    if "--svg" in argv:
        _svg(out / "strip.svg")


def _amended(n: int, u_plus: set, u_minus: set, undecided: list) -> tuple[set, set, list]:
    """The amendment pass: closed grid squares meet iff |di| <= 1 and |dj| <= 1."""
    def touches(cell, cells):
        i, j = cell
        return any((i + a, j + b) in cells for a in (-1, 0, 1) for b in (-1, 0, 1))

    plus, minus, rest = set(u_plus), set(u_minus), []
    for cell in undecided:
        if not touches(cell, u_minus):
            plus.add(cell)
        elif not touches(cell, u_plus):
            minus.add(cell)
        else:
            rest.append(cell)
    return plus, minus, rest


def _admissible(cells) -> bool:
    rows = [j for _, j in cells]
    cols = [i for i, _ in cells]
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        return False
    ordered = sorted(cells)
    return all(j2 < j1 for (_, j1), (_, j2) in zip(ordered, ordered[1:]))


def _check_approx(argv, code, out: Path, inputs):
    n = int(arg(argv, "N"))
    data = _json(out / "approx.json")
    adm, est = data["admissible_set"], data["estimate"]
    _require(adm["n_grid"] == n, "approx n_grid differs from --N")
    u_plus = {tuple(c) for c in adm["u_plus"]}
    u_minus = {tuple(c) for c in adm["u_minus"]}
    exceptional = [tuple(c) for c in adm["exceptional"]]
    every = {(i, j) for i in range(n) for j in range(n)}
    _require(not (u_plus & u_minus) and not (set(exceptional) & (u_plus | u_minus)),
             "approx sides overlap")
    _require(u_plus | u_minus | set(exceptional) == every, "approx sides do not cover the grid")
    _require(_admissible(exceptional) and adm["admissible"], "exceptional set not admissible")

    vertices, f = _grid_curve(argv)
    if vertices is not None:
        value = {i: ref.polyline_value(vertices, Fraction(i, n)) for i in range(n)}
        plus0 = {(i, j) for i, j in every if value[i] < Fraction(j, n)}
        minus0 = {(i, j) for i, j in every if value[i] > Fraction(j, n)}
        undecided = sorted(every - plus0 - minus0)
        _require([list(c) for c in undecided] == adm["initial_undecided"],
                 "initial undecided cells differ from the exact polyline")
        plus, minus, rest = _amended(n, plus0, minus0, undecided)
        _require(plus == u_plus and minus == u_minus and rest == exceptional,
                 "approx partition differs from the exact polyline")
    else:
        for i, j in u_plus:
            _require(f(i / n) <= j / n + TOL, f"cell {(i, j)} in U+ but inside the domain")
        for i, j in u_minus:
            _require(f(i / n) >= j / n - TOL, f"cell {(i, j)} in U- but outside the domain")

    upper, lower = [], []
    for i in range(n):
        tops = [j for (ci, j) in u_plus | set(exceptional) if ci == i]
        bots = [j for (ci, j) in u_minus if ci == i]
        upper.append(Fraction(min(tops), n) if tops else Fraction(1))
        lower.append(Fraction(max(bots) + 1, n) if bots else Fraction(0))
    _require(est["error_bound"] == ref.fmt(Fraction(1, n)), "error bound is not 1/N")
    _require(est["corner_points"] == [[ref.fmt(Fraction(i, n)), ref.fmt(Fraction(j, n))]
                                      for i, j in sorted(exceptional)], "corner points differ")
    header, rows = _csv_rows(out / "approx.csv")
    _require(header == ["delta", "lower", "upper", "lower_float", "upper_float"], "approx.csv header")
    _require([r[:3] for r in rows] == [[ref.fmt(Fraction(i, n)), ref.fmt(lower[i]), ref.fmt(upper[i])]
                                       for i in range(n)], "approx.csv staircase values differ")
    for i in range(n):
        if vertices is not None:
            exact = ref.polyline_value(vertices, Fraction(i, n))
            ok = abs(upper[i] - exact) <= Fraction(1, n) and abs(lower[i] - exact) <= Fraction(1, n)
        else:
            x = f(i / n)
            ok = abs(float(upper[i]) - x) <= 1 / n + TOL and abs(float(lower[i]) - x) <= 1 / n + TOL
        _require(ok, f"column {i}: staircase estimate farther than 1/N from the curve")
    if "--svg" in argv:
        _svg(out / "approx.svg")


# --- tables ----------------------------------------------------------------------


def _check_bounds(argv, code, out: Path, inputs):
    q, grid = int(arg(argv, "q", 2)), int(arg(argv, "grid", 64))
    bits = int(arg(argv, "precision", 30))
    curves = arg(argv, "curves", "vg").split(",")
    header, rows = _csv_rows(out / "bounds.csv")
    _require(header == ["delta", "curve", "lo_float", "hi_float", "precision_bits"], "bounds.csv header")
    _require(len(rows) == len(curves) * grid, f"bounds.csv has {len(rows)} rows")
    edge = Fraction(q - 1, q)
    width = 2.0 ** -bits
    for k, row in enumerate(rows):
        name, idx = curves[k // grid], k % grid
        delta = edge * Fraction(idx, grid - 1)
        _require(row[0] == ref.fmt(delta) and row[1] == name and row[4] == str(bits),
                 f"bounds.csv row {k} labels {row[:2]}")
        lo, hi = float(row[2]), float(row[3])
        value = ref.curve_value(name, q, float(delta))
        _require(lo <= hi and lo - TOL <= value <= hi + TOL,
                 f"{name}({row[0]}) = {value!r} outside [{row[2]}, {row[3]}]")
        _require(hi - lo <= width + TOL * max(1.0, abs(value)), f"{name}({row[0]}) enclosure too wide")
        exact = ref.exact_endpoints(name, q).get(delta)
        if exact is not None:
            _require(lo == hi == exact, f"{name}({row[0]}) not the exact endpoint {exact}")
    if "--svg" in argv:
        _svg(out / "bounds.svg")


# --- oracle ----------------------------------------------------------------------


def _check_oracle(argv, code, out: Path, inputs):
    q, n, m = int(arg(argv, "q", 2)), int(arg(argv, "n")), int(arg(argv, "m"))
    payload = _json(out / "oracle.json")
    status = payload["status"]
    if arg(argv, "d") is not None:
        d = int(arg(argv, "d"))
        a = ref.a_value(q, n, d)
        _require(a is not None, f"no literature value for A_{q}({n},{d})")
        if status == "unknown":
            _require(code == EXIT_BUDGET, "unknown answer without exit 3")
            _require(payload["nodes"] > int(arg(argv, "max-nodes")), "unknown before the budget ran out")
            return
        _require(code == EXIT_OK, f"decided answer with exit {code}")
        if status == "impossible":
            _require(m > a, f"IMPOSSIBLE for ({n},{m},{d}) but A_{q}({n},{d}) = {a}")
            return
        _require(status == "found" and m <= a, f"{status} for ({n},{m},{d}), A_{q}({n},{d}) = {a}")
        wq, words = read_code((out / payload["witness_file"]).read_text(encoding="utf-8"))
        _require((wq, len(words), len(words[0])) == (q, m, n), "witness has the wrong shape")
        _require(ref.min_distance(words) == d, "witness distance is not exactly d")
        return
    if status == "unknown":
        _require(code == EXIT_BUDGET, "unknown answer without exit 3")
        return
    _require(code == EXIT_OK and status == "exact", f"best distance status {status}")
    d = payload["d"]
    if "--linear" in argv:
        k = ref.floor_log(m, q)
        _require(d == ref.BEST_LINEAR[(q, n, k)], f"[{n},{k}]_{q} best distance {d}, "
                                                  f"literature {ref.BEST_LINEAR[(q, n, k)]}")
        lines = (out / payload["witness_file"]).read_text(encoding="utf-8").split("\n")
        _require(lines[0] == f"{q} {n} {k}", "generator header")
        rows = [[int(t) for t in ln.split()] for ln in lines[1:k + 1]]
        _require(all(len(r) == n and all(0 <= x < q for x in r) for r in rows), "generator rows")
        _require(ref.linear_min_weight(q, rows) == d, "generator minimum weight is not d")
        return
    best = max(dd for dd in range(1, n + 1) if ref.a_value(q, n, dd) >= m)
    _require(d == best, f"best distance of ({n},{m}) is {d}, literature {best}")
    wq, words = read_code((out / payload["witness_file"]).read_text(encoding="utf-8"))
    _require((wq, len(words), len(words[0])) == (q, m, n), "witness has the wrong shape")
    _require(ref.min_distance(words) == d, "witness distance is not d")


# --- ensemble --------------------------------------------------------------------


def _int_to_word(value: int, q: int, n: int) -> str:
    digits = []
    for _ in range(n):
        value, r = divmod(value, q)
        digits.append(str(r))
    return "".join(reversed(digits))


def _sampled_codes(q: int, n: int, m: int, trials: int, seed: int) -> list[list[str]]:
    """The documented sampler: random.Random(seed), distinct uniform words, sorted."""
    rng = random.Random(seed)
    codes = []
    for _ in range(trials):
        seen: set[str] = set()
        while len(seen) < m:
            if q == 2:
                seen.add(_int_to_word(rng.getrandbits(n), q, n))
            else:
                seen.add("".join(str(rng.randrange(q)) for _ in range(n)))
        codes.append(sorted(seen))
    return codes


def _point_row(row, q: int):
    n, m, d = int(row[0]), int(row[1]), int(row[2])
    r, delta = Fraction(ref.floor_log(m, q), n), Fraction(d, n)
    _require(row[3:7] == [ref.fmt(r), ref.fmt(delta), f"{float(r):.12g}", f"{float(delta):.12g}"],
             f"point columns of {row[:3]} differ")
    _require((d == 0) == (m == 1) and 0 <= d <= n and 1 <= m <= q ** n, f"triple {row[:3]} malformed")
    a = ref.a_value(q, n, d) if d else 1
    _require(m <= q ** (n - d + 1) and (a is None or m <= a), f"triple {row[:3]} beats A_{q}(n,d)")
    return n, m, d


def _check_sample(argv, code, out: Path, inputs):
    q, n, m = int(arg(argv, "q", 2)), int(arg(argv, "n")), int(arg(argv, "m"))
    trials, seed = int(arg(argv, "trials", 50)), int(arg(argv, "seed", 1729))
    header, rows = _csv_rows(out / "sample.csv")
    _require(len(rows) == trials and all(r[7] == "random" for r in rows), "sample.csv rows")
    dists = [_point_row(r, q)[2] for r in rows]
    _require(all(int(r[0]) == n and int(r[1]) == m for r in rows), "sample.csv shape")
    for trial, words in enumerate(_sampled_codes(q, n, m, trials, seed)):
        _require(ref.min_distance_planes(words) == dists[trial], f"trial {trial}: distance differs")
    mean = sum(Fraction(d, n) for d in dists) / trials
    summary = _json(out / "sample_summary.json")
    _require(summary["mean_delta"] == ref.fmt(mean) and math.isclose(summary["mean_delta_float"], mean)
             and summary["trials"] == trials, "sample summary differs")


def _check_enumerate(argv, code, out: Path, inputs):
    q, nmax = int(arg(argv, "q", 2)), int(arg(argv, "nmax", 6))
    strategies = arg(argv, "strategy").split(",")
    header, rows = _csv_rows(out / "cloud.csv")
    _require(rows, "empty cloud")
    triples = [_point_row(r, q) for r in rows]
    _require(triples == sorted(set(triples)), "cloud rows not sorted and unique")
    _require(all(1 <= t[0] <= nmax for t in triples), "cloud length beyond --nmax")
    _require(all(r[7] in strategies for r in rows), "unknown provenance")


def _replay(words: list[str], steps: list[dict]) -> list[str]:
    """Apply recorded spoiling steps to a word list, one move at a time."""
    for step in steps:
        c = step["coordinate"]
        if step["kind"] == "lengthen":
            words = [w + ref.SYMBOLS[step["symbol"] or 0] for w in words]
        elif step["kind"] == "puncture":
            words = [w[:c] + w[c + 1:] for w in words]
        elif step["kind"] == "shorten":
            words = [w[:c] + w[c + 1:] for w in words if w[c] == ref.SYMBOLS[step["symbol"]]]
        else:
            raise Mismatch(f"unknown step {step['kind']}")
        words = sorted(set(words))
    return words


def _params(q: int, words: list[str]) -> dict:
    return {"q": q, "n": len(words[0]), "m": len(words), "d": ref.min_distance(words)}


def _check_trace(trace: dict, q: int, start: list[str], end: list[str]):
    _require(trace["initial"] == _params(q, start), "trace initial parameters differ")
    _require(trace["final"] == _params(q, end), "trace final parameters differ")
    _require(_replay(start, trace["steps"]) == end, "trace replay does not give the output code")


def _check_realize(argv, code, out: Path, inputs):
    q, count = int(arg(argv, "q", 2)), int(arg(argv, "count", 3))
    rate, delta = (Fraction(t) for t in arg(argv, "target").split(","))
    n0 = math.lcm(rate.denominator, delta.denominator)
    k0, d0 = int(rate * n0), int(delta * n0)
    summary = _json(out / "realize_summary.json")["outputs"]
    _require(len(summary) == count, "realize output count")
    for level, entry in enumerate(summary, start=1):
        names = entry["files"]
        cq, words = read_code((out / names[0]).read_text(encoding="utf-8"))
        sq, seed = read_code((out / names[1]).read_text(encoding="utf-8"))
        got = _params(q, words)
        _require(cq == sq == q and got["n"] == level * n0 and ref.floor_log(got["m"], q) == level * k0
                 and got["d"] == level * d0, f"level {level} code has parameters {got}")
        _require(entry["params"] == [got["n"], got["m"], got["d"]] and entry["level"] == level
                 and entry["point"] == [ref.fmt(rate), ref.fmt(delta)], f"level {level} summary")
        sp = _params(q, seed)
        _require(sp["n"] <= got["n"] and ref.floor_log(sp["m"], q) >= level * k0 and sp["d"] >= got["d"],
                 f"level {level} seed {sp} does not dominate the target")
        _check_trace(_json(out / names[2])["trace"], q, seed, words)


def _check_spoil(argv, code, out: Path, inputs):
    op, count = arg(argv, "op"), int(arg(argv, "count", 1))
    q, start = read_code(inputs[arg(argv, "input")])
    oq, end = read_code((out / "spoiled.code.txt").read_text(encoding="utf-8"))
    before, after = _params(q, start), _params(q, end)
    _require(oq == q, "spoiled code alphabet")
    if op == "lengthen":
        ok = (after["n"], after["m"], after["d"]) == (before["n"] + count, before["m"], before["d"])
    elif op == "puncture":
        ok = (after["n"], after["m"], after["d"]) == (before["n"] - count, before["m"], before["d"] - count)
    else:
        ok = (after["n"] == before["n"] - count and before["m"] / q ** count <= after["m"] < before["m"]
              and after["d"] >= before["d"])
    _require(ok, f"{op} x{count} took {before} to {after}")
    _check_trace(_json(out / "spoil_trace.json")["trace"], q, start, end)


_CHECKS = {
    "strip": _check_strip,
    "approx": _check_approx,
    "bounds": _check_bounds,
    "oracle": _check_oracle,
    "sample": _check_sample,
    "enumerate": _check_enumerate,
    "realize": _check_realize,
    "spoil": _check_spoil,
}
