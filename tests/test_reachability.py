"""Reachability gate: every function in ``src/codeplane`` is entered by the
command line or names why it is kept.

One fresh interpreter runs ``ARGVS`` through ``cli.main`` under
``sys.setprofile`` and reports every code object it entered. A fresh
process matters: ``cli._parser``, ``fields.GF``, ``bounds._alpha``,
``enclosure._ln2_scaled`` and ``enclosure._ln3_2_scaled`` run their bodies
only on a cache miss, so an
earlier test in a shared process could hide them. The entered code objects
map to the ``def`` statements of the source by (file, first line, name),
where the first line of a decorated function is its first decorator's, as
``co_firstlineno`` gives it on every supported Python.

Every function never entered must be in ``ALLOWLIST`` with exactly one
reason, and every listed function must be unreached. A reason is one of:

- ``readme``: README.md names it;
- ``acceptance``: tests/test_acceptance.py calls it;
- ``tracer``: perfbench/tracing.py or perfbench/tests bind it;
- ``planned: item N``: a ROADMAP item will put it to use;
- ``via <listed name>``: it is reached only through that entry;
- ``library: <why a caller needs it>``.
"""

import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "codeplane"

_INPUT_CODE = "2 5 4\n00000\n00111\n11100\n11011\n"  # d = 3: two punctures fit

# every subcommand and option at small sizes; (expected exit, argv), run in order in one directory
ARGVS = [
    (0, ["bounds", "--q", "3", "--grid", "5", "--curves", "vg,gv_lower,singleton,hamming,singleton_zero",
         "--precision", "40", "--svg", "--seed", "7", "--max-millis", "60000", "--max-nodes", "1000"]),
    (0, ["enumerate", "--q", "2", "--nmax", "8", "--svg",
         "--strategy", "exhaustive,exhaustive-linear,greedy,random,seeded-family"]),
    (0, ["enumerate", "--q", "2", "--nmax", "12", "--strategy", "greedy"]),
    (0, ["sample", "--q", "4", "--n", "8", "--m", "16", "--trials", "2"]),
    (0, ["oracle", "--q", "2", "--n", "6", "--m", "9", "--d", "3"]),
    (0, ["oracle", "--q", "3", "--n", "4", "--m", "5"]),
    (0, ["oracle", "--q", "2", "--n", "6", "--m", "8", "--linear"]),
    (0, ["oracle", "--q", "4", "--n", "4", "--m", "16", "--linear"]),
    (0, ["spoil", "--input", "in.code.txt", "--op", "lengthen"]),
    (0, ["spoil", "--input", "in.code.txt", "--op", "puncture", "--count", "2"]),
    (0, ["spoil", "--input", "in.code.txt", "--op", "shorten"]),
    (0, ["realize", "--q", "2", "--target", "1/4,1/4", "--count", "2"]),
    (0, ["strip", "--curve", "vg", "--q", "2", "--N", "8", "--svg"]),
    (0, ["strip", "--curve", "synthetic:1/7,3/7;6/7,0", "--N", "8"]),
    (0, ["approx", "--curve", "hamming", "--q", "2", "--N", "8", "--svg"]),
    (0, ["approx", "--curve", "synthetic:0,1/2;1/2,1/2;1,0", "--N", "4", "--lenient"]),
    (2, ["strip", "--N", "0"]),
    (3, ["oracle", "--q", "2", "--n", "8", "--m", "20", "--d", "3", "--max-nodes", "100"]),
    (3, ["realize", "--q", "2", "--target", "1/2,1/4", "--count", "1", "--max-nodes", "3"]),
    (3, ["sample", "--q", "2", "--n", "40", "--m", "65536", "--trials", "1", "--max-millis", "1"]),
    (3, ["strip", "--curve", "vg", "--N", "512", "--max-millis", "1"]),
]

# unreached functions, by module-qualified name, each with its one reason
ALLOWLIST = {
    "bounds.BoundCurve.__repr__": "library: names the curve where a caller prints one",
    "bounds.BoundCurve.eval": "readme",
    "bounds.BoundCurve.from_intervals": "readme",
    "bounds.BoundCurve.from_intervals.ends": "via bounds.BoundCurve.from_intervals",
    "bounds.PolylineCurve.value_exact": "library: a polyline's exact value at one delta, as a Fraction",
    "bounds._interval": "via bounds.BoundCurve.eval",
    "bounds.constant_curve": "library: the flat stand-in that two_sided_approx(strict=False) is documented for",
    "bounds.entropy": "tracer",
    "bounds.vg_curve": "acceptance",
    "codes.code_point": "acceptance",
    "codes.decode_triple": "library: the inverse of encode_triple",
    "codes.encode_triple": "library: numbers the well-formed (n, m, d) triples, the enumeration of code points",
    "codes.hamming_distance": "library: exported by the package as codeplane.hamming_distance",
    "codes.rate_real": "library: certified enclosure of the real rate log_q(m)/n beside code_point's floored rate",
    "effective.AdmissibleSet.initial_undecided": "library: the squares undecided before the amendment pass",
    "effective.CurveEstimate.abscissae": "acceptance",
    "effective.CurveEstimate.corner_points": "library: the exceptional squares' corners as exact points",
    "effective.CurveEstimate.error_bound": "library: the exact error bound of a staircase estimate",
    "effective.CurveEstimate.upper_polyline": "library: the staircase estimate as exact points",
    "effective.CurveEstimate.upper_values": "acceptance",
    "effective.DomainBallDecider.closed_verdict": "via effective.domain_presentations.co_emits",
    "effective.DomainBallDecider.decide_closed": "tracer",
    "effective.DomainBallDecider.decide_open": "tracer",
    "effective.DomainBallDecider.open_verdict": "via effective.domain_presentations.re_emits",
    "effective.GraphBallDecider.__init__": "via effective.core_from_curve",
    "effective.GraphBallDecider.decide": "via effective.core_from_curve.emits",
    "effective.NStrip.boundary_within": "acceptance",
    "effective.NStrip.cells": "acceptance",
    "effective.NStrip.column_range": "via effective.classify_points",
    "effective.NStrip.gamma_minus": "via effective.NStrip.boundary_within",
    "effective.NStrip.gamma_plus": "readme",
    "effective.Presentation.__init__": "via effective.re_from_dense_points",
    "effective.Presentation.advance": "library: runs the stages of the presentations that the four factories return",
    "effective.Presentation.emitted": "library: the balls a presentation has emitted so far",
    "effective.Presentation.progress": "library: the number of stages a presentation has run",
    "effective._calkin_wilf": "via effective.canonical_ball",
    "effective._covers_unit": "via effective.polyline_within",
    "effective._grid_points": "via effective.NStrip.gamma_minus",
    "effective._sample_points": "via effective.re_from_curve.emits",
    "effective._segment_in_rect": "via effective.polyline_within",
    "effective._segments": "via effective.polyline_within",
    "effective._signed_rational": "via effective.canonical_ball",
    "effective._unpair": "via effective.canonical_ball",
    "effective.canonical_ball": "via effective.Presentation.advance",
    "effective.classify_points": "acceptance",
    "effective.core_from_curve": "readme",
    "effective.core_from_curve.emits": "via effective.core_from_curve",
    "effective.domain_presentations": "readme",
    "effective.domain_presentations.co_emits": "via effective.domain_presentations",
    "effective.domain_presentations.re_emits": "via effective.domain_presentations",
    "effective.polyline_within": "via effective.NStrip.boundary_within",
    "effective.re_from_curve": "readme",
    "effective.re_from_curve.emits": "via effective.re_from_curve",
    "effective.re_from_dense_points": "readme",
    "effective.re_from_dense_points.emits": "via effective.re_from_dense_points",
    "enclosure.log2_enclosure": "tracer",
    "enclosure.log_enclosure": "tracer",
    "fields.FieldSpec.add": "tracer",
    "fields.FieldSpec.sub": "via linear.read_generator_text",
    "geometry.GridBall.__post_init__": "library: exported by the package as codeplane.GridBall",
    "geometry.GridBall.delta_hi": "library: the right edge of an exported GridBall",
    "geometry.GridBall.delta_lo": "via effective.DomainBallDecider.decide_closed",
    "geometry.GridBall.r_hi": "library: the top edge of an exported GridBall",
    "geometry.GridBall.r_lo": "via effective.DomainBallDecider.decide_closed",
    "geometry.GridBall.to_ball": "library: a grid square as the RatBall that the presentations test",
    "geometry.RatBall.__post_init__": "via effective.canonical_ball",
    "geometry.RatBall.contains": "via effective.re_from_dense_points.emits",
    "geometry.RatBall.delta_interval": "via effective.core_from_curve.emits",
    "geometry.RatBall.r_interval": "via effective.core_from_curve.emits",
    "geometry.RatInterval.__add__": "library: the sum of two enclosures",
    "geometry.RatInterval.__neg__": "via geometry.RatInterval.__sub__",
    "geometry.RatInterval.__post_init__": "via bounds._interval",
    "geometry.RatInterval.__sub__": "library: the difference of two enclosures",
    "geometry.RatInterval.contains": "library: whether an enclosure holds a value",
    "geometry.RatInterval.is_point": "acceptance",
    "geometry.RatInterval.overlaps": "via geometry.balls_closures_intersect",
    "geometry.RatInterval.point": "via codes.rate_real",
    "geometry.RatInterval.scale": "via codes.rate_real",
    "geometry.RatInterval.width": "acceptance",
    "geometry.RatPoint.in_unit_square": "via effective.classify_points",
    "geometry.balls_closures_intersect": "tracer",
    "geometry.format_rational": "library: the lowest-terms text of a Fraction, the reference for format_ratio",
    "geometry.max_distance": "acceptance",
    "kernels.all_at_least": "tracer",
    "kernels.hamming": "tracer",
    "linear.LinearCode.__eq__": "library: linear codes compare by generator",
    "linear.LinearCode.__hash__": "library: linear codes hash by generator, as they compare",
    "linear.LinearCode.__repr__": "library: names the code as [n, k]_q where a caller prints one",
    "linear.LinearCode.d": "library: a linear code's exact minimum distance",
    "linear.LinearCode.params": "library: a linear code's exact parameters, as codes.params gives a Code's",
    "linear.min_weight": "tracer",
    "linear.product_code": "library: the product of two linear codes, a seed beyond the built-in families",
    "linear.read_generator_text": "library: reads the generator file format that the README documents",
    "search.MultiplicityReport.count": "via search.multiplicity_in_range",
    "search.PointCloud.points": "library: a cloud's distinct plane points",
    "search.PointCloud.triples": "library: a cloud's distinct (n, m, d) triples",
    "search.PointCloudEntry.point": "library: a cloud entry's exact plane point",
    "search.multiplicity_in_range": "planned: item 15",
    "spoiling.RealizedCode.point": "acceptance",
    "spoiling.SpoilStep.from_json": "via spoiling.SpoilTrace.from_json",
    "spoiling.SpoilTrace.from_json": "library: reads the trace that a trace file holds under \"trace\", for replay_trace",
    "spoiling._params_from_json": "via spoiling.SpoilTrace.from_json",
    "spoiling._puncture_linear": "library: puncture keeps a LinearCode linear",
    "spoiling._shorten_linear": "library: shorten keeps a LinearCode linear",
    "spoiling.multiplicity_witness": "acceptance",
    "spoiling.reduce_floor_logcard": "library: the exact-target walk of floor(log_q m), as reduce_distance_exact walks d",
    "spoiling.replay_trace": "readme",
}

_REASON = re.compile(r"(readme|acceptance|tracer|planned: item \d+|via (?P<via>\S+)|library: \S.*)")

_PROBE = r"""
import json, sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
from codeplane import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
src = sys.argv[2]
print(json.dumps({"exits": codes, "entered": sorted(
    [code.co_filename[len(src):], code.co_firstlineno, code.co_name]
    for code in entered if code.co_filename.startswith(src))}))
"""


def _defs() -> dict:
    """(file, first line, name) of every ``def`` under src/codeplane -> its qualified name."""
    found = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[path, first, child.name] = name
                walk(child, name, path)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, os.sep + path.name)
    return found


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    work = tmp_path_factory.mktemp("reach")
    (work / "in.code.txt").write_text(_INPUT_CODE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    argvs = [[*argv, "--out", "."] for _, argv in ARGVS]
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argvs), str(SRC)], cwd=work, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    defs = _defs()
    entered = {defs[path, line, name] for path, line, name in result["entered"] if (path, line, name) in defs}
    return result["exits"], set(defs.values()) - entered, elapsed


def test_reach_argv_list_exits_as_listed_within_its_time(probe):
    exits, _, elapsed = probe
    assert exits == [code for code, _ in ARGVS]
    assert elapsed < 10


def test_reach_every_unreached_function_is_listed(probe):
    _, unreached, _ = probe
    assert sorted(unreached - ALLOWLIST.keys()) == []


def test_reach_every_listed_function_is_unreached(probe):
    _, unreached, _ = probe
    assert sorted(ALLOWLIST.keys() - unreached) == []


def test_reach_every_entry_gives_one_reason():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    tracer = "".join(p.read_text(encoding="utf-8") for p in
                     [ROOT / "perfbench" / "tracing.py", *sorted((ROOT / "perfbench" / "tests").glob("*.py"))])
    bad = []
    for name, reason in ALLOWLIST.items():
        match = _REASON.fullmatch(reason)
        word = re.compile(rf"\b{re.escape(name.rsplit('.', 1)[-1])}\b")
        if (match is None
                or (match["via"] is not None and match["via"] not in ALLOWLIST)
                or (reason == "readme" and not word.search(readme))
                or (reason == "acceptance" and not word.search(acceptance))
                or (reason == "tracer" and not word.search(tracer))):
            bad.append((name, reason))
    assert bad == []
