import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from codeplane import cli
from codeplane.cli import APPROX_MAX_N, EXIT_BUDGET, EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK, main
from codeplane.codes import read_code_text, params
from codeplane.errors import CodeplaneError
from codeplane.geometry import SquareRuns


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_bounds_csv_endpoints_exact(tmp_path):
    assert run(tmp_path, "bounds", "--q", "2", "--grid", "256") == EXIT_OK
    lines = (tmp_path / "bounds.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest ")
    assert lines[1] == "delta,curve,lo_float,hi_float,precision_bits"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 256
    assert rows[0][0] == "0" and rows[0][2] == "0.5" and rows[0][3] == "0.5"
    assert rows[-1][0] == "1/2" and rows[-1][2] == "0" and rows[-1][3] == "0"


def test_bounds_q4_zero_region(tmp_path):
    assert run(tmp_path, "bounds", "--q", "4", "--grid", "16") == EXIT_OK
    rows = [ln.split(",") for ln in (tmp_path / "bounds.csv").read_text().splitlines()[2:]]
    assert rows[-1][0] == "3/4"
    assert rows[-1][2] == "0" and rows[-1][3] == "0"


def test_invalid_q_is_config_error(tmp_path):
    assert run(tmp_path, "bounds", "--q", "1") == EXIT_CONFIG


def test_curve_commands_accept_any_alphabet(tmp_path):
    # only commands that build words are limited to one symbol per byte
    assert run(tmp_path, "bounds", "--q", "300", "--grid", "3") == EXIT_OK
    assert run(tmp_path, "strip", "--q", "300", "--curve", "vg", "--N", "2") == EXIT_OK
    assert run(tmp_path, "approx", "--q", "300", "--curve", "vg", "--N", "2") == EXIT_OK


def test_enumerate_contains_hamming_point(tmp_path):
    assert run(tmp_path, "enumerate", "--q", "2", "--nmax", "8",
               "--strategy", "exhaustive-linear") == EXIT_OK
    body = (tmp_path / "cloud.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in body[2:]]
    assert any(r[0] == "7" and r[1] == "16" and r[2] == "3" and r[3] == "4/7" and r[4] == "3/7"
               for r in rows)


def test_sample_summary(tmp_path):
    assert run(tmp_path, "sample", "--q", "2", "--n", "16", "--m", "8",
               "--trials", "5", "--seed", "9") == EXIT_OK
    summary = json.loads((tmp_path / "sample_summary.json").read_text())
    assert summary["trials"] == 5
    assert "manifest" in summary
    rows = (tmp_path / "sample.csv").read_text().splitlines()[2:]
    assert len(rows) == 5


def test_oracle_best_and_exists(tmp_path):
    assert run(tmp_path, "oracle", "--q", "2", "--n", "7", "--m", "16", "--linear") == EXIT_OK
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert payload["d"] == 3 and payload["status"] == "exact"
    assert (tmp_path / "witness.gen.txt").exists()

    assert run(tmp_path, "oracle", "--q", "2", "--n", "3", "--m", "2", "--d", "3") == EXIT_OK
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert payload["status"] == "found"
    witness = read_code_text((tmp_path / "witness.code.txt").read_text())
    assert params(witness).triple() == (3, 2, 3)

    # unknown under a tiny budget exits with the budget code
    assert run(tmp_path, "oracle", "--q", "2", "--n", "20", "--m", "1024",
               "--d", "6", "--max-nodes", "10") == EXIT_BUDGET


def test_oracle_deep_search_and_huge_length(tmp_path):
    # 1,023 words deep: the even-weight code, found without recursion
    assert run(tmp_path, "oracle", "--n", "11", "--m", "1024", "--d", "2") == EXIT_OK
    assert json.loads((tmp_path / "oracle.json").read_text())["status"] == "found"
    # the space check must not build q**n before the budget applies
    start = time.perf_counter()
    assert run(tmp_path, "oracle", "--q", "3", "--n", "6000000", "--m", "3", "--d", "2",
               "--max-nodes", "1") == EXIT_BUDGET
    assert time.perf_counter() - start < 0.5


def test_oracle_proves_a_hard_triple_within_a_small_budget(tmp_path):
    # A(9, 5) = 6; the plain walk ran out of this budget at m = 7
    assert run(tmp_path, "oracle", "--n", "9", "--m", "7", "--d", "5", "--max-nodes", "10000") == EXIT_OK
    assert json.loads((tmp_path / "oracle.json").read_text())["status"] == "impossible"


def test_sample_refuses_an_unbounded_cardinality(tmp_path):
    # 2^40 - 1 words would be materialized per trial; refused before any draw
    start = time.perf_counter()
    assert run(tmp_path, "sample", "--n", "40", "--m", "1099511627775", "--trials", "1") == EXIT_CONFIG
    assert time.perf_counter() - start < 0.5
    assert list(tmp_path.iterdir()) == []


def test_oracle_refuses_an_unbounded_distance_one_witness(tmp_path):
    # the witness of a d = 1 query is its first 10^8 words; refused before any is built
    start = time.perf_counter()
    assert run(tmp_path, "oracle", "--n", "40", "--m", "100000000", "--d", "1",
               "--max-nodes", "1000") == EXIT_CONFIG
    assert time.perf_counter() - start < 0.5
    assert list(tmp_path.iterdir()) == []


def test_spoil_roundtrip(tmp_path):
    (tmp_path / "in.txt").write_text("2 3 2\n000\n111\n")
    assert main(["spoil", "--input", str(tmp_path / "in.txt"), "--op", "puncture",
                 "--out", str(tmp_path)]) == EXIT_OK
    spoiled = read_code_text((tmp_path / "spoiled.code.txt").read_text())
    assert params(spoiled).triple() == (2, 2, 2)
    trace = json.loads((tmp_path / "spoil_trace.json").read_text())
    assert trace["trace"]["final"]["d"] == 2


def test_realize_command(tmp_path):
    assert run(tmp_path, "realize", "--q", "2", "--target", "1/8,1/8", "--count", "3") == EXIT_OK
    summary = json.loads((tmp_path / "realize_summary.json").read_text())
    triples = [tuple(o["params"]) for o in summary["outputs"]]
    assert triples == [(8, 2, 1), (16, 4, 2), (24, 8, 3)]
    for out in summary["outputs"]:
        assert out["point"] == ["1/8", "1/8"]
        code = read_code_text((tmp_path / out["files"][0]).read_text())
        assert params(code).triple() == tuple(out["params"])


def test_strip_command_diag(tmp_path):
    assert run(tmp_path, "strip", "--curve", "synthetic:diag", "--N", "4", "--svg") == EXIT_OK
    payload = json.loads((tmp_path / "strip.json").read_text())
    balls = {tuple(b) for b in payload["strip"]["balls"]}
    assert balls == {(i, j) for i in range(4) for j in range(4) if i + j in (2, 3, 4)}
    svg = (tmp_path / "strip.svg").read_text()
    assert svg.splitlines()[1] == "<!-- codeplane-svg-1 -->"


def test_approx_command(tmp_path):
    assert run(tmp_path, "approx", "--curve", "synthetic:diag", "--N", "4") == EXIT_OK
    payload = json.loads((tmp_path / "approx.json").read_text())
    assert [tuple(c) for c in payload["admissible_set"]["exceptional"]] == [(1, 3), (2, 2), (3, 1)]
    rows = (tmp_path / "approx.csv").read_text().splitlines()[2:]
    assert len(rows) == 4


def test_outputs_are_byte_identical_across_runs(tmp_path):
    names = ("cloud.csv", "sample.csv", "sample_summary.json", "strip.json", "strip.svg")

    def run_all():
        assert main(["enumerate", "--q", "2", "--nmax", "6",
                     "--strategy", "greedy,seeded-family", "--seed", "123",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert main(["sample", "--q", "2", "--n", "12", "--m", "16", "--trials", "4",
                     "--seed", "123", "--out", str(tmp_path)]) == EXIT_OK
        assert main(["strip", "--curve", "vg", "--q", "2", "--N", "8", "--svg",
                     "--out", str(tmp_path)]) == EXIT_OK
        return {name: (tmp_path / name).read_bytes() for name in names}

    first = run_all()
    second = run_all()
    for name in names:
        assert first[name] == second[name], name


def test_one_parser_serves_back_to_back_commands(tmp_path, monkeypatch, capsys):
    from codeplane import cli

    argvs = [
        ["enumerate", "--q", "2", "--nmax", "5", "--strategy", "greedy,random", "--seed", "9"],
        ["bogus"],
        ["sample", "--q", "3", "--n", "6", "--m", "20", "--trials", "2", "--seed", "4"],
        ["oracle", "--n", "6", "--m", "8"],
        ["sample", "--n", "9", "--m", "30", "--trials", "3"],
        ["bounds", "--q", "3", "--grid", "9", "--curves", "vg,hamming"],
        ["strip", "--curve", "gv_lower", "--N", "6"],
        ["--help"],
        ["realize", "--target", "1/4,1/4", "--count", "2", "--seed", "3"],
        ["oracle", "--n", "5", "--m", "4", "--linear"],
    ]

    def outputs(directory, fresh):
        # relative --out paths, since manifests echo them
        directory.mkdir()
        monkeypatch.chdir(directory)
        codes, files = [], {}
        for index, argv in enumerate(argvs):
            if fresh:
                cli._parser.cache_clear()
            codes.append(main(argv + ["--out", str(index)]))
            out = directory / str(index)
            if out.exists():
                files.update({f"{index}/{p.name}": p.read_bytes() for p in out.iterdir()})
        return codes, files

    shared = outputs(tmp_path / "shared", fresh=False)
    assert shared == outputs(tmp_path / "fresh", fresh=True)
    capsys.readouterr()
    assert shared[0] == [EXIT_OK, EXIT_CONFIG] + [EXIT_OK] * 8
    assert len(shared[1]) >= 12


def test_approx_non_admissible_input_is_internal_error(tmp_path):
    from codeplane.cli import EXIT_INTERNAL

    # a grid-aligned flat segment leaves several exceptional squares in one
    # row: not the domain of a strictly decreasing curve
    flat = "synthetic:0,1/2;1/2,1/2;1,0"
    assert run(tmp_path, "approx", "--curve", flat, "--N", "4") == EXIT_INTERNAL
    assert run(tmp_path, "approx", "--curve", flat, "--N", "4", "--lenient") == EXIT_OK
    payload = json.loads((tmp_path / "approx.json").read_text())
    assert payload["admissible_set"]["admissible"] is False


def test_manifest_echoes_config(tmp_path):
    assert run(tmp_path, "strip", "--curve", "synthetic:diag", "--N", "8", "--seed", "42") == EXIT_OK
    payload = json.loads((tmp_path / "strip.json").read_text())
    manifest = payload["manifest"]
    assert manifest["tool"] == "codeplane"
    assert manifest["config"]["n_grid"] == 8
    assert manifest["config"]["rng_seed"] == 42
    assert manifest["args"]["curve"] == "synthetic:diag"


_BAD_INPUTS = [
    ("realize", "--target", "1/8"),
    ("realize", "--target", "a,b"),
    ("strip", "--curve", "synthetic:1/2"),
    ("approx", "--curve", "synthetic:a,b;1,0"),
    ("spoil", "--input", "/nonexistent/code.txt", "--op", "lengthen"),
    ("strip", "--max-nodes", "abc"),
    ("strip", "--N", "0"),
    ("approx", "--N", "0"),
    ("sample", "--q", "257", "--n", "2", "--m", "2", "--trials", "1"),
    ("enumerate", "--q", "300", "--nmax", "2", "--strategy", "greedy"),
    ("oracle", "--q", "300", "--n", "2", "--m", "3"),
    ("realize", "--q", "300", "--target", "1/8,1/8"),
    ("bounds", "--precision", "-5"),
    ("bounds", "--precision", "0"),
    ("sample", "--n", "4", "--m", "3", "--trials", "0"),
    ("spoil", "--input", "in.txt", "--op", "puncture", "--count", "-1"),
    ("spoil", "--input", "in.txt", "--op", "puncture", "--count", "0"),
    ("oracle", "--n", "-1", "--m", "1"),
    ("bounds", "--curves", "vg,nope"),
]


# the case ids keep their established argvN-envN form, so each case's results stay comparable across runs
@pytest.mark.parametrize("argv", _BAD_INPUTS, ids=[f"argv{i}-env{i}" for i in range(len(_BAD_INPUTS))])
def test_bad_input_is_config_error_without_traceback(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "in.txt").write_text("2 3 2\n000\n111\n")
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, *argv) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def test_a_bare_library_error_exits_4_without_traceback(tmp_path, monkeypatch, capsys):
    def fail(args, command):
        raise CodeplaneError("no more specific class")

    monkeypatch.setattr(cli, "_cfg_from_args", fail)
    assert run(tmp_path, "strip", "--N", "4") == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("error: no more specific class") and "Traceback" not in err


_EVERY_COMMAND = [
    ("bounds", "--grid", "4"),
    ("enumerate", "--nmax", "3"),
    ("sample", "--n", "4", "--m", "3", "--trials", "1"),
    ("oracle", "--n", "4", "--m", "2", "--d", "2"),
    ("spoil", "--input", "in.txt", "--op", "lengthen"),
    ("realize", "--target", "1/8,1/8", "--count", "1"),
    ("strip", "--N", "4"),
    ("approx", "--N", "4"),
]


@pytest.mark.parametrize("budget", [("--max-nodes", "0"), ("--max-millis", "0"), ("--max-millis", "-1")], ids=" ".join)
@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=lambda argv: argv[0])
def test_every_command_refuses_a_bad_budget_before_writing(tmp_path, monkeypatch, capsys, argv, budget):
    assert {a[0] for a in _EVERY_COMMAND} == set(cli._parser()._subparsers._group_actions[0].choices)
    (tmp_path / "in.txt").write_text("2 3 2\n000\n111\n")
    monkeypatch.chdir(tmp_path)
    assert main([*argv, *budget, "--out", "out"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ("realize", "--target", "1/2,1/4", "--count", "2", "--max-nodes", "1"),
    ("realize", "--target", "7/8,3/4", "--count", "1"),
])
def test_seed_not_found_is_budget_exit_without_traceback(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "no seed found" in err and "Traceback" not in err


# SHA-256 of bounds.csv as written by the repeated-squaring enclosure; any
# rewrite of the logarithm enclosures has to reproduce these bytes
BOUNDS_CSV_SHA256 = {
    (2, 64): "dcabf42cba93031b2a35fe7bf1276bb940347ddbe8f63d26c2bb457208f149d4",
    (2, 512): "1420e9778519ee2c560e5f8c411e26a15a1ad1b0db594e4df5f91cfa1662f2d9",
    (3, 64): "b756d01b27fd5a9c414f62a039bd053bbfe594efdef5d06d8176a89f12c42bbd",
    (3, 512): "d0f2bfafce7dc731aac6870ea4ecc8bb871c654ab3382c97879dececec5b86bc",
    (5, 64): "f7415c82a47617583867f01cd1c6921d0c0d605f4c483b9ecaf8e4c4af8675dc",
    (5, 512): "7418552ae727439cc5c9d24b1c414158ecf8293b31cfdabde833e680cf7ec188",
    (16, 64): "48a980b901cb384a9b021330b3412fff22243f2151bd4eb2fe6de6ea8ba8fefc",
    (16, 512): "ffed542ab81e9baf524949dfa5d7b706fe57c8988470d120ebdc21ff85b4f05d",
}


@pytest.mark.parametrize("q, precision", sorted(BOUNDS_CSV_SHA256))
def test_bounds_csv_bytes_are_pinned(tmp_path, monkeypatch, q, precision):
    monkeypatch.chdir(tmp_path)  # the manifest echoes the output directory
    assert main(["bounds", "--q", str(q), "--curves", "vg,gv_lower,hamming", "--grid", "9",
                 "--precision", str(precision), "--out", "."]) == EXIT_OK
    digest = hashlib.sha256((tmp_path / "bounds.csv").read_bytes()).hexdigest()
    assert digest == BOUNDS_CSV_SHA256[(q, precision)]



# SHA-256 of every file the curve samples feed (the bounds CSV and both SVG
# midlines), recorded when each output still sampled its curves itself
SAMPLED_OUTPUT_SHA256 = {
    ("bounds", "--q", "3", "--curves", "vg,gv_lower,hamming", "--grid", "9", "--precision", "128",
     "--svg"): {
        "bounds.csv": "42fd9bfbda5465b1321694abd93be2ca3bc38bceabf455ad5b3f155578754df1",
        "bounds.svg": "094ed139cc1c877a1d3e41a1872aba234b2bc01be60f1c2c11b9de22d981dd7b",
    },
    ("enumerate", "--q", "2", "--nmax", "6", "--strategy", "seeded-family,exhaustive-linear",
     "--svg"): {
        "cloud.csv": "4cb2a7b9e0936aeddb042d37ccce5f2a7a600fb5fce908382d54cf3c10da723f",
        "cloud.svg": "a57c3e0ab8dad5ab3c16da1a34465bf8156de91e36df3e3f3b7ad7530c4c3ad1",
    },
}


@pytest.mark.parametrize("argv", sorted(SAMPLED_OUTPUT_SHA256))
def test_curve_sample_outputs_are_pinned(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "."]) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in SAMPLED_OUTPUT_SHA256[argv]}
    assert digests == SAMPLED_OUTPUT_SHA256[argv]

# --- argv fuzzing: every argv ends in an exit code of the contract ----------

def _tokens(valid, invalid):
    """Mostly valid tokens, so that most argvs get past parsing."""
    return st.sampled_from(valid * 3 + invalid)


_NUMBER = _tokens(["1", "2", "3", "5"], ["-1", "0", "", "x", "1/2", "1e3"])
_ALPHABET = _tokens(["2", "3", "4"], ["-1", "0", "1", "257", "x"])
_CURVE = _tokens(["vg", "gv_lower", "singleton", "hamming", "singleton_zero", "synthetic:diag",
                  "synthetic:0,1;1/2,1/3;1,0", "vg,hamming"],
                 ["synthetic:0,0;1,1", "synthetic:0,2;1,0", "synthetic:1/2", "synthetic:a,b",
                  "synthetic:", "synthetic:0,1;1/0,0", "nope", "", ","])
_TARGET = _tokens(["1/8,1/8", "1/4,1/4", "1/3,1/3", "1/2,1/4"],
                  ["0,0", "1,1", "2,1/8", "-1/8,1/8", "1/8", "a,b", "1/0,1", "", ","])
_CODE_FILES = {"ok.txt": "2 3 2\n000\n111\n", "long.txt": "2 4 3\n0000\n0111\n1011\n",
               "short.txt": "2 3 2\n000\n", "twin.txt": "2 3 2\n000\n000\n",
               "single.txt": "2 3 1\n000\n", "empty.txt": "", "header.txt": "x y z\n"}
_OPTIONS = {
    "bounds": [("--q", _ALPHABET), ("--grid", _NUMBER), ("--curves", _CURVE)],
    "enumerate": [("--q", _ALPHABET), ("--nmax", _NUMBER),
                  ("--strategy", _tokens(["exhaustive-linear", "seeded-family", "greedy", "random"],
                                         ["bogus", ","]))],
    "sample": [("--n", _NUMBER), ("--m", _NUMBER), ("--q", _ALPHABET), ("--trials", _NUMBER)],
    "oracle": [("--n", _NUMBER), ("--m", _NUMBER), ("--q", _ALPHABET), ("--d", _NUMBER),
               ("--linear", st.none())],
    "spoil": [("--input", st.sampled_from([*_CODE_FILES, "missing.txt"])),
              ("--op", _tokens(["lengthen", "puncture", "shorten"], ["x"])), ("--count", _NUMBER)],
    "realize": [("--target", _TARGET), ("--q", _ALPHABET), ("--count", _NUMBER)],
    "strip": [("--q", _ALPHABET), ("--curve", _CURVE), ("--N", _NUMBER)],
    "approx": [("--q", _ALPHABET), ("--curve", _CURVE), ("--N", _NUMBER), ("--lenient", st.none())],
    "bogus": [],
}
#: options each command needs (listed first in _OPTIONS); always drawn
_REQUIRED = {"sample": 2, "oracle": 2, "spoil": 2, "realize": 1}
_COMMON = [("--precision", _NUMBER), ("--seed", _NUMBER), ("--max-millis", _NUMBER),
           ("--svg", st.none())]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for index, (flag, values) in enumerate(_OPTIONS[command] + _COMMON):
        if index < _REQUIRED.get(command, 0) or draw(st.booleans()):
            value = draw(values)
            argv += [flag] if value is None else [flag, value]
    # tiny node budgets keep every search short
    return argv + ["--max-nodes", draw(st.sampled_from(["1", "10", "100"]))]


@given(_argv())
@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_argv_exits_within_the_contract(tmp_path_factory, argv):
    work = tmp_path_factory.mktemp("argv")
    for name, text in _CODE_FILES.items():
        (work / name).write_text(text)
    argv = [str(work / a) if a in _CODE_FILES or a == "missing.txt" else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", str(work / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BUDGET, EXIT_INTERNAL), (argv, code)
    assert "Traceback" not in err.getvalue()


# SHA-256 of the grid outputs at large N as written by the per-row sweep that
# decided every square with its own Fraction compares; the threshold sweep
# has to reproduce these bytes
GRID_SHA256 = {
    ("strip", "--curve", "synthetic:diag", "--N", "1024"): {
        "strip.json": "29599c4c0461b7aaceb6343123e91560def78e0d0370cc361c155d8d5bf8224e"},
    ("strip", "--curve", "vg", "--q", "2", "--N", "1024"): {
        "strip.json": "2ec990fd7fe5b4dc674dc1a91dd913f203a11f87853d82bef42961080c98b672"},
    ("approx", "--curve", "vg", "--N", "256"): {
        "approx.json": "a2b79af215bf059a88f8b90df01c38dcd23e83462afd34cbba27cd15b9336458",
        "approx.csv": "99cfed8432f6031036bbff9c2346acc63d0f720533591088ee2962c32ce5155b"},
    # the figures, recorded before the staircases and cells were written from integer indices
    ("strip", "--curve", "vg", "--q", "2", "--N", "64", "--svg"): {
        "strip.svg": "5ebd03c49988ba0d95e45924ec0be8fa722cfdde7a187653522dc9bc6ab82d3b"},
    ("approx", "--curve", "vg", "--q", "2", "--N", "64", "--svg"): {
        "approx.svg": "9ec28ca71384f2236bd4ae705aa7e087c22638699c5693f1bf107749c5342609"},
}


@pytest.mark.parametrize("argv", sorted(GRID_SHA256))
def test_large_grid_bytes_are_pinned(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # the manifest echoes the output directory
    assert main([*argv, "--out", "."]) == EXIT_OK
    for name, digest in GRID_SHA256[argv].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# SHA-256 of the other commands' JSON artefacts, recorded when every JSON
# file was written by json.dumps(..., indent=1); the spoil input is _SPOIL_INPUT
JSON_SHA256 = {
    ("oracle", "--q", "2", "--n", "7", "--m", "16", "--d", "3"): {
        "oracle.json": "58fd1ad8961479f91373c68d152e18b6d6e4c1fd0ccdcaaf68b42ae7011d1d12"},
    ("oracle", "--q", "2", "--n", "7", "--m", "16", "--linear"): {
        "oracle.json": "78c24764b578cc94372c385958142be5acb351369b6153c68d09ad16c3068dd7"},
    ("sample", "--q", "2", "--n", "12", "--m", "16", "--trials", "3", "--seed", "123"): {
        "sample_summary.json": "b8f1baa82e53d5fb7168be875117363a7ac819ccf9e99d2b3da5099b95415f72"},
    ("spoil", "--input", "in.code.txt", "--op", "puncture", "--count", "1"): {
        "spoil_trace.json": "b60d72161beb16297adf41d6651b3387ecc20b74a25f57016907d66d00bdc5bb"},
    ("realize", "--q", "2", "--target", "1/8,1/8", "--count", "2"): {
        "realize_summary.json": "35aa7210f7a448fd29898fd9fee058e2ea87e6a62da73d823dcd4a33190a0277",
        "realize_a1.trace.json": "dc6100b71e84eb42f73c1bf9ec65dd9395b00f36edf5c271e034ee87e196fdab"},
}
_SPOIL_INPUT = "2 4 3\n0000\n0111\n1011\n"


def _run_pinned(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # the manifest echoes the output directory
    (tmp_path / "in.code.txt").write_text(_SPOIL_INPUT)
    assert main([*argv, "--out", "."]) == EXIT_OK


@pytest.mark.parametrize("argv", sorted(JSON_SHA256))
def test_json_bytes_are_pinned(tmp_path, monkeypatch, argv):
    _run_pinned(tmp_path, monkeypatch, argv)
    for name, digest in JSON_SHA256[argv].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _dumps(obj, default=None):
    return json.dumps(obj, sort_keys=True, indent=1, default=default) + "\n"


def _squares(runs):
    """The [i, j] lists that the JSON text writes for square runs."""
    return [list(p) for p in runs]


@pytest.mark.parametrize("argv", [
    *sorted(JSON_SHA256),
    ("strip", "--curve", "vg", "--q", "2", "--N", "8", "--svg"),
    ("strip", "--curve", "synthetic:0,1;1/2,1/3;1,0", "--q", "3", "--N", "16"),
    ("strip", "--curve", "vg", "--q", "2", "--N", "80"),
    ("approx", "--curve", "vg", "--q", "2", "--N", "32"),
    ("approx", "--curve", "hamming", "--q", "3", "--N", "32"),
    ("approx", "--curve", "synthetic:0,1/2;1,1/2", "--N", "4", "--lenient"),
])
def test_json_writer_matches_json_dumps_on_every_payload(tmp_path, monkeypatch, argv):
    payloads = []
    write = cli._json_text

    def spy(manifest, payload):
        payloads.append({"manifest": manifest, **payload})
        return write(manifest, payload)

    monkeypatch.setattr(cli, "_json_text", spy)
    _run_pinned(tmp_path, monkeypatch, argv)
    assert payloads
    for obj in payloads:
        assert write(obj["manifest"], obj) == _dumps(obj, default=_squares)


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e22]),
    st.text(), st.sampled_from(["", "\x00\x1f\n\t\"\\", "caf\u00e9 \u2603 \U0001f600", "\ud800"]),
    st.lists(st.integers(), min_size=2, max_size=2),
    st.tuples(st.integers(), st.booleans()).map(list),
    st.lists(st.integers(), max_size=1),
    st.lists(st.text(max_size=3), min_size=2, max_size=2),
    st.tuples(st.text(max_size=3), st.integers()).map(list),
    st.lists(st.text(max_size=3), max_size=1),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), max_size=5),
        st.lists(st.lists(st.sampled_from(["0", "1/2", "\u00e9\n"]), min_size=2, max_size=2), max_size=5),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
        st.dictionaries(st.integers(), inner, max_size=2),
        st.lists(inner, max_size=3).map(tuple),
    ),
    max_leaves=12,
)


@given(st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=4), _JSON_VALUES)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_json_writer_matches_json_dumps(payload, manifest):
    assert cli._json_text(manifest, payload) == _dumps({"manifest": manifest, **payload})


@st.composite
def _square_runs(draw):
    """Runs over rows up to 3, 12, 120 or 1200, some empty (lo = hi), sometimes all empty."""
    top, all_empty = draw(st.sampled_from([3, 12, 120, 1200])), draw(st.booleans())
    columns = sorted(draw(st.sets(st.integers(0, 1200), max_size=5)))
    runs = []
    for i in columns:
        lo = draw(st.integers(0, top))
        runs.append((i, lo, lo if all_empty else lo + draw(st.integers(0, 3))))
    return SquareRuns(tuple(runs))


@given(_square_runs(), st.lists(st.sampled_from([dict, list]), max_size=2), _square_runs())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_json_writer_writes_square_runs_as_their_square_lists(runs, wrappers, sibling):
    # the runs sit at indent depth 1 to 3, beside other runs
    value = runs
    for wrapper in wrappers:
        value = {"runs": value, "sibling": sibling, "n": 3} if wrapper is dict else [sibling, value, [1, 2]]
    payload = {"grid": value}
    assert cli._json_text({}, payload) == _dumps({"manifest": {}, **payload}, default=_squares)


def test_approx_allocation_stays_below_the_square_lists(tmp_path):
    # the square lists go to text from their column runs; one [i, j] list and
    # one text per square at N = 512 peak near 60 MB
    tracemalloc.start()
    try:
        assert run(tmp_path, "approx", "--curve", "vg", "--q", "2", "--N", "512") == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak


def test_approx_refuses_an_n_above_the_cap_at_once(tmp_path, capsys):
    start = time.monotonic()
    assert run(tmp_path, "approx", "--curve", "vg", "--N", str(APPROX_MAX_N + 1)) == EXIT_CONFIG
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert f"<= {APPROX_MAX_N}" in err and "Traceback" not in err
    assert not (tmp_path / "approx.json").exists()


@pytest.mark.parametrize("argv, output", [
    (("sample", "--q", "2", "--n", "40", "--m", "65536", "--trials", "1"), "sample.csv"),
    (("enumerate", "--q", "2", "--nmax", "22", "--strategy", "greedy"), "cloud.csv"),
])
def test_max_millis_stops_distance_blocks_and_greedy_scans(tmp_path, capsys, argv, output):
    # each runs for seconds when uncut: 2^31 word pairs in min_pairwise, and
    # greedy scans of up to 2,000,000 words (the node cap) per distance
    start = time.monotonic()
    assert run(tmp_path, *argv, "--max-millis", "300") == EXIT_BUDGET
    assert time.monotonic() - start < 2.0
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / output).exists()


def test_sample_measures_each_trial_once(tmp_path, monkeypatch):
    from codeplane import kernels, search

    calls = []
    original = kernels.min_pairwise

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    # codes looks kernels.min_pairwise up at each call; search holds its own binding
    monkeypatch.setattr(kernels, "min_pairwise", counted)
    monkeypatch.setattr(search, "min_pairwise", counted)
    assert run(tmp_path, "sample", "--n", "12", "--m", "40", "--trials", "4") == EXIT_OK
    assert calls == [40] * 4


_NUMPY_FREE = """
import sys
from codeplane.cli import main

for argv in (["bounds", "--q", "2", "--grid", "4"], ["strip", "--curve", "vg", "--N", "8"],
             ["approx", "--curve", "vg", "--N", "8"]):
    assert main(argv + ["--out", sys.argv[1]]) == 0, argv
assert main(["--help"]) == 0
loaded = [name for name in ("numpy", "codeplane.search") if name in sys.modules]
assert not loaded, loaded

import codeplane
from codeplane import Code

assert Code is codeplane.codes.Code
for name in codeplane.__all__:
    getattr(codeplane, name)
try:
    codeplane.nope
except AttributeError:
    pass
else:
    raise AssertionError("codeplane.nope resolved")
"""


def test_curve_commands_and_help_load_no_numpy(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _NUMPY_FREE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "bounds.csv").exists() and (tmp_path / "approx.json").exists()
