import contextlib
import hashlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from codeplane.cli import BUDGET_ENV, EXIT_BUDGET, EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK, main
from codeplane.codes import read_code_text, params


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


def test_budget_env_var_sets_default(tmp_path, monkeypatch):
    monkeypatch.setenv("CODEPLANE_MAX_NODES", "777")
    assert run(tmp_path, "strip", "--curve", "synthetic:diag", "--N", "2") == EXIT_OK
    payload = json.loads((tmp_path / "strip.json").read_text())
    assert payload["manifest"]["config"]["max_nodes"] == 777


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


@pytest.mark.parametrize("argv, env", [
    (("realize", "--target", "1/8"), {}),
    (("realize", "--target", "a,b"), {}),
    (("strip", "--curve", "synthetic:1/2"), {}),
    (("approx", "--curve", "synthetic:a,b;1,0"), {}),
    (("spoil", "--input", "/nonexistent/code.txt", "--op", "lengthen"), {}),
    (("strip",), {"CODEPLANE_MAX_NODES": "abc"}),
    (("strip", "--N", "0"), {}),
    (("approx", "--N", "0"), {}),
    (("sample", "--q", "257", "--n", "2", "--m", "2", "--trials", "1"), {}),
    (("enumerate", "--q", "300", "--nmax", "2", "--strategy", "greedy"), {}),
    (("oracle", "--q", "300", "--n", "2", "--m", "3"), {}),
    (("realize", "--q", "300", "--target", "1/8,1/8"), {}),
    (("bounds", "--precision", "-5"), {}),
    (("bounds", "--precision", "0"), {}),
    (("sample", "--n", "4", "--m", "3", "--trials", "0"), {}),
    (("spoil", "--input", "in.txt", "--op", "puncture", "--count", "-1"), {}),
    (("spoil", "--input", "in.txt", "--op", "puncture", "--count", "0"), {}),
    (("oracle", "--n", "-1", "--m", "1"), {}),
    (("bounds", "--curves", "vg,nope"), {}),
])
def test_bad_input_is_config_error_without_traceback(tmp_path, monkeypatch, capsys, argv, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    (tmp_path / "in.txt").write_text("2 3 2\n000\n111\n")
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, *argv) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


# SHA-256 of bounds.csv as written by the repeated-squaring enclosure; any
# rewrite of the logarithm enclosures has to reproduce these bytes
BOUNDS_CSV_SHA256 = {
    (3, 64): "b756d01b27fd5a9c414f62a039bd053bbfe594efdef5d06d8176a89f12c42bbd",
    (3, 512): "d0f2bfafce7dc731aac6870ea4ecc8bb871c654ab3382c97879dececec5b86bc",
    (5, 64): "f7415c82a47617583867f01cd1c6921d0c0d605f4c483b9ecaf8e4c4af8675dc",
    (5, 512): "7418552ae727439cc5c9d24b1c414158ecf8293b31cfdabde833e680cf7ec188",
    (16, 64): "48a980b901cb384a9b021330b3412fff22243f2151bd4eb2fe6de6ea8ba8fefc",
    (16, 512): "ffed542ab81e9baf524949dfa5d7b706fe57c8988470d120ebdc21ff85b4f05d",
}


@pytest.mark.parametrize("q, precision", sorted(BOUNDS_CSV_SHA256))
def test_bounds_csv_bytes_are_pinned(tmp_path, monkeypatch, q, precision):
    monkeypatch.delenv(BUDGET_ENV, raising=False)  # the manifest echoes the node budget
    monkeypatch.chdir(tmp_path)  # and the output directory
    assert main(["bounds", "--q", str(q), "--curves", "vg,gv_lower,hamming", "--grid", "9",
                 "--precision", str(precision), "--out", "."]) == EXIT_OK
    digest = hashlib.sha256((tmp_path / "bounds.csv").read_bytes()).hexdigest()
    assert digest == BOUNDS_CSV_SHA256[(q, precision)]


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
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
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
